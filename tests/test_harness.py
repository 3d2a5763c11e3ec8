import inspect
import math
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from signopt import (ConfigError, RunTable, harness, learners, load_config, run_experiment,
                     slope_report)
from signopt import ExactSign, GaussianNoise, LearnerConfig, OptimizerConfig
from signopt import (Box, DirectBernoulli, Interval, Quadratic, Ridge, SeparablePower,
                     TncProblem, UniformNoise, box_from_bounds)
from signopt.harness import (_KNOWN_KEYS, ExperimentConfig, OracleSpec, Row, cell_seed,
                             parse_config_text, run_cell)
from signopt import LabelOracle, SignOracle, make_tnc_problem, rssgd, run_learner, seeded_rng
from signopt.learners import AUTO_PROBES, DRAWING_LEARNERS, LEARNERS
from signopt.oracles import ROLE_LABELS, ROLE_SAMPLING, SIGN_MODES

THRESHOLD_CFG = """
# adaptive learner on a quadratic-margin problem
kind = learn-threshold
id = demo
problem.lo = 0.0
problem.hi = 1.0
problem.t = 0.37
problem.k = 2.0
problem.mu = 1.0
problem.cap = 0.4
learner.name = adaptive
learner.c_delta = 2.0
sweep.budgets = 64, 128
sweep.replications = 2
sweep.base_seed = 5
"""

GAUSSIAN_LINES = "additive-gaussian\noracle.sigma = 1.0"
OPTIMIZE_CFG = """
kind = optimize
id = opt-demo
problem.family = quadratic
problem.dim = 2
problem.a_diag = 1.0, 2.0
problem.x_star = 0.3, -0.2
problem.box_lo = -1.0
problem.box_hi = 1.0
oracle.mode = additive-gaussian
oracle.sigma = 1.0
optimizer.line_search = adaptive
learner.c_delta = 3.0
sweep.budgets = 256, 512
sweep.replications = 2
sweep.base_seed = 9
budget = 512
"""


SEPARABLE_CFG = OPTIMIZE_CFG.replace(
    "problem.family = quadratic", "problem.family = separable-power").replace(
    "problem.a_diag =", "problem.coeffs =")


def _load(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return load_config(path)


# ---------------------------------------------------------------------------
# config parsing

def test_parse_flat_keys_and_comments():
    raw = parse_config_text("a.b = 1  # trailing\n\n# full comment\nc = x\n")
    assert raw == {"a.b": "1", "c": "x"}


def test_parse_rejects_duplicates_and_garbage():
    with pytest.raises(ConfigError):
        parse_config_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError):
        parse_config_text("just some words\n")


def test_load_threshold_config(tmp_path):
    config = _load(tmp_path, THRESHOLD_CFG)
    assert config.kind == "learn-threshold"
    assert config.experiment_id == "demo"
    assert config.budgets == [64, 128]
    assert config.problem.threshold == 0.37
    assert config.learner == LearnerConfig("adaptive") and config.optimizer is None


def test_load_optimize_config(tmp_path):
    config = _load(tmp_path, OPTIMIZE_CFG)
    assert config.kind == "optimize"
    assert config.problem.dim == 2
    assert config.single_budget == 512
    assert config.oracle.mode == GaussianNoise(sigma=1.0)
    assert config.optimizer.line_search == LearnerConfig("adaptive", c_delta=3.0)
    assert config.optimizer.x0 == "center" and config.learner is None
    # an omitted mode parameter takes the mode's own default
    no_sigma = _load(tmp_path, OPTIMIZE_CFG.replace("oracle.sigma = 1.0\n", ""))
    assert no_sigma.oracle.mode == GaussianNoise()


SHIPPED_CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.cfg"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_shipped_configs_load(path):
    config = load_config(path)
    assert config.budgets and config.single_budget is not None


def test_unknown_key_is_an_error(tmp_path):
    with pytest.raises(ConfigError, match="problem.tt"):
        _load(tmp_path, THRESHOLD_CFG.replace("problem.t =", "problem.tt ="))
    # a parameter of another sign mode than the chosen one
    with pytest.raises(ConfigError, match="oracle.halfwidth"):
        _load(tmp_path, OPTIMIZE_CFG + "oracle.halfwidth = 5.0\n")
    # every stream of a cell is keyed by sweep.base_seed; there is no override
    with pytest.raises(ConfigError, match="^oracle.seed: unknown key$"):
        _load(tmp_path, THRESHOLD_CFG + "oracle.seed = 3\n")


@pytest.mark.parametrize("experiment_id", ["", ".", "..", "sub/x", "/x", "sub\\x"])
def test_an_id_that_cannot_name_the_table_file_is_an_error(tmp_path, experiment_id):
    text = THRESHOLD_CFG.replace("id = demo", f"id = {experiment_id}")
    with pytest.raises(ConfigError, match="^id: cannot name a table file, got "):
        _load(tmp_path, text)


def test_keys_the_kind_never_reads_are_errors(tmp_path):
    # a threshold cell builds a label oracle and no optimizer
    for line, key in (("oracle.mode = additive-gaussian", "oracle.mode"),
                      ("oracle.mode = additive-gaussian\noracle.sigma = 50",
                       "oracle.mode"),
                      ("optimizer.line_search = bisect", "optimizer.line_search"),
                      ("optimizer.x0 = 0.5", "optimizer.x0"),
                      ("problem.family = quadratic", "problem.family"),
                      ("problem.box_lo = -1.0", "problem.box_lo")):
        with pytest.raises(ConfigError, match=f"{key}: not read by kind = learn-threshold"):
            _load(tmp_path, THRESHOLD_CFG + line + "\n")
    # an optimize cell names its learner in optimizer.line_search
    for line, key in (("learner.name = bz", "learner.name"),
                      ("problem.t = 0.5", "problem.t"),
                      ("problem.mu = 1.0", "problem.mu"),
                      ("problem.orientation = positive-left", "problem.orientation")):
        with pytest.raises(ConfigError, match=f"{key}: not read by kind = optimize"):
            _load(tmp_path, OPTIMIZE_CFG + line + "\n")
    # problem.k is the exponent of separable-power functions
    assert _load(tmp_path, SEPARABLE_CFG + "problem.k = 3.0\n").problem.uc_exponent == 3.0
    # rssgd runs every line search positive-right
    with pytest.raises(ConfigError,
                       match="learner.orientation: not read by kind = optimize configs"):
        _load(tmp_path, OPTIMIZE_CFG + "learner.orientation = auto\n")


RIDGE_CFG = """
kind = optimize
problem.family = ridge
problem.matrix_file = design.txt
problem.box_lo = -2.0
problem.box_hi = 2.0
optimizer.line_search = bisect
optimizer.epoch_rule = 20
sweep.budgets = 400
"""


def test_keys_the_family_or_learner_never_reads_are_errors(tmp_path):
    (tmp_path / "design.txt").write_text(
        "3 2\n1.0 0.0\n0.0 1.0\n1.0 1.0\n0.5 -0.5 0.25\n")
    for base, line, key, reader in (
            (OPTIMIZE_CFG, "problem.coeffs = 9.0", "problem.coeffs",
             "problem.family = quadratic"),
            (OPTIMIZE_CFG, "problem.k = 5.0", "problem.k", "problem.family = quadratic"),
            (RIDGE_CFG, "problem.a_diag = 1.0", "problem.a_diag", "problem.family = ridge"),
            (RIDGE_CFG, "problem.k = 2.0", "problem.k", "problem.family = ridge"),
            (OPTIMIZE_CFG, "problem.matrix_file = design.txt", "problem.matrix_file",
             "problem.family = quadratic"),
            (RIDGE_CFG, "problem.dim = 2", "problem.dim", "problem.family = ridge"),
            (RIDGE_CFG, "problem.x_star = 0.0", "problem.x_star", "problem.family = ridge"),
            (RIDGE_CFG, "learner.c_delta = 9.0", "learner.c_delta",
             "optimizer.line_search = bisect"),
            (RIDGE_CFG, "learner.grid_size = 7", "learner.grid_size",
             "optimizer.line_search = bisect"),
            (OPTIMIZE_CFG, "learner.bz_k = 2.0", "learner.bz_k",
             "optimizer.line_search = adaptive"),
            (THRESHOLD_CFG, "learner.bz_mu = 1.0", "learner.bz_mu",
             "learner.name = adaptive"),
            (THRESHOLD_CFG.replace("learner.name = adaptive", "learner.name = bz"),
             "learner.bz_k = 2.0\nlearner.bz_mu = 1.0", "learner.c_delta",
             "learner.name = bz"),
            (OPTIMIZE_CFG.replace(GAUSSIAN_LINES, "exact"), "oracle.decimals = 3",
             "oracle.decimals", "oracle.mode = exact")):
        with pytest.raises(ConfigError, match=f"^{key}: not read by {reader}$"):
            _load(tmp_path, base + line + "\n")
    # the keys each family or learner does read
    assert _load(tmp_path, RIDGE_CFG).problem.box.hi.tolist() == [2.0, 2.0]
    bz = _load(tmp_path, OPTIMIZE_CFG.replace("= adaptive", "= bz").replace(
        "learner.c_delta = 3.0",
        "learner.grid_size = 7\nlearner.bz_k = 2.0\nlearner.bz_mu = 1.0"))
    assert bz.optimizer.line_search.grid_size == 7


def test_each_family_requires_its_box_and_matrix_keys(tmp_path):
    (tmp_path / "design.txt").write_text(
        "3 2\n1.0 0.0\n0.0 1.0\n1.0 1.0\n0.5 -0.5 0.25\n")
    for text, message in (
            (RIDGE_CFG.replace("problem.box_lo = -2.0\n", ""),
             "problem.box_lo: required key is missing"),
            (RIDGE_CFG.replace("problem.box_hi = 2.0\n", ""),
             "problem.box_hi: required key is missing"),
            (OPTIMIZE_CFG.replace("problem.a_diag = 1.0, 2.0\n", ""),
             "problem.a_diag: required key is missing"),
            # a quadratic's matrix is its diagonal; a full matrix is the library's
            (OPTIMIZE_CFG.replace("problem.a_diag = 1.0, 2.0", "problem.a = 1 0; 0 2"),
             "problem.a: unknown key"),
            (OPTIMIZE_CFG + "problem.a = 1 0; 0 2\n", "problem.a: unknown key")):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            _load(tmp_path, text)


def _quantized(decimals):
    return OPTIMIZE_CFG.replace(GAUSSIAN_LINES, f"quantized\noracle.decimals = {decimals}")


def test_quantized_is_a_spelling_of_exact(tmp_path):
    # rounding |g| never flips a nonzero sign, and a magnitude that rounds to
    # zero keeps the true sign, so oracle.mode = quantized loads the exact sign
    quantized = _load(tmp_path, _quantized(2))
    exact = _load(tmp_path, OPTIMIZE_CFG.replace(GAUSSIAN_LINES, "exact"))
    assert type(quantized.oracle.mode) is ExactSign
    assert run_experiment(quantized).csv_text(include_timing=False) == \
        run_experiment(exact).csv_text(include_timing=False)
    assert _load(tmp_path, _quantized(0)).oracle.mode == ExactSign()
    for decimals in (400, -1):
        with pytest.raises(ConfigError, match="^oracle.decimals: must lie in"):
            _load(tmp_path, _quantized(decimals))


def _spec(config: ExperimentConfig) -> dict:
    """A loaded config's fields as comparable values, its problem pickled."""
    return {f.name: pickle.dumps(config.problem) if f.name == "problem"
            else getattr(config, f.name) for f in fields(config)}


def test_readme_names_exactly_the_config_keys(tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("### Config keys", 1)[1].split("```")[1]
    lines = [line.split("#", 1)[0] for line in block.splitlines()]
    named = {key.strip() for line in lines
             for key in line.split("=", 1)[0].replace("|", ",").split(",")}
    assert named - {""} == _KNOWN_KEYS
    # `key = value` with one value states the default of an optional key:
    # setting it changes nothing in a config of required keys that reads it
    stated = dict(line.replace(" ", "").split("=") for line in lines
                  if "=" in line and not {"|", "<"} & set(line))
    assert set(stated) == {
        "slope.column", "problem.orientation", "problem.k", "oracle.mode",
        "oracle.sigma", "oracle.halfwidth", "oracle.slope", "oracle.cap", "learner.name",
        "learner.c_delta", "learner.orientation", "learner.grid_size",
        "optimizer.epoch_rule", "optimizer.line_search", "optimizer.x0",
        "sweep.replications", "sweep.base_seed"}
    threshold = ("kind = learn-threshold\nproblem.lo = 0\nproblem.hi = 1\nproblem.t = 0.3\n"
                 "problem.k = 2\nproblem.mu = 1\nproblem.cap = 0.4\n")
    optimize = ("kind = optimize\nproblem.family = separable-power\nproblem.dim = 2\n"
                "problem.x_star = 0.1\nproblem.coeffs = 1\nproblem.box_lo = -1\n"
                "problem.box_hi = 1\n")
    bases = [threshold, threshold + "learner.name = bz\nlearner.bz_k = 2\nlearner.bz_mu = 1\n",
             optimize, *(optimize + f"oracle.mode = {mode.name}\n" for mode in SIGN_MODES)]
    for key, value in stated.items():
        read_by = 0
        for base in bases:
            try:  # a base that sets the key, or never reads it, refuses it
                config = _load(tmp_path, base + f"{key} = {value}\n")
            except ConfigError:
                continue
            assert _spec(config) == _spec(_load(tmp_path, base)), key
            read_by += 1
        assert read_by, key
    assert f"(up to {AUTO_PROBES} queries)" in " ".join(block.split())


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    code = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```")[0]
    names: dict = {}
    exec(compile(code, "README.md", "exec"), names)
    assert len(capsys.readouterr().out.splitlines()) == 2 + 4  # and a line per quarter
    so, est, x = names["so"], names["est"], names["x"]
    assert names["line"].x.tobytes() == x.tobytes()  # rssgd's run, drained from descent
    assert math.isfinite(est) and math.isfinite(so.excess_risk(names["problem"], est))
    assert np.isfinite(x).all() and math.isfinite(so.error_record(names["fn"], x).f_error)
    for oracle in (names["oracle"], names["signs"]):
        assert 0 < oracle.queries_used <= oracle.budget


def test_budgets_must_increase(tmp_path):
    with pytest.raises(ConfigError, match="budgets"):
        _load(tmp_path, THRESHOLD_CFG.replace("64, 128", "128, 64"))


def test_bad_number_names_the_key(tmp_path):
    with pytest.raises(ConfigError, match="problem.mu"):
        _load(tmp_path, THRESHOLD_CFG.replace("problem.mu = 1.0",
                                              "problem.mu = one"))
    # out-of-range values are errors, never read as "unset"
    for line, key in (("budget = 0", "budget"),
                      ("learner.bz_k = 0", "learner.bz_k"),
                      ("learner.bz_mu = 0", "learner.bz_mu"),
                      # and so are values beyond the numeric envelope
                      ("learner.bz_k = 9", "learner.bz_k"),
                      ("learner.bz_mu = inf", "learner.bz_mu"),
                      ("oracle.mode = additive-gaussian\noracle.sigma = 0",
                       "oracle.sigma"),
                      ("oracle.mode = additive-gaussian\noracle.sigma = inf",
                       "oracle.sigma"),
                      ("oracle.mode = additive-uniform\noracle.halfwidth = nan",
                       "oracle.halfwidth"),
                      ("oracle.mode = additive-uniform\noracle.halfwidth = 1e308",
                       "oracle.halfwidth"),
                      ("slope.column = f_eror", "slope.column"),
                      ("optimizer.epoch_rule = 0", "optimizer.epoch_rule"),
                      ("oracle.budget = -5", "oracle.budget")):
        with pytest.raises(ConfigError, match=key):
            _load(tmp_path, THRESHOLD_CFG + line + "\n")
    # values that would otherwise fail every cell, or crash the loader
    for text, key in ((OPTIMIZE_CFG.replace("base_seed = 9", "base_seed = -1"),
                       "sweep.base_seed"),
                      (OPTIMIZE_CFG.replace("dim = 2", "dim = 0"), "problem.dim"),
                      (OPTIMIZE_CFG + "optimizer.x0 = 0.5\n", "optimizer.x0"),
                      (OPTIMIZE_CFG + "optimizer.x0 = 0.5, 3.0\n", "optimizer.x0"),
                      (OPTIMIZE_CFG.replace("x_star = 0.3, -0.2", "x_star = 5"),
                       "problem.x_star"),
                      (OPTIMIZE_CFG.replace("a_diag = 1.0, 2.0", "a_diag = 1.0, -1"),
                       "problem.a_diag"),
                      (OPTIMIZE_CFG.replace("x_star = 0.3, -0.2", "x_star = 0.3, -0.2, 0"),
                       "problem.x_star"),
                      (OPTIMIZE_CFG.replace("a_diag = 1.0, 2.0", "a_diag = 1.0, 2.0, 3.0"),
                       "problem.a_diag"),
                      (SEPARABLE_CFG.replace("coeffs = 1.0, 2.0", "coeffs = -1"),
                       "problem.coeffs"),
                      (SEPARABLE_CFG.replace("coeffs = 1.0, 2.0", "coeffs = inf"),
                       "problem.coeffs"),
                      (OPTIMIZE_CFG.replace("a_diag = 1.0, 2.0", "a_diag = 1.0, 2e19"),
                       "problem.a_diag"),
                      (SEPARABLE_CFG.replace("coeffs = 1.0, 2.0", "coeffs = 1.0, 2.0, 3.0"),
                       "problem.coeffs"),
                      (SEPARABLE_CFG + "problem.k = 9\n", "problem.k"),
                      # a bz learner without its noise parameters, in both kinds
                      (THRESHOLD_CFG.replace("adaptive\nlearner.c_delta = 2.0",
                                             "bz\nlearner.bz_mu = 1.0"), "learner.bz_k"),
                      (OPTIMIZE_CFG.replace("adaptive\nlearner.c_delta = 3.0",
                                            "bz\nlearner.bz_k = 2.0"), "learner.bz_mu"),
                      (OPTIMIZE_CFG.replace("additive-gaussian\noracle.sigma = 1.0",
                                            "quantized\noracle.decimals = 400"),
                       "oracle.decimals"),
                      # each field of a threshold problem, and each bound of a box
                      (THRESHOLD_CFG.replace("t = 0.37", "t = 1.37"), "problem.t"),
                      (THRESHOLD_CFG.replace("k = 2.0", "k = 9"), "problem.k"),
                      (THRESHOLD_CFG.replace("mu = 1.0", "mu = -1"), "problem.mu"),
                      (THRESHOLD_CFG.replace("mu = 1.0", "mu = inf"), "problem.mu"),
                      (THRESHOLD_CFG.replace("mu = 1.0", "mu = 1e308"), "problem.mu"),
                      (THRESHOLD_CFG.replace("cap = 0.4", "cap = 0.6"), "problem.cap"),
                      (THRESHOLD_CFG.replace("hi = 1.0", "hi = 0.0"), "problem.hi"),
                      (THRESHOLD_CFG.replace("hi = 1.0", "hi = nan"), "problem.hi"),
                      (THRESHOLD_CFG.replace("lo = 0.0", "lo = -inf"), "problem.lo"),
                      # finite, but beyond 2**64 for an interval and 2**62 for a box
                      (THRESHOLD_CFG.replace("lo = 0.0", "lo = -1e308"), "problem.lo"),
                      (THRESHOLD_CFG.replace("hi = 1.0", "hi = 2e19"), "problem.hi"),
                      (OPTIMIZE_CFG.replace("box_lo = -1.0", "box_lo = -5e18"),
                       "problem.box_lo"),
                      (OPTIMIZE_CFG.replace("box_hi = 1.0", "box_hi = 1, 5e18"),
                       "problem.box_hi"),
                      (THRESHOLD_CFG + "problem.orientation = up\n", "problem.orientation"),
                      (OPTIMIZE_CFG.replace("box_lo = -1.0", "box_lo = -1, 0, 1"),
                       "problem.box_lo"),
                      (OPTIMIZE_CFG.replace("box_lo = -1.0", "box_lo = nan"),
                       "problem.box_lo"),
                      (OPTIMIZE_CFG.replace("box_hi = 1.0", "box_hi = 1, inf"),
                       "problem.box_hi"),
                      (OPTIMIZE_CFG.replace("box_hi = 1.0", "box_hi = 1, -2"),
                       "problem.box_hi")):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            _load(tmp_path, text)
    with pytest.raises(ConfigError, match="^problem.box_lo: expected 1 or 2 values, got 3$"):
        _load(tmp_path, OPTIMIZE_CFG.replace("box_lo = -1.0", "box_lo = -1, 0, 1"))
    # a ridge box that excludes the minimizer names the bound on the far side
    (tmp_path / "design.txt").write_text("3 2\n1.0 0.0\n0.0 1.0\n1.0 1.0\n0.5 -0.5 0.25\n")
    ridge = ("kind = optimize\nproblem.family = ridge\nproblem.matrix_file = design.txt\n"
             "optimizer.line_search = bisect\n")
    for lo, hi, key in (("5.0", "6.0", "problem.box_lo"), ("-6.0", "-5.0", "problem.box_hi")):
        with pytest.raises(ConfigError, match=f"^{key}: the global minimizer must lie inside"):
            _load(tmp_path, ridge + f"problem.box_lo = {lo}\nproblem.box_hi = {hi}\n")
    # a design or target entry beyond +-2**16, NaN included, names the file
    for rows in ("1.0\nnan\n0.5 -0.5", "1.0\n70000\n0.5 -0.5", "1.0\n2.0\n0.5 -1e5"):
        (tmp_path / "design.txt").write_text(f"2 1\n{rows}\n")
        with pytest.raises(ConfigError, match="^problem.matrix_file: entries must lie within"):
            _load(tmp_path, ridge + "problem.box_lo = -1.0\nproblem.box_hi = 1.0\n")
    with pytest.raises(ConfigError, match="learner.c_delta"):
        _load(tmp_path, THRESHOLD_CFG.replace("learner.c_delta = 2.0",
                                              "learner.c_delta = 1.0"))


_UNIT, _SQUARE = Interval(0.0, 1.0), box_from_bounds(-1.0, 1.0, dim=2)
_SEGMENT = box_from_bounds(-1.0, 1.0, dim=1)


@pytest.mark.parametrize("build, args, field", [
    (Interval, (np.nan, 1.0), "lo"),
    (Interval, (0.0, np.inf), "hi"),
    (Interval, (1.0, 0.0), "hi"),
    (Box, ([0.0, -np.inf], [1.0, 1.0]), "lo"),
    (Box, ([0.0, 0.0], [1.0]), "hi"),
    (Box, ([0.0, 0.0], [1.0, -1.0]), "hi"),
    (TncProblem, (_UNIT, 1.5, 2.0, 1.0, 0.4), "threshold"),
    (TncProblem, (_UNIT, 0.5, 9.0, 1.0, 0.4), "exponent"),
    (TncProblem, (_UNIT, 0.5, 2.0, 0.0, 0.4), "mu"),
    (TncProblem, (_UNIT, 0.5, 2.0, 2.0 ** 64 * (1 + 2.0 ** -52), 0.4), "mu"),
    (TncProblem, (_UNIT, 0.5, 2.0, 1.0, 0.6), "cap"),
    (TncProblem, (_UNIT, 0.5, 2.0, 1.0, 0.4, "up"), "orientation"),
    (SeparablePower, ([1.0], [0.0, 0.0], _SQUARE), "coeffs"),
    (SeparablePower, ([1.0, np.nan], [0.0, 0.0], _SQUARE), "coeffs"),
    (SeparablePower, ([1.0, 2.0 ** 64 * (1 + 2.0 ** -52)], [0.0, 0.0], _SQUARE), "coeffs"),
    (SeparablePower, ([1.0, 1.0], [0.0, 2.0], _SQUARE), "x_star"),
    (SeparablePower, ([1.0, 1.0], [0.0, 0.0], _SQUARE, 1.5), "exponent"),
    (Quadratic, (np.eye(3), [0.0, 0.0], _SQUARE), "matrix"),
    (Quadratic, ([[1.0, 1.0], [0.0, 1.0]], [0.0, 0.0], _SQUARE), "matrix"),
    (Quadratic, (-np.eye(2), [0.0, 0.0], _SQUARE), "matrix"),
    (Quadratic, (np.diag([1.0, 2.0 ** 64 * (1 + 2.0 ** -52)]), [0.0, 0.0], _SQUARE), "matrix"),
    (Quadratic, ([[1.0, np.nan], [np.nan, 1.0]], [0.0, 0.0], _SQUARE), "matrix"),
    (Quadratic, (np.eye(2), [0.0], _SQUARE), "x_star"),
    (Quadratic, (np.eye(2), [0.0, 2.0], _SQUARE), "x_star"),
    (Ridge, ([1.0, 2.0], [1.0, 2.0], _SQUARE), "design"),
    (Ridge, ([[1.0], [np.nan]], [0.5, -0.5], _SEGMENT), "design"),
    (Ridge, ([[1.0], [-1e5]], [0.5, -0.5], _SEGMENT), "design"),
    (Ridge, ([[1.0], [1.0]], [0.5, np.inf], _SEGMENT), "targets"),
    (Ridge, (np.eye(2), [1.0, 2.0, 3.0], _SQUARE), "targets"),
    (Ridge, (np.eye(2), [1.0, 2.0], box_from_bounds(-1.0, 1.0, dim=3)), "box"),
    (LearnerConfig, ("foo",), "name"),
    (LearnerConfig, ("adaptive", -1), "budget"),
    (LearnerConfig, ("adaptive", 0, 1.0), "c_delta"),
    (LearnerConfig, ("bisect", 0, 2.0, "auto"), "orientation"),
    (LearnerConfig, ("bz", 0, 2.0, "positive-right", 1), "grid_size"),
    (LearnerConfig, ("bz", 0, 2.0, "positive-right", 8, 0.5), "bz_k"),
    (LearnerConfig, ("bz", 0, 2.0, "positive-right", 8, 8.0 + 2.0 ** -49), "bz_k"),
    (LearnerConfig, ("bz", 0, 2.0, "positive-right", 8, 2.0, 0.0), "bz_mu"),
    (LearnerConfig, ("bz", 0, 2.0, "positive-right", 8, 2.0, np.inf), "bz_mu"),
    (LearnerConfig, ("bz",), "bz_k"),
    (LearnerConfig, ("bz", 0, 2.0, "positive-right", 8, 2.0), "bz_mu"),
    (OptimizerConfig, (-1,), "budget"),
    (OptimizerConfig, (0, 0), "epoch_rule"),
    (OptimizerConfig, (0, "paper-default", LearnerConfig(), 0, "corner"), "x0"),
    (GaussianNoise, (0.0,), "sigma"),
    (GaussianNoise, (2.0 ** 64 * (1 + 2.0 ** -52),), "sigma"),
    (UniformNoise, (np.nan,), "halfwidth"),
    (UniformNoise, (1e308,), "halfwidth"),
    (DirectBernoulli, (0.0,), "slope"),
    (DirectBernoulli, (1.0, 0.6), "cap"),
])
def test_each_constructor_error_starts_with_its_parameter(build, args, field):
    # load_config maps a build error to its key by this leading field alone
    assert field in inspect.signature(build).parameters
    with pytest.raises(ValueError, match=f"^{field}: "):
        build(*args)


def test_invalid_problem_is_reported(tmp_path):
    with pytest.raises(ConfigError, match=r"^problem.t: 1.37 outside interval \[0.0, 1.0\]$"):
        _load(tmp_path, THRESHOLD_CFG.replace("problem.t = 0.37",
                                              "problem.t = 1.37"))


def test_ridge_config_via_matrix_file(tmp_path):
    (tmp_path / "design.txt").write_text(
        "3 2\n1.0 0.0\n0.0 1.0\n1.0 1.0\n0.5 -0.5 0.25\n")
    text = """
kind = optimize
id = ridge-demo
problem.family = ridge
problem.matrix_file = design.txt
problem.box_lo = -2.0
problem.box_hi = 2.0
oracle.mode = exact
optimizer.line_search = bisect
optimizer.epoch_rule = 20
sweep.budgets = 400
sweep.replications = 1
"""
    config = _load(tmp_path, text)
    assert config.problem.dim == 2
    fn = config.problem
    assert config.optimizer.x0 == "center"
    assert fn.value(fn.box.center) - fn.f_min > 0  # doing nothing is not optimal
    table = run_experiment(config)
    assert len(table.rows) == 1
    assert table.rows[0].error == ""
    assert table.rows[0].f_error <= 1e-6


# ---------------------------------------------------------------------------
# running sweeps

def _small_config(**overrides):
    problem = make_tnc_problem((0.0, 1.0), 0.37, 2.0, 1.0, 0.4)
    defaults = dict(problem=problem,
                    experiment_id="unit", learner=LearnerConfig(name="adaptive"),
                    budgets=[32, 64], replications=2, base_seed=1)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_a_spec_takes_its_kind_from_its_problem():
    assert _small_config().kind == "learn-threshold"
    assert _optimize_sweep().kind == "optimize"
    with pytest.raises(ConfigError, match="^problem: expected a TncProblem or a UcFunction, "
                                          "got Interval$"):
        _small_config(problem=Interval(0.0, 1.0))
    with pytest.raises(TypeError, match="kind"):
        _small_config(kind="optimize")


def test_a_spec_holds_only_the_method_its_kind_runs():
    optimizer = OptimizerConfig(line_search=LearnerConfig("bisect"))
    with pytest.raises(ConfigError, match="^learner: required by learn-threshold cells$"):
        _small_config(learner=None)
    with pytest.raises(ConfigError, match="^optimizer: not run by learn-threshold cells$"):
        _small_config(optimizer=optimizer)
    with pytest.raises(ConfigError, match="^optimizer: required by optimize cells$"):
        replace(_optimize_sweep(), optimizer=None)
    # the line search of an optimize cell is its optimizer's, never a learner's
    with pytest.raises(ConfigError, match="^learner: not run by optimize cells$"):
        replace(_optimize_sweep(), learner=LearnerConfig("bisect"))


def test_cell_count_and_ordering():
    table = run_experiment(_small_config())
    assert len(table.rows) == 4
    assert [(r.budget, r.replication) for r in table.rows] == \
        [(32, 0), (32, 1), (64, 0), (64, 1)]


def test_identical_configs_give_identical_tables():
    a = run_experiment(_small_config()).csv_text(include_timing=False)
    b = run_experiment(_small_config()).csv_text(include_timing=False)
    assert a == b


def test_parallel_equals_serial():
    serial = run_experiment(_small_config(), n_jobs=1)
    parallel = run_experiment(_small_config(), n_jobs=2)
    assert serial.csv_text(include_timing=False) == \
        parallel.csv_text(include_timing=False)


def _bz_sweep():
    return _small_config(learner=LearnerConfig(name="bz", grid_size="auto", bz_k=2.0,
                                               bz_mu=1.0, orientation="auto"),
                         budgets=[16, 40, 100, 300], replications=5,
                         oracle=OracleSpec(budget=200))


def _optimize_sweep():
    return ExperimentConfig(
        problem=_opt_problem(), experiment_id="blocks",
        oracle=OracleSpec(mode=GaussianNoise(sigma=1.0)),
        optimizer=OptimizerConfig(line_search=LearnerConfig("adaptive", c_delta=3.0),
                                  epoch_rule=8),
        budgets=[64, 200], replications=5, base_seed=4)


@pytest.mark.parametrize("make", [_bz_sweep, _optimize_sweep])
def test_any_blocking_gives_the_same_table(make):
    tables = [run_experiment(make(), n_jobs=jobs).csv_text(include_timing=False)
              for jobs in (1, 2, 3)]
    assert tables[0] == tables[1] == tables[2]
    # and each row is what its cell gives alone
    config = make()
    alone = RunTable([run_cell(config, budget, rep) for budget in config.budgets
                      for rep in range(config.replications)])
    assert alone.csv_text(include_timing=False) == tables[0]


def test_bz_block_rows_share_the_block_time():
    table = run_experiment(_bz_sweep())
    assert 1 <= table.n_errors < len(table.rows)  # the cap binds at budget 300
    assert all(row.wall_time_ms > 0.0 for row in table.rows)


def _counting(monkeypatch, module, name):
    """Route ``module.name`` through a wrapper that keeps each call's arguments."""
    calls, original = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_the_harness_optimizer_and_passive_erm_call_the_kernels_by_name(monkeypatch):
    # a tracer that wraps these module bindings sees every lockstep bz run and ERM scan
    block = _counting(monkeypatch, harness, "bz_learner")
    harness.run_block(_bz_sweep(), [(40, 0), (40, 1)])
    assert len(block) == 1
    oracles, _, configs = block[0]
    assert len(oracles) == len(configs) == 2

    searches = _counting(monkeypatch, learners, "bz_learner")
    fn = _opt_problem()
    rssgd(fn, SignOracle(fn, GaussianNoise(1.0), seeded_rng(2, 0, 0)),
          OptimizerConfig(budget=40, epoch_rule=1, line_search=LearnerConfig(
              "bz", grid_size=8, bz_k=2.0, bz_mu=1.0)))
    assert len(searches) == 1 and len(searches[0][0]) == 1

    cuts = _counting(monkeypatch, learners, "erm_cut")
    oracle = LabelOracle(make_tnc_problem((0.0, 1.0), 0.37, 2.0, 1.0, 0.4), seeded_rng(2, 1, 0))
    learners.passive_erm(oracle, Interval(0.0, 1.0), 33, "positive-right", seeded_rng(2, 1, 1))
    assert len(cuts) == 1 and cuts[0][0].size == cuts[0][1].size == 33


def test_pool_never_starts_more_workers_than_blocks(monkeypatch):
    started = []  # the block of each worker started

    class Serial:
        """Stands in for a worker process; runs its target in this process when started."""

        def __init__(self, target, args):
            self.target, self.args = target, args

        def start(self):
            started.append(self.args[2])
            self.target(*self.args)

        def join(self):
            pass

        def terminate(self):
            pass

    monkeypatch.setattr(harness, "multiprocessing",
                        SimpleNamespace(Process=Serial, Pipe=multiprocessing.Pipe))
    workers = []  # the count of workers each sweep started

    def sweep(config):
        before = len(started)
        table = run_experiment(config, n_jobs=9)
        workers.append(len(started) - before)
        return table

    config = _small_config()  # 4 cells
    serial = run_experiment(config, n_jobs=1).csv_text(include_timing=False)
    assert started == []  # one job: no worker
    table = sweep(config)
    assert workers == [3]  # the caller runs the first block
    assert started == [[(32, 1)], [(64, 0)], [(64, 1)]]
    assert table.csv_text(include_timing=False) == serial
    sweep(_small_config(budgets=[32]))
    assert workers == [3, 1]
    sweep(_small_config(budgets=[32], replications=1))
    assert workers == [3, 1, 0]  # one block: no worker


@contextmanager
def _deadline(seconds):
    """Fail the test if the block runs longer than ``seconds``."""
    def expire(signum, frame):
        # not an OSError, which multiprocessing's waitpid would swallow
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _many_cells():
    # cheap noiseless bisection cells, so many that a worker's rows at 2 or 3
    # jobs outgrow a 64 KiB pipe buffer
    return _small_config(learner=LearnerConfig(name="bisect"), budgets=[8, 16],
                         replications=1500)


def _fail_in(where, fail, monkeypatch):
    """Make ``run_block`` call ``fail()`` in the caller or in a (forked) worker."""
    caller, run_block = os.getpid(), harness.run_block

    def failing(config, cells):
        if (os.getpid() == caller) == (where == "caller"):
            fail()
        return run_block(config, cells)

    monkeypatch.setattr(harness, "run_block", failing)


def test_rows_larger_than_a_pipe_buffer_arrive_whole():
    config = _many_cells()
    serial = run_experiment(config, n_jobs=1)
    for jobs in (2, 3):
        assert len(pickle.dumps(serial.rows[1::jobs])) > 64 * 1024  # a worker's rows
        with _deadline(60):
            table = run_experiment(config, n_jobs=jobs)
        assert table.csv_text(include_timing=False) == serial.csv_text(include_timing=False)
    assert multiprocessing.active_children() == []


def _raise_zero_division():
    raise ZeroDivisionError("outside any cell")


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only a forked worker runs the patched run_block")
@pytest.mark.parametrize("fail, code", [
    (_raise_zero_division, 1),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
], ids=["raises", "killed"])
def test_a_worker_that_exits_unsent_names_its_exit_code(monkeypatch, fail, code):
    _fail_in("worker", fail, monkeypatch)
    with _deadline(60), pytest.raises(RuntimeError, match=rf"exited with code {code} before"):
        run_experiment(_many_cells(), n_jobs=3)
    assert multiprocessing.active_children() == []


def test_a_failing_caller_leaves_no_worker_behind(monkeypatch):
    # the workers' rows outgrow the pipe, so no worker can exit until it is read
    _fail_in("caller", _raise_zero_division, monkeypatch)
    with _deadline(60), pytest.raises(ZeroDivisionError):
        run_experiment(_many_cells(), n_jobs=3)
    assert multiprocessing.active_children() == []


def test_the_caller_runs_exactly_one_block(monkeypatch):
    ran = []
    run_block = harness.run_block

    def recording(config, cells):
        ran.append(list(cells))  # a forked worker appends to its own copy
        return run_block(config, cells)

    monkeypatch.setattr(harness, "run_block", recording)
    table = run_experiment(_small_config(), n_jobs=3)  # 4 cells in 3 blocks
    assert ran == [[(32, 0), (64, 1)]]
    assert [(r.budget, r.replication) for r in table.rows] == \
        [(32, 0), (32, 1), (64, 0), (64, 1)]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only a forked worker inherits the config")
def test_a_forked_worker_never_pickles_the_config(monkeypatch):
    def refuse(self, protocol):
        raise pickle.PicklingError("the config was pickled")

    config = _small_config()
    serial = run_experiment(config, n_jobs=1).csv_text(include_timing=False)
    monkeypatch.setattr(ExperimentConfig, "__reduce_ex__", refuse)
    with pytest.raises(pickle.PicklingError):
        pickle.dumps(config)
    assert run_experiment(config, n_jobs=2).csv_text(include_timing=False) == serial


SPAWNED_SWEEP = """
import multiprocessing, sys
from signopt import load_config, run_experiment

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[2])
    table = run_experiment(load_config(sys.argv[1]), n_jobs=int(sys.argv[3]))
    sys.stdout.write(table.csv_text(include_timing=False))
"""


@pytest.mark.parametrize("jobs", [2, 3])
@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_spawned_workers_unpickle_the_config_to_the_same_table(tmp_path, method, jobs):
    # under spawn and forkserver the config, Box included, reaches each
    # worker pickled once
    path = tmp_path / "exp.cfg"
    path.write_text(OPTIMIZE_CFG)
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", SPAWNED_SWEEP, str(path), method, str(jobs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    expected = run_experiment(load_config(path), n_jobs=1).csv_text(include_timing=False)
    assert done.stdout == expected


def test_budget_honesty_column():
    table = run_experiment(_small_config())
    for row in table.rows:
        assert row.queries_used <= row.budget


def test_replication_streams_are_independent_of_each_other():
    wide = _small_config(replications=3)
    narrow = _small_config(replications=2)
    wide_rows = {(r.budget, r.replication): r.estimate
                 for r in run_experiment(wide).rows}
    for row in run_experiment(narrow).rows:
        assert wide_rows[(row.budget, row.replication)] == row.estimate


def test_error_rows_do_not_kill_the_sweep():
    # the default schedule needs 13+ epochs in d = 2 at these budgets, so
    # every cell fails, but each failure is recorded rather than raised
    config = ExperimentConfig(
        problem=_opt_problem(),
        experiment_id="failing",
        optimizer=OptimizerConfig(),
        budgets=[8, 12], replications=2, base_seed=0)
    table = run_experiment(config)
    assert len(table.rows) == 4
    assert table.n_errors == 4
    assert all("epoch" in r.error for r in table.rows)


def _opt_problem():
    from signopt import Quadratic, box_from_bounds
    return Quadratic(np.diag([1.0, 2.0]), [0.2, -0.1],
                     box_from_bounds(-1.0, 1.0, dim=2))


def test_optimize_cells_record_vector_estimates():
    config = ExperimentConfig(
        problem=_opt_problem(), experiment_id="vec",
        optimizer=OptimizerConfig(line_search=LearnerConfig("bisect"),
                                  epoch_rule=20),
        budgets=[400], replications=1, base_seed=2)
    row = run_experiment(config).rows[0]
    vec = [float(tok) for tok in row.estimate.split()]
    assert len(vec) == 2
    assert row.f_error is not None and row.excess_risk is None


def test_cell_seed_is_stable():
    assert cell_seed(5, 0) == cell_seed(5, 0)
    assert cell_seed(5, 0) != cell_seed(5, 1)
    assert cell_seed(6, 0) != cell_seed(5, 0)


def test_a_row_is_rebuilt_from_its_seed_streams_alone(tmp_path):
    # every stream of a cell is seeded_rng(base_seed, rep, role[, epoch]), so
    # (base_seed, rep) and the config rebuild the row by hand
    rep = 1
    threshold = _load(tmp_path, THRESHOLD_CFG)
    problem, seed = threshold.problem, threshold.base_seed
    labels = LabelOracle(problem, seeded_rng(seed, rep, ROLE_LABELS), budget=128)
    point = run_learner(labels, problem.interval,
                        threshold.learner.for_budget(128, dither=rep),
                        seeded_rng(seed, rep, ROLE_SAMPLING))
    optimize = _load(tmp_path, OPTIMIZE_CFG)
    fn, opt_seed = optimize.problem, optimize.base_seed
    signs = SignOracle(fn, GaussianNoise(1.0), seeded_rng(opt_seed, rep, ROLE_LABELS),
                       budget=512)
    x = rssgd(fn, signs, replace(optimize.optimizer, budget=512, seed=(opt_seed, rep)))
    for config, budget, estimate, oracle in (
            (threshold, 128, repr(point), labels),
            (optimize, 512, " ".join(f"{v:.17g}" for v in x), signs)):
        row = next(r for r in run_experiment(config).rows
                   if (r.budget, r.replication) == (budget, rep))
        assert row.error == ""
        assert (str(row.estimate), row.queries_used) == (estimate, oracle.queries_used)
        assert row.seed == cell_seed(config.base_seed, rep)


def test_a_threshold_learner_that_never_draws_gets_no_stream(tmp_path, monkeypatch):
    roles = []

    def recording_rng(*entropy):
        roles.append(entropy[2])
        return seeded_rng(*entropy)

    def cell(text):
        roles.clear()
        row = run_cell(_load(tmp_path, text), 128, 1)
        return RunTable([row]).csv_text(include_timing=False)

    monkeypatch.setattr(harness, "seeded_rng", recording_rng)
    bisect = THRESHOLD_CFG.replace("adaptive\nlearner.c_delta = 2.0", "bisect")
    # as every learner did before, draw a sampling stream and ignore it
    with monkeypatch.context() as patch:
        patch.setattr(harness, "DRAWING_LEARNERS", LEARNERS)
        reference = cell(bisect)
        assert roles == [ROLE_LABELS, ROLE_SAMPLING]
    assert cell(bisect) == reference
    assert roles == [ROLE_LABELS]
    assert "bisect" not in DRAWING_LEARNERS
    # a learner that draws still gets its stream
    cell(THRESHOLD_CFG)
    assert roles == [ROLE_LABELS, ROLE_SAMPLING]


@pytest.mark.parametrize("name", ["passive", "bisect", "adaptive", "bz"])
def test_every_learner_runs_through_the_harness(name):
    spec = (LearnerConfig(name=name, grid_size="auto", bz_k=2.0, bz_mu=1.0) if name == "bz"
            else LearnerConfig(name=name))
    table = run_experiment(_small_config(learner=spec, budgets=[128]))
    assert table.n_errors == 0
    for row in table.rows:
        assert 0.0 <= float(row.estimate) <= 1.0
        assert row.queries_used <= 128


def test_oracle_budget_cap_records_error_rows():
    config = _small_config(learner=LearnerConfig(name="bisect"),
                           oracle=OracleSpec(budget=16), budgets=[64])
    table = run_experiment(config)
    assert table.n_errors == len(table.rows)
    assert all("Budget" in r.error for r in table.rows)


def test_jobs_env_var_sets_default_concurrency(monkeypatch):
    from signopt.harness import resolve_jobs
    monkeypatch.delenv("SIGNOPT_JOBS", raising=False)
    assert resolve_jobs(None) == 1
    monkeypatch.setenv("SIGNOPT_JOBS", "3")
    assert resolve_jobs(None) == 3
    assert resolve_jobs(2) == 2  # explicit argument wins
    monkeypatch.setenv("SIGNOPT_JOBS", "abc")
    assert resolve_jobs(2) == 2  # the variable is not read at all
    monkeypatch.setenv("SIGNOPT_JOBS", "")
    assert resolve_jobs(None) == 1  # an empty variable counts as unset


# ---------------------------------------------------------------------------
# serialization

def test_csv_roundtrip(tmp_path):
    table = run_experiment(_small_config())
    # an error row whose message holds a comma
    capped = _small_config(learner=LearnerConfig(name="bisect"),
                           oracle=OracleSpec(budget=10), budgets=[8, 64])
    table.rows += [r for r in run_experiment(capped).rows if r.error][:1]
    path = tmp_path / "out.csv"
    table.to_csv(path)
    text = path.read_text()
    assert text.startswith("# schema_version=1\n")
    back = RunTable.from_csv(path)
    assert len(back.rows) == len(table.rows)
    for a, b in zip(back.rows, table.rows):
        assert a.budget == b.budget and a.replication == b.replication
        assert a.point_error == pytest.approx(b.point_error, rel=1e-15)
        assert a.excess_risk == pytest.approx(b.excess_risk, rel=1e-15)
        assert a.error == b.error and a.wall_time_ms == b.wall_time_ms
    assert "," in back.rows[-1].error


def test_errors_at_the_widest_box_survive_the_csv_round_trip(tmp_path):
    # one epoch moves one coordinate: the other stays at the box corner 2**62,
    # so the value is about 2**123 and the distance about 2**62
    half = 2.0 ** 62
    fn = Quadratic(np.eye(2), [0.0, 0.0], box_from_bounds(-half, half, dim=2))
    config = ExperimentConfig(
        problem=fn, experiment_id="huge",
        optimizer=OptimizerConfig(line_search=LearnerConfig("bisect"), epoch_rule=1,
                                  x0=[half, half]),
        budgets=[8], replications=1, base_seed=2)
    table = run_experiment(config)
    (row,) = table.rows
    estimate = np.array(row.estimate.split(), dtype=float)
    assert row.error == "" and row.f_error == fn.value(estimate) >= 2.0 ** 122
    assert half <= row.point_error == pytest.approx(math.hypot(*estimate), rel=1e-15)
    table.to_csv(tmp_path / "out.csv")
    back = RunTable.from_csv(tmp_path / "out.csv")
    assert (back.rows[0].f_error, back.rows[0].point_error) == (row.f_error, row.point_error)
    assert back.csv_text(include_timing=False) == table.csv_text(include_timing=False)


def test_a_table_whose_id_starts_with_a_hash_reads_back(tmp_path):
    # '#' starts a comment only before the header: each line after it is a row
    table = run_experiment(_small_config(experiment_id="#demo"))
    table.to_csv(tmp_path / "t.csv")
    assert RunTable.from_csv(tmp_path / "t.csv").csv_text() == table.csv_text()


def test_from_csv_reads_each_cell_as_its_row_field(tmp_path):
    # an id of digits stays text and an integral error is a float; the one
    # column a table may leave out, as the untimed CSV does, is wall_time_ms
    columns = ["experiment_id", "kind", "budget", "replication", "seed", "estimate",
               "point_error", "excess_risk", "f_error", "queries_used", "error"]
    cells = ["123", "learn-threshold", "64", "1", "7", "0.5", "0", "", "", "", ""]
    path = tmp_path / "t.csv"
    path.write_text(",".join(columns) + "\n" + ",".join(cells) + "\n")
    (row,) = RunTable.from_csv(path).rows
    assert (row.budget, row.experiment_id, row.point_error, row.estimate,
            row.queries_used) == (64, "123", 0.0, "0.5", None)
    assert type(row.point_error) is float
    assert (row.kind, row.replication, row.seed, row.excess_risk, row.f_error,
            row.error, row.wall_time_ms) == ("learn-threshold", 1, 7, None, None, "", 0.0)
    # every other absent column is refused by name, not read as None
    for i, column in enumerate(columns):
        path.write_text(",".join(columns[:i] + columns[i + 1:]) + "\n"
                        + ",".join(cells[:i] + cells[i + 1:]) + "\n")
        with pytest.raises(ValueError, match=f"^{path}: no column {column}$"):
            RunTable.from_csv(path)


def test_from_csv_refuses_a_row_whose_cells_do_not_match_the_header(tmp_path):
    path = tmp_path / "t.csv"
    run_experiment(_small_config()).to_csv(path)
    lines = path.read_text().splitlines()  # the schema line, the header, then rows
    lines[3] = lines[3].rsplit(",", 1)[0]  # row 2 loses its last cell
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{path}: row 2: 11 cells, 12 columns$"):
        RunTable.from_csv(path)


@pytest.mark.parametrize("column, text", [("seed", "1.0"), ("replication", ""),
                                          ("queries_used", "x"), ("excess_risk", "1,5"),
                                          ("wall_time_ms", "")])
def test_from_csv_names_the_row_and_column_of_a_cell_that_does_not_parse(tmp_path,
                                                                         column, text):
    table = run_experiment(_small_config())
    setattr(table.rows[1], column, text)
    path = tmp_path / "t.csv"
    table.to_csv(path)
    with pytest.raises(ValueError, match=f"^{path}: row 2, column {column}: .*'{text}'"):
        RunTable.from_csv(path)


# ---------------------------------------------------------------------------
# slope reports

def _table_from(values):
    rows = []
    for budget, errs in values.items():
        for rep, err in enumerate(errs):
            rows.append(Row(experiment_id="t", kind="learn-threshold",
                            budget=budget, replication=rep, seed=rep,
                            estimate=0.0, point_error=err, excess_risk=err,
                            f_error=None, queries_used=budget, error="",
                            wall_time_ms=0.0))
    return RunTable(rows)


def test_slope_report_exact_line():
    table = _table_from({10: [1.0, 1.0], 100: [0.1, 0.1], 1000: [0.01, 0.01]})
    report = slope_report(table, "median", "excess_risk")
    assert report.slope == pytest.approx(-1.0, abs=1e-12)
    assert [b.budget for b in report.per_budget] == [10, 100, 1000]


def test_slope_report_single_budget_fails():
    with pytest.raises(ValueError):
        slope_report(_table_from({10: [1.0]}), "median", "excess_risk")


def test_slope_report_excludes_zero_median_budgets():
    table = _table_from({10: [1.0], 100: [0.1], 1000: [0.0]})
    report = slope_report(table, "median", "excess_risk")
    assert report.excluded_budgets == [1000]
    assert report.slope == pytest.approx(-1.0, abs=1e-12)


def test_slope_report_mean_statistic():
    table = _table_from({10: [1.0, 3.0], 100: [0.1, 0.3]})
    report = slope_report(table, "mean", "excess_risk")
    assert report.per_budget[0].value == pytest.approx(2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_slope_report_counts_a_non_finite_value_as_an_unusable_row(bad):
    table = _table_from({10: [1.0], 100: [0.1], 1000: [bad, 0.01]})
    report = slope_report(table, "median", "excess_risk")
    assert [(b.budget, b.value, b.n_rows) for b in report.per_budget] == \
        [(10, 1.0, 1), (100, 0.1, 1), (1000, 0.01, 1)]
    assert report.n_error_rows == 1 and report.excluded_budgets == []
    assert report.slope == pytest.approx(-1.0, abs=1e-12)


def test_slope_report_rejects_unknown_column():
    with pytest.raises(ValueError):
        slope_report(_table_from({10: [1.0], 100: [0.1]}), "median", "elbow")
