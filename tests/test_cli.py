import json

import numpy as np
import pytest

from signopt.cli import main

THRESHOLD_CFG = """
kind = learn-threshold
id = cli-demo
problem.lo = 0.0
problem.hi = 1.0
problem.t = 0.37
problem.k = 2.0
problem.mu = 1.0
problem.cap = 0.4
learner.name = adaptive
sweep.budgets = 64, 128
sweep.replications = 2
sweep.base_seed = 5
budget = 128
"""

OPTIMIZE_CFG = """
kind = optimize
id = cli-opt
problem.family = separable-power
problem.dim = 2
problem.k = 2.0
problem.coeffs = 1.0, 2.0
problem.x_star = 0.2, -0.1
problem.box_lo = -1.0
problem.box_hi = 1.0
oracle.mode = exact
optimizer.line_search = bisect
optimizer.epoch_rule = 25
budget = 500
"""


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_learn_threshold_single_run(tmp_path, capsys):
    code = main(["learn-threshold", "--config", _write(tmp_path, THRESHOLD_CFG)])
    assert code == 0
    row = json.loads(capsys.readouterr().out)
    assert row["budget"] == 128
    assert row["error"] == ""
    assert 0.0 <= row["estimate"] <= 1.0


def test_learn_threshold_budget_override(tmp_path, capsys):
    code = main(["learn-threshold", "--config", _write(tmp_path, THRESHOLD_CFG),
                 "--budget", "64", "--rep", "1"])
    assert code == 0
    row = json.loads(capsys.readouterr().out)
    assert row["budget"] == 64 and row["replication"] == 1


def test_optimize_single_run(tmp_path, capsys):
    code = main(["optimize", "--config", _write(tmp_path, OPTIMIZE_CFG)])
    assert code == 0
    row = json.loads(capsys.readouterr().out)
    assert row["f_error"] <= 1e-8


def test_kind_mismatch_is_a_config_error(tmp_path, capsys):
    code = main(["optimize", "--config", _write(tmp_path, THRESHOLD_CFG)])
    assert code == 2


def test_bad_config_exits_2(tmp_path, capsys):
    bad = THRESHOLD_CFG.replace("problem.mu = 1.0", "problem.mu = -3")
    assert main(["learn-threshold", "--config", _write(tmp_path, bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_sweep_writes_versioned_csv(tmp_path, capsys):
    out = tmp_path / "results"
    code = main(["sweep", "--config", _write(tmp_path, THRESHOLD_CFG),
                 "--out", str(out)])
    assert code == 0
    csv_path = out / "cli-demo.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# schema_version=1"
    assert len(lines) == 2 + 4  # comment, header, 2 budgets x 2 replications


def test_sweep_then_slope_roundtrip(tmp_path, capsys):
    out = tmp_path / "results"
    main(["sweep", "--config", _write(tmp_path, THRESHOLD_CFG), "--out", str(out)])
    capsys.readouterr()
    code = main(["slope", "--table", str(out / "cli-demo.csv"),
                 "--column", "excess_risk"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["error_column"] == "excess_risk"
    assert len(report["per_budget"]) == 2
    assert np.isfinite(report["slope"])  # 2 budgets x 2 reps: sign is noise


@pytest.mark.parametrize("text", ["", "# schema_version=1\n\n# no rows\n"],
                         ids=["empty", "comments-only"])
def test_slope_of_a_table_without_a_header_row_exits_3(tmp_path, capsys, text):
    table = _write(tmp_path, text, name="empty.csv")
    assert main(["slope", "--table", table]) == 3
    assert capsys.readouterr().err == f"error: {table}: no header row\n"


def test_failing_cells_exit_3(tmp_path, capsys):
    failing = OPTIMIZE_CFG.replace("optimizer.epoch_rule = 25",
                                   "optimizer.epoch_rule = paper-default") \
                          .replace("budget = 500", "budget = 10") + \
        "sweep.budgets = 10\nsweep.replications = 1\n"
    code = main(["sweep", "--config", _write(tmp_path, failing),
                 "--out", str(tmp_path / "r")])
    assert code == 3


def test_sweep_slope_summary_report(tmp_path, capsys):
    text = THRESHOLD_CFG + "report = slope-summary\nslope.column = point_error\n"
    code = main(["sweep", "--config", _write(tmp_path, text),
                 "--out", str(tmp_path / "r")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["error_column"] == "point_error"


@pytest.mark.parametrize("flags, message", [
    (["--budget", "0"], "budget: must be positive"),
    (["--budget", "-5"], "budget: must be positive"),
    (["--rep", "-1"], "--rep: must be non-negative"),
])
def test_bad_single_run_flags_are_config_errors(tmp_path, capsys, flags, message):
    code = main(["learn-threshold", "--config", _write(tmp_path, THRESHOLD_CFG),
                 *flags])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: {message}" in captured.err


@pytest.mark.parametrize("flags, env, message", [
    (["--jobs", "0"], None, "--jobs: must be at least 1, got 0"),
    (["--jobs", "-2"], "3", "--jobs: must be at least 1, got -2"),
    ([], "-4", "SIGNOPT_JOBS: must be at least 1, got -4"),
    ([], "0", "SIGNOPT_JOBS: must be at least 1, got 0"),
    ([], "abc", "SIGNOPT_JOBS: expected an integer, got 'abc'"),
    ([], "2.5", "SIGNOPT_JOBS: expected an integer, got '2.5'"),
])
def test_bad_job_counts_are_config_errors(tmp_path, capsys, monkeypatch,
                                          flags, env, message):
    if env is None:
        monkeypatch.delenv("SIGNOPT_JOBS", raising=False)
    else:
        monkeypatch.setenv("SIGNOPT_JOBS", env)
    out = tmp_path / "r"
    code = main(["sweep", "--config", _write(tmp_path, THRESHOLD_CFG),
                 "--out", str(out), *flags])
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()
