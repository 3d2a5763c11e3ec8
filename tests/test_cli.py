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


@pytest.mark.parametrize("column", ["excess_risk", "point_error"])
def test_sweep_then_slope_roundtrip(tmp_path, capsys, column):
    out = tmp_path / "results"
    main(["sweep", "--config", _write(tmp_path, THRESHOLD_CFG), "--out", str(out)])
    capsys.readouterr()
    code = main(["slope", "--table", str(out / "cli-demo.csv"), "--column", column])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["error_column"] == column
    assert len(report["per_budget"]) == 2
    assert np.isfinite(report["slope"])  # 2 budgets x 2 reps: sign is noise


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


def _slope_table(tmp_path, budgets, risks):
    lines = ["# schema_version=1", "experiment_id,kind,budget,replication,seed,"
             "estimate,point_error,excess_risk,f_error,queries_used,error,wall_time_ms"]
    lines += [f"t,learn-threshold,{b},0,0,0.5,{r},{r},,{b},,0.1"
              for b, r in zip(budgets, risks)]
    return _write(tmp_path, "\n".join(lines) + "\n", name="t.csv")


@pytest.mark.parametrize("budget", ["100.5", "1e2", "abc", pytest.param("", id="empty")])
def test_slope_of_a_table_with_a_non_integer_budget_exits_3(tmp_path, capsys, budget):
    table = _slope_table(tmp_path, [10, budget, 1000], [1.0, 0.1, 0.01])
    assert main(["slope", "--table", table]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {table}: row 2, column budget: ")
    assert repr(budget) in captured.err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_slope_counts_a_non_finite_error_as_an_unusable_row(tmp_path, capsys, bad):
    table = _slope_table(tmp_path, [10, 100, 1000, 1000], [1.0, 0.1, bad, 0.01])
    assert main(["slope", "--table", table]) == 0
    report = _strict_json(capsys.readouterr().out)
    assert [(b["budget"], b["value"], b["n_rows"]) for b in report["per_budget"]] == \
        [(10, 1.0, 1), (100, 0.1, 1), (1000, 0.01, 1)]
    assert report["n_error_rows"] == 1
    assert report["excluded_budgets"] == []
    assert report["slope"] == pytest.approx(-1.0, abs=1e-12)


def test_slope_report_lists_each_excluded_budget_once(tmp_path, capsys):
    table = _slope_table(tmp_path, [10, 100, 1000], [1.0, 0.1, 0.0])
    assert main(["slope", "--table", table]) == 0
    report = _strict_json(capsys.readouterr().out)
    assert set(report) == {"slope", "intercept", "max_residual", "statistic",
                           "error_column", "per_budget", "excluded_budgets",
                           "n_error_rows"}
    assert report["excluded_budgets"] == [1000]
    assert report["slope"] == pytest.approx(-1.0, abs=1e-12)


def test_slope_of_a_table_without_a_budget_column_exits_3_naming_it(tmp_path, capsys):
    lines = open(_slope_table(tmp_path, [10, 100], [1.0, 0.1])).read().splitlines()
    # drop the third column, budget, from the header and every row
    text = "\n".join([lines[0]] + [",".join(line.split(",")[:2] + line.split(",")[3:])
                                    for line in lines[1:]]) + "\n"
    table = _write(tmp_path, text, name="no-budget.csv")
    assert main(["slope", "--table", table]) == 3
    assert capsys.readouterr().err == f"error: {table}: no column budget\n"


def test_slope_with_one_usable_budget_exits_3_counting_the_unusable_rows(tmp_path, capsys):
    table = _slope_table(tmp_path, [10, 100], [1.0, "nan"])
    assert main(["slope", "--table", table]) == 3
    assert capsys.readouterr().err == (
        "error: need at least 2 budgets with positive median excess_risk, "
        "have 1 (1 of 2 rows unusable)\n")


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


@pytest.mark.parametrize("line, message", [
    ("report = slope-summary", "report: unknown report kind 'slope-summary'"),
    ("slope.statistic = median", "slope.statistic: unknown key"),
])
def test_the_retired_sweep_slope_report_is_a_config_error(tmp_path, capsys, line, message):
    # a sweep's slope is fitted from its table by `signopt slope`
    code = main(["sweep", "--config", _write(tmp_path, THRESHOLD_CFG + line + "\n"),
                 "--out", str(tmp_path / "r")])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "r").exists()


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
