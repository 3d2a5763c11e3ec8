"""Self-test of the benchmark: span arithmetic, every workload at toy size, refusal.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402
from spans import NO_CELL, NO_PARENT, Span  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _span(name, start, end, parent=NO_PARENT, n=1):
    return Span(name, float(start), float(end), parent, NO_CELL, n)


def test_self_time_subtracts_nested_children_and_disjoint_siblings():
    tree = [
        _span("bench.round", 0, 10),
        _span("harness.run_cell", 1, 4, parent=0),
        _span("oracles.label_sample", 1.5, 2.5, parent=1),
        _span("harness.run_cell", 5, 9, parent=0),
        _span("problems.eta_at", 6, 6.5, parent=3),
        _span("problems.eta_at", 7, 8, parent=3),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 2.5, 0.5, 1.0])
    assert sum(spans.self_times(tree)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    tree = [
        _span("bench.round", 0, 10),
        _span("a", 1, 5, parent=0),
        _span("b", 3, 7, parent=0),   # overlaps a: the union 1..7 is covered
        _span("c", 9, 12, parent=0),  # runs past its parent: only 9..10 counts
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_summary_attributes_queries_to_the_nearest_learner():
    tree = [
        _span("optimizer.rssgd", 0, 10),
        _span("learners.adaptive_learner", 1, 9, parent=0),
        _span("learners.passive_erm", 2, 5, parent=1),
        _span("oracles.sign_sample_line", 3, 4, parent=2, n=7),
        _span("learners.passive_erm", 5, 8, parent=1),
        _span("oracles.sign_sample_line", 6, 7, parent=4, n=5),
    ]
    summary = spans.Summary()
    summary.add(tree)
    assert summary.learner_queries["learners.passive_erm"] == 12
    assert summary.learner_queries["learners.adaptive_learner"] == 0
    assert summary.queries == 12
    assert summary.child_calls["learners.adaptive_learner", "learners.passive_erm"] == 2
    assert summary.span_self_sum_s == pytest.approx(10.0)
    assert summary.layer_self_s("learners") == pytest.approx(8.0 - 2.0)


def test_install_restores_every_entry_point():
    harness = run.import_signopt()
    from signopt import learners, problems
    before = (harness.run_cell, learners.erm_cut, problems.Box.contains)
    with spans.install(spans.Tracer()):
        assert harness.run_cell is not before[0]
    assert (harness.run_cell, learners.erm_cut, problems.Box.contains) == before


def _names_and_units(entries):
    return {e["name"]: e["unit"] for e in entries}


@pytest.mark.parametrize("name", sorted(run.TOY_WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_toy_workload_reports_every_metric(name, trace):
    notes = []
    result = run.measure(run.TOY_WORKLOADS[name], seed=3, seconds=0.3, trace=trace,
                         probes=1, emit=notes.append)
    assert result["correct"], notes
    assert result["attempted"] >= 1 and result["failed"] == 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _names_and_units(SPEC["per_layer" if trace else "end_to_end"])
    assert any(line.startswith("# round 0 ") for line in notes)
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["trace.self_sum_frac"] == pytest.approx(1.0, abs=0.02)
        assert metrics["trace.queries_covered_frac"] == 1.0
        assert metrics["oracles.queries"] > 0


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        result = run.measure(run.TOY_WORKLOADS["toy-rssgd-quadratic"], seed=5,
                             seconds=0.1, trace=True, probes=1, emit=lambda line: None)
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] == "count" and k != "harness.run_cell.samples"})
    assert counts[0] == counts[1]
    assert counts[0]["optimizer.epochs"] > 0


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bz-threshold", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "{" not in proc.stdout
