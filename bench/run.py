#!/usr/bin/env python3
"""signopt benchmark: sweep throughput on three workloads, with a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload bz-threshold --seed 0 --seconds 30 --trace 0

Workloads are listed in ``bench/workloads.py``.  A run is a closed loop of
rounds with a single caller: a round is one ``harness.run_experiment`` call
over the workload's budget grid, and the next round starts only after it
returns.  Round ``r`` uses ``base_seed = seed * CYCLE + r % CYCLE``.  The
package is driven only through ``harness.load_config``,
``harness.run_experiment`` and ``harness.slope_report``, as ``signopt sweep``
drives it, on config files the benchmark writes from ``--seed``.

Every round's table is checked: no error rows, ``queries_used <= budget``,
and the SHA-256 of ``csv_text(include_timing=False)`` must equal the digest
of any earlier round with the same base seed and, for the default seed, the
digest recorded in ``bench/references.json``; a run with another seed
ends with round 0 of the default seed, so every run is checked against the
references.  Pool workloads also re-run round 0 with one job, which must
give the same digest.

Timings are rescaled to a reference machine speed: a shared host can drift
by tens of percent within minutes, so a fixed calibration loop runs just before
every round and every setup probe, and each timing is multiplied by the
speed it showed (see ``speed``).  The unscaled figures are printed too.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones: it runs half of ``--seconds`` untraced with one job, then
``TRACE_ROUNDS`` rounds with every signopt entry point wrapped in a span
(``bench/spans.py``), and writes the leading spans of the first traced
round to ``.bench_out/trace-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it that
start with '#' give the machine facts and the science context of every
round.  The exit code is 0 only when every check passed.
"""

import argparse
import dataclasses
import hashlib
import json
import multiprocessing
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pin BLAS threads before numpy is imported: numpy links a threaded
# OpenBLAS, and pool workers are forked from this process.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import spans  # noqa: E402
from workloads import TOY_WORKLOADS, WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCES = BENCH_DIR / "references.json"

DEFAULT_SEED = 0
CYCLE = 6          # rounds r and r + CYCLE share a base seed
SETUP_PROBES = 5   # fresh interpreters timed for setup_s
TRACE_ROUNDS = 4   # traced rounds: a fixed count, so counts repeat exactly
SPANS_WRITTEN = 50_000  # leading spans of traced round 0 written out
CAL_ITERATIONS = 3000   # calibration loop length, fixed for good
CAL_REF_S = 0.025       # its time at reference speed (2-vCPU Xeon VM, Python 3.11)


class BenchError(Exception):
    """The benchmark cannot run here, or an input guard failed."""


def import_signopt():
    """Import signopt from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "signopt" / "__init__.py").is_file():
        raise BenchError(f"no signopt sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import signopt
    if Path(signopt.__file__).resolve().parent != (src / "signopt").resolve():
        raise BenchError(f"signopt imported from {signopt.__file__}, not {src}")
    from signopt import harness
    return harness


def setup(workload, seed: int):
    """Everything before the first round: inputs from the seed, then load_config."""
    harness = import_signopt()
    path = workload.write_inputs(seed, OUT_DIR / "inputs" / f"seed{seed}")
    return harness, path, harness.load_config(path)


def speed() -> float:
    """Machine speed now, relative to the reference speed.

    A shared host's speed can drift by tens of percent within minutes, in
    step with this loop of small numpy calls in Python (the mix signopt's
    learners run).
    Each timing is multiplied by the speed measured just before it, which
    rescales it to a machine on which the loop takes ``CAL_REF_S``.
    """
    w = np.full(64, 1.0 / 64)
    start = time.perf_counter()
    for i in range(CAL_ITERATIONS):
        cum = np.cumsum(w)
        idx = int(np.searchsorted(cum, 0.5 * cum[-1]))
        if i % 2:
            w[:idx + 1] *= 1.5
        else:
            w[idx:] *= 1.5
        if cum[-1] > 1e100:
            w /= cum[-1]
    return CAL_REF_S / (time.perf_counter() - start)


def setup_seconds(workload, seed: int, probes: int) -> tuple[float, float]:
    """Median wall time, rescaled and as measured, of fresh interpreters that
    import signopt, build the inputs and load the config."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload.name, "--seed", str(seed)]
    rescaled, measured = [], []
    for _ in range(probes):
        factor = speed()
        start = time.perf_counter()
        # no timeout: with one, the wait polls and rounds the time to 50 ms
        if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
            raise BenchError("the setup probe failed")
        measured.append(time.perf_counter() - start)
        rescaled.append(measured[-1] * factor)
    return statistics.median(rescaled), statistics.median(measured)


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def machine_facts() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu_count": os.cpu_count(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", ""),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "start_method": multiprocessing.get_start_method(),
            "machine": platform.machine()}


def do_nothing_gap(config) -> float | None:
    """f(x0) - f_min of an optimize config (None for threshold problems)."""
    if config.kind != "optimize":
        return None
    fn = config.problem
    x0 = fn.box.center if config.optimizer.x0 == "center" else config.optimizer.x0
    return fn.value(x0) - fn.f_min


def load_references(name: str) -> list[str] | None:
    return json.loads(REFERENCES.read_text()).get(name)


@dataclasses.dataclass
class Round:
    wall_s: float
    cpu_s: float
    speed: float  # machine speed just before the round
    table: object

    @property
    def cells(self) -> int:
        return len(self.table.rows)


class Rounds:
    """Runs the rounds of one workload and checks every table they produce."""

    def __init__(self, harness, config, seed: int, references, emit):
        self.harness = harness
        self.config = config
        self.seed = seed
        self.references = references
        self.emit = emit
        self.expected_cells = len(config.budgets) * config.replications
        self.digests: dict[int, str] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.budget_exhausted = 0
        self.slope_report_s: list[float] = []

    def run(self, index: int, jobs: int, tracer=None) -> Round:
        cfg = dataclasses.replace(self.config,
                                  base_seed=self.seed * CYCLE + index % CYCLE)
        run_experiment = self.harness.run_experiment  # as patched, if tracing
        factor = speed()
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        if tracer is None:
            table = run_experiment(cfg, jobs)
        else:
            table = tracer.call("bench.round", run_experiment, cfg, jobs)
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0
        self.check(index, cfg.base_seed, jobs, table)
        self.report_science(index, cfg.base_seed, table)
        return Round(wall, cpu, factor, table)

    def check(self, index: int, base_seed: int, jobs: int, table) -> None:
        where = f"round {index} (base_seed {base_seed}, jobs {jobs})"
        self.attempted += len(table.rows)
        errors = [r for r in table.rows if r.error]
        self.failed += len(errors)
        self.budget_exhausted += sum(r.error.startswith("BudgetExhausted")
                                     for r in errors)
        if errors:
            self.failures.append(f"{where}: {len(errors)} error rows, first: "
                                 f"{errors[0].error}")
        if len(table.rows) != self.expected_cells:
            self.failures.append(f"{where}: {len(table.rows)} rows, expected "
                                 f"{self.expected_cells}")
        over = [r for r in table.rows
                if r.queries_used is None or r.queries_used > r.budget]
        if over:
            self.failures.append(f"{where}: queries_used missing or over budget "
                                 f"in {len(over)} rows")
        digest = hashlib.sha256(
            table.csv_text(include_timing=False).encode()).hexdigest()
        if base_seed in self.digests:
            expected, source = self.digests[base_seed], "an earlier round"
        elif self.references is not None:
            expected, source = self.references[index % CYCLE], "references.json"
        else:
            expected = source = None
        if expected is not None and digest != expected:
            self.failures.append(f"{where}: table digest {digest[:16]} differs "
                                 f"from {source} ({expected[:16]})")
        self.digests.setdefault(base_seed, digest)

    def report_science(self, index: int, base_seed: int, table) -> None:
        """Per-budget median error and slope of the round; reported, not gated."""
        column = self.config.slope_column
        start = time.perf_counter()
        try:
            report = self.harness.slope_report(table, "median", column)
        except ValueError as exc:
            self.emit(f"# round {index} base_seed {base_seed}: no slope ({exc})")
            return
        self.slope_report_s.append(time.perf_counter() - start)
        medians = " ".join(f"{b.budget}:{b.value:.4g}" for b in report.per_budget)
        self.emit(f"# round {index} base_seed {base_seed}: slope {report.slope:.3f}, "
                  f"median {column} by budget {medians}")


def timed_rounds(rounds: Rounds, seconds: float, jobs: int) -> list[Round]:
    """Closed loop: start rounds until ``seconds`` have passed (at least one)."""
    done: list[Round] = []
    deadline = time.perf_counter() + seconds
    while not done or time.perf_counter() < deadline:
        done.append(rounds.run(len(done), jobs))
    return done


def cells_per_s(done, rescaled: bool = True) -> float:
    return statistics.median(r.cells / (r.wall_s * (r.speed if rescaled else 1.0))
                             for r in done)


def cpu_ms_per_cell(done, rescaled: bool = True) -> float:
    return statistics.median(1e3 * r.cpu_s * (r.speed if rescaled else 1.0) / r.cells
                             for r in done)


def end_to_end(done, rounds: Rounds, setup: tuple[float, float], emit) -> dict:
    emit(f"# as measured, not rescaled: cells_per_s {cells_per_s(done, False):.4g}, "
         f"cpu_ms_per_cell {cpu_ms_per_cell(done, False):.4g}, "
         f"setup_s {setup[1]:.4g}; median speed "
         f"{statistics.median(r.speed for r in done):.3f}")
    return {
        "cells_per_s": (cells_per_s(done), "1/s"),
        "cpu_ms_per_cell": (cpu_ms_per_cell(done), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (setup[0], "s"),
        "ok_cell_frac": (1.0 - rounds.failed / rounds.attempted, "ratio"),
    }


def _median_us(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times)


def per_layer(summary, traced, untraced, rounds: Rounds, harness, config_path,
              config) -> dict:
    """Per-layer metrics from the traced rounds' spans and the untraced tables."""
    s = summary
    epochs = s.calls["optimizer.line_label_oracle"]

    def ratio(num, den):
        return num / den if den else 0.0

    def per_query_us(name):
        return 1e6 * ratio(s.self_s[name], s.learner_queries[name])

    traced_rows = [row for r in traced for row in r.table.rows]
    table_queries = sum(row.queries_used or 0 for row in traced_rows)
    cell_ms = sorted(row.wall_time_ms for r in untraced for row in r.table.rows)
    traced_wall = sum(r.wall_s for r in traced)
    line_searches = sum(s.child_calls["optimizer.rssgd", name]
                        for name in spans.LEARNERS)
    cell = (config, config.budgets[0], 0)
    out = {
        "learners.bz_learner.self_us_per_query":
            (per_query_us("learners.bz_learner"), "us"),
        "learners.erm_cut.us_per_call": (s.per_call_us("learners.erm_cut"), "us"),
        "learners.erm_cut.samples_per_call":
            (ratio(s.work["learners.erm_cut"], s.calls["learners.erm_cut"]), "count"),
        "learners.adaptive_learner.epochs_per_call":
            (ratio(s.child_calls["learners.adaptive_learner", "learners.passive_erm"],
                   s.calls["learners.adaptive_learner"]), "count"),
        "learners.passive_erm.self_us_per_call":
            (s.per_call_us("learners.passive_erm", self_only=True), "us"),
        "learners.bisect_noiseless.self_us_per_query":
            (per_query_us("learners.bisect_noiseless"), "us"),
        "oracles.queries": (table_queries, "count"),
        "oracles.budget_exhausted": (rounds.budget_exhausted, "count"),
        "oracles.label_sample.self_us_per_call":
            (s.per_call_us("oracles.label_sample", self_only=True), "us"),
        "oracles.sign_sample.self_us_per_call":
            (s.per_call_us("oracles.sign_sample", self_only=True), "us"),
        "oracles.sign_sample_line.ns_per_query":
            (1e9 * ratio(s.total_s["oracles.sign_sample_line"],
                         s.work["oracles.sign_sample_line"]), "ns"),
        "oracles.seeded_rng.us_per_call": (s.per_call_us("oracles.seeded_rng"), "us"),
        "oracles.seeded_rng.calls": (s.calls["oracles.seeded_rng"], "count"),
        "problems.eta_at.us_per_call": (s.per_call_us("problems.eta_at"), "us"),
        "problems.box_contains.us_per_call":
            (s.per_call_us("problems.box_contains"), "us"),
        "problems.box_contains.calls_per_epoch":
            (ratio(s.calls["problems.box_contains"], epochs), "count"),
        "problems.grad_coord.us_per_call": (s.per_call_us("problems.grad_coord"), "us"),
        "problems.grad_coord_line.us_per_call":
            (s.per_call_us("problems.grad_coord_line"), "us"),
        "problems.value.calls_per_epoch":
            (ratio(s.child_calls["optimizer.rssgd", "problems.value"], epochs), "count"),
        "optimizer.epochs": (epochs, "count"),
        "optimizer.epoch_self_us": (1e6 * ratio(s.layer_self_s("optimizer"), epochs),
                                    "us"),
        "optimizer.degenerate_frac": (ratio(epochs - line_searches, epochs), "ratio"),
        "optimizer.query_use_frac":
            (ratio(table_queries, sum(row.budget for row in traced_rows)), "ratio"),
        "harness.run_cell.ms_p50": (statistics.median(cell_ms), "ms"),
        "harness.run_cell.ms_p90": (cell_ms[int(0.9 * (len(cell_ms) - 1))], "ms"),
        "harness.run_cell.samples": (len(cell_ms), "count"),
        "harness.run_cell.self_us_per_call":
            (s.per_call_us("harness.run_cell", self_only=True), "us"),
        "harness.load_config.ms":
            (1e-3 * _median_us(lambda: harness.load_config(config_path), 5), "ms"),
        "harness.cell_pickle_bytes": (len(pickle.dumps(cell)), "bytes"),
        "harness.cell_pickle_us": (_median_us(lambda: pickle.dumps(cell), 9), "us"),
        "metrics.error_record.us_per_call":
            (s.per_call_us("metrics.error_record"), "us"),
        "metrics.slope_report.ms": (1e3 * statistics.median(rounds.slope_report_s)
                                    if rounds.slope_report_s else 0.0, "ms"),
    }
    for layer in spans.LAYERS:
        out[f"{layer}.self_ms_per_round"] = (1e3 * s.layer_self_s(layer) / len(traced),
                                             "ms")
    # The layers' self times add up to the traced rounds' wall time: this is 1
    # up to the benchmark's own call around each round.
    out["trace.self_sum_frac"] = (ratio(s.span_self_sum_s, traced_wall), "ratio")
    out["trace.queries_covered_frac"] = (ratio(s.queries, table_queries), "ratio")
    out["trace.overhead_frac"] = (1.0 - cells_per_s(traced) / cells_per_s(untraced),
                                  "ratio")
    return out


def measure(workload, seed: int, seconds: float, trace: bool,
            probes: int = SETUP_PROBES, emit=print) -> dict:
    """Run one workload; return the result object printed as the last line."""
    import_signopt()  # refuse before timing anything
    setup_times = setup_seconds(workload, seed, probes)
    harness, config_path, config = setup(workload, seed)
    jobs = 1 if trace else min(workload.jobs, len(os.sched_getaffinity(0)))
    emit(f"# machine {json.dumps(machine_facts(), sort_keys=True)}")
    emit(f"# workload {workload.name}: {workload.why}")
    emit(f"# jobs {jobs}, budgets {config.budgets}, "
         f"replications {config.replications}, seed {seed}")
    gap = do_nothing_gap(config)
    if gap is not None:
        emit(f"# do-nothing baseline f(x0) - f_min = {gap:.6g}")
        if not gap > 0.0:
            raise BenchError("f(x0) = f_min: doing nothing is already optimal")
    references = load_references(workload.name) if seed == DEFAULT_SEED else None
    rounds = Rounds(harness, config, seed, references, emit)

    if not trace:
        done = timed_rounds(rounds, seconds, jobs)
        if jobs > 1:
            emit("# determinism: round 0 again with one job")
            rounds.run(0, 1)
        metrics = end_to_end(done, rounds, setup_times, emit)
    else:
        if workload.jobs > 1:
            emit("# pool workload traced with one job: spans made in forked "
                 "workers are not collected")
        untraced = timed_rounds(rounds, seconds / 2.0, jobs)
        tracer = spans.Tracer()
        summary = spans.Summary()
        traced, first_spans = [], []
        with spans.install(tracer):
            for index in range(TRACE_ROUNDS):
                tracer.reset()
                traced.append(rounds.run(index, jobs, tracer))
                summary.add(tracer.spans)
                if index == 0:
                    first_spans = tracer.spans[:SPANS_WRITTEN]
        trace_path = OUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl"
        with trace_path.open("w") as fh:
            for record in spans.span_records(first_spans):
                fh.write(json.dumps(record) + "\n")
        emit(f"# first {len(first_spans)} spans of traced round 0 written to "
             f"{trace_path.relative_to(ROOT)}")
        metrics = per_layer(summary, traced, untraced, rounds, harness,
                            config_path, config)

    checked = [rounds]
    if references is None:
        emit("# reference digests are for the default seed: round 0 of it follows")
        _, _, default_config = setup(workload, DEFAULT_SEED)
        checked.append(Rounds(harness, default_config, DEFAULT_SEED,
                              load_references(workload.name), emit))
        checked[-1].run(0, jobs)
    failures = [f for r in checked for f in r.failures]
    for failure in failures:
        emit(f"# FAIL {failure}")
    return {"correct": not failures,
            "attempted": sum(r.attempted for r in checked),
            "failed": sum(r.failed for r in checked),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + sorted(TOY_WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    workload = {**WORKLOADS, **TOY_WORKLOADS}[args.workload]
    try:
        if args.setup_probe:
            setup(workload, args.seed)
            return 0
        result = measure(workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
