"""Config-driven experiment runner: budget sweeps, seeded replications, tables.

Configs are flat ``key = value`` text files with dotted section keys
(``problem.*``, ``oracle.*``, ``learner.*``, ``optimizer.*``, ``sweep.*``).
Every (budget, replication) cell derives all its random streams from
``(base_seed, replication, role[, epoch])``, and its row's ``seed`` is
``cell_seed(base_seed, replication)``, so tables are bit-reproducible and
independent of execution order, worker count and how cells are blocked.
A block of cells is one process's unit of work: the caller runs the first
block, and one worker process per other block, given the config and its
cells at start, sends its rows back through a pipe.  A
threshold sweep's bz cells in a block run in lockstep through one batched
learner.  Results are emitted as versioned CSV (17 significant digits).
"""

from __future__ import annotations

import csv
import io
import math
import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .learners import DRAWING_LEARNERS, GRID_AUTO, LearnerConfig, bz_learner, run_learner
from .metrics import error_record, fit_rate_slope
from .optimizer import OptimizerConfig, PAPER_DEFAULT, rssgd
from .oracles import (ExactSign, LabelOracle, ROLE_LABELS, ROLE_SAMPLING,
                      SIGN_MODES, SignOracle, seeded_rng)
from .problems import (Box, Interval, Quadratic, Ridge, SeparablePower, TncProblem,
                       UcFunction, load_ridge_text)

SCHEMA_VERSION = 1
JOBS_ENV_VAR = "SIGNOPT_JOBS"

KIND_THRESHOLD = "learn-threshold"
KIND_OPTIMIZE = "optimize"
# oracle.mode = quantized, the sign rounded to oracle.decimals places, loads
# ExactSign: rounding never flips a nonzero sign, and a zero keeps the true sign
QUANTIZED = "quantized"

ERROR_COLUMNS = ("excess_risk", "f_error", "point_error")
STATISTICS = ("median", "mean")  # how slope_report aggregates a budget's rows


class ConfigError(ValueError):
    """A config file failed validation; the message names the offending key."""


# ---------------------------------------------------------------------------
# config file parsing

# The keys that only some configs read, keyed by what selects them: a config
# reads the keys of each (selector, value) entry it selects, and the None
# entry's keys always.  The learner is selected by learner.name
# (learn-threshold) or optimizer.line_search (optimize).
_KEY_TABLE = {
    None: {None: ("kind", "id", "budget", "slope.column", "oracle.budget", "sweep.budgets",
                  "sweep.replications", "sweep.base_seed")},
    "kind": {
        KIND_THRESHOLD: ("problem.lo", "problem.hi", "problem.t", "problem.k", "problem.mu",
                         "problem.cap", "problem.orientation", "learner.name",
                         "learner.orientation"),
        KIND_OPTIMIZE: ("problem.family", "problem.box_lo", "problem.box_hi", "oracle.mode",
                        "optimizer.epoch_rule", "optimizer.line_search", "optimizer.x0"),
    },
    "problem.family": {
        "separable-power": ("problem.dim", "problem.x_star", "problem.k", "problem.coeffs"),
        "quadratic": ("problem.dim", "problem.x_star", "problem.a_diag"),
        "ridge": ("problem.matrix_file",),
    },
    "oracle.mode": {**{mode.name: tuple(f"oracle.{f.name}" for f in fields(mode))
                       for mode in SIGN_MODES}, QUANTIZED: ("oracle.decimals",)},
    "learner": {"adaptive": ("learner.c_delta",),
                "bz": ("learner.grid_size", "learner.bz_k", "learner.bz_mu")},
}
_KNOWN_KEYS = {key for by_value in _KEY_TABLE.values() for keys in by_value.values()
               for key in keys}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blank lines skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


@contextmanager
def _config_errors(prefix: str, keys: dict | None = None):
    """Raise a ValueError of the enclosed build as a ConfigError naming its key.

    A library error starts with the parameter at fault, ``field: reason``;
    its key is ``keys[field]``, else ``prefix + field``.
    """
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        field, _, reason = str(exc).partition(": ")
        raise ConfigError(f"{(keys or {}).get(field, prefix + field)}: {reason}") from exc


_EXPECTED = {float: "a number", int: "an integer", _floats: "numbers", _ints: "integers"}


def _get(raw: dict, key: str, parse=str, word=None):
    """``raw[key]``, a required key, parsed by ``parse``; the value ``word``
    (``auto``, ``center``, ...) stands for itself unparsed."""
    if key not in raw:
        raise ConfigError(f"{key}: required key is missing")
    if raw[key] == word:
        return word
    try:
        return parse(raw[key])
    except ValueError:
        raise ConfigError(f"{key}: expected {_EXPECTED[parse]}, got {raw[key]!r}") from None


def _given(raw: dict, keys: dict) -> dict:
    """The arguments ``{parameter: (key, *how _get reads it)}`` whose keys ``raw``
    sets; a parameter whose key is unset is left out, to take its type's default."""
    return {param: _get(raw, key, *how) for param, (key, *how) in keys.items() if key in raw}


@dataclass
class OracleSpec:
    """The sign mode of optimize cells, and an optional cap on every oracle.

    ``budget`` caps oracle queries below the cell budget (cells that hit the
    cap record error rows).
    """

    mode: object = ExactSign()
    budget: int | None = None


@dataclass
class ExperimentConfig:
    """One experiment: its problem, oracles, method and sweep.

    Its ``kind`` is its problem's.  It holds only the method its cells run:
    threshold cells run ``learner``, optimize cells ``optimizer``, whose
    ``line_search`` is their learner.
    """

    problem: TncProblem | UcFunction
    experiment_id: str = "exp"
    learner: LearnerConfig | None = None
    oracle: OracleSpec = field(default_factory=OracleSpec)
    optimizer: OptimizerConfig | None = None
    budgets: list[int] | None = None
    replications: int = 1
    base_seed: int = 0
    slope_column: str = "excess_risk"
    single_budget: int | None = None

    @property
    def kind(self) -> str:
        return KIND_THRESHOLD if isinstance(self.problem, TncProblem) else KIND_OPTIMIZE

    def __post_init__(self):
        if not isinstance(self.problem, (TncProblem, UcFunction)):
            raise ConfigError("problem: expected a TncProblem or a UcFunction, "
                              f"got {type(self.problem).__name__}")
        runs, other = ("learner", "optimizer")[::1 if self.kind == KIND_THRESHOLD else -1]
        if getattr(self, runs) is None:
            raise ConfigError(f"{runs}: required by {self.kind} cells")
        if getattr(self, other) is not None:
            raise ConfigError(f"{other}: not run by {self.kind} cells")
        if self.budgets is not None:
            if not self.budgets:
                raise ConfigError("sweep.budgets: must not be empty")
            if any(b < 1 for b in self.budgets):
                raise ConfigError("sweep.budgets: budgets must be positive")
            if any(b2 <= b1 for b1, b2 in zip(self.budgets, self.budgets[1:])):
                raise ConfigError("sweep.budgets: budgets must be strictly increasing")
        if self.experiment_id in ("", ".", "..") or {"/", "\\"} & set(self.experiment_id):
            raise ConfigError(f"id: cannot name a table file, got {self.experiment_id!r}")
        if self.single_budget is not None and self.single_budget < 1:
            raise ConfigError("budget: must be positive")
        if self.replications < 1:
            raise ConfigError("sweep.replications: must be at least 1")
        if self.slope_column not in ERROR_COLUMNS:
            raise ConfigError(f"slope.column: expected one of {ERROR_COLUMNS}, "
                              f"got {self.slope_column!r}")
        for key, value in (("sweep.base_seed", self.base_seed),
                           ("oracle.budget", self.oracle.budget)):
            if value is not None and value < 0:
                raise ConfigError(f"{key}: must be non-negative, got {value}")
        if self.kind == KIND_OPTIMIZE and not isinstance(self.optimizer.x0, str):
            try:
                self.problem.point(self.optimizer.x0)
            except ValueError as exc:  # its messages name no field
                raise ConfigError(f"optimizer.x0: {exc}") from exc


def _build_tnc_problem(raw: dict) -> TncProblem:
    lo, hi = _get(raw, "problem.lo", float), _get(raw, "problem.hi", float)
    with _config_errors("problem.", {"threshold": "problem.t", "exponent": "problem.k"}):
        return TncProblem(Interval(lo, hi), threshold=_get(raw, "problem.t", float),
                          exponent=_get(raw, "problem.k", float),
                          mu=_get(raw, "problem.mu", float),
                          cap=_get(raw, "problem.cap", float),
                          **_given(raw, {"orientation": ("problem.orientation",)}))


def _vector(raw: dict, key: str, dim: int) -> np.ndarray:
    """``key``'s values as a ``dim``-vector; a single value stands for every entry."""
    values = np.asarray(_get(raw, key, _floats))
    if values.size == 1:
        values = np.full(dim, values[0])
    if values.shape != (dim,):
        raise ConfigError(f"{key}: expected 1 or {dim} values, got {values.size}")
    return values


def _box(raw: dict, dim: int) -> Box:
    """The box of ``problem.box_lo`` and ``problem.box_hi``, each 1 or ``dim`` values."""
    lo, hi = _vector(raw, "problem.box_lo", dim), _vector(raw, "problem.box_hi", dim)
    with _config_errors("problem.box_"):
        return Box(lo, hi)


def _build_function(raw: dict, base_dir: Path) -> UcFunction:
    family = _get(raw, "problem.family")
    if family == "ridge":
        path = base_dir / _get(raw, "problem.matrix_file")
        try:
            design, targets = load_ridge_text(path)
        except ValueError as exc:  # its messages start with the path
            raise ConfigError(f"problem.matrix_file: {exc}") from exc
        box = _box(raw, design.shape[1])
        with _config_errors("problem.", dict.fromkeys(("design", "targets"),
                                                      "problem.matrix_file")):
            return Ridge(design, targets, box)
    dim = _get(raw, "problem.dim", int)
    if dim < 1:
        raise ConfigError(f"problem.dim: must be at least 1, got {dim}")
    box = _box(raw, dim)
    x_star = _vector(raw, "problem.x_star", dim)
    if family == "separable-power":
        coeffs = _vector(raw, "problem.coeffs", dim)
        with _config_errors("problem.", {"exponent": "problem.k"}):
            return SeparablePower(coeffs, x_star, box,
                                  **_given(raw, {"exponent": ("problem.k", float)}))
    if family == "quadratic":
        matrix = np.diag(_vector(raw, "problem.a_diag", dim))
        with _config_errors("problem.", {"matrix": "problem.a_diag"}):
            return Quadratic(matrix, x_star, box)
    raise ConfigError(f"problem.family: unknown family {family!r}")


def _build_mode(raw: dict):
    """The sign mode ``oracle.mode`` names, from the ``oracle.*`` keys it declares."""
    name = raw["oracle.mode"]
    if name == QUANTIZED:  # 10.0 ** decimals, the rounding scale, overflows beyond 308
        if "oracle.decimals" in raw and not 0 <= _get(raw, "oracle.decimals", int) <= 308:
            raise ConfigError("oracle.decimals: must lie in [0, 308]")
        return ExactSign()
    mode = next((m for m in SIGN_MODES if m.name == name), None)
    if mode is None:
        raise ConfigError(f"oracle.mode: unknown mode {name!r}")
    with _config_errors("oracle."):
        return mode(**_given(raw, {f.name: (f"oracle.{f.name}", type(f.default))
                                   for f in fields(mode)}))


def load_config(path) -> ExperimentConfig:
    """Load and validate an experiment config file.

    ``kind`` picks the problem builder and the keys the config may set.
    Every value the kind reads is built and checked before the keys that the
    config never reads are rejected, so a bad value is reported as such first.
    """
    path = Path(path)
    raw = parse_config_text(path.read_text())
    unknown = sorted(set(raw) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"{unknown[0]}: unknown key")
    kind = _get(raw, "kind")
    if kind == KIND_THRESHOLD:
        problem: TncProblem | UcFunction = _build_tnc_problem(raw)
    elif kind == KIND_OPTIMIZE:
        problem = _build_function(raw, path.parent)
    else:
        raise ConfigError(f"kind: expected {KIND_THRESHOLD!r} or {KIND_OPTIMIZE!r}, "
                          f"got {kind!r}")

    # the one learner: the threshold learner, or the optimizer's line search
    name_key = "learner.name" if kind == KIND_THRESHOLD else "optimizer.line_search"
    with _config_errors("learner.", {"name": name_key}):
        learner = LearnerConfig(**_given(raw, {
            "name": (name_key,), "c_delta": ("learner.c_delta", float),
            "orientation": ("learner.orientation",),
            "grid_size": ("learner.grid_size", int, GRID_AUTO),
            "bz_k": ("learner.bz_k", float), "bz_mu": ("learner.bz_mu", float)}))
    method = {"learner": learner}
    if kind == KIND_OPTIMIZE:
        with _config_errors("optimizer."):
            method = {"optimizer": OptimizerConfig(line_search=learner, **_given(raw, {
                "epoch_rule": ("optimizer.epoch_rule", int, PAPER_DEFAULT),
                "x0": ("optimizer.x0", _floats, "center")}))}

    mode = {"mode": _build_mode(raw)} if "oracle.mode" in raw else {}
    oracle = OracleSpec(**mode, **_given(raw, {"budget": ("oracle.budget", int)}))
    config = ExperimentConfig(
        problem=problem, **method, experiment_id=raw.get("id", path.stem), oracle=oracle,
        **_given(raw, {"budgets": ("sweep.budgets", _ints),
                       "replications": ("sweep.replications", int),
                       "base_seed": ("sweep.base_seed", int), "slope_column": ("slope.column",),
                       "single_budget": ("budget", int)}))
    selected = {("kind", kind): f"kind = {kind} configs",
                ("learner", learner.name): f"{name_key} = {learner.name}"}
    if kind == KIND_OPTIMIZE:
        for selector, value in (("problem.family", raw["problem.family"]),
                                ("oracle.mode", raw.get("oracle.mode", oracle.mode.name))):
            selected[selector, value] = f"{selector} = {value}"
    _reject_unread_keys(raw, selected)
    return config


def _reject_unread_keys(raw: dict, selected: dict) -> None:
    """Raise on the first key that no ``_KEY_TABLE`` entry the config selects lists.

    ``selected`` maps each selected (selector, value) entry, the kind's
    first, to how the message names it.  The message names the last
    selector that reads the key for some value, else the kind.
    """
    read = set(_KEY_TABLE[None][None]).union(
        *(_KEY_TABLE[selector].get(value, ()) for selector, value in selected))
    stray = sorted(set(raw) - read)
    if stray:
        reader = next(label for (selector, _), label in reversed(selected.items())
                      if selector == "kind"
                      or any(stray[0] in keys for keys in _KEY_TABLE[selector].values()))
        raise ConfigError(f"{stray[0]}: not read by {reader}")


# ---------------------------------------------------------------------------
# table rows and serialization

@dataclass(slots=True)
class Row:
    experiment_id: str
    kind: str
    budget: int
    replication: int
    seed: int
    estimate: float | str | None
    point_error: float | None
    excess_risk: float | None
    f_error: float | None
    queries_used: int | None
    error: str
    wall_time_ms: float


CSV_COLUMNS = tuple(f.name for f in fields(Row))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _optional(parse):
    """``parse`` for a cell whose empty text stands for None."""
    return lambda text: parse(text) if text else None


# from_csv's reader of each Row field's cell; a table may leave out only the
# columns of _ABSENT, which read as its values
_CELL_READERS = {"experiment_id": str, "kind": str, "budget": int, "replication": int,
                 "seed": int, "estimate": _optional(str), "point_error": _optional(float),
                 "excess_risk": _optional(float), "f_error": _optional(float),
                 "queries_used": _optional(int), "error": str, "wall_time_ms": float}
_ABSENT = {"wall_time_ms": 0.0}


@dataclass
class RunTable:
    """Rows of one experiment sweep, ordered by (budget, replication)."""

    rows: list[Row]

    def csv_text(self, include_timing: bool = True) -> str:
        cols = CSV_COLUMNS if include_timing else CSV_COLUMNS[:-1]
        out = io.StringIO()
        out.write(f"# schema_version={SCHEMA_VERSION}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(cols)
        writer.writerows([_fmt(getattr(row, c)) for c in cols] for row in self.rows)
        return out.getvalue()

    def to_csv(self, path, include_timing: bool = True) -> None:
        Path(path).write_text(self.csv_text(include_timing))

    @classmethod
    def from_csv(cls, path) -> "RunTable":
        """A CSV table's rows.  A missing column, or a row or cell that does not fit the
        header or its ``Row`` field, raises ValueError naming it (rows from 1)."""
        with open(path, newline="") as f:
            records = [r for r in csv.reader(f) if r]
        # comment lines precede the header; after it, a row's id may start with '#'
        while records and records[0][0].startswith("#"):
            del records[0]
        if not records:
            raise ValueError(f"{path}: no header row")
        header = records[0]
        missing = [c for c in CSV_COLUMNS if c not in header and c not in _ABSENT]
        if missing:
            raise ValueError(f"{path}: no column {missing[0]}")
        rows = []
        for n, record in enumerate(records[1:], start=1):
            if len(record) != len(header):
                raise ValueError(f"{path}: row {n}: {len(record)} cells, {len(header)} columns")
            cells = dict(zip(header, record))
            values = {}
            for c, read in _CELL_READERS.items():
                try:
                    values[c] = read(cells[c]) if c in cells else _ABSENT[c]
                except ValueError as exc:
                    raise ValueError(f"{path}: row {n}, column {c}: {exc}") from None
            rows.append(Row(**values))
        return cls(rows)

    @property
    def n_errors(self) -> int:
        return sum(1 for r in self.rows if r.error)


# ---------------------------------------------------------------------------
# cell execution

def cell_seed(base_seed: int, replication: int) -> int:
    """Stable 64-bit key of the (base_seed, replication) stream family."""
    seq = np.random.SeedSequence((int(base_seed), int(replication)))
    return int(seq.generate_state(1, np.uint64)[0])


def _row(config: ExperimentConfig, budget: int, replication: int, outcome,
         wall_ms: float) -> Row:
    """The table row of one cell from its run's outcome: (point, queries) or
    the exception that ended it."""
    estimate: float | str | None = None
    point_error = risk = f_error = queries = None
    error = ""
    try:
        if isinstance(outcome, Exception):
            raise outcome
        point, queries = outcome
        rec = error_record(config.problem, point)
        point_error, risk, f_error = rec.point_error, rec.excess_risk, rec.f_error
        estimate = (float(point) if config.kind == KIND_THRESHOLD
                    else " ".join(f"{v:.17g}" for v in point))
    except Exception as exc:  # noqa: BLE001 - a cell failure must not kill the sweep
        error = f"{type(exc).__name__}: {exc}"
    return Row(experiment_id=config.experiment_id, kind=config.kind, budget=budget,
               replication=replication, seed=cell_seed(config.base_seed, replication),
               estimate=estimate, point_error=point_error, excess_risk=risk,
               f_error=f_error, queries_used=queries, error=error, wall_time_ms=wall_ms)


def _oracle(config: ExperimentConfig, budget: int,
            replication: int) -> LabelOracle | SignOracle:
    """The cell's label or sign oracle, on its label stream and under its cap."""
    rng = seeded_rng(config.base_seed, replication, ROLE_LABELS)
    if config.oracle.budget is not None:
        budget = min(budget, config.oracle.budget)
    if config.kind == KIND_THRESHOLD:
        return LabelOracle(config.problem, rng, budget=budget)
    return SignOracle(config.problem, config.oracle.mode, rng, budget=budget)


def run_cell(config: ExperimentConfig, budget: int, replication: int) -> Row:
    """Execute one (budget, replication) cell on its own; failures become error rows."""
    start = time.perf_counter()
    try:
        oracle = _oracle(config, budget, replication)
        if config.kind == KIND_THRESHOLD:
            rng = (seeded_rng(config.base_seed, replication, ROLE_SAMPLING)
                   if config.learner.name in DRAWING_LEARNERS else None)
            point = run_learner(oracle, config.problem.interval,
                                config.learner.for_budget(budget, dither=replication), rng)
        else:
            point = rssgd(config.problem, oracle, replace(
                config.optimizer, budget=budget, seed=(config.base_seed, replication)))
        outcome = (point, oracle.queries_used)
    except Exception as exc:  # noqa: BLE001 - a cell failure must not kill the sweep
        outcome = exc
    return _row(config, budget, replication, outcome,
                (time.perf_counter() - start) * 1e3)


def _run_bz_cells(config: ExperimentConfig, cells) -> list[Row]:
    """The bz cells of a threshold sweep in lockstep, through one ``bz_learner`` call.

    The rows' ``wall_time_ms`` split the block's time in proportion to
    their queries.
    """
    start = time.perf_counter()
    runs = []  # per cell: (oracle, learner config), or the exception that stopped it
    for budget, replication in cells:
        try:
            runs.append((_oracle(config, budget, replication),
                         config.learner.for_budget(budget, dither=replication)))
        except Exception as exc:  # noqa: BLE001 - a cell failure must not kill the sweep
            runs.append(exc)
    ready = [run for run in runs if not isinstance(run, Exception)]
    results = iter(bz_learner([oracle for oracle, _ in ready], config.problem.interval,
                              [learner for _, learner in ready]))
    rows, queries = [], []
    for (budget, replication), run in zip(cells, runs):
        outcome, used = run, 0
        if not isinstance(run, Exception):
            result, used = next(results), run[0].queries_used
            outcome = result if isinstance(result, Exception) else (result, used)
        rows.append(_row(config, budget, replication, outcome, 0.0))
        queries.append(used)
    wall_ms, total = (time.perf_counter() - start) * 1e3, sum(queries)
    for row, used in zip(rows, queries):
        row.wall_time_ms = wall_ms * (used / total if total else 1.0 / len(rows))
    return rows


def run_block(config: ExperimentConfig, cells) -> list[Row]:
    """Execute a block of (budget, replication) cells; failures become error rows.

    The bz cells of a threshold sweep run in lockstep through one
    ``bz_learner`` call; every other cell runs on its own through
    ``run_cell``, whose searches go through the one-search entry ``run_learner``.
    Each row is the same as ``run_cell`` gives for its cell alone.
    """
    if config.kind == KIND_THRESHOLD and config.learner.name == "bz":
        return _run_bz_cells(config, cells)
    return [run_cell(config, budget, replication) for budget, replication in cells]


def resolve_jobs(n_jobs: int | None) -> int:
    """Process count, caller included: ``n_jobs`` (--jobs), else $SIGNOPT_JOBS, else 1."""
    source, value = "--jobs", n_jobs
    if value is None:
        source, value = JOBS_ENV_VAR, os.environ.get(JOBS_ENV_VAR) or 1
    try:
        jobs = int(value)
    except ValueError:
        raise ConfigError(f"{source}: expected an integer, got {value!r}") from None
    if jobs < 1:
        raise ConfigError(f"{source}: must be at least 1, got {jobs}")
    return jobs


def _run_worker_block(conn, config: ExperimentConfig, cells) -> None:
    with conn:
        conn.send(run_block(config, cells))


def run_experiment(config: ExperimentConfig, n_jobs: int | None = None) -> RunTable:
    """Run every (budget, replication) cell of the sweep.

    The cells are split round robin into at most ``n_jobs`` blocks.  The
    caller runs the first block with ``run_block`` while one worker process
    per other block runs the rest.  A worker receives the config and its
    cells when it starts (inherited, not pickled, under the ``fork`` start
    method) and sends its rows back through a one-way pipe; every worker has
    exited and been reaped when this returns.  Identical configs produce
    identical tables regardless of worker count or split; rows are assembled
    in (budget, replication) order.
    """
    if config.budgets is None:
        raise ConfigError("sweep.budgets: required to run a sweep")
    cells = [(budget, rep)
             for budget in config.budgets
             for rep in range(config.replications)]
    n_jobs = resolve_jobs(n_jobs)
    # round robin: every block gets a share of each budget
    blocks = [cells[i::n_jobs] for i in range(min(n_jobs, len(cells)))]
    workers = []  # (process, receive end) of every started worker
    try:
        for block in blocks[1:]:
            conn, sender = multiprocessing.Pipe(duplex=False)
            worker = multiprocessing.Process(target=_run_worker_block,
                                             args=(sender, config, block))
            with sender:  # once started, the worker holds the only send end
                worker.start()
            workers.append((worker, conn))
        rows = run_block(config, blocks[0])
        for worker, conn in workers:  # read before join: a large send blocks until read
            try:
                rows += conn.recv()
            except EOFError:  # the worker exited unsent: it raised or was killed
                worker.join()
                raise RuntimeError(f"a sweep worker exited with code {worker.exitcode} "
                                   "before sending its rows") from None
    except BaseException:
        for worker, _ in workers:
            worker.terminate()  # it may be blocked sending rows that no one will read
        raise
    finally:
        for worker, conn in workers:
            worker.join()
            conn.close()
    rows.sort(key=lambda r: (r.budget, r.replication))
    return RunTable(rows)


# ---------------------------------------------------------------------------
# slope reports

@dataclass
class BudgetSummary:
    budget: int
    value: float
    n_rows: int
    n_zero: int


@dataclass
class SlopeReport:
    slope: float
    intercept: float
    max_residual: float
    statistic: str
    error_column: str
    per_budget: list[BudgetSummary]
    excluded_budgets: list[int]
    n_error_rows: int


def slope_report(table: RunTable, statistic: str = "median",
                 error_column: str = "excess_risk") -> SlopeReport:
    """Aggregate one error column per budget and fit the log-log slope.

    A row that failed, or whose value is empty or not finite, is unusable:
    it is counted in ``n_error_rows`` and left out.  The fit takes every
    budget whose aggregate is positive, and ``excluded_budgets`` the rest.
    """
    if statistic not in STATISTICS:
        raise ValueError(f"statistic must be one of {STATISTICS}")
    if error_column not in ERROR_COLUMNS:
        raise ValueError(f"unknown error column {error_column!r}")
    groups: dict[int, list[float]] = {}
    n_error_rows = 0
    for row in table.rows:
        value = getattr(row, error_column)
        if row.error or value is None or not math.isfinite(value):
            n_error_rows += 1
        else:
            groups.setdefault(row.budget, []).append(float(value))
    summaries = []
    for budget in sorted(groups):
        values = np.asarray(groups[budget])
        agg = float(np.median(values)) if statistic == "median" else float(values.mean())
        summaries.append(BudgetSummary(budget=budget, value=agg, n_rows=values.size,
                                       n_zero=int(np.count_nonzero(values == 0.0))))
    points = [(s.budget, s.value) for s in summaries if s.value > 0.0]
    if len(points) < 2:
        raise ValueError(f"need at least 2 budgets with positive {statistic} {error_column}, "
                         f"have {len(points)} ({n_error_rows} of {len(table.rows)} rows unusable)")
    fit = fit_rate_slope(points)
    return SlopeReport(slope=fit.slope, intercept=fit.intercept,
                       max_residual=fit.max_residual, statistic=statistic,
                       error_column=error_column, per_budget=summaries,
                       excluded_budgets=[s.budget for s in summaries if s.value <= 0.0],
                       n_error_rows=n_error_rows)
