"""Config-driven experiment runner: budget sweeps, seeded replications, tables.

Configs are flat ``key = value`` text files with dotted section keys
(``problem.*``, ``oracle.*``, ``learner.*``, ``optimizer.*``, ``sweep.*``).
Every (budget, replication) cell derives its random streams from
``(base_seed, replication, role)``, so tables are bit-reproducible and
independent of execution order, worker count and how cells are blocked.
A block of cells is one worker's unit of work; a threshold sweep's bz cells
in a block run in lockstep through one batched learner.  Results are
emitted as versioned CSV (17 significant digits) or JSON mirroring the same
rows.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .learners import GRID_AUTO, LEARNERS, LearnerConfig, bz_rows, run_learner
from .metrics import error_record, fit_rate_slope
from .optimizer import OptimizerConfig, PAPER_DEFAULT, rssgd
from .oracles import (ExactSign, LabelOracle, ROLE_LABELS, ROLE_SAMPLING,
                      SIGN_MODES, SignOracle, seeded_rng)
from .problems import (Interval, POSITIVE_RIGHT, Quadratic, Ridge,
                       SeparablePower, TncProblem, UcFunction, box_from_bounds,
                       load_ridge_text)

SCHEMA_VERSION = 1
JOBS_ENV_VAR = "SIGNOPT_JOBS"

KIND_THRESHOLD = "learn-threshold"
KIND_OPTIMIZE = "optimize"

CSV_COLUMNS = ("experiment_id", "kind", "budget", "replication", "seed",
               "estimate", "point_error", "excess_risk", "f_error",
               "queries_used", "error", "wall_time_ms")
ERROR_COLUMNS = ("excess_risk", "f_error", "point_error")


class ConfigError(ValueError):
    """A config file failed validation; the message names the offending key."""


# ---------------------------------------------------------------------------
# config file parsing

# each sign mode's parameters, as oracle.<field> keys
_MODE_KEYS = {f"oracle.{f.name}" for mode in SIGN_MODES for f in fields(mode)}
# keys that only one kind of config reads
_THRESHOLD_KEYS = {"problem.lo", "problem.hi", "problem.t", "problem.mu", "problem.cap",
                   "problem.orientation", "learner.name", "learner.orientation"}
_OPTIMIZE_KEYS = _MODE_KEYS | {
    "problem.family", "problem.dim", "problem.box_lo", "problem.box_hi",
    "problem.coeffs", "problem.x_star", "problem.a_diag", "problem.a",
    "problem.matrix_file", "oracle.mode",
    "optimizer.epoch_rule", "optimizer.line_search", "optimizer.x0",
}
_KNOWN_KEYS = _THRESHOLD_KEYS | _OPTIMIZE_KEYS | {
    "kind", "id", "budget", "report", "output",
    "slope.column", "slope.statistic", "problem.k",
    "oracle.seed", "oracle.budget",
    "learner.c_delta", "learner.grid_size", "learner.bz_k", "learner.bz_mu",
    "sweep.budgets", "sweep.replications", "sweep.base_seed",
}
# keys that only one problem family or one learner reads
_FAMILY_KEYS = {"separable-power": {"problem.k", "problem.coeffs"},
                "quadratic": {"problem.a_diag", "problem.a"},
                "ridge": {"problem.matrix_file"}}
_LEARNER_KEYS = {"adaptive": {"learner.c_delta"},
                 "bz": {"learner.grid_size", "learner.bz_k", "learner.bz_mu"}}


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


def _need(raw: dict, key: str) -> str:
    if key not in raw:
        raise ConfigError(f"{key}: required key is missing")
    return raw[key]


def _get_float(raw: dict, key: str, default=None):
    if key not in raw:
        if default is None:
            raise ConfigError(f"{key}: required key is missing")
        return default
    try:
        return float(raw[key])
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw[key]!r}") from None


def _get_int(raw: dict, key: str, default=None):
    if key not in raw:
        if default is None:
            raise ConfigError(f"{key}: required key is missing")
        return default
    try:
        return int(raw[key])
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw[key]!r}") from None


def _get_floats(raw: dict, key: str):
    try:
        return [float(tok) for tok in raw[key].replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"{key}: expected numbers, got {raw[key]!r}") from None


def _get_ints(raw: dict, key: str):
    try:
        return [int(tok) for tok in raw[key].replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"{key}: expected integers, got {raw[key]!r}") from None


@dataclass
class OracleSpec:
    """The sign mode of optimize cells, and optional overrides of every oracle.

    ``seed`` re-keys the label stream independently of the sweep seed;
    ``budget`` caps oracle queries below the cell budget (cells that hit the
    cap record error rows).
    """

    mode: object = ExactSign()
    seed: int | None = None
    budget: int | None = None


@dataclass
class ExperimentConfig:
    kind: str
    problem: TncProblem | UcFunction
    experiment_id: str = "exp"
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    oracle: OracleSpec = field(default_factory=OracleSpec)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    budgets: list[int] | None = None
    replications: int = 1
    base_seed: int = 0
    report: str = "csv"
    output: str | None = None
    slope_column: str = "excess_risk"
    slope_statistic: str = "median"
    single_budget: int | None = None

    def __post_init__(self):
        if self.kind not in (KIND_THRESHOLD, KIND_OPTIMIZE):
            raise ConfigError(f"kind: expected {KIND_THRESHOLD!r} or "
                              f"{KIND_OPTIMIZE!r}, got {self.kind!r}")
        if self.budgets is not None:
            if not self.budgets:
                raise ConfigError("sweep.budgets: must not be empty")
            if any(b < 1 for b in self.budgets):
                raise ConfigError("sweep.budgets: budgets must be positive")
            if any(b2 <= b1 for b1, b2 in zip(self.budgets, self.budgets[1:])):
                raise ConfigError("sweep.budgets: budgets must be strictly increasing")
        if self.single_budget is not None and self.single_budget < 1:
            raise ConfigError("budget: must be positive")
        if self.replications < 1:
            raise ConfigError("sweep.replications: must be at least 1")
        if self.report not in ("csv", "json", "slope-summary"):
            raise ConfigError(f"report: unknown report kind {self.report!r}")
        if self.slope_statistic not in ("median", "mean"):
            raise ConfigError("slope.statistic: expected 'median' or 'mean'")
        if self.slope_column not in ERROR_COLUMNS:
            raise ConfigError(f"slope.column: expected one of {ERROR_COLUMNS}, "
                              f"got {self.slope_column!r}")


def _build_tnc_problem(raw: dict) -> TncProblem:
    try:
        return TncProblem(
            interval=Interval(_get_float(raw, "problem.lo"), _get_float(raw, "problem.hi")),
            threshold=_get_float(raw, "problem.t"),
            exponent=_get_float(raw, "problem.k"),
            mu=_get_float(raw, "problem.mu"),
            cap=_get_float(raw, "problem.cap"),
            orientation=raw.get("problem.orientation", "positive-right"),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"problem: {exc}") from exc


def _build_function(raw: dict, base_dir: Path) -> UcFunction:
    family = _need(raw, "problem.family")
    try:
        if family == "ridge":
            path = Path(_need(raw, "problem.matrix_file"))
            if not path.is_absolute():
                path = base_dir / path
            design, targets = load_ridge_text(path)
            box = None
            if "problem.box_lo" in raw and "problem.box_hi" in raw:
                box = box_from_bounds(_get_floats(raw, "problem.box_lo"),
                                      _get_floats(raw, "problem.box_hi"),
                                      dim=design.shape[1])
            return Ridge(design, targets, box)
        dim = _get_int(raw, "problem.dim")
        box = box_from_bounds(_get_floats(raw, "problem.box_lo"),
                              _get_floats(raw, "problem.box_hi"), dim=dim)
        x_star = np.asarray(_get_floats(raw, "problem.x_star"))
        if x_star.size == 1:
            x_star = np.full(dim, x_star[0])
        if family == "separable-power":
            coeffs = np.asarray(_get_floats(raw, "problem.coeffs"))
            if coeffs.size == 1:
                coeffs = np.full(dim, coeffs[0])
            return SeparablePower(coeffs, x_star, box,
                                  exponent=_get_float(raw, "problem.k", 2.0))
        if family == "quadratic":
            if "problem.a_diag" in raw:
                diag = _get_floats(raw, "problem.a_diag")
                matrix = np.diag(np.full(dim, diag[0]) if len(diag) == 1 else diag)
            elif "problem.a" in raw:
                rows = [[float(tok) for tok in row.replace(",", " ").split()]
                        for row in raw["problem.a"].split(";")]
                matrix = np.asarray(rows)
            else:
                raise ConfigError("problem.a_diag or problem.a: required for quadratic")
            return Quadratic(matrix, x_star, box)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"problem: {exc}") from exc
    raise ConfigError(f"problem.family: unknown family {family!r}")


def _build_mode(raw: dict):
    """The sign mode ``oracle.mode`` names, from the ``oracle.*`` keys it declares."""
    name = raw.get("oracle.mode", ExactSign.name)
    mode = next((m for m in SIGN_MODES if m.name == name), None)
    if mode is None:
        raise ConfigError(f"oracle.mode: unknown mode {name!r}")
    declared = {f"oracle.{f.name}": f for f in fields(mode)}
    stray = sorted(k for k in raw if k in _MODE_KEYS and k not in declared)
    if stray:
        raise ConfigError(f"{stray[0]}: not a parameter of oracle.mode = {name}")
    params = {}
    for key, f in declared.items():
        if key in raw:
            get = _get_int if isinstance(f.default, int) else _get_float
            params[f.name] = get(raw, key)
    try:
        return mode(**params)
    except ValueError as exc:
        raise ConfigError(f"oracle.{exc}") from exc


def load_config(path) -> ExperimentConfig:
    """Load and validate an experiment config file."""
    path = Path(path)
    raw = parse_config_text(path.read_text())
    unknown = sorted(set(raw) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"{unknown[0]}: unknown key")
    kind = _need(raw, "kind")
    if kind == KIND_THRESHOLD:
        problem: TncProblem | UcFunction = _build_tnc_problem(raw)
    elif kind == KIND_OPTIMIZE:
        problem = _build_function(raw, path.parent)
    else:
        raise ConfigError(f"kind: expected {KIND_THRESHOLD!r} or {KIND_OPTIMIZE!r}, "
                          f"got {kind!r}")

    grid_size: int | str | None = raw.get("learner.grid_size")
    if grid_size not in (None, GRID_AUTO):
        grid_size = _get_int(raw, "learner.grid_size")
    learner_fields = dict(
        c_delta=_get_float(raw, "learner.c_delta", 2.0),
        orientation=raw.get("learner.orientation", POSITIVE_RIGHT),
        grid_size=grid_size,
        bz_k=_get_float(raw, "learner.bz_k") if "learner.bz_k" in raw else None,
        bz_mu=_get_float(raw, "learner.bz_mu") if "learner.bz_mu" in raw else None,
    )
    line_search = raw.get("optimizer.line_search", "adaptive")
    if line_search not in LEARNERS:
        raise ConfigError(f"optimizer.line_search: expected one of {LEARNERS}")
    try:
        learner = LearnerConfig(raw.get("learner.name", "adaptive"), **learner_fields)
        # learner.* also parameterizes the line search of optimize configs
        line_config = LearnerConfig(line_search, **learner_fields)
    except ValueError as exc:
        raise ConfigError(f"learner.{exc}") from exc

    oracle = OracleSpec(
        mode=_build_mode(raw),
        seed=_get_int(raw, "oracle.seed") if "oracle.seed" in raw else None,
        budget=_get_int(raw, "oracle.budget") if "oracle.budget" in raw else None,
    )

    epoch_rule: int | str = raw.get("optimizer.epoch_rule", PAPER_DEFAULT)
    if epoch_rule != PAPER_DEFAULT:
        epoch_rule = _get_int(raw, "optimizer.epoch_rule")
    x0: str | list[float] = raw.get("optimizer.x0", "center")
    if x0 != "center":
        x0 = _get_floats(raw, "optimizer.x0")
    try:
        optimizer = OptimizerConfig(epoch_rule=epoch_rule, line_search=line_config,
                                    x0=x0)
    except ValueError as exc:
        raise ConfigError(f"optimizer.{exc}") from exc

    budgets = _get_ints(raw, "sweep.budgets") if "sweep.budgets" in raw else None
    config = ExperimentConfig(
        kind=kind,
        problem=problem,
        experiment_id=raw.get("id", path.stem),
        learner=learner,
        oracle=oracle,
        optimizer=optimizer,
        budgets=budgets,
        replications=_get_int(raw, "sweep.replications", 1),
        base_seed=_get_int(raw, "sweep.base_seed", 0),
        report=raw.get("report", "csv"),
        output=raw.get("output"),
        slope_column=raw.get("slope.column", "excess_risk"),
        slope_statistic=raw.get("slope.statistic", "median"),
        single_budget=_get_int(raw, "budget") if "budget" in raw else None,
    )
    # after the values are built, so a bad value is reported as such first
    _reject_unread_keys(raw, kind, learner.name if kind == KIND_THRESHOLD
                        else line_search)
    return config


def _reject_unread_keys(raw: dict, kind: str, learner_name: str) -> None:
    """Raise on the first key that the kind, family or learner never reads."""
    unread = dict.fromkeys(_OPTIMIZE_KEYS if kind == KIND_THRESHOLD else _THRESHOLD_KEYS,
                           f"kind = {kind} configs")
    learner_key = "learner.name" if kind == KIND_THRESHOLD else "optimizer.line_search"
    for name, keys in _LEARNER_KEYS.items():
        if name != learner_name:
            unread.update(dict.fromkeys(keys, f"{learner_key} = {learner_name}"))
    if kind == KIND_OPTIMIZE:
        family = raw["problem.family"]
        by_family = f"problem.family = {family}"
        for name, keys in _FAMILY_KEYS.items():
            if name != family:
                unread.update(dict.fromkeys(keys, by_family))
        if family == "ridge":
            unread.update(dict.fromkeys(("problem.dim", "problem.x_star"), by_family))
            bounds = ("problem.box_lo", "problem.box_hi")
            if (bounds[0] in raw) != (bounds[1] in raw):
                unread.update({bounds[0]: f"{by_family} without {bounds[1]}",
                               bounds[1]: f"{by_family} without {bounds[0]}"})
    stray = sorted(set(raw) & set(unread))
    if stray:
        raise ConfigError(f"{stray[0]}: not read by {unread[stray[0]]}")


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


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _parse_cell(text: str):
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


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

    def json_rows(self) -> list[dict]:
        return [{c: getattr(row, c) for c in CSV_COLUMNS} for row in self.rows]

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.json_rows(), indent=2) + "\n")

    @classmethod
    def from_csv(cls, path) -> "RunTable":
        with open(path, newline="") as f:
            records = [r for r in csv.reader(f) if r and not r[0].startswith("#")]
        header = records[0]
        rows = []
        for record in records[1:]:
            cells = dict(zip(header, record))
            values = {c: _parse_cell(cells.get(c, "")) for c in CSV_COLUMNS}
            values["error"] = cells.get("error", "") or ""
            values["estimate"] = cells.get("estimate", "") or None
            if values["wall_time_ms"] is None:
                values["wall_time_ms"] = 0.0
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


def _oracle_stream(config: ExperimentConfig, replication: int):
    seed = config.base_seed if config.oracle.seed is None else config.oracle.seed
    return seeded_rng(seed, replication, ROLE_LABELS)


def _oracle_budget(config: ExperimentConfig, budget: int) -> int:
    if config.oracle.budget is None:
        return budget
    return min(budget, config.oracle.budget)


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


def _label_oracle(config: ExperimentConfig, budget: int, replication: int) -> LabelOracle:
    return LabelOracle(config.problem, _oracle_stream(config, replication),
                       budget=_oracle_budget(config, budget))


def run_cell(config: ExperimentConfig, budget: int, replication: int) -> Row:
    """Execute one (budget, replication) cell on its own; failures become error rows."""
    start = time.perf_counter()
    try:
        problem = config.problem
        if config.kind == KIND_THRESHOLD:
            oracle = _label_oracle(config, budget, replication)
            point = run_learner(oracle, problem.interval,
                                config.learner.for_budget(budget, dither=replication),
                                seeded_rng(config.base_seed, replication,
                                           ROLE_SAMPLING))
        else:
            oracle = SignOracle(problem, config.oracle.mode,
                                _oracle_stream(config, replication),
                                budget=_oracle_budget(config, budget))
            point = rssgd(problem, oracle, replace(config.optimizer, budget=budget,
                                                   seed=(config.base_seed, replication)))
        outcome = (point, oracle.queries_used)
    except Exception as exc:  # noqa: BLE001 - a cell failure must not kill the sweep
        outcome = exc
    return _row(config, budget, replication, outcome,
                (time.perf_counter() - start) * 1e3)


def _run_bz_cells(config: ExperimentConfig, cells) -> list[Row]:
    """The bz cells of a threshold sweep through one ``bz_rows`` call.

    The rows' ``wall_time_ms`` split the block's time in proportion to
    their queries.
    """
    start = time.perf_counter()
    runs = []  # per cell: (oracle, learner config), or the exception that stopped it
    for budget, replication in cells:
        try:
            runs.append((_label_oracle(config, budget, replication),
                         config.learner.for_budget(budget, dither=replication)))
        except Exception as exc:  # noqa: BLE001 - a cell failure must not kill the sweep
            runs.append(exc)
    ready = [run for run in runs if not isinstance(run, Exception)]
    results = iter(bz_rows([oracle for oracle, _ in ready], config.problem.interval,
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
    ``bz_rows`` call; every other cell runs on its own through ``run_cell``.
    Each row is the same as ``run_cell`` gives for its cell alone.
    """
    if config.kind == KIND_THRESHOLD and config.learner.name == "bz":
        return _run_bz_cells(config, cells)
    return [run_cell(config, budget, replication) for budget, replication in cells]


def resolve_jobs(n_jobs: int | None) -> int:
    """Worker count: ``n_jobs`` (the --jobs flag), else $SIGNOPT_JOBS, else 1."""
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


def run_experiment(config: ExperimentConfig, n_jobs: int | None = None) -> RunTable:
    """Run every (budget, replication) cell of the sweep.

    The cells are split round robin into at most ``n_jobs`` blocks, each
    run by ``run_block`` in its own worker, with the config pickled once per
    block.  Identical configs produce identical tables regardless of worker
    count or split; rows are assembled in (budget, replication) order.
    """
    if config.budgets is None:
        raise ConfigError("sweep.budgets: required to run a sweep")
    cells = [(budget, rep)
             for budget in config.budgets
             for rep in range(config.replications)]
    n_jobs = resolve_jobs(n_jobs)
    # round robin: every block gets a share of each budget
    blocks = [cells[i::n_jobs] for i in range(min(n_jobs, len(cells)))]
    if len(blocks) == 1:
        rows = run_block(config, blocks[0])
    else:
        with ProcessPoolExecutor(max_workers=len(blocks)) as pool:
            rows = [row for block in pool.map(run_block, repeat(config), blocks)
                    for row in block]
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
    n_excluded_zero: int

    def as_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "max_residual": self.max_residual,
            "statistic": self.statistic,
            "error_column": self.error_column,
            "per_budget": [vars(b) for b in self.per_budget],
            "excluded_budgets": self.excluded_budgets,
            "n_error_rows": self.n_error_rows,
            "n_excluded_zero": self.n_excluded_zero,
        }


def slope_report(table: RunTable, statistic: str = "median",
                 error_column: str = "excess_risk") -> SlopeReport:
    """Aggregate one error column per budget and fit the log-log slope."""
    if statistic not in ("median", "mean"):
        raise ValueError("statistic must be 'median' or 'mean'")
    if error_column not in ERROR_COLUMNS:
        raise ValueError(f"unknown error column {error_column!r}")
    if not table.rows:
        raise ValueError("empty table")
    groups: dict[int, list[float]] = {}
    n_error_rows = 0
    for row in table.rows:
        if row.error:
            n_error_rows += 1
            continue
        value = getattr(row, error_column)
        if value is None:
            n_error_rows += 1
            continue
        groups.setdefault(row.budget, []).append(float(value))
    if not groups:
        raise ValueError(f"no usable rows for column {error_column!r}")
    summaries = []
    for budget in sorted(groups):
        values = np.asarray(groups[budget])
        agg = float(np.median(values)) if statistic == "median" else float(values.mean())
        summaries.append(BudgetSummary(budget=budget, value=agg, n_rows=values.size,
                                       n_zero=int(np.count_nonzero(values == 0.0))))
    usable = [(s.budget, s.value) for s in summaries if s.value > 0.0]
    excluded = [s.budget for s in summaries if s.value <= 0.0]
    if len(usable) < 2:
        raise ValueError(f"need at least 2 budgets with positive {statistic} "
                         f"{error_column}, have {len(usable)}")
    fit = fit_rate_slope(usable)
    return SlopeReport(slope=fit.slope, intercept=fit.intercept,
                       max_residual=fit.max_residual, statistic=statistic,
                       error_column=error_column, per_budget=summaries,
                       excluded_budgets=excluded, n_error_rows=n_error_rows,
                       n_excluded_zero=fit.n_excluded)
