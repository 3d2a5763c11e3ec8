"""Command-line entry points.

Subcommands:
  learn-threshold --config F   run one threshold-learning cell, print JSON
  optimize        --config F   run one optimizer cell, print JSON
  sweep           --config F --out D   run the full sweep, write CSV/JSON
  slope           --table F.csv --column COL   fit a rate slope from a table

Exit codes: 0 success, 2 config error, 3 runtime cell failure.  The
environment variable SIGNOPT_JOBS sets the default sweep concurrency.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .harness import (ConfigError, ERROR_COLUMNS, ExperimentConfig,
                      KIND_OPTIMIZE, KIND_THRESHOLD, RunTable, STATISTICS,
                      load_config, run_cell, run_experiment, slope_report)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _single_budget(config: ExperimentConfig) -> int:
    if config.single_budget is not None:
        return config.single_budget
    if config.budgets:
        return config.budgets[-1]
    raise ConfigError("budget: set a 'budget' key, sweep.budgets, or pass --budget")


def _run_single(args, expected_kind: str) -> int:
    config = load_config(args.config)
    if config.kind != expected_kind:
        raise ConfigError(f"kind: config is {config.kind!r}, expected {expected_kind!r}")
    if args.budget is not None:
        # validated as the config's own ``budget`` key is
        config = replace(config, single_budget=args.budget)
    if args.rep < 0:
        raise ConfigError(f"--rep: must be non-negative, got {args.rep}")
    row = run_cell(config, _single_budget(config), args.rep)
    print(json.dumps(asdict(row), indent=2))
    return EXIT_RUNTIME if row.error else EXIT_OK


def _run_sweep(args) -> int:
    config = load_config(args.config)
    table = run_experiment(config, n_jobs=args.jobs)
    out_dir = Path(args.out) if args.out else Path(config.output or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    for kind in ("csv", "json") if config.report == "json" else ("csv",):
        path = out_dir / f"{config.experiment_id}.{kind}"
        (table.to_csv if kind == "csv" else table.to_json)(path)
        print(f"wrote {path}", file=sys.stderr)
    if table.n_errors:
        print(f"{table.n_errors} cell(s) failed", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _run_slope(args) -> int:
    table = RunTable.from_csv(args.table)
    report = slope_report(table, statistic=args.statistic, error_column=args.column)
    print(json.dumps(asdict(report), indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="signopt",
                                     description="threshold-learning and "
                                                 "sign-descent benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    single = argparse.ArgumentParser(add_help=False)
    single.add_argument("--config", required=True, help="config file path")
    single.add_argument("--budget", type=int, default=None,
                        help="override the query budget")
    single.add_argument("--rep", type=int, default=0,
                        help="replication index (default 0)")
    sub.add_parser("learn-threshold", parents=[single],
                   help="run one threshold-learning cell")
    sub.add_parser("optimize", parents=[single],
                   help="run one optimizer cell")

    sweep = sub.add_parser("sweep", help="run the full budget x replication sweep")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", default=None, help="output directory")
    sweep.add_argument("--jobs", type=int, default=None,
                       help="processes that run cells, the caller included "
                            "(default $SIGNOPT_JOBS or 1)")

    slope = sub.add_parser("slope", help="fit a log-log rate slope from a table")
    slope.add_argument("--table", required=True, help="CSV table path")
    slope.add_argument("--column", default="excess_risk", choices=ERROR_COLUMNS)
    slope.add_argument("--statistic", default="median", choices=STATISTICS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "learn-threshold":
            return _run_single(args, KIND_THRESHOLD)
        if args.command == "optimize":
            return _run_single(args, KIND_OPTIMIZE)
        if args.command == "sweep":
            return _run_sweep(args)
        if args.command == "slope":
            return _run_slope(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
