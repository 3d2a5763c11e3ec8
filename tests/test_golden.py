"""Golden tables: small sweeps whose CSV output (without timing) is frozen.

Each ``golden/<name>.cfg`` runs through the harness and its
``csv_text(include_timing=False)`` must equal ``golden/<name>.csv`` byte for
byte.  Together they cover every learner (both orientations and ``auto``),
every line search and every sign-oracle mode.  A change that is meant to
alter outputs regenerates the files with ``python tests/test_golden.py
[name ...]`` and states its reason in the change log.
"""

import sys
from pathlib import Path

import pytest

from signopt import RunTable, load_config, run_experiment

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.stem for p in GOLDEN.glob("*.cfg"))


def _table_bytes(name: str) -> bytes:
    table = run_experiment(load_config(GOLDEN / f"{name}.cfg"))
    return table.csv_text(include_timing=False).encode()


@pytest.mark.parametrize("name", CASES)
def test_golden_table(name):
    assert _table_bytes(name) == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", CASES)
def test_golden_csv_round_trips(name):
    # every column, vector estimates and error messages included
    path = GOLDEN / f"{name}.csv"
    assert RunTable.from_csv(path).csv_text(include_timing=False) == path.read_text()


if __name__ == "__main__":
    for name in sys.argv[1:] or CASES:
        (GOLDEN / f"{name}.csv").write_bytes(_table_bytes(name))
