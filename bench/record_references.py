#!/usr/bin/env python3
"""Record the table digests that bench/run.py checks for the default seed.

    python3 bench/record_references.py

Runs rounds 0 .. CYCLE-1 of every workload at the default seed with one job
and writes the SHA-256 of each round's ``csv_text(include_timing=False)`` to
``bench/references.json``.  Re-record only when a change to signopt is meant
to change its tables, and say why in the change.
"""

import json

import run


def main() -> None:
    refs = {}
    for workload in run.WORKLOADS.values():
        harness, _, config = run.setup(workload, run.DEFAULT_SEED)
        rounds = run.Rounds(harness, config, run.DEFAULT_SEED, None,
                            emit=lambda line: None)
        for index in range(run.CYCLE):
            rounds.run(index, jobs=1)
        if rounds.failures:
            raise SystemExit(f"{workload.name}: {rounds.failures}")
        refs[workload.name] = [rounds.digests[run.DEFAULT_SEED * run.CYCLE + i]
                               for i in range(run.CYCLE)]
    run.REFERENCES.write_text(json.dumps(refs, indent=2) + "\n")


if __name__ == "__main__":
    main()
