#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Runs every workload's experiments once at the reference seed and once at
the next seed, with the benchmark's pinned environment, and writes
``perfbench/reference/<workload>/<experiment>.csv`` plus ``manifest.json``
with each experiment's exit code and whether its output depends on the
seed.  Re-record only when a change to the program is meant to change
``results.csv``, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys

import check
import run


def main() -> int:
    run.require_program()
    scratch = run.OUT / "record"
    shutil.rmtree(scratch, ignore_errors=True)
    manifest = {"seed": run.REFERENCE_SEED, "workloads": {}}
    other = run.REFERENCE_SEED + 1
    for workload, experiments in run.WORKLOADS.items():
        config = run.HERE / "workloads" / f"{workload}.cfg"
        manifest["workloads"][workload] = {}
        for experiment in experiments:
            texts, exits = [], []
            for seed in (run.REFERENCE_SEED, other):
                out = scratch / workload / f"seed{seed}" / experiment
                argv = run.cli_argv(*run.experiment_args(experiment, config, seed, out))
                record = run.spawn(argv, out / "log.txt", run.PROCESS_TIMEOUT_S)
                exits.append(record["exit"])
                texts.append((out / "results.csv").read_text(encoding="utf-8"))
            if exits[0] != exits[1] or check.compare(texts[1], texts[0], numbers=False, seed=other):
                print(f"{workload}/{experiment}: checks or exit code depend on the seed", file=sys.stderr)
                return 1
            target = run.REFERENCE / workload / f"{experiment}.csv"
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(texts[0], encoding="utf-8")
            independent = not check.compare(texts[1], texts[0], seed=other)
            manifest["workloads"][workload][experiment] = {"exit": exits[0], "seed_independent": independent}
            print(f"{workload}/{experiment}: exit {exits[0]}, seed independent: {independent}")
    (run.REFERENCE / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    shutil.rmtree(scratch)
    return 0


if __name__ == "__main__":
    sys.exit(main())
