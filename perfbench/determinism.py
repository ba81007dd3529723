#!/usr/bin/env python3
"""Which per-layer counters repeat exactly across two traced runs.

    python3 perfbench/determinism.py --workload NAME --seed N --ops K

Runs the same ``K`` timed ops of one workload twice through the traced
launcher (fresh server and cache each time) and prints, for every
per-layer metric, both readings and whether they are equal; for a metric
that varies, its spread (the gap between the readings over their mean).
``perfbench/layers.json`` records the outcome as each metric's
``deterministic`` mark.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, default=24)
    args = parser.parse_args()
    run.compileall.compile_dir(str(run.SRC), quiet=1)
    run.WORK.mkdir(exist_ok=True)
    readings = []
    for _ in range(2):
        work = Path(tempfile.mkdtemp(prefix="determinism-", dir=run.WORK))
        try:
            workload = run.WORKLOADS[args.workload](
                args.workload, args.seed, work, run.inputs.load_sources(run.EXAMPLES)
            )
            host = run.HostSpeed()
            _, phase = workload.measure(args.ops, 1, True, host)
            metrics = run.per_layer(workload, phase, phase.tally.samples, host.samples_ms)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        readings.append({name: value for name, (value, _) in metrics.items()})
    first, second = readings
    for name in sorted(first):
        a, b = first[name], second[name]
        mark = "exact" if a == b else f"varies, spread {abs(a - b) / ((a + b) / 2):.0%}"
        print(f"{name:32} {a:>14.6g} {b:>14.6g}  {mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
