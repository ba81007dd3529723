#!/usr/bin/env python
"""Perf smoke benchmark: the paper's synthesis benchmarks end to end.

Times the full round-trip synthesis pipeline — program parsing, E-term
enumeration with early liquid pruning, condition abduction, and the final
independent re-check — on the ``examples/*.sq`` goals::

    PYTHONPATH=src python scripts/bench_synth.py --output BENCH_synth.json

As with the other bench scripts, deterministic enumeration counters
(candidates generated, pruned early, abductions, SMT queries) are recorded
next to the wall-clock numbers so a perf regression can be triaged on any
machine; CI compares the timings against the committed baseline with
``scripts/check_bench_regression.py``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchlib  # noqa: E402

from repro.syntax import parse_program  # noqa: E402
from repro.synth import SynthesisGoal, Synthesizer  # noqa: E402

#: (benchmark name, example file, goal, enumeration depth)
WORKLOADS = [
    ("synth.max", "max.sq", "max", 3),
    ("synth.replicate", "replicate.sq", "replicate", 4),
    ("synth.stutter", "stutter.sq", "stutter", 4),
    ("synth.length", "list.sq", "length", 3),
    ("synth.append", "list.sq", "append", 4),
    ("synth.sign", "sign.sq", "sign", 3),
]


def run_workload(source: str, goal_name: str, depth: int):
    start = time.perf_counter()
    program = parse_program(source)
    synthesizer = Synthesizer(SynthesisGoal.from_program(program, goal_name), max_depth=depth)
    result = synthesizer.synthesize()
    elapsed = time.perf_counter() - start
    assert result.solved and result.verified, f"benchmark goal {goal_name} changed verdict"
    counters = result.statistics.as_dict()
    backend = synthesizer.session.backend.statistics
    counters["sat_queries"] = backend.sat_queries
    counters["theory_propagations"] = backend.theory_propagations
    counters["tableau_pivots"] = backend.tableau_pivots
    counters["minimized_literals"] = backend.minimized_literals
    return elapsed, counters


def _runner(filename: str, goal_name: str, depth: int):
    source = (ROOT / "examples" / filename).read_text()
    return lambda: run_workload(source, goal_name, depth)


BENCHMARKS = {
    name: _runner(filename, goal_name, depth)
    for name, filename, goal_name, depth in WORKLOADS
}


def main() -> int:
    return benchlib.run_suite("synth-perf-smoke", BENCHMARKS, "BENCH_synth.json", 3, __doc__)


if __name__ == "__main__":
    raise SystemExit(main())
