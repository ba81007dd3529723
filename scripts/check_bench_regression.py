#!/usr/bin/env python
"""Perf regression gate: compare a fresh bench report against a baseline.

CI runs the perf smoke scripts (``bench_horn.py``, ``bench_typecheck.py``,
``bench_synth.py``, ``bench_smt.py``, ``bench_service.py``) into fresh
reports, then gates them against the committed baselines::

    python scripts/check_bench_regression.py \\
        --baseline BENCH_horn.json --candidate BENCH_horn.new.json

The gate fails (exit 1) when any case's mean wall-clock exceeds
``--threshold`` (default 2.5x) times its baseline mean.  A case is
noise-exempt only when *both* means sit below ``--min-seconds`` (default
2ms) — at that scale the ratio measures timer jitter, not the solver,
while a genuine blowup from a tiny baseline still trips the gate because
the candidate side clears the floor.  Cases present on only one side are
reported but never fail the gate (new benchmarks need a first run to
become a baseline).

The solver-behaviour counters in :data:`TRACKED_COUNTERS` (theory
propagations, tableau pivots, minimized literals, MUS pruning, cache
hits) are diffed report-only: a drift means the search behaved
differently, which is exactly what triages a wall-clock change, but it is
never a failure by itself.  Exactly one summary line is printed per invocation so the job
log stays scannable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple


#: Counters whose drift between baseline and candidate is reported (but
#: never gated): they fingerprint solver search behaviour, so an unchanged
#: set means a wall-clock delta is machine noise, not a solver change.
TRACKED_COUNTERS = (
    "theory_propagations",
    "tableau_pivots",
    "minimized_literals",
    "muses_enumerated",
    "candidates_pruned",
    "cache_hits",
    "cache_misses",
)


def load_means(path: Path) -> Dict[str, float]:
    """name -> mean seconds for every benchmark entry of a report."""
    report = json.loads(path.read_text())
    return {entry["name"]: float(entry["mean_s"]) for entry in report.get("benchmarks", [])}


def load_counters(path: Path) -> Dict[str, Dict[str, int]]:
    """name -> counters dict for every benchmark entry of a report."""
    report = json.loads(path.read_text())
    return {entry["name"]: entry.get("counters", {}) for entry in report.get("benchmarks", [])}


def counter_drift(
    baseline: Dict[str, Dict[str, int]], candidate: Dict[str, Dict[str, int]]
) -> List[str]:
    """Report-only notes for tracked counters that changed on shared cases."""
    notes: List[str] = []
    for name in sorted(set(baseline) & set(candidate)):
        base, fresh = baseline[name], candidate[name]
        for key in TRACKED_COUNTERS:
            if key not in base and key not in fresh:
                continue
            if base.get(key) != fresh.get(key):
                notes.append(f"{name}.{key} {base.get(key)}->{fresh.get(key)}")
    return notes


def compare(
    baseline: Dict[str, float],
    candidate: Dict[str, float],
    threshold: float,
    min_seconds: float,
) -> Tuple[List[str], List[Tuple[str, float]], List[str]]:
    """Classify every case: (failures, measured ratios, skipped notes)."""
    failures: List[str] = []
    ratios: List[Tuple[str, float]] = []
    skipped: List[str] = []
    for name in sorted(set(baseline) | set(candidate)):
        if name not in baseline:
            skipped.append(f"{name} (no baseline)")
            continue
        if name not in candidate:
            skipped.append(f"{name} (not measured)")
            continue
        base, fresh = baseline[name], candidate[name]
        if base < min_seconds and fresh < min_seconds:
            skipped.append(f"{name} (sub-noise: {fresh * 1000:.2f}ms)")
            continue
        ratio = fresh / base if base > 0 else float("inf")
        ratios.append((name, ratio))
        if ratio > threshold:
            failures.append(f"{name} {ratio:.2f}x > {threshold:.2f}x")
    return failures, ratios, skipped


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, type=Path, help="committed report")
    parser.add_argument("--candidate", required=True, type=Path, help="fresh report")
    parser.add_argument(
        "--threshold",
        type=float,
        default=2.5,
        help="maximum allowed candidate/baseline mean wall-clock ratio",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.002,
        help="cases where both means are below this are noise-exempt",
    )
    args = parser.parse_args()

    baseline = load_means(args.baseline)
    candidate = load_means(args.candidate)
    failures, ratios, skipped = compare(baseline, candidate, args.threshold, args.min_seconds)
    drift = counter_drift(load_counters(args.baseline), load_counters(args.candidate))

    suite = args.baseline.name
    notes = f"; skipped: {', '.join(skipped)}" if skipped else ""
    if drift:
        notes += f"; counter drift (report-only): {', '.join(drift)}"
    if failures:
        print(f"perf gate [{suite}]: FAIL — {'; '.join(failures)}{notes}")
        return 1
    if ratios:
        worst_name, worst_ratio = max(ratios, key=lambda pair: pair[1])
        print(
            f"perf gate [{suite}]: OK — {len(ratios)} cases within "
            f"{args.threshold:.2f}x of baseline (worst: {worst_name} "
            f"{worst_ratio:.2f}x){notes}"
        )
    else:
        print(f"perf gate [{suite}]: OK — no comparable cases{notes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
