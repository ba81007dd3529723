#!/usr/bin/env python
"""Perf smoke benchmark: the service layer's batch and server paths.

Three workloads over the ``examples/`` corpus::

    PYTHONPATH=src python scripts/bench_service.py --output BENCH_service.json

- ``service.batch-cold`` — a full batch sweep into a fresh cache
  directory: every query computed, every result persisted.
- ``service.batch-warm`` — the same sweep against the cache the cold
  runs populated: every query answered content-addressed, no solver.
  The runner asserts the warm sweep hits on every file **and** runs at
  least 5x faster than the slowest cold sweep — the service's headline
  guarantee, enforced on every CI run, not just eyeballed once.
- ``service.server-check`` — the mean HTTP round-trip of a cached
  ``check`` against a live :class:`repro.service.server.ReproServer`,
  over one kept-alive connection as real clients send them: what a
  client pays when the answer is already known.  A fresh connection per
  request would hide a reply stall, because a new connection ACKs at
  once while an established one delays its ACKs.

Cache hit/miss counters ride along as the deterministic fingerprint
(``check_bench_regression.py`` reports drift); CI gates the timings
against the committed ``BENCH_service.json`` baseline like the other
four suites.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import threading
import time
from http.client import HTTPConnection
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchlib  # noqa: E402

from repro.service.batch import run_batch  # noqa: E402
from repro.service.cache import open_cache  # noqa: E402
from repro.service.server import ReproServer  # noqa: E402

EXAMPLES = str(ROOT / "examples")

#: Wall-clock of every cold sweep, consumed by the warm runner's speedup
#: assertion (insertion order in BENCHMARKS runs cold before warm).
_cold_timings = []

#: The cache directory the cold runs populate and the warm runs reuse.
_warm_dir = None

#: ``service.server-check``: untimed requests first, then the timed ones.
SERVER_WARMUP = 3
SERVER_ROUND_TRIPS = 20


def _batch_counters(report: dict) -> dict:
    counters = {
        "files": len(report["files"]),
        "queries": report["queries"],
        "failures": report["failures"],
    }
    if report["cache"] is not None:
        counters["cache_hits"] = report["cache"]["hits"]
        counters["cache_misses"] = report["cache"]["misses"]
    return counters


def run_batch_cold():
    global _warm_dir
    if _warm_dir is None:
        _warm_dir = tempfile.mkdtemp(prefix="bench-service-")
    scratch = tempfile.mkdtemp(prefix="bench-service-cold-")
    try:
        # Populate the shared warm dir on the side (first cold run only);
        # the *timed* sweep always writes a fresh directory.
        if not any(Path(_warm_dir).iterdir()):
            run_batch(EXAMPLES, cache=open_cache(_warm_dir))
        cache = open_cache(scratch)
        start = time.perf_counter()
        report = run_batch(EXAMPLES, cache=cache)
        elapsed = time.perf_counter() - start
        assert report["failures"] == 0, "examples corpus changed verdict"
        assert report["cache"]["hits"] == 0, "cold sweep hit a fresh cache?"
        _cold_timings.append(elapsed)
        return elapsed, _batch_counters(report)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_batch_warm():
    assert _warm_dir is not None and _cold_timings, "cold runs first"
    cache = open_cache(_warm_dir)
    start = time.perf_counter()
    report = run_batch(EXAMPLES, cache=cache)
    elapsed = time.perf_counter() - start
    assert report["failures"] == 0, "examples corpus changed verdict"
    assert report["cached"] == report["queries"] > 0, "warm sweep missed the cache"
    # The service's headline guarantee: a warm sweep is at least 5x
    # faster than even the *slowest* cold sweep.
    slowest_cold = max(_cold_timings)
    assert elapsed * 5 <= slowest_cold, (
        f"warm sweep {elapsed:.3f}s not 5x faster than cold {slowest_cold:.3f}s"
    )
    return elapsed, _batch_counters(report)


def run_server_check():
    source = (ROOT / "examples" / "list.sq").read_text()
    body = json.dumps({"program": source}).encode()
    scratch = tempfile.mkdtemp(prefix="bench-service-http-")
    server = ReproServer("127.0.0.1", 0, open_cache(scratch))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    conn = HTTPConnection("127.0.0.1", server.server_port, timeout=60)
    try:

        def post() -> dict:
            conn.request("POST", "/check", body, {"Content-Type": "application/json"})
            response = conn.getresponse()
            answer = json.loads(response.read())
            assert response.status == 200, answer
            return answer

        # Warm-up: the first request fills the cache, so every timed
        # round-trip measures a hit.
        for _ in range(SERVER_WARMUP):
            post()
        start = time.perf_counter()
        answers = [post() for _ in range(SERVER_ROUND_TRIPS)]
        elapsed = (time.perf_counter() - start) / SERVER_ROUND_TRIPS
        assert all(answer["cached"] for answer in answers), "a timed request missed the cache"
        return elapsed, {"cached": 1, "failures": answers[-1]["result"]["failures"]}
    finally:
        conn.close()
        server.shutdown()
        server.server_close()
        shutil.rmtree(scratch, ignore_errors=True)


BENCHMARKS = {
    "service.batch-cold": run_batch_cold,
    "service.batch-warm": run_batch_warm,
    "service.server-check": run_server_check,
}


def main() -> int:
    return benchlib.run_suite("service-perf-smoke", BENCHMARKS, "BENCH_service.json", 3, __doc__)


if __name__ == "__main__":
    raise SystemExit(main())
