"""Batch screening: sweep a directory of ``.sq`` files through the cache.

The screening loop the paper's evaluation section implies but never
ships: point the tool at a corpus, get one line per file and a summary.
Each file is parsed once and routed through the same query layer the CLI
and server use — ``check`` when it has definitions, ``synth`` when it
has goals — so results are content-addressed: a warm second sweep (or a
sweep over a corpus that shares files with a previous one) answers from
the :class:`~repro.service.cache.ResultCache` without touching a solver.

Files are processed by a bounded worker pool.  Workers are threads (the
solver stack is pure Python, but the cache is I/O and corpora are many
small independent jobs).  Every query builds its own solvers, so no
solver state is shared across threads or carried from file to file;
each worker thread owns a :class:`~repro.service.worker.WarmStack` only
to count the queries that raised.

Because it reports wall-clock time and cache counters, the sweep doubles
as the service throughput benchmark (``scripts/bench_service.py`` runs
it cold and warm and asserts the ratio).

**Robustness.** A sweep is only useful if one bad file cannot sink it:
any per-file exception is recorded on that file's line and the sweep
continues.  Three failure classes are distinguished — a *timeout*
(``--file-timeout-ms`` budget exhausted; the file reports partial
progress), a *transient worker death* (:class:`BrokenProcessPool` and
friends, retried with exponential backoff up to ``retries`` times before
being recorded), and everything else (recorded once, no retry).  Queries
that raised mid-sweep surface in the summary as worker resets.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import List, Optional

from .. import limits
from ..syntax.parser import ParseError, parse_program
from ..testing import faults
from . import api
from .cache import ResultCache
from .worker import WarmStack

#: Worker-death shapes worth one more try: the pool process vanished or
#: its pipe closed mid-answer — load-dependent, not a property of the
#: file being screened.
TRANSIENT_ERRORS = (BrokenProcessPool, EOFError, BrokenPipeError)


def discover_files(root: str) -> List[Path]:
    """The ``.sq`` files under ``root`` (a directory, recursively, in
    sorted order — the sweep's result order is deterministic) or the
    single file ``root`` itself."""
    path = Path(root)
    if path.is_dir():
        return sorted(path.rglob("*.sq"))
    return [path]


def screen_file(
    path: Path,
    cache: Optional[ResultCache] = None,
    depth: int = 4,
    max_conditionals: int = 2,
    max_matches: int = 1,
) -> dict:
    """One file through the query layer; the per-file batch record.

    ``{"file", "failures", "cached", "fresh", "check"?, "synth"?,
    "error"?, "timeout"?}`` — ``check``/``synth`` hold the ordinary
    query payloads, ``error`` a parse failure (one failure, sweep goes
    on).  Solver exceptions deliberately propagate: :func:`run_batch`
    catches them *outside* the stack's query guard, so a crashed query
    is counted before the failure is recorded.
    """
    record: dict = {"file": str(path), "failures": 0, "cached": 0, "fresh": 0}
    try:
        program = parse_program(path.read_text())
    except (OSError, ParseError) as error:
        record["error"] = str(error)
        record["failures"] = 1
        return record
    if faults.maybe_fire("batch.worker-death"):
        raise BrokenProcessPool("injected: batch worker process died")
    if program.definitions:
        payload, was_cached, _ = api.check_query(program, cache=cache)
        record["check"] = payload
        record["failures"] += payload["failures"]
        record["cached" if was_cached else "fresh"] += 1
        if payload.get("timeout"):
            record["timeout"] = True
    if program.goals:
        payload, was_cached, _ = api.synth_query(
            program,
            depth=depth,
            max_conditionals=max_conditionals,
            max_matches=max_matches,
            cache=cache,
        )
        record["synth"] = payload
        record["failures"] += payload["failures"]
        record["cached" if was_cached else "fresh"] += 1
        if payload.get("timeout"):
            record["timeout"] = True
    return record


def run_batch(
    root: str,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    depth: int = 4,
    max_conditionals: int = 2,
    max_matches: int = 1,
    file_timeout_ms: Optional[float] = None,
    retries: int = 1,
    backoff_s: float = 0.05,
) -> dict:
    """Sweep ``root`` and return the batch report.

    ``{"files": [record, ...], "failures", "queries", "cached",
    "timeouts", "retries", "resets", "timeout_resets", "elapsed",
    "cache": counters-or-None}`` — everything except ``elapsed`` (and
    the counters) is deterministic, which is what the cold-vs-warm
    determinism test pins down.

    ``file_timeout_ms`` installs a fresh :class:`~repro.limits.Budget`
    per file (nested inside any enclosing scope, e.g. a server
    request's); transient worker deaths are retried up to ``retries``
    times with exponential backoff before the file is marked failed.
    """
    paths = discover_files(root)
    local = threading.local()
    stacks: List[WarmStack] = []
    stacks_lock = threading.Lock()
    retry_count = [0]

    def stack() -> WarmStack:
        if getattr(local, "stack", None) is None:
            local.stack = WarmStack()
            with stacks_lock:
                stacks.append(local.stack)
        return local.stack

    def attempt(path: Path) -> dict:
        # Exceptions are caught *outside* the stack's query guard, so a
        # crashed or cancelled query is counted before the per-file
        # record is written.
        worker = stack()
        budget = (
            limits.Budget.from_timeout_ms(file_timeout_ms) if file_timeout_ms else None
        )
        with limits.budget_scope(budget):
            with worker.query():
                return screen_file(
                    path,
                    cache=cache,
                    depth=depth,
                    max_conditionals=max_conditionals,
                    max_matches=max_matches,
                )

    def failed(path: Path, **extra) -> dict:
        return {"file": str(path), "failures": 1, "cached": 0, "fresh": 0, **extra}

    def job(path: Path) -> dict:
        for tries in range(max(0, retries) + 1):
            try:
                return attempt(path)
            except limits.BudgetExhausted as exhausted:
                # Tripped outside the query layer's own degradation (the
                # stack has already counted a timeout reset).
                return failed(
                    path, error=str(exhausted), timeout=True, limit=exhausted.limit
                )
            except TRANSIENT_ERRORS as error:
                if tries < max(0, retries):
                    with stacks_lock:
                        retry_count[0] += 1
                    time.sleep(backoff_s * (2**tries))
                    continue
                return failed(path, error=f"worker died ({type(error).__name__}: {error})")
            except Exception as error:  # noqa: BLE001 - one bad file, one bad line
                return failed(path, error=f"{type(error).__name__}: {error}")
        raise AssertionError("unreachable: the retry loop always returns")

    started = time.monotonic()
    if jobs <= 1:
        records = [job(path) for path in paths]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(job, paths))
    return {
        "files": records,
        "failures": sum(record["failures"] for record in records),
        "queries": sum(record["cached"] + record["fresh"] for record in records),
        "cached": sum(record["cached"] for record in records),
        "timeouts": sum(1 for record in records if record.get("timeout")),
        "retries": retry_count[0],
        "resets": sum(worker.resets for worker in stacks),
        "timeout_resets": sum(worker.timeout_resets for worker in stacks),
        "elapsed": time.monotonic() - started,
        "cache": cache.stats() if cache is not None else None,
    }


def render_report(report: dict, out) -> None:
    """The batch report as the CLI prints it: one line per file plus the
    summary line (hit/miss counters included so a throughput run can be
    eyeballed without ``/stats``)."""
    for record in report["files"]:
        if "error" in record:
            label = "TIMEOUT" if record.get("timeout") else "ERROR"
            print(f"{record['file']}: {label} — {record['error']}", file=out)
            continue
        verbs = []
        for verb in ("check", "synth"):
            if verb in record:
                if record[verb].get("timeout"):
                    verbs.append(f"{verb} TIMEOUT")
                else:
                    ok = record[verb]["failures"] == 0
                    verbs.append(f"{verb} {'ok' if ok else 'FAILED'}")
        detail = ", ".join(verbs) if verbs else "nothing to do"
        source = "cache" if record["cached"] and not record["fresh"] else "solver"
        print(f"{record['file']}: {detail} [{source}]", file=out)
    counters = report["cache"]
    cache_note = (
        f"{counters['hits']} hits / {counters['misses']} misses"
        if counters is not None
        else "disabled"
    )
    degraded = ""
    if report.get("timeouts"):
        degraded += f", {report['timeouts']} timeouts"
    if report.get("retries"):
        degraded += f", {report['retries']} retries"
    if report.get("resets"):
        degraded += f", {report['resets']} worker resets"
    print(
        f"batch: {len(report['files'])} files, {report['failures']} failures"
        f"{degraded}, cache: {cache_note}, {report['elapsed']:.2f}s",
        file=out,
    )
