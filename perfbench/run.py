#!/usr/bin/env python3
"""End-to-end benchmark of the entry points users run: ``python -m repro``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs only ``src/`` and
``examples/`` beside it and writes only under ``.perfbench-work/``.
One client process runs one closed loop (the next request is sent when
the previous answer is in): one child process at a time for
``cli-oneshot``, one ``python -m repro serve --port 0`` process driven
over one keep-alive HTTP/1.1 connection for ``serve-miss`` and
``serve-hit``.  Every request uses default options (``workers=1``).

Workloads (the seed picks the request order and the identifier renaming;
the program sees only the generated files or request bodies):

``cli-oneshot``
    ``python -m repro check|synth FILE`` on renamed copies of
    ``examples/list.sq`` (accepted), the same file with one ``Cons``
    dropped from ``stutter`` (rejected, exit 1), ``max.sq`` and
    ``sign.sq``.  Start-up dominates; the solver is a minor share.
``serve-miss``
    Every request is a program the server has not seen: the six corpus
    goals at their ``scripts/bench_synth.py`` depths and the two check
    files, renamed per request.  Every request solves on the warm stack
    and writes a cache entry and the lemma pool.
``serve-hit``
    The timed requests repeat the programs computed during set-up, so
    every answer is a cache read and no solver runs: the request path
    alone (HTTP, parse, digest, cache read, lemma flush).

Every answer is checked against the hand-written table in
``perfbench/inputs.py``: a wrong verdict, a non-200 reply, an
unexpected exit code or an unexpected ``cached`` flag is a failed op; a
synthesized program whose text differs from the expected one is counted
as a changed answer.

The timed phase is a fixed number of whole shuffled rounds of the
workload's request kinds: as many as fill ``--seconds`` at reference host
speed (``ROUND_REF_S``), and at least 100 ops, so ten or more samples lie
beyond p90.  Every run of a workload therefore sends the same mix and the
same number of requests, however fast the host is that day.

Host speed.  On a shared host the speed of the machine drifts by tens of
percent for minutes at a time, moving every time of a run together.  So
the client times a fixed pure-Python loop, ``calibrate()``, before the
first set-up, between ops (at most every ``CALIBRATION_EVERY_S``, never
during one) and after the last op, and reports every end-to-end time at
reference speed: the part the processes compute is multiplied by
``CALIBRATION_REF_MS`` over the run's median loop time, while the part a
reply spends between its headers and its last byte (the server's
Nagle/delayed-ACK stall, a network timer that host speed does not scale)
is kept as measured.  The lines above the result give the raw figures;
per-layer times are raw.

With ``--trace 0`` the last line reports the end-to-end metrics:

``setup_s``
    Median of three set-ups.  A set-up is everything before the first
    timed op: writing the inputs, booting the server until ``/healthz``
    answers (serve-*), and one checked warm-up op per request kind (in
    serve-hit, one cold op per distinct program, which fills the cache).
    Bytecode is compiled before any clock starts.
``latency_p50_ms``, ``latency_p90_ms``
    Per op: spawn to exit (cli-oneshot), first byte sent to last byte
    received (serve-*).
``throughput_per_s``
    Ops completed per second of the timed phase.
``peak_rss_mb``
    The largest CLI child's peak RSS, or the server's ``VmHWM`` at the
    end of the run.

With ``--trace 1`` the run measures an untraced phase of half the
seconds, then the same ops again through ``perfbench/launcher.py``,
which times each layer's public functions; the last line reports the
per-layer metrics listed in ``BENCHMARK.json``, per timed op.  Times
named ``*_ms`` are self times (a span's duration minus its child
spans), except the envelopes ``cli.import_ms``, ``cli.main_ms`` and
``service.handler_ms``, which are whole calls.  ``perfbench/layers.json``
records what each metric should move and which counters repeat exactly.
"""

from __future__ import annotations

import argparse
import compileall
import http.client
import itertools
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXAMPLES = ROOT / "examples"
WORK = ROOT / ".perfbench-work"
LAUNCHER = HERE / "launcher.py"

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402

#: p90 needs at least ten samples beyond it.
MIN_OPS = 100
SETUP_REPEATS = 3
#: Calibration samples taken before the first set-up and after the last op.
CALIBRATION_REPEATS = 5
#: Times are reported as if ``calibrate()`` took this long (it takes about
#: that on an idle 2-vCPU x86-64 VM under CPython 3.11).
CALIBRATION_REF_MS = 18.0
#: Least time between two calibration samples taken between ops.
CALIBRATION_EVERY_S = 0.5
#: Seconds one shuffled round of ``WEIGHTS`` takes at reference speed; sizes
#: the timed phase from ``--seconds``.
ROUND_REF_S = {"cli-oneshot": 2.0, "serve-miss": 3.6, "serve-hit": 0.41}
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0

#: Kind weights per shuffled round.  Chosen so that p50 and p90 each fall
#: inside one kind's latency cluster, away from the boundary between two
#: clusters (the run prints where they land): cli-oneshot p50 amid the
#: max children, p90 amid sign; serve-miss p50 amid max (ranks 40-56%),
#: p90 amid stutter (84-96%; append fills the top 4%).
WEIGHTS: Dict[str, Tuple[Tuple[str, int], ...]] = {
    "cli-oneshot": (
        ("check-ok", 2),
        ("check-rejected", 2),
        ("synth-max", 4),
        ("synth-sign", 4),
    ),
    "serve-miss": (
        ("check-ok", 5),
        ("check-rejected", 5),
        ("synth-max", 4),
        ("synth-sign", 3),
        ("synth-length", 3),
        ("synth-replicate", 1),
        ("synth-stutter", 3),
        ("synth-append", 1),
    ),
    "serve-hit": tuple(
        (name, 1)
        for name in (
            "check-ok",
            "check-rejected",
            "synth-max",
            "synth-sign",
            "synth-length",
            "synth-replicate",
            "synth-stutter",
            "synth-append",
        )
    ),
}


class BenchError(Exception):
    """The benchmark could not run (as opposed to an op that failed)."""


# -- answers -----------------------------------------------------------------


class Sample(NamedTuple):
    """One timed op; sorts by latency."""

    latency: float
    #: The part of ``latency`` between the reply's headers and its last
    #: byte (serve-*), which host speed does not scale.
    stall: float
    kind: str


@dataclass
class Tally:
    """Checked ops of one phase."""

    attempted: int = 0
    failed: int = 0
    changed: int = 0
    samples: List[Sample] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def record(self, request: inputs.Request, ok: bool, changed: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(f"failed {request.kind.name} ({request.tag}): {detail}")
        elif changed:
            self.changed += 1
            if len(self.notes) < 5:
                self.notes.append(f"changed {request.kind.name} ({request.tag}): {detail}")


def _judge_check(request: inputs.Request, statuses: List[Tuple[str, str]]) -> Tuple[bool, str]:
    expected = request.expected_statuses()
    return statuses == expected, f"statuses {statuses} != {expected}"


def _judge_program(request: inputs.Request, program: Optional[str]) -> Tuple[bool, str]:
    expected = request.expected_program()
    return program != expected, f"program {program!r} != {expected!r}"


_CLI_STATUS = {"OK": "ok", "REJECTED": "rejected", "UNKNOWN": "unknown", "skipped": "goal"}


def judge_cli(request: inputs.Request, code: int, stdout: str) -> Tuple[bool, bool, str]:
    """``(ok, changed, detail)`` for one CLI child's exit code and output."""
    if code != request.kind.exit_code:
        return False, False, f"exit code {code}, expected {request.kind.exit_code}"
    lines = stdout.splitlines()
    if request.kind.verb == "check":
        statuses = []
        for line in lines:
            name, _, rest = line.partition(": ")
            word = rest.split(" ", 1)[0]
            if word in _CLI_STATUS:
                statuses.append((name, _CLI_STATUS[word]))
        ok, detail = _judge_check(request, statuses)
        return ok, False, detail
    goal = inputs.rename(request.kind.goal, request.tag)
    program = next((line for line in lines if line.startswith(goal + " = ")), None)
    if program is None or not any("verified: yes" in line for line in lines):
        return False, False, "goal not solved and verified"
    changed, detail = _judge_program(request, program)
    return True, changed, detail


def judge_reply(
    request: inputs.Request, status: int, body: dict, cached: bool
) -> Tuple[bool, bool, str]:
    """``(ok, changed, detail)`` for one service reply."""
    if status != 200:
        return False, False, f"HTTP {status}: {body.get('error')}"
    if body.get("cached") is not cached:
        return False, False, f"cached={body.get('cached')}, expected {cached}"
    result = body["result"]
    if request.kind.verb == "check":
        ok, detail = _judge_check(request, [(i["name"], i["status"]) for i in result["items"]])
        return ok, False, detail
    item = result["items"][0]
    if not (item["solved"] and item["verified"]):
        return False, False, f"solved={item['solved']} verified={item['verified']}"
    changed, detail = _judge_program(request, item["program"])
    return True, changed, detail


# -- processes ---------------------------------------------------------------


def child_env() -> Dict[str, str]:
    """A fixed environment for every spawned process."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("REPRO_CACHE_DIR", "REPRO_FAULTS", "PYTHONPATH", "PYTHONHASHSEED")
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def repro_argv(args: Sequence[str], spans: Optional[Path], op: str) -> List[str]:
    """``python -m repro ARGS``, or the traced launcher with the same args."""
    if spans is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(LAUNCHER), str(spans), op, "--", *args]


@dataclass
class CliResult:
    latency: float
    maxrss_kb: int
    code: int
    stdout: str


def run_cli(argv: List[str], env: Dict[str, str]) -> CliResult:
    """Spawn one CLI child and wait for it; times spawn to exit."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
    )
    try:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    latency = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(latency, usage.ru_maxrss, proc.returncode, stdout.decode())


class Server:
    """One ``python -m repro serve`` process and its keep-alive connection."""

    def __init__(self, cache_dir: Path, env: Dict[str, str], spans: Optional[Path] = None):
        self.spawned = time.perf_counter()
        argv = repro_argv(["serve", "--port", "0", "--cache-dir", str(cache_dir)], spans, "-")
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
        )
        self.conn: Optional[http.client.HTTPConnection] = None
        #: Seconds every reply so far spent between its headers and its end.
        self.stall = 0.0
        try:
            port = self._read_port()
            self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
            status, _ = self.request("GET", "/healthz", None, None)
            if status != 200:
                raise BenchError(f"/healthz answered {status}")
        except BaseException:
            self.stop()
            raise
        self.booted = time.perf_counter()

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], BOOT_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        marker = "http://127.0.0.1:"
        if marker not in line:
            raise BenchError(f"server did not start: {line!r}")
        return int(line.split(marker, 1)[1].split()[0])

    def request(self, method: str, path: str, body: Optional[dict], op: Optional[str]):
        headers = {"Content-Type": "application/json"}
        if op is not None:
            # Ignored by the server; the traced launcher files spans under it.
            headers["X-Bench-Op"] = op
        data = json.dumps(body).encode() if body is not None else None
        self.conn.request(method, path, body=data, headers=headers)
        response = self.conn.getresponse()
        headers_at = time.perf_counter()
        payload = response.read()
        self.stall += time.perf_counter() - headers_at
        return response.status, json.loads(payload)

    def post(self, request: inputs.Request, op: str) -> Tuple[float, float, int, dict]:
        """One timed request, first byte sent to last byte received:
        ``(latency, stall, status, body)``."""
        stall = self.stall
        start = time.perf_counter()
        try:
            status, body = self.request("POST", "/" + request.kind.verb, request.body(), op)
        except (OSError, http.client.HTTPException, ValueError) as error:
            status, body = 0, {"error": repr(error)}
        latency = time.perf_counter() - start
        if self.proc.poll() is not None:
            raise BenchError("server exited mid-run")
        return latency, self.stall - stall, status, body

    def peak_rss_kb(self) -> int:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful: drain, flush, dump spans) and wait."""
        if self.conn is not None:
            self.conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# -- host speed ----------------------------------------------------------------


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop (host speed control)."""
    start = time.perf_counter()
    total = 0
    for value in range(300_000):
        total += value * value % 7
    return (time.perf_counter() - start) * 1000


class HostSpeed:
    """Calibration samples of one run, and times scaled by them.

    Samples are taken in the client between ops, so they see the host in
    the phase the ops ran in and never overlap an op.
    """

    def __init__(self) -> None:
        self.samples_ms: List[float] = []
        #: Seconds spent sampling; timed phases subtract it.
        self.spent = 0.0
        self._last = -math.inf

    def sample(self) -> None:
        start = time.perf_counter()
        self.samples_ms.append(calibrate())
        self._last = time.perf_counter()
        self.spent += self._last - start

    def between_ops(self) -> None:
        if time.perf_counter() - self._last >= CALIBRATION_EVERY_S:
            self.sample()

    def scale(self, seconds: float, stall: float) -> float:
        """``seconds`` at reference speed; its ``stall`` part stays as measured."""
        factor = CALIBRATION_REF_MS / statistics.median(self.samples_ms)
        return (seconds - stall) * factor + stall


# -- workloads ---------------------------------------------------------------

#: A set-up's ``(seconds, stall)``: its duration and the part of it replies
#: spent between their headers and their last byte.
Setup = Tuple[float, float]


@dataclass
class Phase:
    """What one set-up plus timed loop measured."""

    tally: Tally
    #: Seconds the timed ops took, calibration samples between them excluded.
    elapsed: float = 0.0
    peak_rss_kb: int = 0
    #: Traced runs: the spans directory (cli-oneshot) or file (serve-*).
    spans: Optional[Path] = None
    #: ``GET /stats`` at the end of a traced serve-* run.
    server_stats: Optional[dict] = None
    #: Spawn until ``/healthz`` answered, for the server used (serve-*).
    boot_s: float = 0.0

    @property
    def ops(self) -> List[str]:
        """The timed ops' ids, in the order they ran."""
        return [f"t{index}" for index in range(len(self.tally.samples))]

    @property
    def stall(self) -> float:
        return sum(sample.stall for sample in self.tally.samples)


def planned_ops(name: str, seconds: float, min_ops: int) -> int:
    """Whole rounds of ``WEIGHTS[name]`` filling ``seconds`` at reference
    speed, and at least ``min_ops`` ops."""
    size = sum(weight for _, weight in WEIGHTS[name])
    rounds = max(math.ceil(min_ops / size), round(seconds / ROUND_REF_S[name]), 1)
    return rounds * size


def timed_loop(
    kinds: Iterator[inputs.Kind], run_op, ops: int, host: HostSpeed, tally: Tally
) -> float:
    """Closed loop over the first ``ops`` of ``kinds``; returns its duration
    without the calibration samples taken between ops."""
    start = time.perf_counter()
    spent = host.spent
    for index, kind in enumerate(itertools.islice(kinds, ops)):
        latency, stall = run_op(index, kind)
        tally.samples.append(Sample(latency, stall, kind.name))
        host.between_ops()
    return time.perf_counter() - start - (host.spent - spent)


class Workload:
    """Shared shape: set up, run a timed loop, tear down."""

    def __init__(self, name: str, seed: int, work: Path, sources: Dict[str, str]):
        self.name = name
        self.seed = seed
        self.work = work
        self.sources = sources
        self.env = child_env()
        self.weights = WEIGHTS[name]

    def kinds(self) -> Iterator[inputs.Kind]:
        return inputs.schedule(self.weights, self.seed)

    def distinct(self) -> List[inputs.Kind]:
        return [inputs.KINDS[name] for name, _ in self.weights]


class CliOneshot(Workload):
    """Sequential ``python -m repro check|synth FILE`` children."""

    def setup(self, tally: Tally, spans_dir: Optional[Path]) -> None:
        self.files = {}
        self.spans_dir = spans_dir
        for index, kind in enumerate(self.distinct()):
            request = inputs.make_request(self.sources, kind, self.seed, index)
            path = self.work / f"{kind.name}{request.tag}.sq"
            path.write_text(request.text)
            self.files[kind.name] = (request, path)
        for kind in self.distinct():
            self.op(tally, f"w-{kind.name}", kind)

    def op(self, tally: Tally, op: str, kind: inputs.Kind) -> Tuple[float, int]:
        request, path = self.files[kind.name]
        spans = self.spans_dir / f"{op}.json" if self.spans_dir is not None else None
        result = run_cli(repro_argv([kind.verb, str(path)], spans, op), self.env)
        ok, changed, detail = judge_cli(request, result.code, result.stdout)
        tally.record(request, ok, changed, detail)
        return result.latency, result.maxrss_kb

    def measure(
        self, ops: int, repeats: int, traced: bool, host: HostSpeed
    ) -> Tuple[List[Setup], Phase]:
        spans_dir = None
        if traced:
            spans_dir = Path(tempfile.mkdtemp(prefix="spans-", dir=self.work))
        setups = []
        tally = Tally()
        for _ in range(repeats):
            host.between_ops()
            start = time.perf_counter()
            self.setup(tally, spans_dir)
            setups.append((time.perf_counter() - start, 0.0))
        phase = Phase(tally, spans=spans_dir)

        def run_op(index: int, kind: inputs.Kind) -> Tuple[float, float]:
            latency, rss = self.op(tally, f"t{index}", kind)
            phase.peak_rss_kb = max(phase.peak_rss_kb, rss)
            return latency, 0.0

        phase.elapsed = timed_loop(self.kinds(), run_op, ops, host, tally)
        return setups, phase


class ServeMiss(Workload):
    """One ``serve --port 0`` process on a fresh cache, one connection;
    every timed request is a program the server has not seen."""

    #: The ``cached`` flag every timed answer must carry.
    cached = False

    def timed_request(self, index: int, kind: inputs.Kind) -> inputs.Request:
        return inputs.make_request(self.sources, kind, self.seed, len(self.warm) + index)

    def boot(self, spans: Optional[Path]) -> Server:
        """A server on a fresh cache directory, answering ``/healthz``."""
        return Server(Path(tempfile.mkdtemp(prefix="cache-", dir=self.work)), self.env, spans)

    def warm_up(self, server: Server, tally: Tally) -> None:
        """One checked cold op per kind (serve-hit repeats these later)."""
        self.warm = {}
        for index, kind in enumerate(self.distinct()):
            request = inputs.make_request(self.sources, kind, self.seed, index)
            self.warm[kind.name] = request
            self.send(server, tally, request, f"w{index}", cached=False)

    def send(
        self, server: Server, tally: Tally, request: inputs.Request, op: str, cached: bool
    ) -> Tuple[float, float]:
        latency, stall, status, body = server.post(request, op)
        ok, changed, detail = judge_reply(request, status, body, cached)
        tally.record(request, ok, changed, detail)
        return latency, stall

    def measure(
        self, ops: int, repeats: int, traced: bool, host: HostSpeed
    ) -> Tuple[List[Setup], Phase]:
        spans = self.work / "spans-server.json" if traced else None
        tally = Tally()
        setups = []
        server = None
        try:
            # Every set-up but the last is torn down; the timed ops run on
            # the last server booted.
            for _ in range(repeats):
                if server is not None:
                    server.stop()
                host.between_ops()
                start = time.perf_counter()
                server = self.boot(spans)
                self.warm_up(server, tally)
                setups.append((time.perf_counter() - start, server.stall))
            phase = Phase(tally, spans=spans, boot_s=server.booted - server.spawned)

            def run_op(index: int, kind: inputs.Kind) -> Tuple[float, float]:
                request = self.timed_request(index, kind)
                return self.send(server, tally, request, f"t{index}", cached=self.cached)

            phase.elapsed = timed_loop(self.kinds(), run_op, ops, host, tally)
            phase.peak_rss_kb = server.peak_rss_kb()
            if traced:
                _, phase.server_stats = server.request("GET", "/stats", None, None)
        finally:
            if server is not None:
                server.stop()
        return setups, phase


class ServeHit(ServeMiss):
    """The same server shape; the timed requests repeat the warm-up
    programs, so every answer is a cache read."""

    cached = True

    def timed_request(self, index: int, kind: inputs.Kind) -> inputs.Request:
        return self.warm[kind.name]


WORKLOADS = {"cli-oneshot": CliOneshot, "serve-miss": ServeMiss, "serve-hit": ServeHit}


# -- metrics -----------------------------------------------------------------


def quantile(samples: List[Sample], q: float) -> Tuple[float, str]:
    """The ``q`` quantile of sorted ``samples`` (linear interpolation) and
    the kind it lands in."""
    position = q * (len(samples) - 1)
    low = int(position)
    high = min(low + 1, len(samples) - 1)
    fraction = position - low
    value = samples[low].latency * (1 - fraction) + samples[high].latency * fraction
    return value, samples[round(position)].kind


def scaled(samples: List[Sample], host: HostSpeed) -> List[Sample]:
    """``samples`` at reference speed, sorted."""
    return sorted(Sample(host.scale(s.latency, s.stall), s.stall, s.kind) for s in samples)


def describe_mix(name: str, phase: Phase, host: HostSpeed) -> List[str]:
    """Kind shares, and which kind p50 and p90 land in.

    The latencies five ranks-percent either side of each quantile show how
    close it sits to the edge between two kinds' latency clusters.
    """
    raw = sorted(phase.tally.samples)
    samples = scaled(raw, host)
    total = len(samples)
    shares: Dict[str, int] = {}
    for sample in samples:
        shares[sample.kind] = shares.get(sample.kind, 0) + 1
    lines = [
        f"{name}: {total} timed ops in {phase.elapsed:.2f}s, "
        f"{phase.stall / total * 1000:.1f} ms reply stall per op",
        "  shares: " + ", ".join(f"{k} {v / total:.0%}" for k, v in sorted(shares.items())),
    ]
    for q in (0.5, 0.9):
        value, kind = quantile(samples, q)
        below = quantile(samples, q - 0.05)[0] * 1000
        above = quantile(samples, min(q + 0.05, 1.0))[0] * 1000
        lines.append(
            f"  p{round(q * 100)} = {value * 1000:.1f} ms in {kind} "
            f"(p{round(q * 100) - 5} {below:.1f} ms, p{round(q * 100) + 5} {above:.1f} ms; "
            f"{quantile(raw, q)[0] * 1000:.1f} ms as measured)"
        )
    return lines


def end_to_end(setups: List[Setup], phase: Phase, host: HostSpeed) -> Dict[str, Tuple[float, str]]:
    samples = scaled(phase.tally.samples, host)
    return {
        "setup_s": (statistics.median(host.scale(*setup) for setup in setups), "s"),
        "latency_p50_ms": (quantile(samples, 0.5)[0] * 1000, "ms"),
        "latency_p90_ms": (quantile(samples, 0.9)[0] * 1000, "ms"),
        "throughput_per_s": (len(samples) / host.scale(phase.elapsed, phase.stall), "1/s"),
        "peak_rss_mb": (phase.peak_rss_kb / 1024, "MB"),
    }


# -- per-layer metrics from the traced run --------------------------------------

#: span name -> per-layer metric of its self time
SELF_TIME = {
    "service.digest": "service.digest_ms",
    "service.cache_get": "service.cache_get_ms",
    "service.cache_put": "service.cache_put_ms",
    "service.flush_lemmas": "service.flush_lemmas_ms",
    "syntax.parse": "syntax.parse_ms",
    "typecheck": "typecheck.self_ms",
    "synth": "synth.self_ms",
    "synth.enumerate": "synth.enumerate_ms",
    "synth.abduce": "synth.abduce_ms",
    "horn": "horn.self_ms",
    "smt.encode": "smt.encode_ms",
    "smt.search": "smt.search_ms",
    "smt.theory": "smt.theory_ms",
    "smt.simplex": "smt.simplex_ms",
    "smt.shrink": "smt.shrink_ms",
    "logic.rewrite": "logic.rewrite_ms",
}

#: per-op counter metric -> launcher counter summed over timed ops
PER_OP_COUNTS = {
    "typecheck.trials": "typecheck_trials",
    "synth.generated": "synth_generated",
    "synth.goal_checks": "synth_goal_checks",
    "synth.abductions": "synth_abductions",
    "horn.solves": "horn_solve_calls",
    "horn.candidates_explored": "horn.candidates_explored",
    "horn.muses_enumerated": "horn.muses_enumerated",
    "smt.queries": "smt.sat_queries",
    "smt.encoded": "smt.encoded_assertions",
    "smt.conflicts": "smt.conflicts",
    "smt.pivots": "smt.tableau_pivots",
    "smt.lemmas_generalized": "smt.lemmas_generalized",
    "logic.rewrite_calls": "logic_rewrite_calls",
}

#: ratio metric -> (numerator counters, base counters)
RATIOS = {
    "service.cache_hit_ratio": (("cache_hits",), ("cache_lookups",)),
    "synth.pruned_early_ratio": (("synth_pruned_early",), ("synth_generated",)),
    "horn.candidates_pruned_ratio": (("horn.candidates_pruned",), ("horn.candidates_explored",)),
    "smt.reuse_ratio": (
        ("smt.reused_assertions",),
        ("smt.reused_assertions", "smt.encoded_assertions"),
    ),
}


def read_trace(path: Path) -> Tuple[dict, float]:
    with open(path) as handle:
        report = json.loads(handle.readline())
        dump_s = json.loads(handle.readline())["dump_s"]
    return report, dump_s


def layer_totals(report: dict, ops: set, totals: Dict[str, float], counters: Dict[str, float]):
    """Add one trace's self times (ms) and counters of ``ops`` to the totals."""
    spans = report["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for index, (name, start, end, parent, op) in enumerate(spans):
        if op not in ops:
            continue
        if name == "service.handler":
            totals["service.handler_ms"] = totals.get("service.handler_ms", 0.0) + (
                end - start
            ) * 1000
            totals.setdefault("handler_by_op", {})[op] = (end - start) * 1000
            continue
        metric = SELF_TIME[name]
        totals[metric] = totals.get(metric, 0.0) + (end - start - child_time[index]) * 1000
    for op, name, value in report["counters"]:
        if op in ops:
            counters[name] = counters.get(name, 0) + value


def per_layer(
    workload: Workload,
    traced: Phase,
    untraced: List[Sample],
    calibration: List[float],
) -> Dict[str, Tuple[float, str]]:
    ops = set(traced.ops)
    count = len(traced.ops)
    totals: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    latency_by_op = dict(zip(traced.ops, (sample.latency for sample in traced.tally.samples)))
    cli = {"import": 0.0, "main": 0.0, "interpreter": 0.0}
    lemma_pool = 0
    if isinstance(workload, CliOneshot):
        for op in traced.ops:
            report, dump_s = read_trace(traced.spans / f"{op}.json")
            layer_totals(report, ops, totals, counters)
            import_s = report["import"][1] - report["import"][0]
            main_s = report["main"][1] - report["main"][0]
            instrument_s = report["instrument"][1] - report["instrument"][0]
            cli["import"] += import_s
            cli["main"] += main_s
            cli["interpreter"] += latency_by_op[op] - import_s - main_s - instrument_s - dump_s
        boots = count
    else:
        report, _ = read_trace(traced.spans)
        layer_totals(report, ops, totals, counters)
        process = {name: value for op, name, value in report["counters"] if op is None}
        cli["import"] = report["import"][1] - report["import"][0]
        cli["main"] = process["ready_at"] - report["main"][0]
        instrument_s = report["instrument"][1] - report["instrument"][0]
        cli["interpreter"] = traced.boot_s - cli["import"] - cli["main"] - instrument_s
        lemma_pool = process.get("lemma_pool", 0)
        boots = 1
    handler_by_op = totals.pop("handler_by_op", {})
    wire = sum(latency_by_op[op] * 1000 - handler_by_op[op] for op in handler_by_op)
    cache_stats = (traced.server_stats or {}).get("cache") or {}
    traced_p50 = quantile(sorted(traced.tally.samples), 0.5)[0]
    untraced_p50 = quantile(sorted(untraced[:count]), 0.5)[0]
    metrics: Dict[str, Tuple[float, str]] = {
        "cli.import_ms": (cli["import"] * 1000 / boots, "ms"),
        "cli.main_ms": (cli["main"] * 1000 / boots, "ms"),
        "cli.interpreter_ms": (cli["interpreter"] * 1000 / boots, "ms"),
        "service.handler_ms": (totals.get("service.handler_ms", 0.0) / count, "ms"),
        "service.wire_ms": (wire / count, "ms"),
        "service.cache_entries": (float(cache_stats.get("entries", 0)), "count"),
        "service.lemma_pool": (float(lemma_pool), "count"),
        "service.stack_resets": (float(counters.get("stack_resets", 0)), "count"),
        "trace.overhead_ratio": (traced_p50 / untraced_p50 - 1, "ratio"),
        "host.calibration_ms": (statistics.median(calibration), "ms"),
    }
    for metric in SELF_TIME.values():
        metrics[metric] = (totals.get(metric, 0.0) / count, "ms")
    for metric, counter in PER_OP_COUNTS.items():
        metrics[metric] = (counters.get(counter, 0) / count, "count")
    for metric, (numerator, base) in RATIOS.items():
        top = sum(counters.get(name, 0) for name in numerator)
        bottom = sum(counters.get(name, 0) for name in base)
        metrics[metric] = (top / bottom if bottom else 0.0, "ratio")
    return metrics


# -- entry point -------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "cli.py").is_file() or not EXAMPLES.is_dir():
        print(f"error: {ROOT} has no src/repro or examples/ to benchmark", file=sys.stderr)
        return 2

    # A run stopped with SIGTERM still stops its server on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    compileall.compile_dir(str(SRC), quiet=1)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return _run(args, work)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path) -> int:
    sources = inputs.load_sources(EXAMPLES)
    workload = WORKLOADS[args.workload](args.workload, args.seed, work, sources)
    host = HostSpeed()
    for _ in range(CALIBRATION_REPEATS):
        host.sample()
    if args.trace:
        count = planned_ops(args.workload, args.seconds / 2, 0)
        setups, untraced = workload.measure(count, 1, False, host)
        _, traced = workload.measure(count, 1, True, host)
        phases = [untraced, traced]
    else:
        count = planned_ops(args.workload, args.seconds, MIN_OPS)
        setups, phase = workload.measure(count, SETUP_REPEATS, False, host)
        phases = [phase]
    middle = host.samples_ms[CALIBRATION_REPEATS:]
    for _ in range(CALIBRATION_REPEATS):
        host.sample()
    lines = [] if args.trace else describe_mix(args.workload, phase, host)
    if args.trace:
        metrics = per_layer(workload, traced, untraced.tally.samples, host.samples_ms)
    else:
        metrics = end_to_end(setups, phase, host)
    attempted = sum(p.tally.attempted for p in phases)
    failed = sum(p.tally.failed for p in phases)
    changed = sum(p.tally.changed for p in phases)
    lines.append(
        f"{args.workload}: {attempted} ops checked, {failed} failed, {changed} changed answers; "
        f"setups {', '.join(f'{raw:.3f}s' for raw, _ in setups)} as measured; host calibration "
        f"{statistics.median(host.samples_ms[:CALIBRATION_REPEATS]):.1f} ms at start, "
        f"{statistics.median(middle):.1f} ms between ops ({len(middle)} samples), "
        f"{statistics.median(host.samples_ms[-CALIBRATION_REPEATS:]):.1f} ms at end"
    )
    for phase_ in phases:
        lines += phase_.tally.notes
    for line in lines:
        print(line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
