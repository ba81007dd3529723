"""The synthesis service: a long-running stdlib HTTP/JSON server.

``python -m repro serve`` boots a :class:`ThreadingHTTPServer` (no
dependencies beyond the standard library) that answers four routes:

===========  ======  ====================================================
``/healthz``  GET    liveness: ``{"status": "ok", "version": ...}``
``/stats``    GET    cache + worker counters (hits, misses, queries, ...)
``/check``    POST   ``{"program": "<.sq source>", "workers"?: int}``
``/synth``    POST   ``{"program": "<.sq source>", "only"?, "depth"?,
                     "max_conditionals"?, "max_matches"?, "recheck"?}``
===========  ======  ====================================================

POST responses wrap the ordinary query payloads (see
:mod:`repro.service.api`) as ``{"digest", "cached", "result"}`` — the
same structures the CLI renders, so a client can diff server answers
against local runs byte for byte.  Errors are JSON too: ``400`` for a
malformed body, a parse error, or an unknown goal; ``404`` for any other
path; ``500`` for an unexpected solver crash (counted in ``resets``).
Connections are kept alive, so every reply first consumes the request
body; a body the handler will not read (malformed, oversized or
chunked) is a ``400`` that closes the connection.

**Deadlines.** ``--request-timeout`` arms every POST with a wall-clock
budget (a per-request ``"timeout_ms"`` body field tightens it further);
the budget propagates through every solver layer via
:mod:`repro.limits`.  A query that degrades into a partial payload
(``result["timeout"]``) or trips outright is answered ``503`` with
``{"error", "timeout": true, ...}`` plus whatever partial results and
stats were gathered — the same degradation contract the CLI renders.
On ``SIGTERM`` the server stops accepting connections, drains in-flight
requests (bounded), and exits 0.

Each request computes on solvers of its own, built for it and freed when
it ends (see :mod:`repro.service.worker`), so a request costs the same
however many programs the server has answered before it.  Queries run
one at a time through the :class:`~repro.service.worker.WarmStack` lock;
the threaded server still overlaps request I/O, and a cached answer
builds no solver at all.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from .. import limits
from ..syntax.parser import ParseError, parse_program
from ..version import package_version
from . import api
from .cache import ResultCache, open_cache
from .worker import WarmStack

#: Request bodies beyond this are rejected outright (64 MiB of ``.sq``
#: source is not a synthesis query, it is a mistake).
MAX_BODY_BYTES = 64 * 1024 * 1024


class _BadRequest(Exception):
    """A client error: reported as a 400 with the message as JSON."""


class ServiceHandler(BaseHTTPRequestHandler):
    """One request against the shared :class:`ReproServer` state."""

    server_version = f"repro-service/{package_version()}"
    protocol_version = "HTTP/1.1"
    # Headers and body go out as two writes; with Nagle's algorithm on,
    # the body waits for the client's delayed ACK of the headers.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _reply(self, status: int, body: dict) -> None:
        data = json.dumps(body, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def _read_body(self) -> bytes:
        """The request body, read in full so a kept-alive connection
        resumes at the next request.

        A body this handler will not read (chunked, oversized, or behind
        a malformed ``Content-Length``) is a 400 that also closes the
        connection, so its bytes are never parsed as a request line.
        """
        declared = (self.headers.get("Content-Length") or "0").strip()
        if "Transfer-Encoding" in self.headers:
            problem = "chunked bodies are not supported: send Content-Length"
        elif not (declared.isascii() and declared.isdigit()):
            problem = f"malformed Content-Length: {declared!r}"
        elif int(declared) > MAX_BODY_BYTES:
            problem = f"request body over {MAX_BODY_BYTES} bytes"
        else:
            return self.rfile.read(int(declared))
        self.close_connection = True
        raise _BadRequest(problem)

    def _json_body(self, data: bytes) -> dict:
        if not data:
            raise _BadRequest("expected a JSON body with Content-Length")
        try:
            body = json.loads(data)
        except ValueError as error:
            raise _BadRequest(f"malformed JSON body: {error}") from error
        if not isinstance(body, dict):
            raise _BadRequest("JSON body must be an object")
        return body

    def _program(self, body: dict):
        source = body.get("program")
        if not isinstance(source, str):
            raise _BadRequest("missing `program`: the .sq source text")
        try:
            return parse_program(source)
        except ParseError as error:
            raise _BadRequest(f"parse error: {error}") from error

    @staticmethod
    def _int(body: dict, key: str, default: int) -> int:
        value = body.get(key, default)
        if not isinstance(value, int) or isinstance(value, bool):
            raise _BadRequest(f"`{key}` must be an integer")
        return value

    def _timeout_ms(self, body: dict) -> Optional[float]:
        """The request's wall-clock budget: the tighter of the server's
        ``--request-timeout`` and the body's ``timeout_ms``, if any."""
        value = body.get("timeout_ms")
        if value is not None and (
            isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0
        ):
            raise _BadRequest("`timeout_ms` must be a positive number")
        server_default = getattr(self.server, "request_timeout_ms", None)
        candidates = [t for t in (value, server_default) if t is not None]
        return min(candidates) if candidates else None

    def _budget(self, body: dict) -> Optional[limits.Budget]:
        timeout_ms = self._timeout_ms(body)
        return limits.Budget.from_timeout_ms(timeout_ms) if timeout_ms else None

    # -- routes --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            self._read_body()
        except _BadRequest as error:
            self._reply(400, {"error": str(error)})
            return
        if self.path == "/healthz":
            self._reply(200, {"status": "ok", "version": package_version()})
        elif self.path == "/stats":
            self._reply(200, self.server.service_stats())
        else:
            self._reply(404, {"error": f"no such route: {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        server: ReproServer = self.server
        server.request_started()
        try:
            data = self._read_body()
            if self.path == "/check":
                self._reply(*self._handle_check(self._json_body(data)))
            elif self.path == "/synth":
                self._reply(*self._handle_synth(self._json_body(data)))
            else:
                self._reply(404, {"error": f"no such route: {self.path}"})
        except _BadRequest as error:
            self._reply(400, {"error": str(error)})
        except limits.BudgetExhausted as exhausted:
            # The budget tripped outside the degradation paths the query
            # layer absorbs (e.g. mid-setup): still a structured answer.
            self._reply(503, self._timeout_body(exhausted))
        except Exception as error:  # noqa: BLE001 - the server must survive
            self._reply(500, {"error": f"internal error: {error}"})
        finally:
            server.request_finished()

    def _timeout_body(self, exhausted: limits.BudgetExhausted) -> dict:
        return {
            "error": str(exhausted),
            "timeout": True,
            "limit": exhausted.limit,
            "progress": dict(exhausted.progress),
            "stats": self.server.service_stats(),
        }

    def _finish(self, payload: dict, cached: bool, digest: str) -> Tuple[int, dict]:
        """Wrap a query payload; a degraded (timed-out) one answers 503."""
        body = {"digest": digest, "cached": cached, "result": payload}
        if payload.get("timeout"):
            body["timeout"] = True
            body["stats"] = self.server.service_stats()
            return 503, body
        return 200, body

    def _handle_check(self, body: dict) -> Tuple[int, dict]:
        program = self._program(body)
        workers = self._int(body, "workers", 1)
        server: ReproServer = self.server
        with limits.budget_scope(self._budget(body)):
            with server.stack.query():
                payload, cached, digest = api.check_query(
                    program, workers=workers, cache=server.cache
                )
        return self._finish(payload, cached, digest)

    def _handle_synth(self, body: dict) -> Tuple[int, dict]:
        program = self._program(body)
        only = body.get("only")
        if only is not None and not isinstance(only, str):
            raise _BadRequest("`only` must be a goal name")
        server: ReproServer = self.server
        try:
            with limits.budget_scope(self._budget(body)):
                with server.stack.query():
                    payload, cached, digest = api.synth_query(
                        program,
                        only=only,
                        depth=self._int(body, "depth", 4),
                        max_conditionals=self._int(body, "max_conditionals", 2),
                        max_matches=self._int(body, "max_matches", 1),
                        cache=server.cache,
                        recheck=bool(body.get("recheck", False)),
                    )
        except api.UnknownGoal as error:
            raise _BadRequest(f"no signature for goal `{error}`") from error
        return self._finish(payload, cached, digest)


class ReproServer(ThreadingHTTPServer):
    """The service process: HTTP front, one query lock, one cache."""

    daemon_threads = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8729,
        cache: Optional[ResultCache] = None,
        verbose: bool = False,
        request_timeout_ms: Optional[float] = None,
    ) -> None:
        super().__init__((host, port), ServiceHandler)
        self.cache = cache
        self.verbose = verbose
        self.request_timeout_ms = request_timeout_ms
        self.stack = WarmStack()
        self._inflight = 0
        self._inflight_lock = threading.Lock()

    # Handler threads are daemons (a wedged request must not block
    # shutdown), so graceful drain is tracked by hand:

    def request_started(self) -> None:
        with self._inflight_lock:
            self._inflight += 1

    def request_finished(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def drain(self, grace_s: float = 5.0) -> bool:
        """Wait (bounded) for in-flight requests; True if all finished."""
        deadline = time.monotonic() + grace_s
        while self.inflight() > 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        return self.inflight() == 0

    def service_stats(self) -> dict:
        return {
            "version": package_version(),
            "cache": self.cache.stats() if self.cache is not None else None,
            "worker": self.stack.stats(),
            "inflight": self.inflight(),
        }


def serve(
    host: str = "127.0.0.1",
    port: int = 8729,
    cache_dir: Optional[str] = None,
    no_cache: bool = False,
    verbose: bool = False,
    out=None,
    request_timeout_ms: Optional[float] = None,
) -> int:
    """Run the service until interrupted (the ``serve`` verb's body).

    ``SIGTERM`` (when running on the main thread — tests boot the server
    from a worker thread, where installing handlers is illegal) triggers
    a graceful stop: no new connections and a bounded drain of in-flight
    requests.
    """
    cache = open_cache(cache_dir, enabled=not no_cache)
    server = ReproServer(host, port, cache, verbose, request_timeout_ms=request_timeout_ms)
    if out is not None:
        where = cache.root if cache is not None else "disabled"
        print(f"repro service on http://{host}:{server.server_port} (cache: {where})", file=out)
        out.flush()

    previous_handler = None
    if threading.current_thread() is threading.main_thread():

        def _terminate(signum, frame):
            # shutdown() blocks until serve_forever() exits, so it must
            # run off the serving thread.
            threading.Thread(target=server.shutdown, daemon=True).start()

        previous_handler = signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)
        server.drain()
        server.server_close()
    return 0
