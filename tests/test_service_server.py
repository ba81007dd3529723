"""The HTTP service: routes, cache behaviour, error shapes, and solver
lifetime.

One threaded :class:`ReproServer` per test (port 0 — the OS picks), a
plain ``http.client`` as the client, so what is exercised is exactly
what ``curl`` sees: status codes, JSON bodies, and the warm-cache
``cached`` flag flipping on the second identical request.
"""

import gc
import json
import re
import socket
import threading
from contextlib import contextmanager
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro import limits
from repro.service import server as server_mod
from repro.service.api import compute_check, compute_synth
from repro.service.cache import open_cache
from repro.service.server import ReproServer
from repro.service.worker import WarmStack
from repro.syntax import parse_program

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

MAX_SQ = """\
leq :: a:Int -> b:Int -> {Bool | nu <==> a <= b}

max :: x:Int -> y:Int -> {Int | nu >= x && nu >= y && (nu == x || nu == y)}
max = ??
"""

CHECK_SQ = """\
inc :: a:Int -> {Int | nu == a + 1}

plus2 :: a:Int -> {Int | nu == a + 2}
plus2 = \\a . inc (inc a)
"""


@contextmanager
def running(server_class, tmp_path):
    srv = server_class("127.0.0.1", 0, open_cache(str(tmp_path / "cache")))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture
def server(tmp_path):
    with running(ReproServer, tmp_path) as srv:
        yield srv


def exchange(conn, method, path, body=None, raw=None):
    """One request on an open connection: (status, headers, JSON body)."""
    data = raw if raw is not None else (json.dumps(body).encode() if body is not None else None)
    headers = {"Content-Type": "application/json"} if data else {}
    conn.request(method, path, data, headers)
    response = conn.getresponse()
    return response.status, response.headers, json.loads(response.read())


def call(server, method, path, body=None, raw=None):
    conn = HTTPConnection("127.0.0.1", server.server_port)
    try:
        status, _, answer = exchange(conn, method, path, body, raw)
    finally:
        conn.close()
    return status, answer


class TestRoutes:
    def test_healthz(self, server):
        status, body = call(server, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok" and body["version"]

    def test_unknown_route_is_404_json(self, server):
        for method in ("GET", "POST"):
            status, body = call(server, method, "/nope", body={"x": 1})
            assert status == 404
            assert "no such route" in body["error"]

    def test_stats_reports_cache_and_worker(self, server):
        status, body = call(server, "GET", "/stats")
        assert status == 200
        assert body["cache"]["hits"] == 0
        assert body["worker"]["queries"] == 0


class TestCheckRoute:
    def test_check_accepts_and_caches(self, server):
        status, first = call(server, "POST", "/check", {"program": CHECK_SQ})
        assert status == 200
        assert not first["cached"]
        assert first["result"]["items"] == [{"name": "plus2", "status": "ok"}]
        status, second = call(server, "POST", "/check", {"program": CHECK_SQ})
        assert status == 200
        assert second["cached"]
        assert second["result"] == first["result"]
        assert second["digest"] == first["digest"]
        _, stats = call(server, "GET", "/stats")
        assert stats["cache"]["hits"] == 1
        assert stats["worker"]["queries"] == 2

    def test_rejection_is_a_200_with_failures(self, server):
        bad = CHECK_SQ.replace("inc (inc a)", "inc a")
        status, body = call(server, "POST", "/check", {"program": bad})
        assert status == 200, "a refuted program is an answer, not an HTTP error"
        assert body["result"]["failures"] == 1
        assert body["result"]["items"][0]["status"] == "rejected"


class TestSynthRoute:
    def test_synth_round_trip(self, server):
        status, body = call(server, "POST", "/synth", {"program": MAX_SQ})
        assert status == 200
        item = body["result"]["items"][0]
        assert item["solved"] and item["verified"]
        assert item["program"].startswith("max = ")
        status, again = call(server, "POST", "/synth", {"program": MAX_SQ})
        assert again["cached"]
        assert again["result"] == body["result"]

    def test_recheck_serves_verified_hit(self, server):
        call(server, "POST", "/synth", {"program": MAX_SQ})
        status, body = call(server, "POST", "/synth", {"program": MAX_SQ, "recheck": True})
        assert status == 200
        assert body["cached"], "a re-checked valid entry is still a hit"

    def test_unknown_goal_is_400(self, server):
        status, body = call(server, "POST", "/synth", {"program": MAX_SQ, "only": "nonesuch"})
        assert status == 400
        assert "no signature" in body["error"]


class TestBadRequests:
    def test_malformed_json_is_400(self, server):
        status, body = call(server, "POST", "/check", raw=b"{not json")
        assert status == 400
        assert "malformed JSON" in body["error"]

    def test_missing_program_is_400(self, server):
        status, body = call(server, "POST", "/check", {"nope": 1})
        assert status == 400
        assert "missing `program`" in body["error"]

    def test_parse_error_is_400(self, server):
        status, body = call(server, "POST", "/check", {"program": "max :: Int ->"})
        assert status == 400
        assert "parse error" in body["error"]

    def test_non_integer_option_is_400(self, server):
        status, body = call(server, "POST", "/synth", {"program": MAX_SQ, "depth": "four"})
        assert status == 400
        assert "`depth` must be an integer" in body["error"]

    def test_empty_body_is_400(self, server):
        status, body = call(server, "POST", "/check")
        assert status == 400
        assert "expected a JSON body" in body["error"]


class TestConnections:
    """Several requests over one connection, the way real clients send them."""

    @pytest.fixture
    def conn(self, server):
        connection = HTTPConnection("127.0.0.1", server.server_port, timeout=30)
        yield connection
        connection.close()

    @pytest.mark.parametrize("method", ["GET", "POST"])
    def test_unknown_route_consumes_its_body(self, conn, method):
        status, headers, body = exchange(conn, method, "/nope", {"x": 1})
        assert status == 404 and "no such route" in body["error"]
        assert headers.get("Connection") != "close"
        status, _, body = exchange(conn, "POST", "/check", {"program": CHECK_SQ})
        assert status == 200 and body["result"]["failures"] == 0

    def test_oversized_body_is_400_and_closes(self, conn, monkeypatch):
        monkeypatch.setattr(server_mod, "MAX_BODY_BYTES", 10)
        status, headers, body = exchange(conn, "POST", "/check", {"program": CHECK_SQ})
        assert status == 400 and "over 10 bytes" in body["error"]
        assert headers.get("Connection") == "close"
        status, _, body = exchange(conn, "GET", "/healthz")
        assert status == 200 and body["status"] == "ok"

    @pytest.mark.parametrize(
        "header, error",
        [
            (("Content-Length", "abc"), "malformed Content-Length"),
            (("Transfer-Encoding", "chunked"), "chunked bodies are not supported"),
        ],
        ids=["malformed-length", "chunked"],
    )
    def test_unreadable_body_is_400_and_closes(self, conn, header, error):
        conn.putrequest("POST", "/check")
        conn.putheader("Content-Type", "application/json")
        conn.putheader(*header)
        conn.endheaders(json.dumps({"program": CHECK_SQ}).encode())
        response = conn.getresponse()
        body = json.loads(response.read())
        assert response.status == 400 and error in body["error"]
        assert response.headers.get("Connection") == "close"
        status, _, body = exchange(conn, "POST", "/check", {"program": CHECK_SQ})
        assert status == 200 and body["result"]["failures"] == 0

    def test_replies_are_sent_without_nagle_delay(self, tmp_path):
        class Probe(ReproServer):
            nodelay = []
            recorded = threading.Event()

            def finish_request(self, request, client_address):
                super().finish_request(request, client_address)
                self.nodelay.append(request.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
                self.recorded.set()

        with running(Probe, tmp_path) as probe:
            assert call(probe, "GET", "/healthz")[0] == 200
            assert Probe.recorded.wait(timeout=10)
        assert Probe.nodelay and all(Probe.nodelay)


#: User identifiers of ``list.sq`` and ``max.sq``; a suffix on each makes
#: a program the server has not seen that asks the solver the same thing.
USER_NAMES = re.compile(r"\b(?:inc|stutter|length|append|leq|max|xs|ys|x|y)\b")

#: (route, example, the stateless computation the route must match)
UNSEEN = [
    ("/check", "list.sq", compute_check),
    ("/synth", "max.sq", compute_synth),
]


def renamed(example, index):
    source = (EXAMPLES / example).read_text()
    return USER_NAMES.sub(lambda match: f"{match.group()}_r{index}", source)


def alive(solvers_made):
    """How many of the tracked solvers are still reachable."""
    gc.collect()
    return sum(1 for ref in solvers_made if ref() is not None)


class TestOneSolverPerRequest:
    """Each request computes on solvers of its own, exactly as the
    stateless CLI does, and frees them when it ends."""

    @pytest.mark.parametrize("route, example, compute", UNSEEN, ids=["check-list", "synth-max"])
    def test_unseen_programs_answer_like_stateless_runs_and_free_their_solvers(
        self, server, solvers_made, route, example, compute
    ):
        conn = HTTPConnection("127.0.0.1", server.server_port, timeout=60)
        try:
            for index in range(10):
                source = renamed(example, index)
                before = len(solvers_made)
                status, _, answer = exchange(conn, "POST", route, {"program": source})
                assert status == 200 and not answer["cached"]
                assert len(solvers_made) > before, "a miss computes on new solvers"
                assert alive(solvers_made) == 0, f"solvers outlived {route} #{index}"
                expected = compute(parse_program(source))
                assert json.dumps(answer["result"], sort_keys=True) == json.dumps(
                    expected, sort_keys=True
                )
        finally:
            conn.close()
        _, stats = call(server, "GET", "/stats")
        assert stats["worker"] == {"queries": 10, "resets": 0, "timeout_resets": 0}
        assert stats["cache"]["entries"] == 10
        assert not list(server.cache.root.rglob("*.pickle")), "no lemma pool is written"

    @pytest.mark.parametrize("route, example, compute", UNSEEN, ids=["check-list", "synth-max"])
    def test_cache_hit_builds_no_solver(self, server, solvers_made, route, example, compute):
        body = {"program": renamed(example, 0)}
        status, first = call(server, "POST", route, body)
        assert status == 200 and not first["cached"]
        before = len(solvers_made)
        status, again = call(server, "POST", route, body)
        assert status == 200 and again["cached"]
        assert again["result"] == first["result"]
        assert len(solvers_made) == before

    def test_each_definition_checks_on_one_solver_of_its_own(self, solvers_made):
        """Within a query the reuse stays: every subtyping and Horn check
        of one definition runs on that definition's one solver."""
        two = CHECK_SQ + "\nplus3 :: a:Int -> {Int | nu == a + 3}\nplus3 = \\a . inc (plus2 a)\n"
        payload = compute_check(parse_program(two))
        assert [item["status"] for item in payload["items"]] == ["ok", "ok"]
        assert len(solvers_made) == 2


class TestQueryGuard:
    """:class:`WarmStack` runs queries one at a time and counts failures."""

    def test_counts_queries_and_the_ones_that_raised(self):
        stack = WarmStack()
        with stack.query():
            pass
        with pytest.raises(ValueError), stack.query():
            raise ValueError("a crashed query")
        with pytest.raises(limits.BudgetExhausted), stack.query():
            raise limits.BudgetExhausted("wall_clock")
        assert stack.stats() == {"queries": 3, "resets": 2, "timeout_resets": 1}

    def test_keeps_the_names_the_traced_benchmark_patches(self):
        """``perfbench/launcher.py`` wraps ``reset(self, timeout)`` and
        ``flush_lemmas``; with no lemma pool the flush reports 0."""
        stack = WarmStack()
        stack.reset(True)
        assert stack.stats() == {"queries": 0, "resets": 1, "timeout_resets": 1}
        assert stack.flush_lemmas() == 0
