"""The chaos suite: every degradation path, proven by injected faults.

Each test arms one named failure point (:mod:`repro.testing.faults`) and
asserts the stack *degrades* exactly as documented instead of dying:

* a cache entry corrupted mid-read → counted, dropped, recomputed;
* a theory check raising → the batch sweep records one failure, resets
  the warm stack (visibly), and finishes the rest; the next sweep of any
  file in the examples corpus answers exactly as if nothing had crashed;
* a warm stack stalling past its deadline → the server answers 503 and
  ``/stats`` shows a timeout reset;
* ``synth --timeout-ms`` on an oversized goal → exit code 2 with a
  structured timeout report, in well under twice the deadline.
"""

import io
import json
import shutil
import threading
import time
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.service.batch import run_batch
from repro.service.cache import ResultCache
from repro.service.server import ReproServer
from repro.testing import faults

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture(autouse=True)
def disarm():
    faults.reset()
    yield
    faults.reset()


class TestFaultHarness:
    def test_points_are_disarmed_by_default(self):
        assert not faults.maybe_fire("anything")

    def test_armed_point_fires_exactly_its_charges(self):
        faults.arm("p", times=2)
        assert faults.maybe_fire("p")
        assert faults.maybe_fire("p")
        assert not faults.maybe_fire("p")

    def test_env_arming(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "a, b:3")
        faults.reset()  # force a re-read of the environment
        assert faults.maybe_fire("a")
        assert not faults.maybe_fire("a")
        for _ in range(3):
            assert faults.maybe_fire("b")
        assert not faults.maybe_fire("b")


class TestCacheCorruption:
    def test_corrupt_read_is_counted_dropped_and_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"items": [], "failures": 0})
        faults.arm("cache.corrupt-read")
        assert cache.get("ab" * 32) is None  # corrupt → miss
        stats = cache.stats()
        assert stats["corrupt"] == 1 and stats["entries"] == 0
        cache.put("ab" * 32, {"items": [], "failures": 0})  # recompute+rewrite
        assert cache.get("ab" * 32) == {"items": [], "failures": 0}


SIMPLE_SQ = """\
inc :: a:Int -> {Int | nu == a + 1}

plus2 :: a:Int -> {Int | nu == a + 2}
plus2 = \\a . inc (inc a)
"""


def corpus(tmp_path, count=3):
    for index in range(count):
        # distinct names so each file is a distinct cache key
        (tmp_path / f"file{index}.sq").write_text(
            SIMPLE_SQ.replace("plus2", f"plus2_{index}")
        )
    return tmp_path


class TestBatchFaultTolerance:
    def test_theory_crash_fails_one_file_not_the_sweep(self, tmp_path):
        faults.arm("theory.raise")
        report = run_batch(str(corpus(tmp_path)), cache=None)
        assert len(report["files"]) == 3
        assert report["failures"] == 1
        errors = [r for r in report["files"] if "error" in r]
        assert len(errors) == 1 and "theory.raise" in errors[0]["error"]
        # the crashed query reset the warm stack, and the report says so
        assert report["resets"] == 1
        # the remaining files still checked clean
        assert sum(1 for r in report["files"] if "check" in r) == 2

    @pytest.mark.parametrize("example", sorted(p.name for p in EXAMPLES.glob("*.sq")))
    def test_corpus_survives_a_theory_crash(self, example, tmp_path):
        """A solve that dies mid-check leaves nothing behind: the sweep
        after the crash reports what a clean sweep reports."""
        shutil.copy(EXAMPLES / example, tmp_path / example)
        clean = run_batch(str(tmp_path), cache=None)
        assert clean["failures"] == 0
        faults.arm("theory.raise")
        crashed = run_batch(str(tmp_path), cache=None)
        assert crashed["failures"] == crashed["resets"] == 1
        assert "theory.raise" in crashed["files"][0]["error"]
        after = run_batch(str(tmp_path), cache=None)
        assert after["files"] == clean["files"]
        assert after["resets"] == 0

    def test_file_timeout_is_recorded_and_the_sweep_continues(self, tmp_path):
        corpus(tmp_path)
        (tmp_path / "slow.sq").write_text((EXAMPLES / "list.sq").read_text())
        report = run_batch(
            str(tmp_path), cache=None, file_timeout_ms=80, depth=8, max_matches=2
        )
        assert len(report["files"]) == 4
        assert report["timeouts"] >= 1
        timed_out = [r for r in report["files"] if r.get("timeout")]
        assert any(r["file"].endswith("slow.sq") for r in timed_out)


class TestServerDegradation:
    @pytest.fixture
    def server(self):
        srv = ReproServer("127.0.0.1", 0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            yield srv
        finally:
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=5)

    def post(self, server, path, body):
        conn = HTTPConnection("127.0.0.1", server.server_port)
        conn.request(
            "POST", path, json.dumps(body).encode(), {"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        answer = json.loads(response.read())
        conn.close()
        return response.status, answer

    def test_stalled_stack_times_out_as_503_and_resets(self, server):
        source = (EXAMPLES / "list.sq").read_text()
        faults.arm("stack.stall")
        status, body = self.post(server, "/check", {"program": source, "timeout_ms": 150})
        assert status == 503
        assert body["timeout"] is True and body["limit"] == "wall_clock"
        assert body["stats"]["worker"]["timeout_resets"] == 1
        # the replacement stack answers the same query normally
        status, body = self.post(server, "/check", {"program": SIMPLE_SQ})
        assert status == 200
        assert body["result"]["failures"] == 0

    def test_oversized_synth_request_times_out_with_partial_results(self, server):
        source = (EXAMPLES / "list.sq").read_text()
        status, body = self.post(
            server,
            "/synth",
            {"program": source, "depth": 8, "max_matches": 2, "timeout_ms": 300},
        )
        assert status == 503
        assert body["timeout"] is True
        items = body["result"]["items"]
        assert any(item.get("timeout") for item in items)


class TestCliTimeout:
    def test_synth_budget_exhaustion_exits_2_within_twice_the_deadline(self):
        """Acceptance: ``synth --timeout-ms 500`` on an oversized goal →
        exit code 2 with a structured timeout report, in < 2x the
        deadline."""
        out = io.StringIO()
        started = time.monotonic()
        code = cli_main(
            [
                "synth",
                str(EXAMPLES / "list.sq"),
                "--timeout-ms",
                "500",
                "--depth",
                "8",
                "--max-conditionals",
                "3",
                "--max-matches",
                "2",
            ],
            out=out,
        )
        elapsed_ms = (time.monotonic() - started) * 1000
        assert code == 2
        assert elapsed_ms < 1000
        text = out.getvalue()
        assert "timeout: wall_clock budget exhausted at depth" in text
        assert "budget exhausted" in text

    def test_check_timeout_reports_unknown_not_rejected(self, tmp_path):
        out = io.StringIO()
        code = cli_main(
            ["check", str(EXAMPLES / "list.sq"), "--timeout-ms", "1"], out=out
        )
        assert code == 2
        text = out.getvalue()
        assert "UNKNOWN" in text
        assert "REJECTED" not in text
