"""Batch screening: determinism, cache reuse, and the CLI surface.

The load-bearing property is the cold/warm differential: a sweep served
entirely from the cache must produce exactly the payloads the cold sweep
computed — and a ``--no-cache`` CLI run must print byte-for-byte what a
cached run prints.
"""

import gc
import io
from pathlib import Path

import pytest

from repro.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
from repro.service import api
from repro.service.batch import discover_files, run_batch
from repro.service.cache import open_cache
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

BAD_CHECK_SQ = CHECK_SQ.replace("inc (inc a)", "inc a")


def corpus(tmp_path, bad=False):
    root = tmp_path / "corpus"
    (root / "sub").mkdir(parents=True)
    (root / "max.sq").write_text(MAX_SQ)
    (root / "sub" / "plus2.sq").write_text(BAD_CHECK_SQ if bad else CHECK_SQ)
    return root


def payloads(report):
    """The deterministic slice of a batch report (no timings, no
    cached/fresh markers)."""
    return [
        {key: record.get(key) for key in ("file", "failures", "check", "synth", "error")}
        for record in report["files"]
    ]


class TestRunBatch:
    def test_discovery_is_recursive_and_sorted(self, tmp_path):
        root = corpus(tmp_path)
        assert [p.name for p in discover_files(str(root))] == ["max.sq", "plus2.sq"]

    def test_cold_then_warm_is_deterministic(self, tmp_path):
        root = corpus(tmp_path)
        cold = run_batch(str(root), cache=open_cache(str(tmp_path / "cache")))
        assert cold["failures"] == 0
        assert cold["cached"] == 0 and cold["queries"] == 2
        warm = run_batch(str(root), jobs=2, cache=open_cache(str(tmp_path / "cache")))
        assert warm["cached"] == warm["queries"] == 2, "warm sweep must hit on every file"
        assert warm["cache"]["hits"] == 2
        assert payloads(warm) == payloads(cold)

    def test_parse_error_counts_but_does_not_abort(self, tmp_path):
        root = corpus(tmp_path)
        (root / "broken.sq").write_text("max :: Int ->")
        report = run_batch(str(root))
        assert report["failures"] == 1
        assert len(report["files"]) == 3
        broken = next(r for r in report["files"] if "broken" in r["file"])
        assert "error" in broken

    def test_rejected_definition_counts_as_failure(self, tmp_path):
        report = run_batch(str(corpus(tmp_path, bad=True)))
        assert report["failures"] == 1

    def test_without_cache_reports_disabled(self, tmp_path):
        report = run_batch(str(corpus(tmp_path)))
        assert report["cache"] is None
        assert report["cached"] == 0


class TestOneSolverPerQuery:
    """The sweep and the cached CLI compute the way a stateless run does."""

    def test_sweep_answers_like_stateless_runs_and_frees_every_solver(
        self, tmp_path, solvers_made
    ):
        report = run_batch(str(corpus(tmp_path)), jobs=2, cache=open_cache(str(tmp_path / "c")))
        assert report["failures"] == report["resets"] == 0
        gc.collect()
        assert solvers_made and not any(ref() for ref in solvers_made)
        assert not list((tmp_path / "c").rglob("*.pickle")), "no lemma pool is written"
        for record in report["files"]:
            program = parse_program(Path(record["file"]).read_text())
            if "check" in record:
                assert record["check"] == api.compute_check(program)
            if "synth" in record:
                assert record["synth"] == api.compute_synth(program)

    def test_cached_cli_hit_builds_no_solver(self, tmp_path, solvers_made):
        source = tmp_path / "max.sq"
        source.write_text(MAX_SQ)
        argv = ["synth", str(source), "--cache-dir", str(tmp_path / "cache")]
        assert main(argv, out=io.StringIO()) == EXIT_OK
        built = len(solvers_made)
        assert built > 0
        assert main(argv, out=io.StringIO()) == EXIT_OK
        assert len(solvers_made) == built


class TestBatchCli:
    def run(self, argv):
        out = io.StringIO()
        return main(argv, out=out), out.getvalue()

    def test_batch_summary_and_exit(self, tmp_path):
        root = corpus(tmp_path)
        code, output = self.run(
            ["batch", str(root), "--jobs", "2", "--cache-dir", str(tmp_path / "c")]
        )
        assert code == EXIT_OK
        assert "max.sq: synth ok [solver]" in output
        assert "plus2.sq: check ok [solver]" in output
        assert "batch: 2 files, 0 failures, cache: 0 hits / 2 misses" in output
        code, output = self.run(["batch", str(root), "--cache-dir", str(tmp_path / "c")])
        assert code == EXIT_OK
        assert "[cache]" in output
        assert "cache: 2 hits / 0 misses" in output

    def test_batch_failure_exits_nonzero(self, tmp_path):
        code, output = self.run(["batch", str(corpus(tmp_path, bad=True)), "--no-cache"])
        assert code == EXIT_FAILURE
        assert "check FAILED" in output
        assert "cache: disabled" in output


class TestNoCacheDifferential:
    def test_synth_output_is_byte_identical_with_and_without_cache(self, tmp_path):
        """The acceptance differential: a fresh run, a cache-writing run,
        a cache-hitting run, and a --no-cache run all print the same
        bytes."""
        source = tmp_path / "max.sq"
        source.write_text(MAX_SQ)
        cache_dir = str(tmp_path / "cache")
        runs = [
            ["synth", str(source), "--no-cache"],
            ["synth", str(source), "--cache-dir", cache_dir],  # cold: writes
            ["synth", str(source), "--cache-dir", cache_dir],  # warm: hits
            ["synth", str(source), "--no-cache"],
        ]
        outputs = []
        for argv in runs:
            out = io.StringIO()
            assert main(argv, out=out) == EXIT_OK
            outputs.append(out.getvalue())
        assert len(set(outputs)) == 1, "cache must never change what is printed"
        # The warm run really did hit: its cache directory has the entry.
        assert list(Path(cache_dir).glob("objects/*/*.json"))

    def test_check_output_is_byte_identical_with_and_without_cache(self, tmp_path):
        source = tmp_path / "plus2.sq"
        source.write_text(CHECK_SQ)
        cache_dir = str(tmp_path / "cache")
        outputs = []
        for argv in (
            ["check", str(source), "--no-cache"],
            ["check", str(source), "--cache-dir", cache_dir],
            ["check", str(source), "--cache-dir", cache_dir],
        ):
            out = io.StringIO()
            assert main(argv, out=out) == EXIT_OK
            outputs.append(out.getvalue())
        assert len(set(outputs)) == 1

    @pytest.mark.parametrize("verb", ["check", "synth"])
    @pytest.mark.parametrize(
        "name", sorted(path.name for path in EXAMPLES.glob("*.sq")) + ["rejected"]
    )
    def test_stateless_cold_and_warm_runs_agree(self, tmp_path, monkeypatch, verb, name):
        """A stateless run (no cache), a cold cached run and a cache hit
        print the same bytes, statistics included, and exit alike.
        ``rejected`` is ``list.sq`` with one ``Cons`` dropped from
        ``stutter``."""
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        source = EXAMPLES / name
        if name == "rejected":
            source = tmp_path / "rejected.sq"
            text = (EXAMPLES / "list.sq").read_text()
            source.write_text(text.replace("Cons y (Cons y (stutter ys))", "Cons y (stutter ys)"))
        cache_dir = str(tmp_path / "cache")
        results = []
        for extra in ([], ["--cache-dir", cache_dir], ["--cache-dir", cache_dir]):
            out = io.StringIO()
            results.append((main([verb, str(source), *extra], out=out), out.getvalue()))
        assert results[0] == results[1] == results[2]
        assert list(Path(cache_dir).glob("objects/*/*.json")), "the cold run stored its answer"
        if name == "rejected" and verb == "check":
            assert results[0][0] == EXIT_FAILURE

    def test_unknown_only_goal_is_a_usage_error_on_both_paths(self, tmp_path, capsys):
        source = EXAMPLES / "max.sq"
        for extra in ([], ["--cache-dir", str(tmp_path / "cache")]):
            code = main(["synth", str(source), "--only", "NOSUCH", *extra], out=io.StringIO())
            assert code == EXIT_USAGE
            assert "no signature for goal `NOSUCH`" in capsys.readouterr().err
        program = parse_program(source.read_text())
        with pytest.raises(api.UnknownGoal):
            api.compute_synth(program, only="NOSUCH")
        with pytest.raises(api.UnknownGoal):
            api.synth_query(program, only="NOSUCH")
