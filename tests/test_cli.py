"""The CLI driver and the ``.sq`` program format.

Negative paths matter as much as the happy ones here: an unknown
subcommand, an unreadable or unparsable file, and an unsynthesizable goal
must all exit non-zero with a message a user can act on.
"""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
from repro.syntax import ParseError, parse_program

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

BAD_CHECK_SQ = """\
inc :: a:Int -> {Int | nu == a + 1}

plus2 :: a:Int -> {Int | nu == a + 2}
plus2 = \\a . inc a
"""


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestUsageErrors:
    def test_unknown_subcommand_exits_nonzero(self, capsys):
        code, _ = run(["frobnicate", "x.sq"])
        assert code == EXIT_USAGE
        assert "invalid choice" in capsys.readouterr().err

    def test_no_subcommand_exits_nonzero(self, capsys):
        code, _ = run([])
        assert code == EXIT_USAGE
        assert "expected a subcommand" in capsys.readouterr().err

    def test_missing_file_exits_nonzero(self, capsys):
        code, _ = run(["check", "does-not-exist.sq"])
        assert code == EXIT_USAGE
        assert "cannot read" in capsys.readouterr().err

    def test_unparsable_file_exits_nonzero(self, tmp_path, capsys):
        source = tmp_path / "broken.sq"
        source.write_text("max :: Int ->")
        code, _ = run(["check", str(source)])
        assert code == EXIT_USAGE
        assert "parse error" in capsys.readouterr().err

    def test_help_exits_zero(self):
        code, _ = run(["--help"])
        assert code == EXIT_OK

    def test_version_exits_zero_and_reports_package_version(self, capsys):
        from repro.version import package_version

        code, _ = run(["--version"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == f"python -m repro {package_version()}\n"


class TestCheck:
    def test_accepted_definition(self, tmp_path):
        source = tmp_path / "ok.sq"
        source.write_text(CHECK_SQ)
        code, output = run(["check", str(source)])
        assert code == EXIT_OK
        assert "plus2: OK" in output

    def test_rejected_definition_exits_nonzero(self, tmp_path):
        source = tmp_path / "bad.sq"
        source.write_text(BAD_CHECK_SQ)
        code, output = run(["check", str(source)])
        assert code == EXIT_FAILURE
        assert "plus2: REJECTED" in output

    def test_goals_only_file_is_valid_input(self, tmp_path):
        """A file of signatures and goals has nothing to check, but it is
        not an error — exit 1 is reserved for refutations."""
        source = tmp_path / "goal.sq"
        source.write_text(MAX_SQ)
        code, output = run(["check", str(source)])
        assert code == EXIT_OK
        assert "skipped (synthesis goal" in output
        assert "no definitions to check" in output

    def test_example_file_checks(self):
        code, output = run(["check", str(EXAMPLES / "list.sq")])
        assert code == EXIT_OK
        assert "stutter: OK" in output


class TestSynth:
    def test_max_synthesizes_with_statistics(self, tmp_path):
        source = tmp_path / "max.sq"
        source.write_text(MAX_SQ)
        code, output = run(["synth", str(source)])
        assert code == EXIT_OK
        assert "max = \\x . \\y . if leq" in output
        assert "pruned early" in output
        assert "verified: yes" in output

    def test_quiet_suppresses_statistics(self, tmp_path):
        source = tmp_path / "max.sq"
        source.write_text(MAX_SQ)
        code, output = run(["synth", "--quiet", str(source)])
        assert code == EXIT_OK
        assert "pruned early" not in output

    def test_unsynthesizable_goal_exits_nonzero(self, tmp_path):
        source = tmp_path / "impossible.sq"
        source.write_text("impossible :: x:Int -> {Int | nu > x && nu < x}\nimpossible = ??\n")
        code, output = run(["synth", str(source)])
        assert code == EXIT_FAILURE
        assert "no program found within depth" in output

    def test_depth_bound_exhaustion_is_reported(self, tmp_path):
        """A too-small depth bound terminates with the exhaustion message
        (and a non-zero exit), rather than hanging or crashing."""
        source = tmp_path / "stutter.sq"
        source.write_text((EXAMPLES / "stutter.sq").read_text())
        code, output = run(["synth", "--depth", "2", str(source)])
        assert code == EXIT_FAILURE
        assert "no program found within depth 2" in output
        assert "candidates generated" in output

    def test_file_without_goals_exits_nonzero(self, tmp_path):
        source = tmp_path / "nogoals.sq"
        source.write_text(CHECK_SQ)
        code, output = run(["synth", str(source)])
        assert code == EXIT_FAILURE
        assert "no synthesis goals" in output

    def test_goal_may_precede_its_components(self, tmp_path):
        """The CLI uses the same component pool as the scriptable API:
        every *other* signature in the file, regardless of order."""
        source = tmp_path / "reordered.sq"
        source.write_text(
            "max :: x:Int -> y:Int -> {Int | nu >= x && nu >= y && (nu == x || nu == y)}\n"
            "max = ??\n\n"
            "leq :: a:Int -> b:Int -> {Bool | nu <==> a <= b}\n"
        )
        code, output = run(["synth", str(source)])
        assert code == EXIT_OK
        assert "verified: yes" in output

    def test_only_unknown_goal_is_a_usage_error(self, tmp_path, capsys):
        source = tmp_path / "max.sq"
        source.write_text(MAX_SQ)
        code, _ = run(["synth", "--only", "nonesuch", str(source)])
        assert code == EXIT_USAGE
        assert "no signature" in capsys.readouterr().err


class TestProgramFormat:
    def test_goals_definitions_and_comments(self):
        program = parse_program(MAX_SQ + "\n-- trailing comment\n")
        assert program.goals == ("max",)
        assert "leq" in program.signatures and "max" in program.signatures
        assert program.definitions == {}

    def test_definition_bodies_may_contain_let_and_ascriptions(self):
        """`=` in a let and `::` in an ascription must not start a new
        declaration chunk (declarations are anchored to column 0)."""
        source = "f :: a:Int -> Int\nf = \\a . let b = (0 :: {Int | nu == 0}) in a\n"
        program = parse_program(source)
        assert "f" in program.definitions

    def test_goal_without_signature_is_rejected(self):
        with pytest.raises(ParseError, match="no .* signature"):
            parse_program("mystery = ??\n")

    def test_definition_without_signature_is_rejected(self):
        with pytest.raises(ParseError, match="no .* signature"):
            parse_program("f = \\a . a\n")

    def test_duplicate_signature_is_rejected(self):
        with pytest.raises(ParseError, match="duplicate signature"):
            parse_program("f :: Int -> Int\nf :: Int -> Int\n")

    def test_duplicate_definition_is_rejected(self):
        with pytest.raises(ParseError, match="duplicate definition"):
            parse_program("f :: a:Int -> Int\nf = \\a . a\nf = ??\n")

    def test_empty_program_is_rejected(self):
        with pytest.raises(ParseError, match="empty program"):
            parse_program("  \n-- nothing here\n")

    def test_declarations_resolve_mutually(self):
        program = parse_program((EXAMPLES / "replicate.sq").read_text())
        assert set(program.datatypes) == {"List"}
        assert set(program.measures) == {"len"}
        assert program.goals == ("replicate",)


class TestWorkersFlag:
    def test_check_accepts_workers(self, tmp_path):
        source = tmp_path / "ok.sq"
        source.write_text(CHECK_SQ)
        code, output = run(["check", str(source), "--workers", "2"])
        assert code == EXIT_OK
        assert "plus2: OK" in output

    def test_workers_do_not_change_a_rejection(self, tmp_path):
        source = tmp_path / "bad.sq"
        source.write_text(BAD_CHECK_SQ)
        serial_code, serial_out = run(["check", str(source)])
        parallel_code, parallel_out = run(["check", str(source), "--workers", "2"])
        assert serial_code == parallel_code == EXIT_FAILURE
        assert serial_out == parallel_out

    def test_workers_listed_in_check_help(self, capsys):
        code, _ = run(["check", "--help"])
        assert code == EXIT_OK
        assert "--workers" in capsys.readouterr().out


class TestCacheFlags:
    def test_every_verb_takes_cache_flags(self, capsys):
        for verb in ("check", "synth", "batch", "serve"):
            code, _ = run([verb, "--help"])
            assert code == EXIT_OK
            text = capsys.readouterr().out
            assert "--cache-dir" in text and "--no-cache" in text

    def test_one_shot_verbs_stay_stateless_by_default(self, tmp_path, monkeypatch):
        """Without --cache-dir (or REPRO_CACHE_DIR) a plain check writes
        no cache directory anywhere."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        source = tmp_path / "ok.sq"
        source.write_text(CHECK_SQ)
        code, _ = run(["check", str(source)])
        assert code == EXIT_OK
        assert not (tmp_path / ".repro-cache").exists()

    def test_env_var_opts_one_shot_verbs_in(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        source = tmp_path / "ok.sq"
        source.write_text(CHECK_SQ)
        code, _ = run(["check", str(source)])
        assert code == EXIT_OK
        assert list((tmp_path / "envcache").glob("objects/*/*.json"))


#: Run in a fresh interpreter: ``check`` then ``synth`` on one file through
#: ``main``, then print every module the two runs loaded, except those
#: already present before ``import repro.cli`` (a site hook may load some).
IMPORT_PROBE = """\
import io
import sys

before = set(sys.modules)
from repro.cli import main

path, extra = sys.argv[1], sys.argv[2:]
codes = [main([verb, path, *extra], out=io.StringIO()) for verb in ("check", "synth")]
print(" ".join(sorted(set(sys.modules) - before)))
sys.exit(max(codes))
"""

#: Modules only ``serve``, ``batch``, a cache or ``--version`` need.
NOT_ONE_SHOT = (
    "repro.service.server",
    "repro.service.batch",
    "repro.service.cache",
    "repro.service.worker",
    "repro.version",
    "http.server",
    "concurrent.futures",
    "importlib.metadata",
)


class TestOneShotImports:
    """A stateless ``check``/``synth`` loads only the query path."""

    def loaded(self, *extra):
        env = {k: v for k, v in os.environ.items() if k not in ("REPRO_CACHE_DIR", "REPRO_FAULTS")}
        env["PYTHONPATH"] = str(EXAMPLES.parent / "src")
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(EXAMPLES / "list.sq"), *extra],
            capture_output=True,
            text=True,
            env=env,
        )
        assert probe.returncode == EXIT_OK, probe.stderr
        return set(probe.stdout.split())

    def test_stateless_run_loads_no_service_front_cache_or_metadata(self):
        loaded = self.loaded()
        assert "repro.service.api" in loaded
        assert loaded.isdisjoint(NOT_ONE_SHOT), sorted(loaded.intersection(NOT_ONE_SHOT))

    def test_cached_run_loads_the_cache_only(self, tmp_path):
        loaded = self.loaded("--cache-dir", str(tmp_path / "cache"))
        assert "repro.service.cache" in loaded
        assert loaded.isdisjoint(
            {"repro.service.worker", "repro.service.server", "repro.service.batch", "http.server"}
        )
