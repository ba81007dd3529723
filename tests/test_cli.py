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
from repro.syntax.parser import _tokenize

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

    @pytest.mark.parametrize(
        "program",
        [
            "max :: Int ->",
            "f :: {Int | nu + True > 0}\n",
            "data L where\n    N :: L\n\nmeasure size :: L -> Int where\n    N -> 1 + True\n",
        ],
        ids=["truncated", "ill-sorted-refinement", "ill-sorted-measure-case"],
    )
    def test_unparsable_file_exits_nonzero(self, tmp_path, capsys, program):
        source = tmp_path / "broken.sq"
        source.write_text(program)
        code, _ = run(["check", str(source)])
        assert code == EXIT_USAGE
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", str(EXAMPLES / "max.sq"), "--workers", "2"],
            ["synth", str(EXAMPLES / "max.sq"), "--workers", "2"],
            ["batch", str(EXAMPLES), "--retries", "1"],
        ],
        ids=["check-workers", "synth-workers", "batch-retries"],
    )
    def test_unknown_option_exits_nonzero(self, argv, capsys):
        code, _ = run(argv)
        assert code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb,flag",
        [("check", "--workers"), ("synth", "--workers"), ("batch", "--retries")],
        ids=["check-workers", "synth-workers", "batch-retries"],
    )
    def test_help_lists_no_removed_flag(self, verb, flag, capsys):
        code, _ = run([verb, "--help"])
        assert code == EXIT_OK
        assert flag not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", str(EXAMPLES / "max.sq"), "--timeout-ms", "0"],
            ["synth", str(EXAMPLES / "max.sq"), "--timeout-ms", "-5"],
            ["synth", str(EXAMPLES / "max.sq"), "--timeout-ms", "nan"],
            ["check", str(EXAMPLES / "max.sq"), "--timeout-ms", "inf"],
            ["synth", str(EXAMPLES / "max.sq"), "--depth", "-1"],
            ["synth", str(EXAMPLES / "max.sq"), "--max-conditionals", "-1"],
            ["synth", str(EXAMPLES / "max.sq"), "--max-matches", "-1"],
            ["batch", str(EXAMPLES), "--depth", "-1"],
            ["batch", str(EXAMPLES), "--jobs", "0"],
            ["batch", str(EXAMPLES), "--file-timeout-ms", "0"],
            ["batch", str(EXAMPLES), "--file-timeout-ms", "nan"],
            ["serve", "--request-timeout", "0"],
            ["serve", "--request-timeout", "inf"],
        ],
        ids=[
            "synth-timeout-0",
            "synth-timeout-negative",
            "synth-timeout-nan",
            "check-timeout-inf",
            "synth-depth-negative",
            "synth-max-conditionals-negative",
            "synth-max-matches-negative",
            "batch-depth-negative",
            "batch-jobs-0",
            "batch-file-timeout-0",
            "batch-file-timeout-nan",
            "serve-request-timeout-0",
            "serve-request-timeout-inf",
        ],
    )
    def test_out_of_range_number_is_a_usage_error(self, argv, capsys):
        code, out = run(argv)
        assert (code, out) == (EXIT_USAGE, "")
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"argument {argv[-2]}: expected" in errors[0]

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


class TestParseErrors:
    """Each declaration parses from its slice of the program's one token
    list, yet reports positions in its own text, as when it was tokenized
    on its own."""

    def test_error_in_a_later_declaration_is_relative_to_it(self):
        source = (
            "inc :: a:Int -> {Int | nu == a + 1}\n"
            "-- a comment\n"
            "dec :: a:Int -> {Int | nu == a - 1}\n"
            "bad :: x:Int -> {Int | nu >= }\n"
        )
        with pytest.raises(ParseError) as caught:
            parse_program(source)
        assert str(caught.value) == (
            "expected a formula atom, found '}' at position 29 "
            "in 'bad :: x:Int -> {Int | nu >= }\\n'"
        )
        assert caught.value.position == 29

    @pytest.mark.parametrize(
        "source, message",
        [
            (
                "f :: Int -- a comment may hold anything: $ %\n  -> Int ~\n",
                "unexpected character '~' at position 54 in "
                "'f :: Int -- a comment may hold anything: $ %\\n  -> Int ~\\n'",
            ),
            (
                "f :: Int -> Int\n\ng :: Int -> {Int | nu ^ 1}\n",
                "unexpected character '^' at position 39 in "
                "'f :: Int -> Int\\n\\ng :: Int -> {Int | nu ^ 1}\\n'",
            ),
            (
                "f :: Int -> Int\n`",
                "unexpected character '`' at position 16 in 'f :: Int -> Int\\n`'",
            ),
        ],
        ids=["after-a-comment", "in-a-later-declaration", "at-end-of-input"],
    )
    def test_unexpected_character_is_placed_in_the_whole_program(self, source, message):
        with pytest.raises(ParseError) as caught:
            parse_program(source)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "source, message",
        [
            (
                "f :: Int -> Int\ng :: Int Int\n",
                "trailing input 'Int' at position 9 in 'g :: Int Int\\n'",
            ),
            (
                "f :: a:Int -> Int\nf = \\a . a a)\n",
                "trailing input ')' at position 12 in 'f = \\\\a . a a)\\n'",
            ),
        ],
        ids=["signature", "definition"],
    )
    def test_trailing_input(self, source, message):
        with pytest.raises(ParseError) as caught:
            parse_program(source)
        assert str(caught.value) == message

    @pytest.mark.parametrize("example", sorted(EXAMPLES.glob("*.sq")), ids=lambda p: p.name)
    def test_a_program_is_tokenized_once(self, example, monkeypatch):
        calls = []

        def counting(text):
            calls.append(text)
            return _tokenize(text)

        monkeypatch.setattr("repro.syntax.parser._tokenize", counting)
        source = example.read_text()
        parse_program(source)
        assert calls == [source]

    def test_nesting_too_deep_is_a_parse_error(self, deeply_nested):
        source, start = deeply_nested
        with pytest.raises(ParseError, match="^nesting too deep at position") as caught:
            parse_program(source)
        assert source[start + caught.value.position] == "("

    def test_nesting_too_deep_exits_2(self, deeply_nested, tmp_path, capsys):
        path = tmp_path / "deep.sq"
        path.write_text(deeply_nested[0])
        code, _ = run(["check", str(path)])
        assert code == EXIT_USAGE
        assert "parse error: nesting too deep" in capsys.readouterr().err

    def test_check_too_deep_for_the_stack_exits_2(self, curried_program, tmp_path, capsys):
        """Exit 1 means "refuted"; a check the stack cannot hold refutes
        nothing, so it is a usage error naming the definition."""
        path = tmp_path / "curried.sq"
        path.write_text(curried_program(600))
        code, out = run(["check", str(path)])
        assert (code, out) == (EXIT_USAGE, "")
        assert capsys.readouterr().err == f"error: {path}: `f` nests too deeply to check\n"

    def test_300_arguments_still_check(self, curried_program, tmp_path):
        path = tmp_path / "curried.sq"
        path.write_text(curried_program(300))
        assert run(["check", str(path)]) == (EXIT_OK, "f: OK\n")

    def test_synth_too_deep_for_the_stack_exits_2(self, tmp_path, capsys, monkeypatch):
        # A real 600-argument goal takes seconds to overflow; what is
        # pinned here is how an overflow is reported.
        def overflow(self):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("repro.service.api.Synthesizer.synthesize", overflow)
        path = tmp_path / "max.sq"
        path.write_text(MAX_SQ)
        code, _ = run(["synth", str(path)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {path}: `max` nests too deeply to synthesize\n"


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

    def test_an_empty_env_var_counts_as_unset(self, tmp_path, monkeypatch):
        """An empty REPRO_CACHE_DIR would name the working directory: a
        one-shot check stays stateless, and batch caches in the default
        directory, not in ``./objects``."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        sources = tmp_path / "sources"
        sources.mkdir()
        (sources / "ok.sq").write_text(CHECK_SQ)
        code, _ = run(["check", str(sources / "ok.sq")])
        assert code == EXIT_OK
        assert sorted(path.name for path in tmp_path.iterdir()) == ["sources"]
        code, _ = run(["batch", str(sources)])
        assert code == EXIT_OK
        assert sorted(path.name for path in tmp_path.iterdir()) == [".repro-cache", "sources"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", str(EXAMPLES / "max.sq")],
            ["synth", str(EXAMPLES / "max.sq")],
            ["batch", str(EXAMPLES)],
            ["serve"],
        ],
        ids=["check", "synth", "batch", "serve"],
    )
    def test_an_empty_cache_dir_is_a_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, out = run([*argv, "--cache-dir", ""])
        assert (code, out) == (EXIT_USAGE, "")
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "argument --cache-dir: expected" in errors[0]
        assert list(tmp_path.iterdir()) == []


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

    def test_import_builds_no_code(self):
        """Every class under ``src/`` is written out by hand, so importing
        the CLI loads neither ``dataclasses`` nor the ``inspect`` it pulls
        in (generating their methods was most of the import's time)."""
        env = dict(os.environ, PYTHONPATH=str(EXAMPLES.parent / "src"))
        probe = subprocess.run(
            [sys.executable, "-c", "import sys, repro.cli; print(' '.join(sys.modules))"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert probe.returncode == 0, probe.stderr
        loaded = set(probe.stdout.split())
        assert "repro.cli" in loaded
        generating = loaded & {"dataclasses", "inspect"}
        assert not generating, sorted(generating)

    def test_cached_run_loads_the_cache_only(self, tmp_path):
        loaded = self.loaded("--cache-dir", str(tmp_path / "cache"))
        assert "repro.service.cache" in loaded
        assert loaded.isdisjoint(
            {"repro.service.worker", "repro.service.server", "repro.service.batch", "http.server"}
        )
