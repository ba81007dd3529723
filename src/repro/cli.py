"""The command-line driver: ``python -m repro {check,synth,batch,serve}``.

A ``.sq`` file interleaves ``data`` / ``measure`` declarations, component
signatures ``name :: type``, checked definitions ``name = term``, and
synthesis goals ``name = ??`` (see :func:`repro.syntax.parser.
parse_program` for the exact layout rules).  ``check`` runs every
definition through the refinement type checker against its signature;
``synth`` runs the round-trip synthesizer on every goal, prints the
programs it finds together with enumeration statistics, and re-checks
each one through the ordinary checker before reporting success.
``batch`` sweeps a directory of ``.sq`` files through a worker pool, and
``serve`` boots the long-running HTTP service — both reuse the
persistent result cache (:mod:`repro.service.cache`).

A run loads only the code it runs: ``serve`` and ``batch`` import their
fronts, ``--version`` the version, and a stateless ``check``/``synth``
(neither ``--cache-dir`` nor ``REPRO_CACHE_DIR``) opens no cache and
computes no digest.

All verbs render from the payload structures of
:mod:`repro.service.api`, so output is byte-identical whether an answer
was computed fresh or served from the cache.  Exit codes follow the
contract documented in ``docs/cli.md``: ``0`` success, ``1`` refuted /
unsynthesized / failing files, ``2`` usage, unreadable-file, or parse
errors — and budget exhaustion (``--timeout-ms``), which is "no answer",
not "answer: no".
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import List, Optional, TextIO

from .service import api, default_cache_dir
from .syntax.parser import ParseError, Program, parse_program

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
#: Budget exhaustion shares the usage code: like a bad invocation it
#: means the question was not answered, unlike 1 (which means "no").
EXIT_TIMEOUT = 2


class _CliError(Exception):
    """A user-facing failure with an exit code."""

    def __init__(self, message: str, code: int = EXIT_USAGE) -> None:
        super().__init__(message)
        self.code = code


def _load_program(path: str) -> Program:
    try:
        with open(path, "r") as handle:
            source = handle.read()
    except OSError as error:
        raise _CliError(f"cannot read {path}: {error.strerror or error}") from error
    try:
        return parse_program(source)
    except ParseError as error:
        raise _CliError(f"{path}: parse error: {error}") from error


def _answer(args, compute, query, program: Program, **options) -> dict:
    """A ``check``/``synth`` payload, with both verbs' ``--workers`` and
    ``--timeout-ms`` added to ``options``.

    One-shot verbs only persist results when pointed at a cache —
    ``--cache-dir`` on the command line or ``REPRO_CACHE_DIR`` in the
    environment.  A plain invocation is stateless: it calls ``compute``
    without loading the cache.  Otherwise ``query`` answers through the
    cache, which computes the same way on a miss.  (``batch`` and
    ``serve`` cache by default.)
    """
    options.update(workers=args.workers, timeout_ms=args.timeout_ms)
    if args.no_cache or (args.cache_dir is None and "REPRO_CACHE_DIR" not in os.environ):
        return compute(program, **options)
    from .service.cache import open_cache

    return query(program, cache=open_cache(args.cache_dir), **options)[0]


# -- check -------------------------------------------------------------------


def _render_check(payload: dict, path: str, out: TextIO) -> int:
    for item in payload["items"]:
        if item["status"] == "ok":
            print(f"{item['name']}: OK", file=out)
        elif item["status"] == "rejected":
            print(f"{item['name']}: REJECTED — {item['message']}", file=out)
        elif item["status"] == "unknown":
            print(f"{item['name']}: UNKNOWN — {item['message']}", file=out)
        else:
            print(f"{item['name']}: skipped (synthesis goal; run `synth`)", file=out)
    if payload.get("note") == "no-definitions":
        # A file of signatures and goals is valid input with nothing to do —
        # not an error (the exit-code contract reserves 1 for refutations).
        print(f"{path}: no definitions to check (only signatures or goals)", file=out)
    if payload.get("timeout"):
        print(
            f"{path}: budget exhausted — {payload.get('unknowns', 0)} "
            "definition(s) unknown",
            file=out,
        )
        return EXIT_TIMEOUT
    return EXIT_FAILURE if payload["failures"] else EXIT_OK


def _run_check(program: Program, path: str, args, out: TextIO) -> int:
    payload = _answer(args, api.compute_check, api.check_query, program)
    return _render_check(payload, path, out)


# -- synth -------------------------------------------------------------------


def _render_synth(payload: dict, path: str, quiet: bool, out: TextIO) -> int:
    if payload.get("note") == "no-goals":
        print(f"{path}: no synthesis goals (write `name = ??` after a signature)", file=out)
        return EXIT_FAILURE
    for item in payload["items"]:
        print(f"synthesizing {item['goal']}", file=out)
        if not item["solved"]:
            print(f"  {item['reason']}", file=out)
            continue
        print(item["program"], file=out)
        if not quiet:
            stats = item["statistics"]
            print(
                f"  candidates generated: {stats['generated']}, "
                f"pruned early: {stats['pruned_early']} "
                f"(+{stats['pruned_shape']} by shape), "
                f"local checks: {stats['checked']}, "
                f"goal checks: {stats['goal_checks']}, "
                f"abductions: {stats['abductions']}, "
                f"verified: {'yes' if item['verified'] else 'NO'}",
                file=out,
            )
        if not item["verified"]:
            print(f"  {item['name']}: synthesized program failed re-checking", file=out)
    if payload.get("timeout"):
        timeouts = sum(1 for item in payload["items"] if item.get("timeout"))
        print(f"{path}: budget exhausted — {timeouts} goal(s) timed out", file=out)
        return EXIT_TIMEOUT
    return EXIT_FAILURE if payload["failures"] else EXIT_OK


def _run_synth(program: Program, path: str, args, out: TextIO) -> int:
    try:
        payload = _answer(
            args,
            api.compute_synth,
            functools.partial(api.synth_query, recheck=args.recheck),
            program,
            only=args.only,
            depth=args.depth,
            max_conditionals=args.max_conditionals,
            max_matches=args.max_matches,
        )
    except api.UnknownGoal:
        raise _CliError(f"{path}: no signature for goal `{args.only}`") from None
    return _render_synth(payload, path, args.quiet, out)


# -- batch / serve -----------------------------------------------------------


def _run_batch(args, out: TextIO) -> int:
    from .service.batch import render_report, run_batch
    from .service.cache import open_cache

    report = run_batch(
        args.dir,
        jobs=args.jobs,
        cache=open_cache(args.cache_dir, enabled=not args.no_cache),
        depth=args.depth,
        max_conditionals=args.max_conditionals,
        max_matches=args.max_matches,
        file_timeout_ms=args.file_timeout_ms,
        retries=args.retries,
    )
    render_report(report, out)
    return EXIT_FAILURE if report["failures"] else EXIT_OK


def _add_cache_flags(command, default_dir: bool) -> None:
    command.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help=(
            "persistent result cache directory"
            + (
                f" (default: $REPRO_CACHE_DIR or {default_cache_dir()!r})"
                if default_dir
                else " (caching is off for this verb unless given)"
            )
        ),
    )
    command.add_argument(
        "--no-cache", action="store_true", help="never read or write the result cache"
    )


def _add_timeout_flag(command) -> None:
    command.add_argument(
        "--timeout-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "wall-clock budget for the whole query; on exhaustion a "
            "structured unknown/timeout report is printed and the exit "
            "code is 2 (no answer)"
        ),
    )


def _add_synth_limits(command) -> None:
    command.add_argument(
        "--depth", type=int, default=4, help="E-term enumeration depth bound (default 4)"
    )
    command.add_argument(
        "--max-conditionals",
        type=int,
        default=2,
        help="how many nested abduced conditionals to allow (default 2)",
    )
    command.add_argument(
        "--max-matches",
        type=int,
        default=1,
        help="how many nested matches to allow (default 1)",
    )


class _PrintVersion(argparse.Action):
    """``--version``: like argparse's, but resolves the version only when given."""

    def __call__(self, parser, namespace, values, option_string=None):
        from .version import package_version

        print(f"{parser.prog} {package_version()}")
        parser.exit()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Refinement-type checking and round-trip program synthesis.",
    )
    parser.add_argument(
        "--version", action=_PrintVersion, nargs=0, help="show program's version number and exit"
    )
    commands = parser.add_subparsers(dest="command", metavar="{check,synth,batch,serve}")
    check = commands.add_parser(
        "check", help="type-check every definition in a .sq file against its signature"
    )
    check.add_argument("file", help="the .sq source file")
    check.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the candidate-set Horn portfolio (default 1 = serial)",
    )
    _add_timeout_flag(check)
    _add_cache_flags(check, default_dir=False)
    synth = commands.add_parser("synth", help="synthesize every `name = ??` goal in a .sq file")
    synth.add_argument("file", help="the .sq source file")
    _add_synth_limits(synth)
    synth.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for each condition abduction's candidate-set "
            "portfolio (default 1 = serial; results are identical either way)"
        ),
    )
    synth.add_argument("--only", metavar="NAME", help="synthesize just this goal")
    synth.add_argument(
        "--quiet", action="store_true", help="suppress the enumeration statistics line"
    )
    synth.add_argument(
        "--recheck",
        action="store_true",
        help="re-verify cached programs through a fresh checker before trusting them",
    )
    _add_timeout_flag(synth)
    _add_cache_flags(synth, default_dir=False)
    batch = commands.add_parser(
        "batch", help="screen every .sq file under a directory through the result cache"
    )
    batch.add_argument("dir", help="directory to sweep (recursively) for .sq files")
    batch.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker threads; every query builds its own solvers (default 1)",
    )
    _add_synth_limits(batch)
    batch.add_argument(
        "--file-timeout-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "wall-clock budget per file; a file that exhausts it is "
            "recorded as a timeout and the sweep continues"
        ),
    )
    batch.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help=(
            "how many times to retry a file whose worker died a "
            "transient death (default 1; backoff doubles per retry)"
        ),
    )
    _add_cache_flags(batch, default_dir=True)
    serve_cmd = commands.add_parser(
        "serve", help="run the long-running HTTP/JSON synthesis service"
    )
    serve_cmd.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve_cmd.add_argument(
        "--port", type=int, default=8729, help="TCP port (default 8729; 0 picks a free port)"
    )
    serve_cmd.add_argument(
        "--verbose", action="store_true", help="log one line per request to stderr"
    )
    serve_cmd.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "wall-clock budget per POST request in milliseconds; an "
            "exhausted request is answered 503 with partial results "
            "(a body `timeout_ms` can only tighten it)"
        ),
    )
    _add_cache_flags(serve_cmd, default_dir=True)
    return parser


def main(argv: Optional[List[str]] = None, out: TextIO = sys.stdout) -> int:
    """Entry point; returns the process exit code (see ``docs/cli.md``)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        # argparse already printed a usage, --version, or "invalid choice"
        # message.
        code = exit_.code
        return EXIT_OK if code in (0, None) else EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("error: expected a subcommand: check, synth, batch, or serve", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "batch":
            return _run_batch(args, out)
        if args.command == "serve":
            from .service.server import serve

            return serve(
                host=args.host,
                port=args.port,
                cache_dir=args.cache_dir,
                no_cache=args.no_cache,
                verbose=args.verbose,
                out=out,
                request_timeout_ms=args.request_timeout,
            )
        program = _load_program(args.file)
        if args.command == "check":
            return _run_check(program, args.file, args, out)
        return _run_synth(program, args.file, args, out)
    except _CliError as error:
        print(f"error: {error}", file=sys.stderr)
        return error.code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
