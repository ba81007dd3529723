"""The query layer shared by the CLI, the HTTP server, and batch mode.

``check`` and ``synth`` are computed here as plain JSON-able *payloads*:
ordered per-item results carrying everything any surface renders (status
lines, pretty-printed programs, enumeration statistics, inferred Horn
valuations).  The CLI prints a payload, the server returns it as JSON,
and the batch pipeline aggregates it — and because the cache stores the
payload itself, a cached query renders byte-for-byte identically to a
fresh one.  That is the whole differential guarantee: the cache can only
change *when* a payload was computed, never what it contains.

Payload shapes::

    check: {"items": [{"name", "status": "ok"|"rejected"|"goal"|"unknown",
                       "message"?, "valuations"?, "limit"?, "progress"?},
                      ...],
            "failures": int, "unknowns"?: int, "timeout"?: true,
            "note": "no-definitions"?}
    synth: {"items": [{"name", "goal", "solved", "program", "verified",
                       "statistics", "reason", "timeout"?, "limit"?}, ...],
            "failures": int, "timeout"?: true, "note": "no-goals"?}

Both verbs accept ``timeout_ms``: a wall-clock budget installed around
the whole query (see :mod:`repro.limits`).  Exhaustion degrades, it does
not fail: the item the budget tripped in reports ``unknown`` (check) or
``timeout`` (synth) with the limit that fired and the progress counters
at that point, remaining items trip instantly at their first checkpoint,
and the payload carries a top-level ``timeout`` flag.  Timeout payloads
are **never cached** — they record how far *this* machine got under
*this* load, not an answer — so the cache continues to hold only
complete results and the digest is independent of the budget.

Every computation builds its own solvers: each definition's or goal's
:class:`~repro.typecheck.session.TypecheckSession` owns one incremental
backend, shared by all of that item's checks and freed with it.  The
CLI, the server and the batch sweep therefore compute an answer exactly
alike, and no answer depends on what was asked before it.

Caching is content-addressed (:func:`repro.service.cache.query_digest`);
pass ``cache=None`` (the ``--no-cache`` path) to always compute.  A
stateless caller calls ``compute_*`` directly: no digest is computed and
:mod:`repro.service.cache` is not even loaded.  ``recheck=True``
re-verifies a cached synth program through a fresh checker before
serving it — the paranoid mode for caches on shared disks — falling back
to recomputation if the stored program no longer checks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from .. import limits
from ..horn.solver import SolveOptions
from ..syntax.parser import ParseError, Program, parse_term
from ..syntax.types import generalize
from ..synth.synthesizer import SynthesisGoal, Synthesizer, describe_goal
from ..typecheck.environment import EMPTY
from ..typecheck.errors import TypecheckError
from ..typecheck.session import TypecheckSession

if TYPE_CHECKING:
    from .cache import ResultCache


class UnknownGoal(Exception):
    """``only=`` names a goal with no signature in the program."""


def _component_environment(program: Program, upto: str):
    """A fresh session and environment for checking the item named
    ``upto``: constructors plus every signature declared *before* it in
    the file (so later components cannot be assumed — recursion goes
    through ``fix`` and its termination metric instead)."""
    session = TypecheckSession(
        datatypes=program.datatypes.values(),
        measure_defs=program.measures.values(),
    )
    env = session.bind_constructors(EMPTY)
    for name, rtype in program.signatures.items():
        if name == upto:
            break
        env = env.bind(name, generalize(rtype))
    return session, env


# -- check -------------------------------------------------------------------


def compute_check(
    program: Program,
    workers: int = 1,
    timeout_ms: Optional[float] = None,
) -> dict:
    """Type-check every definition; the payload the ``check`` verb renders.

    With a ``timeout_ms`` budget (or inside an enclosing budget scope —
    the server installs one per request), exhaustion turns the current
    and all remaining definitions into structured ``unknown`` items
    instead of aborting the query: each records which limit tripped and
    the progress counters at that point.  Unknowns are counted apart
    from ``failures`` — an unanswered query is not a refuted one.
    """
    options = SolveOptions(max_workers=workers)
    budget = limits.Budget.from_timeout_ms(timeout_ms) if timeout_ms else None
    items = []
    failures = 0
    unknowns = 0
    with limits.budget_scope(budget):
        for name, term in program.definitions.items():
            try:
                session, env = _component_environment(program, name)
                goal = program.signatures[name]
                session.check_program(term, goal, env, where=name)
                outcome = session.solve(options)
            except TypecheckError as error:
                items.append({"name": name, "status": "rejected", "message": str(error)})
                failures += 1
                continue
            except limits.BudgetExhausted as exhausted:
                # Degrade, don't die: this item (and, since the scope
                # stays exhausted, each later one at its first
                # checkpoint) reports a structured unknown.
                items.append(_unknown_item(name, exhausted))
                unknowns += 1
                continue
            if outcome.solved:
                item = {"name": name, "status": "ok"}
                valuations = {
                    unknown: [repr(q) for q in quals]
                    for unknown, quals in sorted(outcome.assignment.items())
                    if quals
                }
                if valuations:
                    item["valuations"] = valuations
                items.append(item)
            else:
                items.append(
                    {"name": name, "status": "rejected", "message": outcome.error_message}
                )
                failures += 1
    for name in program.goals:
        items.append({"name": name, "status": "goal"})
    payload = {"items": items, "failures": failures}
    if unknowns:
        payload["unknowns"] = unknowns
        payload["timeout"] = True
    if not program.definitions:
        payload["note"] = "no-definitions"
    return payload


def _unknown_item(name: str, exhausted: limits.BudgetExhausted) -> dict:
    return {
        "name": name,
        "status": "unknown",
        "message": str(exhausted),
        "limit": exhausted.limit,
        "progress": dict(exhausted.progress),
    }


def check_query(
    program: Program,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    timeout_ms: Optional[float] = None,
) -> Tuple[dict, bool, str]:
    """``check`` through the cache: ``(payload, was_cached, digest)``.

    The digest does not include ``timeout_ms`` — a cached (complete)
    answer is valid for any budget — and a payload flagged ``timeout``
    is never stored: partial progress is machine- and load-dependent.
    """
    from .cache import query_digest

    digest = query_digest("check", program, {"workers": workers})
    if cache is not None:
        payload = cache.get(digest)
        if payload is not None:
            return payload, True, digest
    payload = compute_check(program, workers, timeout_ms)
    if cache is not None and not payload.get("timeout"):
        cache.put(digest, payload)
    return payload, False, digest


# -- synth -------------------------------------------------------------------


def compute_synth(
    program: Program,
    only: Optional[str] = None,
    depth: int = 4,
    max_conditionals: int = 2,
    max_matches: int = 1,
    workers: int = 1,
    timeout_ms: Optional[float] = None,
) -> dict:
    """Synthesize every goal (or just ``only``); the ``synth`` payload.

    Under a ``timeout_ms`` budget each goal that runs out reports a
    ``timeout`` item: unsolved, with the tripped limit and the partial
    statistics (including ``depth_reached``) the synthesizer gathered
    before the budget fired.  Raises :class:`UnknownGoal` when ``only``
    names no signature.
    """
    goals = list(program.goals)
    if only is not None:
        if only not in program.signatures:
            raise UnknownGoal(only)
        goals = [only]
    if not goals:
        return {"items": [], "failures": 1, "note": "no-goals"}
    budget = limits.Budget.from_timeout_ms(timeout_ms) if timeout_ms else None
    items = []
    failures = 0
    timed_out = False
    with limits.budget_scope(budget):
        for name in goals:
            try:
                goal = SynthesisGoal.from_program(program, name)
                synthesizer = Synthesizer(
                    goal,
                    max_depth=depth,
                    max_conditionals=max_conditionals,
                    max_matches=max_matches,
                    workers=workers,
                )
                result = synthesizer.synthesize()
            except limits.BudgetExhausted as exhausted:
                # Exhaustion outside the synthesizer's own loop (goal
                # setup, or a later goal after the budget tripped).
                items.append(
                    {
                        "name": name,
                        "goal": name,
                        "solved": False,
                        "program": None,
                        "verified": False,
                        "statistics": {},
                        "reason": str(exhausted),
                        "timeout": True,
                        "limit": exhausted.limit,
                    }
                )
                failures += 1
                timed_out = True
                continue
            item = {
                "name": name,
                "goal": describe_goal(goal),
                "solved": result.solved,
                "program": result.pretty() if result.solved else None,
                "verified": result.verified,
                "statistics": result.statistics.as_dict(),
                "reason": result.reason,
            }
            if result.timeout:
                item["timeout"] = True
                item["limit"] = result.limit
                timed_out = True
            items.append(item)
            if not result.solved or not result.verified:
                failures += 1
    payload = {"items": items, "failures": failures}
    if timed_out:
        payload["timeout"] = True
    return payload


def synth_query(
    program: Program,
    only: Optional[str] = None,
    depth: int = 4,
    max_conditionals: int = 2,
    max_matches: int = 1,
    cache: Optional[ResultCache] = None,
    recheck: bool = False,
    workers: int = 1,
    timeout_ms: Optional[float] = None,
) -> Tuple[dict, bool, str]:
    """``synth`` through the cache: ``(payload, was_cached, digest)``.

    As with :func:`check_query`, ``timeout_ms`` is not part of the
    digest and timed-out payloads are never persisted.
    """
    from .cache import query_digest

    options: Dict[str, object] = {
        "only": only,
        "depth": depth,
        "max_conditionals": max_conditionals,
        "max_matches": max_matches,
        "workers": workers,
    }
    digest = query_digest("synth", program, options)
    if cache is not None:
        payload = cache.get(digest)
        if payload is not None:
            if not recheck or recheck_synth_payload(program, payload):
                return payload, True, digest
    payload = compute_synth(
        program, only, depth, max_conditionals, max_matches, workers, timeout_ms
    )
    if cache is not None and not payload.get("timeout"):
        cache.put(digest, payload)
    return payload, False, digest


def recheck_synth_payload(program: Program, payload: dict) -> bool:
    """Does every solved program in a cached payload still check?

    The cache-aware re-check: each stored ``name = term`` line is parsed
    back and run through a fresh session of the ordinary checker against
    its signature, exactly like the synthesizer's own verification pass.
    Any failure rejects the whole payload (the caller recomputes).
    """
    for item in payload.get("items", ()):
        if not item.get("solved") or not item.get("program"):
            continue
        _, _, body = item["program"].partition(" = ")
        goal = SynthesisGoal.from_program(program, item["name"])
        session, env = goal.session_environment()
        try:
            term = parse_term(body, measures=session.measures)
            session.check_program(term, goal.goal, env, where=item["name"])
        except (ParseError, TypecheckError):
            return False
        if not session.solve().solved:
            return False
    return True
