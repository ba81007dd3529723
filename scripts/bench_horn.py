#!/usr/bin/env python
"""Perf smoke benchmark: time HornSolver on the paper's max/abs systems.

Runs each system several times on a fresh solver (so no memoized state
leaks between repetitions), records wall-clock and solver counters, and
writes a JSON report for the CI artifact trail::

    PYTHONPATH=src python scripts/bench_horn.py --output BENCH_horn.json

The report intentionally records *counters* (validity checks, SAT queries,
fixpoint rounds) next to the timings: counter regressions reproduce
deterministically on any machine, so they are the first thing to inspect
when the timing trend moves.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchlib  # noqa: E402

from repro.horn import HornSolver, QualifierSpace, build_space, constraint  # noqa: E402
from repro.logic import ops  # noqa: E402
from repro.logic.formulas import IntLit, Unknown, value_var  # noqa: E402
from repro.logic.qualifiers import default_qualifiers  # noqa: E402
from repro.logic.sorts import INT  # noqa: E402
from repro.syntax import app, arrow, if_, int_type, lam, lit, parse_type, v  # noqa: E402
from repro.syntax.types import INT_BASE  # noqa: E402
from repro.typecheck import EMPTY, TypecheckSession  # noqa: E402

x = ops.var("x", INT)
y = ops.var("y", INT)
nu = value_var(INT)


def max_horn_system():
    space = build_space("P", default_qualifiers(), [x, y], value_sort=INT)
    constraints = [
        constraint([ops.ge(x, y)], Unknown("P", (("_v", x),)), "then"),
        constraint([ops.not_(ops.ge(x, y))], Unknown("P", (("_v", y),)), "else"),
        constraint([Unknown("P")], ops.and_(ops.ge(nu, x), ops.ge(nu, y)), "spec"),
    ]
    return constraints, [space]


def abs_horn_system():
    space = build_space("P", default_qualifiers(), [x, IntLit(0)], value_sort=INT)
    constraints = [
        constraint([ops.ge(x, IntLit(0))], Unknown("P", (("_v", x),)), "then"),
        constraint([ops.lt(x, IntLit(0))], Unknown("P", (("_v", ops.neg(x)),)), "else"),
        constraint([Unknown("P")], ops.ge(nu, IntLit(0)), "spec"),
    ]
    return constraints, [space]


def disjunctive_horn_system():
    """A guard whose weakest consistent strengthening is disjunctive over
    the pool: single-candidate (greedy) search dead-ends on it, so solving
    exercises the candidate-set search (see test_horn.py).  The search
    explores the root and the four single-qualifier guards and stops at
    that level; no guard it tries contradicts a premise, so the vacuity
    probes record no MUS and prune nothing here (``synth.sign`` in
    bench_synth.py is the case that records MUSes)."""
    zero, one, neg_one = IntLit(0), IntLit(1), IntLit(-1)
    guard_pool = (ops.ge(x, zero), ops.ge(x, one), ops.le(x, zero), ops.le(x, neg_one))
    spaces = {
        "C": QualifierSpace("C", guard_pool, abducible=True),
        "P": QualifierSpace("P", (ops.le(nu, zero), ops.ge(nu, zero))),
    }
    constraints = [
        constraint([Unknown("C")], ops.neq(x, zero), "nonzero"),
        constraint([Unknown("C")], ops.le(x, zero), "nonpositive"),
        constraint([Unknown("C"), ops.eq(nu, x)], Unknown("P"), "flow"),
        constraint([Unknown("P")], ops.le(nu, zero), "use"),
    ]
    return constraints, spaces


def run_horn(system_builder):
    constraints, spaces = system_builder()
    solver = HornSolver()
    start = time.perf_counter()
    solution = solver.solve(constraints, spaces, minimize=True)
    elapsed = time.perf_counter() - start
    assert solution.solved, "benchmark system must be solvable"
    return elapsed, {
        "validity_checks": solver.statistics.validity_checks,
        "fixpoint_rounds": solver.statistics.fixpoint_rounds,
        "pruned_qualifiers": solver.statistics.pruned_qualifiers,
        "sat_queries": solver.backend.statistics.sat_queries,
    }


def run_candidate_search():
    constraints, spaces = disjunctive_horn_system()
    solver = HornSolver()
    start = time.perf_counter()
    solution = solver.solve(constraints, spaces)
    elapsed = time.perf_counter() - start
    assert solution.solved, "disjunctive benchmark system must be solvable"
    return elapsed, {
        "candidates_explored": solver.statistics.candidates_explored,
        "candidates_pruned": solver.statistics.candidates_pruned,
        "muses_enumerated": solver.statistics.muses_enumerated,
        "survivors": len(solution.candidates),
    }


def run_typecheck_max():
    geq = parse_type("a:Int -> b:Int -> {Bool | nu <==> a >= b}")
    env = EMPTY.bind("geq", geq)
    term = lam("x", "y", body=if_(app(v("geq"), v("x"), v("y")), v("x"), v("y")))
    start = time.perf_counter()
    session = TypecheckSession()
    inner = env.bind("x", int_type()).bind("y", int_type())
    result = session.fresh_scalar(inner, INT_BASE)
    sig = arrow("x", int_type(), arrow("y", int_type(), result))
    session.check(env, term, sig, where="max")
    spec = parse_type("x:Int -> y:Int -> {Int | nu >= x && nu >= y}")
    session.subtype(env, sig, spec, where="max-spec")
    outcome = session.solve(minimize=True)
    elapsed = time.perf_counter() - start
    assert outcome.solved
    return elapsed, {
        "constraints": len(session.constraints),
        "validity_checks": session.last_solver.statistics.validity_checks,
        "sat_queries": session.backend.statistics.sat_queries,
    }


def run_typecheck_abs():
    geq = parse_type("a:Int -> b:Int -> {Bool | nu <==> a >= b}")
    neg = parse_type("a:Int -> {Int | nu == 0 - a}")
    env = EMPTY.bind("geq", geq).bind("neg", neg)
    term = lam("x", body=if_(app(v("geq"), v("x"), lit(0)), v("x"), app(v("neg"), v("x"))))
    start = time.perf_counter()
    session = TypecheckSession(literals=[ops.int_lit(0)])
    inner = env.bind("x", int_type())
    result = session.fresh_scalar(inner, INT_BASE)
    sig = arrow("x", int_type(), result)
    session.check(env, term, sig, where="abs")
    session.subtype(env, sig, parse_type("x:Int -> {Int | nu >= 0}"), "abs-spec")
    outcome = session.solve(minimize=True)
    elapsed = time.perf_counter() - start
    assert outcome.solved
    return elapsed, {
        "constraints": len(session.constraints),
        "validity_checks": session.last_solver.statistics.validity_checks,
        "sat_queries": session.backend.statistics.sat_queries,
    }


BENCHMARKS = {
    "horn.max": lambda: run_horn(max_horn_system),
    "horn.abs": lambda: run_horn(abs_horn_system),
    "horn.disjunctive": run_candidate_search,
    "typecheck.max": run_typecheck_max,
    "typecheck.abs": run_typecheck_abs,
}


def main() -> int:
    return benchlib.run_suite("horn-perf-smoke", BENCHMARKS, "BENCH_horn.json", 5, __doc__)


if __name__ == "__main__":
    raise SystemExit(main())
