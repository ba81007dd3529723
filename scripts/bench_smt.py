#!/usr/bin/env python
"""Perf smoke benchmark: SAT-level stress cases for the CDCL core.

Exercises the solver layers the other suites only touch incidentally::

    PYTHONPATH=src python scripts/bench_smt.py --output BENCH_smt.json

* ``smt.pigeonhole-6`` — PHP(7,6), an unsatisfiable instance whose
  resolution proofs are exponential: it forces real conflict analysis,
  non-chronological backjumping, Luby restarts, and (with a tightened
  ``max_learnts``) learned-clause garbage collection.
* ``smt.horn-chain`` — a 12-unknown chained-implication Horn system where
  every fixpoint round re-asserts the previous round's valuations; the
  persistent incremental backend must serve every probe from the same
  SAT core without re-encoding.
* ``smt.assumption-churn`` — hundreds of push/assert_/check/pop cycles
  over a fixed formula pool: after the first pass every assertion must be
  answered from the selector table (``reused_assertions``), with zero
  re-encoding.
* ``smt.lia-chain`` — an arithmetic chain ``v0+1 <= v1 <= ... <= v9``
  probed by hundreds of push/pop-bracketed endpoint-bound assertions that
  alternate between feasible and infeasible windows: the incremental
  simplex must retract the bounds on pop and resume each check from its
  previous feasible basis (``tableau_pivots`` stays far below what
  from-scratch tableaus would cost).
* ``smt.stutter-deep`` — the paper's ``stutter`` synthesis goal at an
  enumeration depth one above the regular suite, the end-to-end pressure
  test for persistent incrementality across trial scopes.

The report records the CDCL counters (conflicts, propagations, learned
and GC'd clauses, restarts) next to the wall-clock numbers so regressions
reproduce deterministically; CI gates the timings against the committed
``BENCH_smt.json`` via ``scripts/check_bench_regression.py``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchlib  # noqa: E402

from repro.horn import HornSolver, build_space, constraint  # noqa: E402
from repro.logic import ops  # noqa: E402
from repro.logic.formulas import IntLit, Unknown, value_var  # noqa: E402
from repro.logic.qualifiers import default_qualifiers  # noqa: E402
from repro.logic.sorts import INT  # noqa: E402
from repro.smt import IncrementalSolver  # noqa: E402
from repro.smt.sat import SatSolver  # noqa: E402
from repro.syntax import parse_program  # noqa: E402
from repro.synth import SynthesisGoal, Synthesizer  # noqa: E402

x = ops.var("x", INT)
nu = value_var(INT)


def pigeonhole_clauses(holes: int):
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1  # noqa: E731
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


def run_pigeonhole(holes: int = 6):
    solver = SatSolver(max_learnts=400)  # tight bound: exercise clause GC
    solver.add_clauses(pigeonhole_clauses(holes))
    start = time.perf_counter()
    result = solver.solve()
    elapsed = time.perf_counter() - start
    assert not result.satisfiable, "pigeonhole must be UNSAT"
    stats = solver.statistics
    assert stats.conflicts > 0 and stats.learned_clauses > 0
    return elapsed, {
        "decisions": stats.decisions,
        "propagations": stats.propagations,
        "conflicts": stats.conflicts,
        "restarts": stats.restarts,
        "learned_clauses": stats.learned_clauses,
        "gced_clauses": stats.gced_clauses,
    }


def run_horn_chain(length: int = 12):
    spaces = [
        build_space(f"P{i}", default_qualifiers(), [x, IntLit(0)], value_sort=INT)
        for i in range(length)
    ]
    constraints = [constraint([ops.ge(x, IntLit(0))], Unknown("P0", (("_v", x),)), "source")]
    for i in range(1, length):
        constraints.append(
            constraint([Unknown(f"P{i - 1}")], Unknown(f"P{i}", (("_v", nu),)), f"link{i}")
        )
    constraints.append(constraint([Unknown(f"P{length - 1}")], ops.ge(nu, IntLit(0)), "sink"))
    solver = HornSolver()
    start = time.perf_counter()
    solution = solver.solve(constraints, spaces)
    elapsed = time.perf_counter() - start
    assert solution.solved, "chain system must be solvable"
    backend = solver.backend.statistics
    return elapsed, {
        "validity_checks": solver.statistics.validity_checks,
        "model_pruned_qualifiers": solver.statistics.model_pruned_qualifiers,
        "sat_queries": backend.sat_queries,
        "theory_checks": backend.theory_checks,
        "shrink_theory_checks": backend.shrink_theory_checks,
        "propagations": backend.propagations,
        "theory_propagations": backend.theory_propagations,
        "conflicts": backend.conflicts,
    }


def run_assumption_churn(cycles: int = 200, pool: int = 40):
    variables = [ops.var(f"v{i}", INT) for i in range(8)]
    formulas = [
        ops.le(variables[i % 8], ops.plus(variables[(i * 3 + 1) % 8], IntLit(i % 5)))
        for i in range(pool)
    ]
    solver = IncrementalSolver()
    start = time.perf_counter()
    for cycle in range(cycles):
        solver.push()
        solver.assert_(formulas[cycle % pool])
        solver.assert_(formulas[(cycle * 7 + 3) % pool])
        solver.check()
        solver.pop()
    elapsed = time.perf_counter() - start
    stats = solver.statistics
    assert stats.encoded_assertions <= pool, "re-assertion must not re-encode"
    assert stats.reused_assertions >= 2 * cycles - pool
    return elapsed, {
        "sat_queries": stats.sat_queries,
        "encoded_assertions": stats.encoded_assertions,
        "reused_assertions": stats.reused_assertions,
        "theory_checks": stats.theory_checks,
        "learned_clauses": stats.learned_clauses,
        "propagations": stats.propagations,
    }


def run_lia_chain(cycles: int = 150, length: int = 10):
    variables = [ops.var(f"c{i}", INT) for i in range(length)]
    solver = IncrementalSolver()
    for below, above in zip(variables, variables[1:]):
        solver.assert_(ops.le(ops.plus(below, IntLit(1)), above))
    start = time.perf_counter()
    for cycle in range(cycles):
        low = cycle % 7
        solver.push()
        solver.assert_(ops.ge(variables[0], IntLit(low)))
        # A disjunction whose first disjunct contradicts the asserted lower
        # bound on the same variable: theory propagation must refute it from
        # the bound (one reason literal) instead of branching on it.
        solver.assert_(
            ops.or_(
                ops.le(variables[0], IntLit(low - 1)),
                ops.ge(variables[-1], IntLit(low)),
            )
        )
        if cycle % 3 == 0:
            # The chain forces v9 >= v0 + 9; a window of 8 is infeasible.
            solver.assert_(ops.le(variables[-1], IntLit(low + length - 2)))
            expected = False
        else:
            solver.assert_(ops.le(variables[-1], IntLit(low + length)))
            expected = True
        assert solver.check() == expected, "lia-chain verdict changed"
        solver.pop()
    elapsed = time.perf_counter() - start
    stats = solver.statistics
    assert stats.tableau_pivots > 0, "chain repair must pivot"
    assert stats.theory_propagations > 0, "bound propagation must fire"
    return elapsed, {
        "sat_queries": stats.sat_queries,
        "theory_checks": stats.theory_checks,
        "theory_propagations": stats.theory_propagations,
        "tableau_pivots": stats.tableau_pivots,
        "conflicts": stats.conflicts,
        "minimized_literals": stats.minimized_literals,
        "reused_assertions": stats.reused_assertions,
    }


def run_stutter_deep(depth: int = 5):
    source = (ROOT / "examples" / "stutter.sq").read_text()
    start = time.perf_counter()
    program = parse_program(source)
    synthesizer = Synthesizer(SynthesisGoal.from_program(program, "stutter"), max_depth=depth)
    result = synthesizer.synthesize()
    elapsed = time.perf_counter() - start
    assert result.solved and result.verified, "stutter-deep changed verdict"
    backend = synthesizer.session.backend.statistics
    counters = result.statistics.as_dict()
    counters.update(
        sat_queries=backend.sat_queries,
        theory_checks=backend.theory_checks,
        shrink_theory_checks=backend.shrink_theory_checks,
        conflicts=backend.conflicts,
        learned_clauses=backend.learned_clauses,
        theory_propagations=backend.theory_propagations,
        tableau_pivots=backend.tableau_pivots,
        minimized_literals=backend.minimized_literals,
    )
    return elapsed, counters


BENCHMARKS = {
    "smt.pigeonhole-6": run_pigeonhole,
    "smt.horn-chain": run_horn_chain,
    "smt.assumption-churn": run_assumption_churn,
    "smt.lia-chain": run_lia_chain,
    "smt.stutter-deep": run_stutter_deep,
}


def main() -> int:
    return benchlib.run_suite("smt-perf-smoke", BENCHMARKS, "BENCH_smt.json", 3, __doc__)


if __name__ == "__main__":
    raise SystemExit(main())
