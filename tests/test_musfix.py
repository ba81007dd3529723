"""Tests for the MARCO-style MUS enumerator (Sec. 5 of the paper).

A MUS of (constraint, qualifier pool) is a minimal subset of the pool
whose conjunction is inconsistent with the constraint's concrete premises
— a guard fragment that can never be established where the constraint
applies.  The tests pin the three MARCO invariants (every enumerated MUS
is refuting, every enumerated MUS is minimal, map seeds never repeat),
check enumeration completeness against brute force on small pools, and
exercise pruning, budgets and vacuity.
"""

from itertools import combinations

from repro.horn import HornConstraint, constraint
from repro.horn.musfix import MusFixSolver
from repro.logic import ops
from repro.logic.formulas import IntLit, Unknown
from repro.logic.sorts import INT
from repro.smt.solver import IncrementalSolver

x = ops.var("x", INT)
ZERO = IntLit(0)
ONE = IntLit(1)
NEG_ONE = IntLit(-1)

#: Pool with three minimal inconsistent pairs and no inconsistent singleton.
POOL = (ops.ge(x, ZERO), ops.ge(x, ONE), ops.le(x, ZERO), ops.le(x, NEG_ONE))


def guard_constraint(*hard):
    """A definite constraint guarded by the abducible ``C`` with the given
    concrete premises."""
    return constraint([Unknown("C"), *hard], ops.neq(x, ZERO), "demo")


def consistent(subset, hard=()):
    backend = IncrementalSolver()
    with backend.scoped():
        for premise in hard:
            backend.assert_(premise)
        return backend.check_assuming(subset)


def brute_force_muses(pool, hard=()):
    """All minimal subsets of ``pool`` inconsistent with ``hard``,
    smallest-first so the superset filter leaves exactly the minimal ones."""
    muses = []
    for size in range(1, len(pool) + 1):
        for subset in combinations(pool, size):
            if any(set(mus) <= set(subset) for mus in muses):
                continue
            if not consistent(subset, hard):
                muses.append(subset)
    return {frozenset(mus) for mus in muses}


class TestMarcoInvariants:
    def test_every_mus_is_refuting_and_minimal(self):
        constr = guard_constraint()
        solver = MusFixSolver({})
        muses = solver.enumerate_muses(constr, POOL)
        assert muses, "the demo pool has inconsistent pairs"
        for mus in muses:
            assert not consistent(mus), f"MUS {mus} is not refuting"
            for dropped in mus:
                rest = [q for q in mus if q is not dropped]
                assert consistent(rest), f"MUS {mus} is not minimal (drop {dropped})"

    def test_seeds_never_repeat(self):
        constr = guard_constraint()
        solver = MusFixSolver({})
        solver.enumerate_muses(constr, POOL)
        seeds = solver.seeds_for(constr, POOL)
        assert len(seeds) > 1
        assert len(seeds) == len(set(seeds)), "blocking clauses must prevent repeats"

    def test_enumeration_is_complete_on_small_pools(self):
        constr = guard_constraint()
        solver = MusFixSolver({})
        found = {frozenset(mus) for mus in solver.enumerate_muses(constr, POOL)}
        assert found == brute_force_muses(POOL)
        # the known answer, spelled out: the three contradictory pairs
        assert found == {
            frozenset({ops.ge(x, ZERO), ops.le(x, NEG_ONE)}),
            frozenset({ops.ge(x, ONE), ops.le(x, ZERO)}),
            frozenset({ops.ge(x, ONE), ops.le(x, NEG_ONE)}),
        }

    def test_hard_premises_shift_the_muses(self):
        # Against the hard fact x >= 5 the lower bounds are fine and each
        # upper bound is inconsistent alone.
        hard = ops.ge(x, IntLit(5))
        constr = guard_constraint(hard)
        solver = MusFixSolver({})
        found = {frozenset(mus) for mus in solver.enumerate_muses(constr, POOL)}
        assert found == brute_force_muses(POOL, (hard,))
        assert found == {
            frozenset({ops.le(x, ZERO)}),
            frozenset({ops.le(x, NEG_ONE)}),
        }

    def test_contradictory_hard_premises_yield_no_muses(self):
        # The constraint is vacuous for *every* valuation: that is no
        # valuation's fault, so nothing may be pruned.
        constr = guard_constraint(ops.lt(x, ZERO), ops.gt(x, ZERO))
        solver = MusFixSolver({})
        assert solver.enumerate_muses(constr, POOL) == []

    def test_fully_consistent_pool_yields_no_muses(self):
        pool = (ops.ge(x, ZERO), ops.ge(x, ONE))
        constr = guard_constraint()
        solver = MusFixSolver({})
        assert solver.enumerate_muses(constr, pool) == []


class TestPruneCandidates:
    def test_candidates_containing_a_mus_are_dropped(self):
        constr = guard_constraint()
        solver = MusFixSolver({})
        solver.enumerate_muses(constr, POOL)
        doomed = {"C": (ops.ge(x, ONE), ops.le(x, ZERO))}
        superset_doomed = {"C": (ops.ge(x, ZERO), ops.ge(x, ONE), ops.le(x, ZERO))}
        viable = {"C": (ops.le(x, NEG_ONE),)}
        empty = {"C": ()}
        survivors = solver.prune_everywhere(
            [doomed, superset_doomed, viable, empty], {"C": [constr]}
        )
        assert survivors == [viable, empty]
        assert solver.statistics.candidates_pruned == 2

    def test_muses_only_apply_to_the_constraints_unknowns(self):
        constr = guard_constraint()
        solver = MusFixSolver({})
        solver.enumerate_muses(constr, POOL)
        # the same qualifiers under an unknown the constraint never
        # mentions are untouched
        other = {"D": (ops.ge(x, ONE), ops.le(x, ZERO))}
        assert solver.prune_everywhere([other], {"C": [constr]}) == [other]


class TestBudgetAndResume:
    def test_budget_caps_theory_checks(self):
        constr = guard_constraint()
        solver = MusFixSolver({}, budget=3)
        solver.enumerate_muses(constr, POOL)
        assert solver.statistics.theory_checks <= 3

    def test_exhausted_budget_never_reports_a_non_minimal_core(self):
        constr = guard_constraint()
        for budget in range(1, 8):
            solver = MusFixSolver({}, budget=budget)
            for mus in solver.enumerate_muses(constr, POOL):
                assert not consistent(mus)
                for dropped in mus:
                    assert consistent([q for q in mus if q is not dropped])

    def test_enumeration_is_resumable(self):
        constr = guard_constraint()
        solver = MusFixSolver({}, budget=10_000)
        first = solver.enumerate_muses(constr, POOL)
        checks_after_first = solver.statistics.theory_checks
        again = solver.enumerate_muses(constr, POOL)
        # the lattice was exhausted: resuming proposes no new seeds and
        # spends no further theory checks
        assert {frozenset(m) for m in again} == {frozenset(m) for m in first}
        assert solver.statistics.theory_checks == checks_after_first


class TestVacuity:
    def test_is_vacuous_learns_a_mus_from_the_witness(self):
        hard = ops.ge(x, IntLit(5))
        constr = guard_constraint(hard)
        solver = MusFixSolver({})
        assert solver.is_vacuous(constr, (ops.ge(x, ZERO), ops.le(x, ZERO)))
        assert not solver.is_vacuous(constr, (ops.ge(x, ZERO),))
        # the discovery was shrunk and recorded: it now prunes candidates
        doomed = {"C": (ops.ge(x, ZERO), ops.le(x, ZERO))}
        assert solver.prune_everywhere([doomed], {"C": [constr]}) == []


class TestInterfaceShape:
    """The interface the stub fixed is the interface that shipped."""

    def test_fixed_signatures(self):
        import inspect

        enumerate_parameters = list(
            inspect.signature(MusFixSolver.enumerate_muses).parameters
        )
        assert enumerate_parameters == ["self", "constraint", "valuation"]

    def test_methods_no_longer_raise_not_implemented(self):
        constr = HornConstraint((Unknown("C"),), ops.ge(x, ZERO))
        solver = MusFixSolver({})
        assert solver.enumerate_muses(constr, [ops.bool_lit(True)]) == []
