"""Tests for the MUS cores that prune the guard search (Sec. 5 of the paper).

A MUS of (constraint, qualifier pool) is a minimal subset of the pool
whose conjunction is inconsistent with the constraint's concrete premises
— a guard fragment that can never be established where the constraint
applies.  The cores come from the vacuity probes: ``prefill_vacuity``
records the inconsistent singletons and ``is_vacuous`` shrinks each
inconsistent valuation it is asked about.  The tests check every recorded
core against a brute-force MUS enumeration (it must refute, be minimal and
be one of the true MUSes) and exercise pruning and vacuity, also over
premises and qualifiers that mention sets.
"""

from itertools import combinations

from repro.horn import HornConstraint, HornSolver, QualifierSpace, constraint
from repro.horn.musfix import MusFixSolver
from repro.horn.solver import HORN_COUNTERS, screen_singletons
from repro.logic import ops
from repro.logic.formulas import IntLit, Unknown
from repro.logic.sorts import INT, set_of
from repro.metrics import Counters
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


def subsets_smallest_first(pool):
    for size in range(1, len(pool) + 1):
        yield from combinations(pool, size)


def brute_force_muses(pool, hard=()):
    """All minimal subsets of ``pool`` inconsistent with ``hard``,
    smallest-first so the superset filter leaves exactly the minimal ones."""
    muses = []
    for subset in subsets_smallest_first(pool):
        if any(set(mus) <= set(subset) for mus in muses):
            continue
        if not consistent(subset, hard):
            muses.append(subset)
    return {frozenset(mus) for mus in muses}


def musfix(backend=None):
    """A MUS solver charging a fresh set of Horn solver counters."""
    return MusFixSolver(Counters(*HORN_COUNTERS), backend)


def recorded(solver, constr):
    """The cores the solver has recorded for ``constr``."""
    return set(solver._mus_sets.get(constr, []))


class TestVacuityCores:
    def test_every_recorded_core_is_a_refuting_minimal_mus(self):
        constr = guard_constraint()
        solver = musfix()
        for subset in subsets_smallest_first(POOL):
            assert solver.is_vacuous(constr, subset) is not consistent(subset)
        cores = recorded(solver, constr)
        assert cores, "the demo pool has inconsistent pairs"
        truth = brute_force_muses(POOL)
        for core in cores:
            assert not consistent(core), f"core {set(core)} is not refuting"
            for dropped in core:
                rest = [q for q in core if q is not dropped]
                assert consistent(rest), f"core {set(core)} is not minimal (drop {dropped})"
            assert core in truth

    def test_probing_every_subset_finds_every_mus(self):
        constr = guard_constraint()
        solver = musfix()
        for subset in subsets_smallest_first(POOL):
            solver.is_vacuous(constr, subset)
        assert recorded(solver, constr) == brute_force_muses(POOL)
        # the known answer, spelled out: the three contradictory pairs
        assert recorded(solver, constr) == {
            frozenset({ops.ge(x, ZERO), ops.le(x, NEG_ONE)}),
            frozenset({ops.ge(x, ONE), ops.le(x, ZERO)}),
            frozenset({ops.ge(x, ONE), ops.le(x, NEG_ONE)}),
        }

    def test_hard_premises_shift_the_cores(self):
        # Against the hard fact x >= 5 the lower bounds are fine and each
        # upper bound is inconsistent alone: the prefill records both
        # singletons, and shrinking the whole pool finds nothing new.
        hard = ops.ge(x, IntLit(5))
        constr = guard_constraint(hard)
        solver = musfix()
        solver.prefill_vacuity(constr, POOL)
        assert solver.is_vacuous(constr, POOL)
        assert recorded(solver, constr) == brute_force_muses(POOL, (hard,))
        assert recorded(solver, constr) == {
            frozenset({ops.le(x, ZERO)}),
            frozenset({ops.le(x, NEG_ONE)}),
        }

    def test_contradictory_hard_premises_record_no_cores(self):
        # The constraint is vacuous for *every* valuation: that is no
        # valuation's fault, so nothing may be pruned.
        constr = guard_constraint(ops.lt(x, ZERO), ops.gt(x, ZERO))
        solver = musfix()
        solver.prefill_vacuity(constr, POOL)
        for subset in subsets_smallest_first(POOL):
            assert not solver.is_vacuous(constr, subset)
        assert recorded(solver, constr) == set()

    def test_fully_consistent_pool_records_no_cores(self):
        pool = (ops.ge(x, ZERO), ops.ge(x, ONE))
        constr = guard_constraint()
        solver = musfix()
        solver.prefill_vacuity(constr, pool)
        for subset in subsets_smallest_first(pool):
            assert not solver.is_vacuous(constr, subset)
        assert recorded(solver, constr) == set()


class TestPruneCandidates:
    def test_candidates_containing_a_mus_are_dropped(self):
        constr = guard_constraint()
        solver = musfix()
        assert solver.is_vacuous(constr, (ops.ge(x, ONE), ops.le(x, ZERO)))
        doomed = {"C": (ops.ge(x, ONE), ops.le(x, ZERO))}
        superset_doomed = {"C": (ops.ge(x, ZERO), ops.ge(x, ONE), ops.le(x, ZERO))}
        viable = {"C": (ops.le(x, NEG_ONE),)}
        empty = {"C": ()}
        mentioning = {"C": [constr]}
        assert solver.dooms_everywhere(doomed, mentioning)
        assert solver.dooms_everywhere(superset_doomed, mentioning)
        assert not solver.dooms_everywhere(viable, mentioning)
        assert not solver.dooms_everywhere(empty, mentioning)

    def test_muses_only_apply_to_the_constraints_unknowns(self):
        constr = guard_constraint()
        solver = musfix()
        assert solver.is_vacuous(constr, (ops.ge(x, ONE), ops.le(x, ZERO)))
        # the same qualifiers under an unknown the constraint never
        # mentions are untouched
        other = {"D": (ops.ge(x, ONE), ops.le(x, ZERO))}
        assert not solver.dooms_everywhere(other, {"C": [constr]})


class TestVacuity:
    def test_is_vacuous_learns_a_mus_from_the_witness(self):
        hard = ops.ge(x, IntLit(5))
        constr = guard_constraint(hard)
        solver = musfix()
        assert solver.is_vacuous(constr, (ops.ge(x, ZERO), ops.le(x, ZERO)))
        assert not solver.is_vacuous(constr, (ops.ge(x, ZERO),))
        # the discovery was shrunk and recorded: it now prunes candidates
        doomed = {"C": (ops.ge(x, ZERO), ops.le(x, ZERO))}
        assert solver.dooms_everywhere(doomed, {"C": [constr]})

    def test_repeated_probes_spend_no_theory_check(self):
        constr = guard_constraint()
        backend = IncrementalSolver()
        solver = musfix(backend)
        live, dead = (ops.ge(x, ONE),), (ops.ge(x, ONE), ops.le(x, ZERO))
        assert not solver.is_vacuous(constr, live)
        assert solver.is_vacuous(constr, dead)
        spent = backend.statistics.sat_queries
        assert not solver.is_vacuous(constr, live)
        assert solver.is_vacuous(constr, dead)
        assert backend.statistics.sat_queries == spent
        assert solver.statistics.muses_enumerated == 1

    def test_contexts_sharing_premises_share_one_probe(self):
        # Two constraints at one program point (same concrete premises,
        # different conclusions): the second asks the memo, not the
        # theory, and still gets the core recorded as its own.
        first = guard_constraint()
        second = constraint([Unknown("C")], ops.gt(x, IntLit(7)), "other")
        backend = IncrementalSolver()
        solver = musfix(backend)
        dead = (ops.ge(x, ZERO), ops.ge(x, ONE), ops.le(x, NEG_ONE))
        assert solver.is_vacuous(first, dead)
        spent = backend.statistics.sat_queries
        assert solver.is_vacuous(second, dead)
        assert backend.statistics.sat_queries == spent
        assert recorded(solver, second) == recorded(solver, first)
        assert len(recorded(solver, first)) == 1
        assert next(iter(recorded(solver, first))) < frozenset(dead)

    def test_note_live_answers_without_a_theory_check(self):
        constr = guard_constraint(ops.ge(x, IntLit(5)))
        backend = IncrementalSolver()
        solver = musfix(backend)
        solver.note_live(constr, ops.ge(x, ONE))
        assert not solver.is_vacuous(constr, (ops.ge(x, ONE),))
        assert backend.statistics.sat_queries == 0
        # the prefill skips the noted qualifier and probes only the rest
        solver.prefill_vacuity(constr, POOL)
        assert recorded(solver, constr) == {
            frozenset({ops.le(x, ZERO)}),
            frozenset({ops.le(x, NEG_ONE)}),
        }

    def test_a_core_in_one_context_only_does_not_doom_the_guard(self):
        # Under x >= 5 the guard x <= 0 kills its branch, which is what a
        # branch condition may do; only once it is refuted in every
        # context demanding C is the candidate dropped.
        guarded = guard_constraint(ops.ge(x, IntLit(5)))
        declared = guard_constraint()
        guard = {"C": (ops.le(x, ZERO),)}
        solver = musfix()
        assert solver.is_vacuous(guarded, guard["C"])
        mentioning = {"C": [guarded, declared]}
        assert not solver.dooms_everywhere(guard, mentioning)
        assert solver.dooms_everywhere(guard, {"C": [guarded]})


s = ops.var("s", set_of(INT))
t = ops.var("t", set_of(INT))
X_IN_S, X_IN_T = ops.member(x, s), ops.member(x, t)


class TestSetContexts:
    """Set premises and qualifiers take the batched probes too: the
    backend eliminates every live set formula of a check together, so a
    premise asserted apart still shares the qualifier's universe."""

    def test_is_vacuous_sees_set_premises_asserted_apart(self):
        constr = HornConstraint((ops.eq(s, t), X_IN_S), ops.bool_lit(True))
        assert musfix().is_vacuous(constr, (ops.not_(X_IN_T),)) is True

    def test_weakening_keeps_what_set_premises_entail(self):
        space = QualifierSpace("P", (X_IN_S, X_IN_T, ops.not_(X_IN_T)))
        solution = HornSolver().solve([constraint([ops.eq(s, t), X_IN_S], Unknown("P"))], [space])
        assert solution.solved
        assert solution.assignment["P"] == (X_IN_S, X_IN_T)

    @staticmethod
    def guard_system():
        """``C`` must make ``x in t`` follow from ``s == t``; a second
        context, which also knows ``x in s``, refutes the guard
        ``!(x in t)`` on its own (a singleton MUS there only)."""
        pool = (X_IN_T, X_IN_S, ops.not_(X_IN_T))
        declared = constraint([Unknown("C"), ops.eq(s, t)], X_IN_T, "declared")
        guarded = constraint([Unknown("C"), ops.eq(s, t), X_IN_S], X_IN_T, "guarded")
        return [declared, guarded], QualifierSpace("C", pool, abducible=True)

    def test_singleton_screen_classifies_set_guards(self):
        constraints, space = self.guard_system()
        verdicts = screen_singletons(
            IncrementalSolver(), Counters(*HORN_COUNTERS), constraints, "C", space.qualifiers
        )
        assert verdicts == {X_IN_T: None, X_IN_S: None, ops.not_(X_IN_T): constraints[0]}

    def test_abduction_finds_both_guards_and_the_set_core(self):
        constraints, space = self.guard_system()
        solver = HornSolver()
        solution = solver.solve(constraints, [space])
        assert solution.solved
        assert [member["C"] for member in solution.candidates] == [(X_IN_T,), (X_IN_S,)]
        # The vacuity prefill of the second context records its one core.
        assert solver.statistics.muses_enumerated == 1
