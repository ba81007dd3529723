"""Tests for the Horn-constraint fixpoint solver (Sec. 5 of the paper)."""

import pytest

from repro.horn import HornSolver, QualifierSpace, build_space, build_spaces, constraint
from repro.logic import ops
from repro.logic.formulas import IntLit, Unknown, value_var
from repro.logic.qualifiers import default_qualifiers
from repro.logic.sorts import INT

x = ops.var("x", INT)
y = ops.var("y", INT)
nu = value_var(INT)


def max_system():
    """The paper's running example: synthesize the postcondition of max.

    ``P`` is the unknown refinement of the result; the two branch
    constraints weaken it, and the spec constraint checks it entails
    ``nu >= x && nu >= y``.  Solving needs the *conjunction* of two
    qualifiers (``x <= nu && y <= nu``).
    """
    space = build_space("P", default_qualifiers(), [x, y], value_sort=INT)
    constraints = [
        constraint([ops.ge(x, y)], Unknown("P", (("_v", x),)), "then-branch"),
        constraint([ops.not_(ops.ge(x, y))], Unknown("P", (("_v", y),)), "else-branch"),
        constraint([Unknown("P")], ops.and_(ops.ge(nu, x), ops.ge(nu, y)), "spec"),
    ]
    return constraints, [space]


class TestConstraints:
    def test_classification(self):
        weakening = constraint([ops.le(x, y)], Unknown("P"))
        definite = constraint([Unknown("P")], ops.le(x, y))
        assert not weakening.is_definite()
        assert weakening.conclusion_unknown().name == "P"
        assert definite.is_definite()
        assert definite.conclusion_unknown() is None
        assert definite.premise_unknowns() == {"P"}
        assert weakening.unknowns() == definite.unknowns() == {"P"}

    def test_mixed_conclusion_rejected(self):
        with pytest.raises(ValueError):
            constraint([], ops.and_(Unknown("P"), ops.le(x, y)))


class TestMaxExample:
    def test_strongest_assignment(self):
        constraints, spaces = max_system()
        solver = HornSolver()
        solution = solver.solve(constraints, spaces)
        assert solution.solved
        valuation = set(solution.assignment["P"])
        # the conjunction of >= 2 qualifiers is required and found
        assert ops.le(x, nu) in valuation
        assert ops.le(y, nu) in valuation
        # nothing false under either branch survives
        assert ops.le(nu, x) not in valuation
        assert ops.eq(nu, x) not in valuation

    def test_validity_checks_go_through_incremental_backend(self):
        constraints, spaces = max_system()
        solver = HornSolver()
        solution = solver.solve(constraints, spaces)
        assert solution.solved
        stats = solver.backend.statistics
        assert stats.sat_queries == solver.statistics.validity_checks > 0
        # unchanged premises are re-asserted without re-encoding: every
        # per-qualifier probe reuses the constraint's premise selectors
        assert stats.reused_assertions > 0

    def test_counterexample_model_batches_qualifier_pruning(self):
        # When a constraint's full valuation fails, the counterexample
        # model prunes falsified qualifiers without per-qualifier queries;
        # the final assignment is unchanged.
        constraints, spaces = max_system()
        solver = HornSolver()
        solution = solver.solve(constraints, spaces)
        assert solution.solved
        assert solver.statistics.model_pruned_qualifiers > 0
        # Every model-pruned qualifier saved one validity query.
        assert solver.statistics.validity_checks < 37  # the pre-batching count
        valuation = set(solution.assignment["P"])
        assert ops.le(x, nu) in valuation and ops.le(y, nu) in valuation

    def test_weakest_assignment(self):
        constraints, spaces = max_system()
        solution = HornSolver().solve(constraints, spaces, minimize=True)
        assert solution.solved
        assert set(solution.weakest["P"]) == {ops.le(x, nu), ops.le(y, nu)}

    def test_solution_formula(self):
        constraints, spaces = max_system()
        solution = HornSolver().solve(constraints, spaces)
        strongest = solution.formula_for("P")
        # the strongest valuation entails the spec
        backend = HornSolver().backend
        assert backend.is_valid_implication([strongest], ops.and_(ops.ge(nu, x), ops.ge(nu, y)))


class TestAbsExample:
    def test_abs_postcondition(self):
        """abs-style system: P must capture nu >= 0 using a literal candidate."""
        space = build_space("P", default_qualifiers(), [x, IntLit(0)], value_sort=INT)
        constraints = [
            constraint([ops.ge(x, IntLit(0))], Unknown("P", (("_v", x),))),
            constraint([ops.lt(x, IntLit(0))], Unknown("P", (("_v", ops.neg(x)),))),
            constraint([Unknown("P")], ops.ge(nu, IntLit(0)), "spec"),
        ]
        solution = HornSolver().solve(constraints, [space])
        assert solution.solved
        assert ops.le(IntLit(0), nu) in solution.assignment["P"]


class TestUnsolvableSystem:
    def test_definite_constraint_fails(self):
        """No subset of the qualifier space makes P entail nu < 0."""
        space = build_space("P", default_qualifiers(), [x], value_sort=INT)
        spec = constraint([Unknown("P")], ops.lt(nu, IntLit(0)), "spec")
        constraints = [
            constraint([ops.ge(x, IntLit(0))], Unknown("P", (("_v", x),))),
            spec,
        ]
        solution = HornSolver().solve(constraints, [space])
        assert not solution.solved
        assert solution.failed is spec

    def test_error_message_names_the_refuted_obligation(self):
        space = build_space("P", default_qualifiers(), [x], value_sort=INT)
        spec = constraint([Unknown("P")], ops.lt(nu, IntLit(0)), "spec", provenance=("f",))
        constraints = [constraint([ops.ge(x, IntLit(0))], Unknown("P", (("_v", x),))), spec]
        solution = HornSolver().solve(constraints, [space])
        assert solution.error_message == (
            "subtyping obligation failed at f / spec: no refinement in the "
            f"qualifier space satisfies `{spec!r}`"
        )
        solved = HornSolver().solve(*max_system())
        assert solved.solved and solved.error_message is None

    def test_final_definite_check_goes_through_the_validity_memo(self):
        """The verdict that failed the run was memoized: asking about the
        same grounded constraint again spends no validity check."""
        space = build_space("P", default_qualifiers(), [x], value_sort=INT)
        spec = constraint([Unknown("P")], ops.lt(nu, IntLit(0)), "spec")
        constraints = [constraint([ops.ge(x, IntLit(0))], Unknown("P", (("_v", x),))), spec]
        solver = HornSolver()
        solution = solver.solve(constraints, [space])
        assert solution.failed is spec
        checks = solver.statistics.validity_checks
        assert solver._first_invalid_definite([spec], solution.assignment) is spec
        assert solver.statistics.validity_checks == checks

    @pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1)], ids=["below", "above"])
    def test_first_failure_in_order_is_reported(self, order):
        """Definite constraints over one premise tuple are checked in
        order: of the two that fail, the earlier one is reported."""
        space = build_space("P", default_qualifiers(), [x], value_sort=INT)
        definite = [
            constraint([Unknown("P")], ops.ge(nu, x), "holds"),
            constraint([Unknown("P")], ops.lt(nu, IntLit(0)), "below"),
            constraint([Unknown("P")], ops.gt(nu, ops.plus(x, IntLit(1))), "above"),
        ]
        constraints = [
            constraint([ops.ge(x, IntLit(0))], Unknown("P", (("_v", x),))),
            *(definite[index] for index in order),
        ]
        solution = HornSolver().solve(constraints, [space])
        assert not solution.solved
        assert solution.failed is definite[order[1]]

    def test_contradictory_premises_prove_anything(self):
        space = build_space("P", default_qualifiers(), [x, y], value_sort=INT)
        constraints = [
            constraint([ops.lt(x, y), ops.lt(y, x)], Unknown("P")),
        ]
        solution = HornSolver().solve(constraints, [space])
        assert solution.solved
        # nothing needs to be pruned under inconsistent premises
        assert set(solution.assignment["P"]) == set(space.qualifiers)


class TestChainedUnknowns:
    def test_weakening_propagates_through_premises(self):
        """P feeds Q: pruning P must re-trigger weakening of Q."""
        spaces = build_spaces({"P": [x], "Q": [x]}, default_qualifiers(), value_sort=INT)
        constraints = [
            # P can only keep qualifiers implied by x == nu
            constraint([ops.eq(x, nu)], Unknown("P")),
            # Q must follow from P alone
            constraint([Unknown("P")], Unknown("Q")),
        ]
        solution = HornSolver().solve(constraints, spaces)
        assert solution.solved
        # Q's valuation is a subset of what P can justify
        p_formula = ops.conj(solution.assignment["P"])
        backend = HornSolver().backend
        for q in solution.assignment["Q"]:
            assert backend.is_valid_implication([p_formula], q)

    def test_multiple_rounds_run(self):
        spaces = build_spaces({"P": [x], "Q": [x]}, default_qualifiers(), value_sort=INT)
        constraints = [
            constraint([ops.eq(x, nu)], Unknown("P")),
            constraint([Unknown("P")], Unknown("Q")),
        ]
        solver = HornSolver()
        solver.solve(constraints, spaces)
        assert solver.statistics.fixpoint_rounds >= 2


class TestSetConstraints:
    def test_set_qualifiers_survive_weakening(self):
        """Cross-premise set reasoning: member(x, s) and s <= t justify
        member(x, t) only if the solver sees one element universe."""
        from repro.logic.sorts import set_of

        s = ops.var("s", set_of(INT))
        t = ops.var("t", set_of(INT))
        space = QualifierSpace("P", (ops.member(x, t),))
        constraints = [
            constraint([ops.member(x, s), ops.subset(s, t)], Unknown("P")),
        ]
        solution = HornSolver().solve(constraints, [space])
        assert solution.solved
        assert solution.assignment["P"] == (ops.member(x, t),)

    def test_unjustified_set_qualifier_is_pruned(self):
        from repro.logic.sorts import set_of

        s = ops.var("s", set_of(INT))
        t = ops.var("t", set_of(INT))
        space = QualifierSpace("P", (ops.member(x, t),))
        constraints = [constraint([ops.member(x, s)], Unknown("P"))]
        solution = HornSolver().solve(constraints, [space])
        assert solution.assignment["P"] == ()


class TestSpaces:
    def test_missing_space_means_trivial_valuation(self):
        solution = HornSolver().solve([constraint([ops.le(x, y)], Unknown("P"))], [])
        assert solution.solved
        assert solution.assignment["P"] == ()
        assert solution.formula_for("P") == ops.bool_lit(True)

    def test_space_map_accepts_iterables_and_mappings(self):
        space = QualifierSpace("P", (ops.le(x, nu),))
        by_list = HornSolver().solve([constraint([ops.le(x, nu)], Unknown("P"))], [space])
        by_map = HornSolver().solve([constraint([ops.le(x, nu)], Unknown("P"))], {"P": space})
        assert by_list.assignment == by_map.assignment

    def test_build_space_sizes(self):
        space = build_space("P", default_qualifiers(), [x, y], value_sort=INT)
        # 4 qualifiers x 6 ordered distinct pairs of {x, y, nu}
        assert len(space) == 24


def disjunctive_system():
    """A goal only candidate-set search can solve (disjunctive inference).

    The abducible guard ``C`` ranges over the four bounds on ``x``; the two
    definite constraints force ``x != 0`` and ``x <= 0``, so the weakest
    realizable guard is ``x <= -1`` — but the greedy path commits to
    ``x >= 0`` first (space order) and dead-ends in a region every
    extension of which contains a MUS.  ``P`` keeps a classic
    greatest-fixpoint unknown in the same system.
    """
    zero, one, neg_one = IntLit(0), IntLit(1), IntLit(-1)
    guard_space = QualifierSpace(
        "C",
        (ops.ge(x, zero), ops.ge(x, one), ops.le(x, zero), ops.le(x, neg_one)),
        abducible=True,
    )
    flow_space = QualifierSpace("P", (ops.le(nu, zero), ops.ge(nu, zero)))
    constraints = [
        constraint([Unknown("C")], ops.neq(x, IntLit(0)), "nonzero"),
        constraint([Unknown("C")], ops.le(x, IntLit(0)), "nonpositive"),
        constraint([Unknown("C"), ops.eq(nu, x)], Unknown("P"), "flow"),
        constraint([Unknown("P")], ops.le(nu, IntLit(0)), "use"),
    ]
    return constraints, {"C": guard_space, "P": flow_space}


def two_guard_system():
    """Two abducible guards constrained jointly: the candidate walk
    branches over both spaces, and only ``x >= 1`` with ``y <= -1``
    meets every constraint."""
    zero, one = IntLit(0), IntLit(1)
    spaces = {
        "C": QualifierSpace(
            "C", (ops.ge(x, zero), ops.ge(x, one), ops.le(x, IntLit(-1))), abducible=True
        ),
        "D": QualifierSpace(
            "D", (ops.ge(y, zero), ops.le(y, zero), ops.le(y, IntLit(-1))), abducible=True
        ),
    }
    constraints = [
        constraint([Unknown("C")], ops.ge(x, one), "need-x-pos"),
        constraint([Unknown("D")], ops.le(y, IntLit(-1)), "need-y-neg"),
        constraint([Unknown("C"), Unknown("D")], ops.gt(x, y), "joint"),
    ]
    return constraints, spaces


class TestSolveOptions:
    def test_classic_path_exposes_its_single_candidate(self):
        constraints, spaces = max_system()
        solution = HornSolver().solve(constraints, spaces)
        assert solution.candidates == (solution.assignment,)

    def test_unsolved_classic_path_has_no_candidates(self):
        space = build_space("P", default_qualifiers(), [x], value_sort=INT)
        constraints = [
            constraint([ops.ge(x, IntLit(0))], Unknown("P", (("_v", x),))),
            constraint([Unknown("P")], ops.lt(nu, IntLit(0)), "spec"),
        ]
        solution = HornSolver().solve(constraints, [space])
        assert not solution.solved
        assert solution.candidates == ()


class TestDisjunctiveInference:
    def test_candidate_set_search_solves_it(self):
        constraints, spaces = disjunctive_system()
        solver = HornSolver()
        solution = solver.solve(constraints, spaces)
        assert solution.solved
        # the weakest realizable guard, not the greedy one
        assert solution.assignment["C"] == (ops.le(x, IntLit(-1)),)
        # the classic core still solved the positive unknown per candidate
        assert ops.le(nu, IntLit(0)) in solution.assignment["P"]
        # the root and the four single-qualifier guards; the level stop
        # ends the search before any pair is tried
        assert solver.statistics.candidates_explored == 5

    def test_surviving_candidates_form_a_weakest_antichain(self):
        constraints, spaces = disjunctive_system()
        solution = HornSolver().solve(constraints, spaces)
        guards = [frozenset(candidate["C"]) for candidate in solution.candidates]
        assert frozenset({ops.le(x, IntLit(-1))}) in guards
        for i, a in enumerate(guards):
            for j, b in enumerate(guards):
                assert i == j or not a < b, "a dominated candidate survived"

    def test_minimize_applies_to_the_chosen_candidate(self):
        constraints, spaces = disjunctive_system()
        solution = HornSolver().solve(constraints, spaces, minimize=True)
        assert solution.solved
        assert solution.weakest is not None
        assert solution.weakest["C"] == (ops.le(x, IntLit(-1)),)

    def test_unsolvable_system_stays_unsolvable(self):
        zero = IntLit(0)
        spaces = {"C": QualifierSpace("C", (ops.ge(x, zero), ops.le(x, zero)), abducible=True)}
        constraints = [
            constraint([Unknown("C")], ops.ge(x, IntLit(1)), "up"),
            constraint([Unknown("C")], ops.le(x, IntLit(-1)), "down"),
        ]
        solution = HornSolver().solve(constraints, spaces)
        assert not solution.solved
        assert solution.candidates == ()
        assert solution.failed is not None

    def test_the_search_reaches_every_candidate_of_a_wide_pool(self):
        """Eight bounds and two demanded conclusions: only the pair
        ``b >= 0 && h >= 0`` solves, and the walk reaches it after the
        root, the 8 singletons and all 28 pairs — no candidate is ever
        dropped for lack of room."""
        bounds = [ops.ge(ops.var(name, INT), IntLit(0)) for name in "abcdefgh"]
        b_nonneg, h_nonneg = bounds[1], bounds[7]
        spaces = {"C": QualifierSpace("C", tuple(bounds), abducible=True, max_conjuncts=2)}
        constraints = [
            constraint([Unknown("C")], b_nonneg, "b"),
            constraint([Unknown("C")], h_nonneg, "h"),
        ]
        solver = HornSolver()
        solution = solver.solve(constraints, spaces)
        assert solution.solved
        assert solution.assignment["C"] == (b_nonneg, h_nonneg)
        assert solver.statistics.candidates_explored == 37

    def test_a_later_core_drops_a_queued_superset_when_it_is_popped(self):
        """``x >= 1 && x <= 0`` is found vacuous at size 2, after its
        superset with ``y >= 0`` was queued; the recorded core drops that
        superset when it is popped, without a probe."""
        z = ops.var("z", INT)
        pool = (ops.ge(y, IntLit(0)), ops.ge(x, IntLit(1)), ops.le(x, IntLit(0)))
        spaces = {"C": QualifierSpace("C", pool, abducible=True, max_conjuncts=3)}
        constraints = [constraint([Unknown("C")], ops.gt(z, IntLit(0)), "unprovable")]
        solver = HornSolver()
        solution = solver.solve(constraints, spaces)
        assert not solution.solved
        # the root, three singletons, three pairs and the one triple
        assert solver.statistics.candidates_explored == 8
        # the vacuous pair and the triple that contains it
        assert solver.statistics.candidates_pruned == 2
        assert solver.statistics.muses_enumerated == 1

    def test_abducible_in_conclusion_is_rejected(self):
        _, spaces = disjunctive_system()
        bad = [constraint([ops.ge(x, IntLit(0))], Unknown("C"), "bad")]
        with pytest.raises(ValueError, match="abducible"):
            HornSolver().solve(bad, spaces)

    def test_two_guards_are_abduced_together(self):
        constraints, spaces = two_guard_system()
        solver = HornSolver()
        solution = solver.solve(constraints, spaces)
        assert solution.solved
        assert solution.assignment == {
            "C": (ops.ge(x, IntLit(1)),),
            "D": (ops.le(y, IntLit(-1)),),
        }
        assert solution.candidates == (solution.assignment,)
        assert solver.statistics.candidates_pruned > 0


def guards_of(solution, names):
    return [
        {name: frozenset(candidate.get(name, ())) for name in names}
        for candidate in solution.candidates
    ]


class TestSolverReuse:
    """A solver's validity memo outlives a run; answering from it must
    not change the answer."""

    @pytest.mark.parametrize("system", [disjunctive_system, two_guard_system])
    def test_warm_memo_gives_the_fresh_answer(self, system):
        constraints, spaces = system()
        names = sorted(spaces)
        solver = HornSolver()
        solver.solve(constraints, spaces)
        cold_checks = solver.statistics.validity_checks
        warm = solver.solve(constraints, spaces)
        assert solver.statistics.validity_checks - cold_checks < cold_checks
        fresh = HornSolver().solve(constraints, spaces)
        assert warm.solved == fresh.solved
        assert warm.assignment == fresh.assignment
        assert guards_of(warm, names) == guards_of(fresh, names)


class TestProvenance:
    def test_label_argument_folds_into_the_trail(self):
        constr = constraint([ops.le(x, y)], Unknown("P"), "spec", provenance=("f", "body"))
        assert constr.provenance == ("f", "body", "spec")
        assert constr.origin() == "f / body / spec"

    def test_origin_without_trail_is_a_placeholder(self):
        constr = constraint([ops.le(x, y)], Unknown("P"))
        assert constr.origin() == "<unlabeled constraint>"
