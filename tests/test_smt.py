"""Tests for the SMT pipeline: one-shot queries and the incremental backend."""

import pytest

from repro.logic import ops
from repro.logic.formulas import IntLit
from repro.logic.sorts import BOOL, INT, set_of
from repro.smt import IncrementalSolver

x = ops.var("x", INT)
y = ops.var("y", INT)
z = ops.var("z", INT)
p = ops.var("p", BOOL)
q = ops.var("q", BOOL)
s = ops.var("s", set_of(INT))

#: (question, formula, expected answer): "valid" asks
#: ``is_valid_implication([], formula)``, "sat" asks
#: ``check_assuming([formula])``.
ONE_SHOT_QUERIES = [
    pytest.param("valid", ops.implies(ops.lt(x, y), ops.le(x, y)), True, id="lia-valid"),
    pytest.param("valid", ops.implies(ops.le(x, y), ops.lt(x, y)), False, id="lia-invalid"),
    pytest.param("sat", ops.and_(ops.le(x, y), ops.neq(x, y)), True, id="lia-sat"),
    pytest.param("sat", ops.and_(ops.le(x, y), ops.lt(y, x)), False, id="lia-unsat"),
    pytest.param("valid", ops.or_(p, ops.not_(p)), True, id="excluded-middle"),
    pytest.param("sat", ops.and_(p, ops.not_(p)), False, id="contradiction"),
    pytest.param("valid", ops.iff(p, p), True, id="iff-reflexive"),
    pytest.param(
        "valid", ops.implies(ops.and_(ops.eq(p, q), p), q), True, id="boolean-equality-rewrite"
    ),
    pytest.param(
        "valid", ops.ge(ops.ite(ops.ge(x, IntLit(0)), x, ops.neg(x)), IntLit(0)), True, id="ite-abs"
    ),
    pytest.param("valid", ops.ge(ops.ite(ops.ge(x, y), x, y), x), True, id="ite-max"),
    pytest.param(
        "valid",
        ops.eq(ops.measure("len", x, INT), ops.measure("len", ops.var("x", INT), INT)),
        True,
        id="measure",
    ),
    pytest.param("valid", ops.member(x, ops.union(ops.singleton(x), s)), True, id="set-member"),
    pytest.param(
        "valid", ops.member(y, ops.union(ops.singleton(x), s)), False, id="set-non-member"
    ),
]


@pytest.mark.parametrize("question, formula, expected", ONE_SHOT_QUERIES)
def test_one_shot_query(question, formula, expected):
    # Fresh-name generation is per solver: the same query on two fresh
    # solvers gives the same answer and identical statistics.
    solvers = [IncrementalSolver(), IncrementalSolver()]
    for solver in solvers:
        if question == "valid":
            answer = solver.is_valid_implication([], formula)
        else:
            answer = solver.check_assuming([formula])
        assert answer is expected
    assert solvers[0].statistics == solvers[1].statistics


class TestIncrementalSolver:
    def test_push_pop_scoping(self):
        solver = IncrementalSolver()
        solver.assert_(ops.le(x, y))
        assert solver.check()
        solver.push()
        solver.assert_(ops.lt(y, x))
        assert not solver.check()
        solver.pop()
        assert solver.check()

    def test_pop_without_push_raises(self):
        with pytest.raises(RuntimeError):
            IncrementalSolver().pop()

    def test_assertions_accumulate_within_scope(self):
        solver = IncrementalSolver()
        solver.push()
        solver.assert_(ops.le(x, y))
        solver.assert_(ops.le(y, z))
        solver.assert_(ops.lt(z, x))
        assert not solver.check()
        solver.pop()
        assert solver.check()

    def test_reasserted_formulas_are_not_reencoded(self):
        solver = IncrementalSolver()
        formula = ops.and_(ops.le(x, y), ops.neq(x, y))
        for _ in range(5):
            solver.push()
            solver.assert_(formula)
            assert solver.check()
            solver.pop()
        assert solver.statistics.encoded_assertions == 1
        assert solver.statistics.reused_assertions == 4

    def test_trivial_assertions(self):
        solver = IncrementalSolver()
        solver.push()
        solver.assert_(ops.bool_lit(True))
        assert solver.check()
        solver.assert_(ops.bool_lit(False))
        assert not solver.check()
        solver.pop()
        assert solver.check()

    def test_check_assuming_restores_state(self):
        solver = IncrementalSolver()
        solver.assert_(ops.le(x, y))
        assert not solver.check_assuming([ops.lt(y, x)])
        assert solver.check()

    def test_is_valid_implication(self):
        solver = IncrementalSolver()
        assert solver.is_valid_implication([ops.le(x, y), ops.le(y, z)], ops.le(x, z))
        assert not solver.is_valid_implication([ops.le(x, y)], ops.le(y, x))

    def test_scoped_pops_even_when_the_body_raises(self):
        solver = IncrementalSolver()
        solver.assert_(ops.le(x, y))
        with pytest.raises(ValueError):
            with solver.scoped() as scope:
                assert scope is solver
                solver.assert_(ops.lt(y, x))
                assert not solver.check()
                raise ValueError("abandon the obligation")
        # the contradiction left with its scope, and the base frame stays
        assert solver.check()
        with pytest.raises(RuntimeError):
            solver.pop()

    def test_is_valid_implication_reads_the_live_assertions(self):
        solver = IncrementalSolver()
        with solver.scoped():
            solver.assert_(ops.ge(x, IntLit(5)))
            assert solver.is_valid_implication([], ops.gt(x, IntLit(0)))
        assert not solver.is_valid_implication([], ops.gt(x, IntLit(0)))

    def test_is_valid_implication_restores_state(self):
        # the negated conclusion is asserted only inside the query's scope
        solver = IncrementalSolver()
        solver.assert_(ops.le(x, y))
        assert solver.is_valid_implication([], ops.le(x, y))
        assert solver.check()
        assert solver.check_assuming([ops.le(x, y)])

    def test_learned_lemmas_survive_pop(self):
        solver = IncrementalSolver()
        # Run a query that forces theory lemmas, then re-run it: the second
        # round must not need more theory checks than the first.
        query = ops.and_(ops.le(x, y), ops.lt(y, x))
        solver.push()
        solver.assert_(query)
        solver.check()
        first_round = solver.statistics.theory_checks
        solver.pop()
        solver.push()
        solver.assert_(query)
        solver.check()
        solver.pop()
        second_round = solver.statistics.theory_checks - first_round
        assert second_round <= first_round

    def test_check_assuming_conjoins_set_formulas(self):
        solver = IncrementalSolver()
        s = ops.var("s", set_of(INT))
        empty = ops.empty_set(INT)
        # x in s together with s <= [] is unsatisfiable only if both
        # assertions share one element universe.
        assert not solver.check_assuming([ops.member(x, s), ops.subset(s, empty)])
        assert solver.check_assuming([ops.member(x, s)])

    def test_set_reasoning_across_premises(self):
        # Each premise is its own assertion; the check eliminates the live
        # set formulas together, so they share one element universe.
        solver = IncrementalSolver()
        s = ops.var("s", set_of(INT))
        t = ops.var("t", set_of(INT))
        assert solver.is_valid_implication([ops.member(x, s), ops.subset(s, t)], ops.member(x, t))
        assert not solver.is_valid_implication([ops.member(x, s)], ops.member(x, t))

    def test_one_persistent_sat_solver_no_per_check_copying(self):
        # The SAT core lives for the solver's whole lifetime: every check
        # reuses the same solver object, and clauses are loaded into it
        # exactly once per encoded formula — never copied per query.
        solver = IncrementalSolver()
        core = solver._sat
        for k in range(50):
            solver.push()
            solver.assert_(ops.le(ops.var(f"v{k}", INT), IntLit(k)))
            assert solver.check()
            solver.pop()
        assert solver._sat is core
        loaded = core.num_clauses
        # Re-running the same scopes encodes and loads nothing new.
        for k in range(50):
            solver.push()
            solver.assert_(ops.le(ops.var(f"v{k}", INT), IntLit(k)))
            assert solver.check()
            solver.pop()
        assert solver._sat is core
        assert core.num_clauses == loaded
        assert solver.statistics.encoded_assertions == 50
        assert solver.statistics.reused_assertions == 50

    def test_active_atoms_cache_tracks_scopes(self):
        # The active-atom multiset is maintained incrementally across
        # assert_/push/pop instead of re-unioned per check.
        solver = IncrementalSolver()
        solver.assert_(ops.le(x, y))
        base = dict(solver._active_atom_counts)
        assert base  # the base-frame assertion contributes its atoms
        solver.push()
        solver.assert_(ops.lt(y, z))
        solver.assert_(ops.le(x, y))  # re-assertion counts twice
        assert len(solver._active_atom_counts) > len(base)
        solver.pop()
        assert dict(solver._active_atom_counts) == base

    def test_check_evaluating_reads_back_counterexample(self):
        solver = IncrementalSolver()
        solver.push()
        a, b = ops.le(x, y), ops.le(y, z)
        solver.assert_(a)
        # The negated conjunction forces the model to falsify one conjunct;
        # the probes read that counterexample back, atom for atom.
        solver.push()
        solver.assert_(ops.not_(ops.and_(a, b)))
        values = solver.check_evaluating([a, b, ops.and_(a, b)])
        assert values[0] is True  # asserted, so true in every model
        assert values[1] is False  # the only way to falsify the conjunction
        assert values[2] is False
        solver.pop()
        solver.assert_(ops.lt(y, x))
        assert solver.check_evaluating([a]) is None  # UNSAT
        solver.pop()

    def test_check_evaluating_trivial_and_unevaluable_probes(self):
        solver = IncrementalSolver()
        solver.push()
        solver.assert_(ops.le(x, y))
        t = ops.bool_lit(True)
        s = ops.var("s", set_of(INT))
        values = solver.check_evaluating([t, ops.not_(t), ops.member(x, s)])
        assert values[0] is True
        assert values[1] is False
        assert values[2] is None  # set probes cannot be read from a model
        solver.pop()
