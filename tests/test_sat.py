"""Tests for the propositional CDCL core and the EUF+LIA theory checker."""

import random

import pytest

from repro.logic import ops
from repro.logic.sorts import BOOL, INT
from repro.smt.sat import SatSolver, _luby, solve_clauses
from repro.smt.theory import Literal, TheoryChecker
from theory_oracle import FourierMotzkinChecker

x = ops.var("x", INT)
y = ops.var("y", INT)
z = ops.var("z", INT)


class TestSatSolver:
    def test_simple_sat(self):
        result = solve_clauses([[1, 2], [-1, 2], [1, -2]])
        assert result.satisfiable
        model = result.model
        assert (model[1] or model[2]) and (not model[1] or model[2])

    def test_simple_unsat(self):
        result = solve_clauses([[1], [-1]])
        assert not result.satisfiable

    def test_unit_propagation_chain(self):
        result = solve_clauses([[1], [-1, 2], [-2, 3]])
        assert result.satisfiable
        assert result.model[1] and result.model[2] and result.model[3]

    def test_empty_clause_is_unsat(self):
        solver = SatSolver()
        solver.add_clause([])
        assert not solver.solve().satisfiable

    def test_tautologies_are_dropped(self):
        solver = SatSolver()
        solver.add_clause([1, -1])
        assert solver.num_clauses == 0

    def test_assumptions(self):
        solver = SatSolver()
        solver.add_clause([1, 2])
        assert solver.solve([-1]).satisfiable
        assert solver.solve([-1]).model[2]
        assert not solver.solve([-1, -2]).satisfiable
        # conflicting assumptions
        assert not solver.solve([1, -1]).satisfiable

    def test_incremental_blocking(self):
        solver = SatSolver()
        solver.add_clause([1, 2])
        first = solver.solve()
        assert first.satisfiable
        # block every model one at a time until exhaustion
        seen = 0
        while True:
            result = solver.solve()
            if not result.satisfiable:
                break
            seen += 1
            solver.add_clause([-v if value else v for v, value in result.model.items()])
        assert seen == 3  # models of (1 or 2) over two variables


def brute_force_satisfiable(clauses, nvars, assumptions=()):
    """Truth-table satisfiability over variables 1..nvars (bitmask sweep)."""
    masks = []
    for clause in clauses:
        positive = negative = 0
        for lit in clause:
            if lit > 0:
                positive |= 1 << (lit - 1)
            else:
                negative |= 1 << (-lit - 1)
        masks.append((positive, negative))
    for lit in assumptions:
        if lit > 0:
            masks.append((1 << (lit - 1), 0))
        else:
            masks.append((0, 1 << (-lit - 1)))
    full = (1 << nvars) - 1
    for assignment in range(1 << nvars):
        flipped = assignment ^ full
        if all(assignment & pos or flipped & neg for pos, neg in masks):
            return True
    return False


def random_clause(rng, nvars, max_len=4):
    width = rng.randint(1, min(max_len, nvars))
    variables = rng.sample(range(1, nvars + 1), width)
    return [var if rng.random() < 0.5 else -var for var in variables]


def assert_model_satisfies(model, clauses):
    for clause in clauses:
        satisfied = any(model.get(abs(lit)) == (lit > 0) for lit in clause)
        assert satisfied, f"model {model} falsifies {clause}"


class TestCdclDifferentialFuzz:
    """The rewrite must not silently change SAT answers: every answer is
    checked against a truth table, and every model against the clauses."""

    def test_500_random_instances_match_truth_table(self):
        rng = random.Random(0xC0FFEE)
        for round_number in range(500):
            nvars = rng.randint(1, 9) if round_number % 5 else rng.randint(10, 12)
            clauses = [
                random_clause(rng, nvars)
                for _ in range(rng.randint(1, 3 * nvars))
            ]
            assumptions = [
                var if rng.random() < 0.5 else -var
                for var in rng.sample(range(1, nvars + 1), rng.randint(0, min(2, nvars)))
            ]
            result = solve_clauses(clauses, assumptions)
            expected = brute_force_satisfiable(clauses, nvars, assumptions)
            context = f"instance {round_number}: clauses={clauses} assumptions={assumptions}"
            assert result.satisfiable == expected, context
            if result.satisfiable:
                assert_model_satisfies(result.model, clauses)
                for lit in assumptions:
                    assert result.model.get(abs(lit)) == (lit > 0)

    def test_incremental_add_solve_sequences(self):
        """Interleaved add_clause/solve-under-assumptions against a fresh
        truth table at every step — persistent state must stay exact."""
        rng = random.Random(0xFEED)
        for _ in range(60):
            nvars = rng.randint(2, 8)
            solver = SatSolver()
            clauses = []
            for _ in range(8):
                for _ in range(rng.randint(1, 2)):
                    clause = random_clause(rng, nvars, max_len=3)
                    clauses.append(clause)
                    solver.add_clause(clause)
                assumptions = [
                    var if rng.random() < 0.5 else -var
                    for var in rng.sample(range(1, nvars + 1), rng.randint(0, min(3, nvars)))
                ]
                result = solver.solve(assumptions)
                expected = brute_force_satisfiable(clauses, nvars, assumptions)
                context = f"clauses={clauses} assumptions={assumptions}"
                assert result.satisfiable == expected, context
                if result.satisfiable:
                    assert_model_satisfies(result.model, clauses)

    def test_lemmas_behave_like_clauses_for_answers(self):
        rng = random.Random(0xBEEF)
        for _ in range(40):
            nvars = rng.randint(2, 7)
            solver = SatSolver()
            clauses = [random_clause(rng, nvars, max_len=3) for _ in range(nvars * 2)]
            for index, clause in enumerate(clauses):
                if index % 2:
                    solver.add_lemma(clause)
                else:
                    solver.add_clause(clause)
            expected = brute_force_satisfiable(clauses, nvars)
            assert solver.solve().satisfiable == expected


def pigeonhole_clauses(holes):
    """PHP(holes+1, holes): unsatisfiable, forces real conflict analysis."""
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1  # noqa: E731
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


class TestCdclSearch:
    def test_pigeonhole_unsat_with_learning(self):
        solver = SatSolver()
        solver.add_clauses(pigeonhole_clauses(3))
        assert not solver.solve().satisfiable
        assert solver.statistics.conflicts > 0
        assert solver.statistics.learned_clauses > 0
        assert solver.statistics.propagations > 0

    def test_unsat_is_permanent(self):
        solver = SatSolver()
        solver.add_clauses(pigeonhole_clauses(3))
        assert not solver.solve().satisfiable
        assert not solver.solve().satisfiable  # cached empty-clause state

    def test_solving_is_deterministic(self):
        clauses = [random_clause(random.Random(5), 8) for _ in range(20)]
        first = solve_clauses(clauses)
        second = solve_clauses(clauses)
        assert first.satisfiable == second.satisfiable
        assert first.model == second.model

    def test_luby_sequence(self):
        assert [_luby(i) for i in range(15)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]

    def test_decide_restriction_reports_partial_model(self):
        solver = SatSolver()
        solver.add_clause([1, 2])
        solver.add_clause([3, 4])  # outside the cone: left unassigned
        result = solver.solve(decide=frozenset((1, 2)))
        assert result.satisfiable
        assert 1 in result.model and 2 in result.model
        assert 3 not in result.model and 4 not in result.model


class TestLearnedClauseGc:
    def test_lemma_db_stays_bounded(self):
        solver = SatSolver(max_learnts=60)
        rng = random.Random(11)

        def wide_clause():
            # Width >= 3 so no level-0 units absorb later lemmas.
            variables = rng.sample(range(1, 41), rng.randint(3, 4))
            return [var if rng.random() < 0.5 else -var for var in variables]

        for _ in range(30):
            solver.add_clause(wide_clause())
        for _ in range(500):
            solver.add_lemma(wide_clause())
        assert solver.statistics.gc_runs >= 2
        assert solver.statistics.gced_clauses > 0
        # The live DB is bounded far below the number of lemmas added.
        assert solver.num_lemmas <= 300
        solver.solve()  # still usable after collection

    def test_gc_preserves_answers_of_problem_clauses(self):
        # Lemmas implied by the problem clauses may be collected freely
        # without changing answers.
        rng = random.Random(13)
        solver = SatSolver(max_learnts=20)
        clauses = [random_clause(rng, 6, max_len=3) for _ in range(12)]
        solver.add_clauses(clauses)
        expected = brute_force_satisfiable(clauses, 6)
        for _ in range(100):
            # implied lemmas: supersets of existing clauses
            base = rng.choice(clauses)
            extra = random_clause(rng, 6, max_len=2)
            solver.add_lemma(base + extra)
        assert solver.solve().satisfiable == expected


class TestTheoryChecker:
    """Each case runs on the shrinker's checker and on the test oracle."""

    @pytest.fixture(
        autouse=True, params=[TheoryChecker, FourierMotzkinChecker], ids=["theory", "oracle"]
    )
    def _checker(self, request):
        self.checker_class = request.param

    def check(self, *pairs):
        return self.checker_class().is_consistent(
            [Literal(atom, polarity) for atom, polarity in pairs]
        )

    def test_lia_conflict(self):
        assert not self.check((ops.le(x, y), True), (ops.lt(y, x), True))
        assert self.check((ops.le(x, y), True), (ops.lt(x, y), True))

    def test_negated_comparison(self):
        # !(x <= y) and !(y <= x) is inconsistent over integers
        assert not self.check((ops.le(x, y), False), (ops.le(y, x), False))

    def test_equality_propagates_to_arithmetic(self):
        assert not self.check(
            (ops.eq(x, y), True),
            (ops.lt(x, y), True),
        )

    def test_congruence_closure(self):
        fx = ops.measure("f", x, INT)
        fy = ops.measure("f", y, INT)
        # x == y implies f x == f y; asserting f x != f y must conflict
        assert not self.check((ops.eq(x, y), True), (ops.eq(fx, fy), False))
        assert self.check((ops.eq(x, y), False), (ops.eq(fx, fy), False))

    def test_euf_equality_feeds_lia(self):
        fx = ops.measure("f", x, INT)
        fy = ops.measure("f", y, INT)
        # x == y forces f x == f y, so f x < f y is infeasible
        assert not self.check((ops.eq(x, y), True), (ops.lt(fx, fy), True))

    def test_boolean_atom_polarities(self):
        p = ops.var("p", BOOL)
        assert not self.check((p, True), (p, False))
        assert self.check((p, True), (ops.var("q", BOOL), False))

    def test_integer_chain(self):
        assert not self.check(
            (ops.le(x, y), True),
            (ops.le(y, z), True),
            (ops.lt(z, x), True),
        )
