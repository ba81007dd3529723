"""Differential tests for the incremental theory backend.

:class:`repro.smt.theory.IncrementalTheory` maintains one persistent
term bank, congruence closure, and simplex tableau across
``push``/``pop``-bracketed assertion scopes, un-merging and retracting
via undo trails.  These tests pin its behaviour to the stateless
Fourier–Motzkin oracle of ``theory_oracle.py``: on every prefix of every
random assert/push/pop sequence the two must agree on consistency, and so
must :class:`repro.smt.theory.TheoryChecker`, which decides each prefix on
a fresh incremental theory.

The shrink tests pin the conflict minimizer that runs on that checker:
the core it returns from a random inconsistent literal set is
inconsistent and irreducible under the oracle.

The lemma-generalization tests pin the cross-candidate replay path: a
theory conflict refuted once must answer every alpha-renamed copy of
itself propositionally, without the renamed query ever reaching the
theory.

The tableau-bound tests pin how the simplex forgets: a row no check asks
for again is gone once the bound trail empties, while a basis whose rows
are asked for again every cycle is kept and resumes without pivoting.

The exact-arithmetic tests pin the simplex's number types: difference
constraints never leave ``int``, and a non-unit coefficient promotes to an
exact ``Fraction`` only where a division is inexact.
"""

import random
from fractions import Fraction

import pytest

from repro.logic import ops
from repro.logic.formulas import Binary, BinaryOp, IntLit
from repro.logic.sorts import BOOL, INT
from repro.logic.transform import subterms
from repro.metrics import Counters
from repro.smt.lia import SIMPLEX_COUNTERS, LinearExpr, Simplex, le, lt
from repro.smt.solver import _SHRINK_DELETION_LIMIT, IncrementalSolver, _shrink_conflict
from repro.smt.theory import IncrementalTheory, Literal, TheoryChecker
from theory_oracle import FourierMotzkinChecker

SEEDS = (7, 99, 2024, 31337)


def _atom_pool():
    x = ops.var("x", INT)
    y = ops.var("y", INT)
    z = ops.var("z", INT)
    p = ops.var("p", BOOL)
    q = ops.var("q", BOOL)
    len_x = ops.measure("len", x, INT)
    len_y = ops.measure("len", y, INT)
    return [
        ops.le(x, y),
        ops.lt(y, z),
        ops.ge(x, IntLit(0)),
        ops.le(z, IntLit(5)),
        ops.eq(x, y),
        ops.neq(y, z),
        ops.eq(x, IntLit(3)),
        ops.lt(x, IntLit(10)),
        ops.eq(len_x, len_y),
        ops.le(len_x, IntLit(4)),
        ops.ge(len_y, IntLit(7)),
        ops.eq(x, z),
        ops.neq(x, IntLit(0)),
        p,
        q,
        ops.eq(p, q),
        ops.le(ops.plus(x, y), IntLit(8)),
        ops.ge(ops.plus(x, y), IntLit(2)),
        ops.eq(ops.times(IntLit(2), x), IntLit(1)),
        ops.le(ops.minus(x, y), IntLit(-1)),
    ]


def _scaled_atom_pool():
    """Atoms with non-unit coefficients, so the simplex divides inexactly:
    fractional bound targets (``2*y >= 3``, ``2*len x <= 5``), fractional
    disequality split bounds (``2*x != 4`` splits at 3/2 and 5/2), a
    gcd-scaled slack (``2*x + 2*z``), and rows whose pivots divide by 2
    and 3."""
    x = ops.var("x", INT)
    y = ops.var("y", INT)
    z = ops.var("z", INT)
    p = ops.var("p", BOOL)
    len_x = ops.measure("len", x, INT)
    len_y = ops.measure("len", y, INT)
    two, three = IntLit(2), IntLit(3)
    return [
        ops.le(ops.plus(ops.times(three, x), ops.times(two, y)), IntLit(7)),
        ops.eq(ops.minus(ops.times(two, x), ops.times(three, y)), IntLit(1)),
        ops.ge(ops.times(two, y), three),
        ops.neq(ops.times(three, z), ops.times(two, x)),
        ops.le(ops.times(two, len_x), IntLit(5)),
        ops.neq(ops.times(two, x), IntLit(4)),
        ops.ge(ops.times(three, len_y), ops.plus(ops.times(two, len_x), IntLit(1))),
        ops.le(ops.plus(ops.times(two, x), ops.times(two, z)), three),
        ops.eq(len_x, len_y),
        ops.eq(x, y),
        ops.lt(z, IntLit(2)),
        ops.ge(x, IntLit(-1)),
        p,
    ]


class TestDifferential:
    """IncrementalTheory and TheoryChecker vs the stateless oracle on
    random sequences.

    Every step either asserts a literal inside a new scope, opens an
    empty scope, or pops the innermost scope; after every step the
    incremental verdict for the live prefix, and the checker's verdict on
    it, must match what the oracle says of that prefix, and every
    explained conflict must be inconsistent on its own.  Four seeds x 80
    sequences x 25 steps run once with a fresh theory per sequence and
    once with one long-lived theory whose scopes are all popped between
    sequences, so the simplex drops and rebuilds tableaus left by earlier
    sequences: 640 sequences (16000 differential verdicts) per run.  The
    ``scaled`` runs draw from the non-unit-coefficient pool with one
    long-lived theory, so inexact divisions reach the warm tableau.
    """

    @pytest.mark.parametrize(
        "seed, long_lived, atom_pool",
        [pytest.param(seed, False, _atom_pool, id=str(seed)) for seed in SEEDS]
        + [pytest.param(seed, True, _atom_pool, id=f"long-lived-{seed}") for seed in SEEDS]
        + [pytest.param(seed, True, _scaled_atom_pool, id=f"scaled-{seed}") for seed in SEEDS],
    )
    def test_random_sequences_agree_with_stateless_oracle(self, seed, long_lived, atom_pool):
        rng = random.Random(seed)
        pool = atom_pool()
        oracle = FourierMotzkinChecker()
        checker = TheoryChecker()
        theory = IncrementalTheory()
        for _ in range(80):
            if not long_lived:
                theory = IncrementalTheory()
            frames = []  # literals asserted per live scope
            prefix = []  # flat live-literal list, oracle's input
            for _ in range(25):
                roll = rng.random()
                if roll < 0.6 or not frames:
                    literal = Literal(rng.choice(pool), rng.random() < 0.7)
                    theory.push()
                    frames.append([literal])
                    prefix.append(literal)
                    conflict = theory.assert_literal(literal) or theory.check()
                elif roll < 0.85:
                    theory.push()
                    frames.append([])
                    conflict = theory.check()
                else:
                    for _ in frames.pop():
                        prefix.pop()
                    theory.pop()
                    conflict = theory.check()
                incremental_ok = conflict is None
                oracle_ok = oracle.is_consistent(list(prefix))
                assert incremental_ok == oracle_ok, (
                    f"divergence (seed {seed}): incremental={incremental_ok} "
                    f"oracle={oracle_ok} on prefix {prefix}"
                )
                assert checker.is_consistent(list(prefix)) == oracle_ok, (
                    f"checker diverges from the oracle (seed {seed}) on prefix {prefix}"
                )
                if conflict is not None and conflict[1] is True:
                    assert not oracle.is_consistent(conflict[0]), (
                        f"explanation {conflict[0]} is consistent (seed {seed})"
                    )
            while frames:
                frames.pop()
                theory.pop()
            assert theory.check() is None

    def test_conflict_retracts_on_pop(self):
        x = ops.var("x", INT)
        theory = IncrementalTheory()
        theory.push()
        assert theory.assert_literal(Literal(ops.ge(x, IntLit(5)), True)) is None
        assert theory.check() is None
        theory.push()
        conflict = theory.assert_literal(Literal(ops.le(x, IntLit(2)), True))
        if conflict is None:
            conflict = theory.check()
        assert conflict is not None
        theory.pop()
        # The surviving scope must be consistent again, and remain usable.
        assert theory.check() is None
        theory.push()
        assert theory.assert_literal(Literal(ops.le(x, IntLit(9)), True)) is None
        assert theory.check() is None

    def test_congruence_unmerges_on_pop(self):
        x = ops.var("x", INT)
        y = ops.var("y", INT)
        len_x = ops.measure("len", x, INT)
        len_y = ops.measure("len", y, INT)
        theory = IncrementalTheory()
        theory.push()
        assert theory.assert_literal(Literal(ops.neq(len_x, len_y), True)) is None
        assert theory.check() is None
        theory.push()
        # x = y forces len x = len y by congruence: conflict.
        conflict = theory.assert_literal(Literal(ops.eq(x, y), True))
        if conflict is None:
            conflict = theory.check()
        assert conflict is not None
        theory.pop()
        # Un-merging must restore consistency of the disequality alone.
        assert theory.check() is None


class TestShrink:
    """``_shrink_conflict`` over :class:`TheoryChecker` on random
    inconsistent literal sets: the core is a subset of the set,
    inconsistent under the oracle, and irreducible — dropping any one of
    its literals leaves a set the oracle calls consistent.  Sets run up to
    the whole pool, so those past ``_SHRINK_DELETION_LIMIT`` literals take
    QuickXplain's split path."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("atom_pool", [_atom_pool, _scaled_atom_pool], ids=["unit", "scaled"])
    def test_core_is_inconsistent_and_irreducible(self, seed, atom_pool):
        rng = random.Random(seed)
        pool = atom_pool()
        oracle = FourierMotzkinChecker()
        checker = TheoryChecker()
        sizes = []
        while len(sizes) < 30:
            atoms = rng.sample(pool, rng.randint(2, len(pool)))
            literals = [Literal(atom, rng.random() < 0.7) for atom in atoms]
            if oracle.is_consistent(literals):
                continue
            core = _shrink_conflict(checker, literals)
            assert set(core) <= set(literals)
            assert not oracle.is_consistent(core), f"consistent core {core} of {literals}"
            for index in range(len(core)):
                assert oracle.is_consistent(core[:index] + core[index + 1 :]), (
                    f"core {core} of {literals} is reducible at {core[index]}"
                )
            sizes.append(len(literals))
        assert max(sizes) > _SHRINK_DELETION_LIMIT


class TestLemmaGeneralization:
    """A learned theory lemma speaks only of its own atoms: an alpha-renamed
    copy of a refuted conflict is refuted again, and a renamed half of it
    stays satisfiable."""

    def test_renamed_conflict_is_refuted(self):
        solver = IncrementalSolver()
        for name in ("_tv0", "_tv1"):
            tv = ops.var(name, INT)
            solver.push()
            solver.assert_(ops.le(tv, IntLit(2)))
            solver.assert_(ops.ge(tv, IntLit(5)))
            assert solver.check() is False
            solver.pop()

    def test_renamed_satisfiable_queries_unaffected(self):
        solver = IncrementalSolver()
        tv0 = ops.var("_tv0", INT)
        tv1 = ops.var("_tv1", INT)

        solver.push()
        solver.assert_(ops.le(tv0, IntLit(2)))
        solver.assert_(ops.ge(tv0, IntLit(5)))
        assert solver.check() is False
        solver.pop()

        # A renaming asserting only half the conflict stays satisfiable.
        solver.push()
        solver.assert_(ops.le(tv1, IntLit(2)))
        assert solver.check() is True
        solver.pop()


class TestTableauBound:
    """The simplex tableau stays bounded over a long-lived theory.

    When the bound trail empties, the tableau is dropped if it holds a
    row no constraint asked for since the trail last emptied; otherwise
    the basis is kept and the next check resumes from it.
    """

    def test_unused_row_is_gone_after_the_trail_empties(self):
        simplex = Simplex(Counters(*SIMPLEX_COUNTERS))
        x, y, u, v = (LinearExpr.variable(name) for name in "xyuv")
        # The slack of x + y starts at 0, below its bound: repair pivots.
        first = le(LinearExpr.constant_expr(2), x.add(y))
        assert simplex.assert_constraint(first, "xy") is None
        assert simplex.check() is None
        assert simplex.statistics.tableau_pivots > 0
        slack = simplex.bound_form(first)[0]
        first_vars = {slack, simplex._ids["x"], simplex._ids["y"]}
        simplex.undo_to(0)
        for _ in range(3):
            assert simplex.assert_constraint(lt(u, v), "uv") is None
            assert simplex.check() is None
            simplex.undo_to(0)
        assert slack not in simplex._row_installed
        for basic, row in simplex._rows.items():
            assert basic not in first_vars
            assert not first_vars & row.keys()

    def test_basis_asked_for_every_cycle_is_kept(self):
        simplex = Simplex(Counters(*SIMPLEX_COUNTERS))
        x, y, z = (LinearExpr.variable(name) for name in "xyz")
        pivots = []
        for _ in range(5):
            assert simplex.assert_constraint(lt(x, y), "xy") is None
            assert simplex.assert_constraint(lt(y, z), "yz") is None
            assert simplex.check() is None
            conflict = simplex.assert_constraint(lt(z, x), "zx") or simplex.check()
            assert sorted(conflict) == ["xy", "yz", "zx"]
            simplex.undo_to(0)
            pivots.append(simplex.statistics.tableau_pivots)
        # A rebuilt tableau would pivot again to find the cycle each time;
        # the kept basis finds it where the first cycle left off.
        assert pivots[0] > 0
        assert pivots == [pivots[0]] * len(pivots)


def _tableau_numbers(simplex):
    """Every value, bound and row coefficient the simplex holds."""
    yield from simplex._value.values()
    for bounds in (simplex._lower, simplex._upper):
        for bound, _ in bounds.values():
            yield bound
    for row in simplex._rows.values():
        yield from row.values()


class TestExactArithmetic:
    """The simplex computes in ``int`` and promotes only inexact divisions."""

    def test_fractional_bound_is_exact(self):
        simplex = Simplex(Counters(*SIMPLEX_COUNTERS))
        x = LinearExpr.variable("x")
        two_x, three = x.scale(2), LinearExpr.constant_expr(3)
        assert simplex.assert_constraint(le(two_x, three), "2x<=3") is None
        assert simplex.assert_constraint(le(three, two_x), "2x>=3") is None
        assert simplex.check() is None
        value = simplex._value[simplex._ids["x"]]
        assert type(value) is Fraction and value == Fraction(3, 2)
        conflict = simplex.assert_constraint(
            le(LinearExpr.constant_expr(2), x), "x>=2"
        ) or simplex.check()
        assert sorted(conflict) == ["2x<=3", "x>=2"]

    def test_difference_constraint_tableau_stays_integral(self):
        # Atoms over differences of two terms (x <= y, x - y <= -1, ...)
        # keep every pivot a division by +-1, so no number leaves int.
        differences = [
            atom for atom in _atom_pool()
            if not any(
                isinstance(node, Binary) and node.op in (BinaryOp.PLUS, BinaryOp.TIMES)
                for node in subterms(atom)
            )
        ]
        rng = random.Random(5)
        theory = IncrementalTheory()
        for _ in range(40):
            for _ in range(12):
                theory.push()
                literal = Literal(rng.choice(differences), rng.random() < 0.7)
                theory.assert_literal(literal) or theory.check()
                numbers = list(_tableau_numbers(theory.simplex))
                assert all(type(number) is int for number in numbers), numbers
            while theory.depth:
                theory.pop()
        assert theory.simplex.statistics.tableau_pivots > 0
