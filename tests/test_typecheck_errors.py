"""Error paths of the refinement type checker.

Three families from the issue checklist: ill-sorted refinements rejected by
well-formedness checking, unsolvable subtyping producing a type error that
names the offending constraint, and shadowed-variable substitution in
dependent application.  Plus the deliberately-unsupported term forms and
the MUSFix interface stub.
"""

import pytest

from repro.logic import ops
from repro.logic.formulas import Unknown, value_var
from repro.logic.sortcheck import SortError, check_refinement, check_sort
from repro.logic.sorts import BOOL, INT, set_of
from repro.syntax import (
    FixTerm,
    MatchCase,
    MatchTerm,
    ScalarType,
    app,
    arrow,
    bool_type,
    if_,
    int_type,
    lam,
    lit,
    parse_type,
    v,
)
from repro.syntax.types import INT_BASE
from repro.typecheck import (
    EMPTY,
    ShapeError,
    TypecheckError,
    TypecheckSession,
    WellFormednessError,
)
x = ops.var("x", INT)
y = ops.var("y", INT)
nu = value_var(INT)

INC_SIG = "a:Int -> {Int | nu == a + 1}"


class TestSortChecking:
    def test_arithmetic_over_bool_rejected(self):
        bad = ops.plus(x, ops.bool_lit(True))
        with pytest.raises(SortError, match="must have sort Int"):
            check_sort(bad, {"x": INT})

    def test_unbound_variable_rejected(self):
        with pytest.raises(SortError, match="unbound variable"):
            check_sort(ops.ge(x, ops.int_lit(0)), {})

    def test_sort_mismatch_with_scope(self):
        with pytest.raises(SortError, match="bound at sort"):
            check_sort(ops.var("x", BOOL), {"x": INT})

    def test_incompatible_equality(self):
        with pytest.raises(SortError, match="incompatible sorts"):
            check_sort(ops.eq(x, ops.bool_lit(True)), {"x": INT})

    def test_refinement_must_be_boolean(self):
        with pytest.raises(SortError, match="sort Bool"):
            check_refinement(ops.plus(x, ops.int_lit(1)), {"x": INT})

    def test_set_operations(self):
        s = ops.var("s", set_of(INT))
        assert check_sort(ops.member(x, s), {"x": INT, "s": set_of(INT)}) == BOOL
        with pytest.raises(SortError, match="set"):
            check_sort(ops.member(x, y), {"x": INT, "y": INT})
        with pytest.raises(SortError):
            check_sort(ops.subset(s, x), {"x": INT, "s": set_of(INT)})

    def test_measure_signatures_enforced(self):
        measures = {"len": ((set_of(INT),), INT)}
        s = ops.var("s", set_of(INT))
        good = ops.ge(ops.measure("len", s, INT), ops.int_lit(0))
        assert check_sort(good, {"s": set_of(INT)}, measures) == BOOL
        wrong_arg = ops.measure("len", x, INT)
        with pytest.raises(SortError, match="argument 0"):
            check_sort(wrong_arg, {"x": INT}, measures)
        wrong_result = ops.measure("len", s, BOOL)
        with pytest.raises(SortError, match="returns"):
            check_sort(wrong_result, {"s": set_of(INT)}, measures)

    def test_polymorphic_membership_is_well_sorted(self):
        from repro.logic.sorts import VarSort

        s = ops.var("s", VarSort("a"))
        assert check_sort(ops.member(x, s), {"x": INT, "s": VarSort("a")}) == BOOL

    def test_unknowns_are_boolean_and_check_their_substitutions(self):
        assert check_sort(Unknown("P"), {}) == BOOL
        pending = Unknown("P", (("_v", ops.var("z", INT)),))
        with pytest.raises(SortError, match="unbound variable"):
            check_sort(pending, {})


class TestWellFormedness:
    def test_ill_sorted_refinement_rejected(self):
        session = TypecheckSession()
        bad = int_type(ops.plus(nu, ops.int_lit(1)))  # Int-sorted refinement
        with pytest.raises(WellFormednessError, match="ill-formed refinement"):
            session.well_formed(EMPTY, bad)

    def test_out_of_scope_variable_rejected(self):
        session = TypecheckSession()
        bad = int_type(ops.ge(nu, ops.var("ghost", INT)))
        with pytest.raises(WellFormednessError, match="unbound variable"):
            session.well_formed(EMPTY, bad)

    def test_arrow_binders_are_in_scope_for_results_only(self):
        session = TypecheckSession()
        good = parse_type("x:Int -> {Int | nu >= x}")
        session.well_formed(EMPTY, good)  # must not raise
        bad = arrow("x", int_type(ops.ge(nu, x)), int_type())
        with pytest.raises(WellFormednessError, match="unbound variable"):
            session.well_formed(EMPTY, bad)

    def test_compound_unknown_conclusion_rejected(self):
        session = TypecheckSession()
        sup = ScalarType(INT_BASE, ops.or_(Unknown("U"), ops.lt(nu, ops.int_lit(0))))
        with pytest.raises(WellFormednessError, match="compound conclusion"):
            session.subtype(EMPTY.bind("x", int_type()), int_type(), sup, "bad")


class TestUnsolvableSubtyping:
    def test_error_names_the_offending_constraint(self):
        session = TypecheckSession()
        env = EMPTY.bind("x", int_type())
        sub = int_type(ops.eq(nu, x))
        sup = int_type(ops.lt(nu, x))
        session.subtype(env, sub, sup, "impossible-spec")
        outcome = session.solve()
        assert not outcome.solved
        assert outcome.failed is not None
        assert "impossible-spec" in outcome.failed.origin()
        assert "impossible-spec" in outcome.error_message

    def test_wrong_program_is_rejected(self):
        """min checked against the max signature fails, naming a branch."""
        geq = parse_type("a:Int -> b:Int -> {Bool | nu <==> a >= b}")
        env = EMPTY.bind("geq", geq)
        min_term = lam("x", "y", body=if_(app(v("geq"), v("x"), v("y")), v("y"), v("x")))
        sig = parse_type("x:Int -> y:Int -> {Int | nu >= x && nu >= y}")
        session = TypecheckSession()
        session.check_program(min_term, sig, env, where="min-as-max")
        outcome = session.solve()
        assert not outcome.solved
        assert "min-as-max" in outcome.error_message
        assert "branch" in outcome.error_message

    def test_unsatisfiable_inference_variant(self):
        """No qualifier valuation can make the unknown entail nu < x."""
        session = TypecheckSession()
        env = EMPTY.bind("x", int_type())
        result = session.fresh_scalar(env, INT_BASE)
        session.subtype(env, int_type(ops.ge(nu, x)), result, "weaken")
        session.subtype(env, result, int_type(ops.lt(nu, x)), "refute")
        outcome = session.solve()
        assert not outcome.solved
        assert "refute" in outcome.failed.origin()


class TestShadowedSubstitution:
    def test_dependent_application_avoids_capture(self):
        """Applying plus2 : a:Int -> b:Int -> {Int | nu == a + b} to the
        caller's own variable named b must not capture the callee's binder."""
        plus2 = parse_type("a:Int -> b:Int -> {Int | nu == a + b}")
        env = EMPTY.bind("plus2", plus2).bind("b", int_type())
        session = TypecheckSession()
        inferred = session.infer(env, app(v("plus2"), v("b")))
        assert inferred.arg_name == "b'"
        b = ops.var("b", INT)
        renamed = ops.var("b'", INT)
        assert inferred.result_type.refinement == ops.eq(nu, ops.plus(b, renamed))

    def test_renamed_application_still_checks(self):
        plus2 = parse_type("a:Int -> b:Int -> {Int | nu == a + b}")
        env = EMPTY.bind("plus2", plus2).bind("b", int_type())
        goal = int_type(ops.eq(nu, ops.plus(ops.var("b", INT), ops.var("c", INT))))
        session = TypecheckSession()
        env = env.bind("c", int_type())
        session.check(env, app(v("plus2"), v("b"), v("c")), goal, "shadow")
        assert session.solve().solved

    def test_lambda_shadowing_goal_variable_is_renamed_not_captured(self):
        """A lambda binder reusing the name of an outer variable the goal
        mentions must not capture it: the outer x is alpha-renamed, so the
        body (which only sees the inner x) cannot prove `nu >= outer x`."""
        session = TypecheckSession()
        env = EMPTY.bind("x", int_type())
        goal = arrow("n", int_type(), int_type(ops.ge(nu, x)))
        shadowing = lam("x", body=v("x"))
        session.check(env, shadowing, goal, "shadow-lambda")
        assert not session.solve().solved

    def test_branch_guard_is_not_captured_by_shadowing_binder(self):
        """Soundness regression: `\\x . if geq x 0 then (\\x . x) else ...`
        against `x:Int -> x:Int -> {Int | nu >= 0}` must be REJECTED — the
        guard `x >= 0` talks about the outer x, and an inner binder named x
        must not inherit it (f 5 (-7) returns -7 < 0)."""
        geq = parse_type("a:Int -> b:Int -> {Bool | nu <==> a >= b}")
        env = EMPTY.bind("geq", geq)
        term = lam(
            "x",
            body=if_(
                app(v("geq"), v("x"), lit(0)),
                lam("x", body=v("x")),
                lam("y", body=lit(0)),
            ),
        )
        sig = parse_type("x:Int -> x:Int -> {Int | nu >= 0}")
        session = TypecheckSession()
        session.check_program(term, sig, env, where="guard-capture")
        assert not session.solve().solved

    def test_legal_shadowing_still_checks(self):
        """Shadowing that never relies on the outer variable stays typable;
        the outer refinement is carried under the renamed variable."""
        inc = parse_type(INC_SIG)
        env = EMPTY.bind("inc", inc).bind("x", int_type(ops.ge(nu, ops.int_lit(1))))
        goal = parse_type("x:Int -> {Int | nu == x + 1}")
        session = TypecheckSession()
        session.check(env, lam("x", body=app(v("inc"), v("x"))), goal, "reshadow")
        assert session.solve().solved


class TestShapeErrors:
    def test_applying_a_non_function(self):
        session = TypecheckSession()
        env = EMPTY.bind("x", int_type())
        with pytest.raises(ShapeError, match="not a function"):
            session.infer(env, app(v("x"), v("x")))

    def test_lambda_against_scalar(self):
        session = TypecheckSession()
        with pytest.raises(ShapeError, match="non-function"):
            session.check(EMPTY, lam("x", body=v("x")), int_type(), "bad")

    def test_scalar_base_mismatch(self):
        session = TypecheckSession()
        with pytest.raises(ShapeError, match="base types differ"):
            session.subtype(EMPTY, int_type(), bool_type(), "bad")

    def test_non_boolean_condition(self):
        session = TypecheckSession()
        env = EMPTY.bind("x", int_type())
        with pytest.raises(ShapeError, match="expected Bool"):
            session.check(env, if_(v("x"), v("x"), v("x")), int_type(), "bad")

    def test_unbound_variable(self):
        session = TypecheckSession()
        with pytest.raises(TypecheckError, match="unbound variable"):
            session.infer(EMPTY, v("ghost"))

    def test_introduction_term_cannot_be_inferred(self):
        session = TypecheckSession()
        with pytest.raises(TypecheckError, match="cannot infer"):
            session.infer(EMPTY, lam("x", body=v("x")))


class TestIntroductionForms:
    def test_match_cannot_be_inferred(self):
        """match/fix are introduction terms: they check against a goal but
        have no inferred type."""
        session = TypecheckSession()
        term = MatchTerm(v("xs"), (MatchCase("Nil", (), lit(0)),))
        with pytest.raises(TypecheckError, match="cannot infer"):
            session.infer(EMPTY.bind("xs", int_type()), term)

    def test_fix_against_scalar_goal_is_a_shape_error(self):
        session = TypecheckSession()
        with pytest.raises(ShapeError, match="non-function"):
            session.check(EMPTY, FixTerm("f", v("f")), int_type(), "fix")
