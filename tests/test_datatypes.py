"""Datatypes end-to-end: match elaboration, measures, and terminating fix.

The paper's Sec. 5 list benchmarks: ``length``, ``append``, ``replicate``
and ``stutter`` are checked against measure-refined ``List`` signatures;
wrong-length variants must be rejected with provenance naming the failing
case, and the termination metric must refute non-decreasing recursion.
"""

import pytest

from repro.logic import ops
from repro.logic.formulas import App, Binary, BinaryOp, Var, value_var
from repro.logic.measures import MeasureCase, MeasureDef, instantiate_postconditions
from repro.logic.sorts import INT, VarSort
from repro.syntax import (
    arrow,
    data_type,
    int_type,
    len_measure,
    list_datatype,
    parse_declarations,
    parse_term,
    parse_type,
    type_var,
)
from repro.syntax.types import INT_BASE, FunctionType, base_sort
from repro.typecheck import (
    EMPTY,
    MatchError,
    TerminationError,
    TypecheckSession,
    recursion_signature,
)

INC = "a:Int -> {Int | nu == a + 1}"
DEC = "a:Int -> {Int | nu == a - 1}"
LEQ = "a:Int -> b:Int -> {Bool | nu <==> a <= b}"

LENGTH = "fix length . \\xs . match xs with Nil -> 0 | Cons y ys -> inc (length ys)"
APPEND = (
    "fix append . \\xs . \\ys . "
    "match xs with Nil -> ys | Cons z zs -> Cons z (append zs ys)"
)
REPLICATE = "fix replicate . \\n . \\x . if leq n 0 then Nil else Cons x (replicate (dec n) x)"
STUTTER = (
    "fix stutter . \\xs . "
    "match xs with Nil -> Nil | Cons y ys -> Cons y (Cons y (stutter ys))"
)


def list_session():
    session = TypecheckSession(datatypes=[list_datatype()], measure_defs=[len_measure()])
    env = session.bind_constructors(EMPTY)
    for name, sig in (("inc", INC), ("dec", DEC), ("leq", LEQ)):
        env = env.bind(name, parse_type(sig))
    return session, env


def check_workload(term_src: str, sig_src: str, where: str):
    session, env = list_session()
    sig = parse_type(sig_src, measures=session.measures)
    session.check_program(parse_term(term_src), sig, env, where=where)
    return session, session.solve()


class TestListBenchmarks:
    def test_length(self):
        _, outcome = check_workload(LENGTH, "xs:List a -> {Int | nu == len(xs)}", "length")
        assert outcome.solved

    def test_append(self):
        _, outcome = check_workload(
            APPEND, "xs:List a -> ys:List a -> {List a | len(nu) == len(xs) + len(ys)}",
            "append",
        )
        assert outcome.solved

    def test_replicate(self):
        _, outcome = check_workload(
            REPLICATE, "n:{Int | nu >= 0} -> x:a -> {List a | len(nu) == n}", "replicate"
        )
        assert outcome.solved

    def test_stutter(self):
        _, outcome = check_workload(
            STUTTER, "xs:List a -> {List a | len(nu) == len(xs) + len(xs)}", "stutter"
        )
        assert outcome.solved

    def test_monomorphic_element_type(self):
        """The same programs elaborate at `List Int` via application-site
        unification of the constructors' type variables."""
        _, outcome = check_workload(LENGTH, "xs:List Int -> {Int | nu == len(xs)}", "length")
        assert outcome.solved


class TestRejectedVariants:
    def test_length_without_increment(self):
        _, outcome = check_workload(
            "fix length . \\xs . match xs with Nil -> 0 | Cons y ys -> length ys",
            "xs:List a -> {Int | nu == len(xs)}",
            "length-bad",
        )
        assert not outcome.solved
        assert "length-bad" in outcome.error_message
        assert "case Cons" in outcome.error_message

    def test_stutter_that_only_copies_once(self):
        _, outcome = check_workload(
            "fix stutter . \\xs . match xs with Nil -> Nil | Cons y ys -> Cons y (stutter ys)",
            "xs:List a -> {List a | len(nu) == len(xs) + len(xs)}",
            "stutter-bad",
        )
        assert not outcome.solved
        assert "case Cons" in outcome.failed.origin()

    def test_append_dropping_an_argument(self):
        _, outcome = check_workload(
            "fix append . \\xs . \\ys . match xs with Nil -> Nil "
            "| Cons z zs -> Cons z (append zs ys)",
            "xs:List a -> ys:List a -> {List a | len(nu) == len(xs) + len(ys)}",
            "append-bad",
        )
        assert not outcome.solved
        assert "case Nil" in outcome.failed.origin()


class TestMatchElaboration:
    def test_case_assumptions_unfold_measures(self):
        """The Cons case must see `len(xs) == 1 + len(ys)` as a premise."""
        session, outcome = check_workload(LENGTH, "xs:List a -> {Int | nu == len(xs)}", "length")
        assert outcome.solved
        cons_constraints = [
            c for c in session.constraints if any("case Cons" in p for p in c.provenance)
        ]
        assert cons_constraints
        list_sort = base_sort(data_type("List", [type_var("a")]).base)
        xs, ys = Var("xs", list_sort), Var("ys", list_sort)
        unfolding = ops.eq(
            App("len", (xs,), INT),
            ops.plus(ops.int_lit(1), App("len", (ys,), INT)),
        )
        assert all(unfolding in c.premises for c in cons_constraints)

    def test_postcondition_axioms_join_premises(self):
        """Every emitted constraint carries `len(t) >= 0` for the measure
        applications it mentions."""
        session, _ = check_workload(LENGTH, "xs:List a -> {Int | nu == len(xs)}", "length")
        list_sort = base_sort(data_type("List", [type_var("a")]).base)
        xs = Var("xs", list_sort)
        nonneg = ops.ge(App("len", (xs,), INT), ops.int_lit(0))
        mentioning = [c for c in session.constraints if any("case" in p for p in c.provenance)]
        assert mentioning
        assert all(nonneg in c.premises for c in mentioning)

    def test_element_refinements_flow_into_binders(self):
        """Matching a `List {Int | nu >= 1}` gives the head binder the
        element refinement, so it can justify a positive result."""
        session, env = list_session()
        sig = parse_type(
            "xs:List ({Int | nu >= 1}) -> {Int | nu >= 0}",
            measures=session.measures,
        )
        term = parse_term("\\xs . match xs with Nil -> 0 | Cons y ys -> y")
        session.check_program(term, sig, env, where="heads")
        assert session.solve().solved

    def test_scrutinee_rebinding_is_sound(self):
        """A case binder may shadow the scrutinee itself."""
        _, outcome = check_workload(
            "fix length . \\xs . match xs with Nil -> 0 | Cons y xs -> inc (length xs)",
            "xs:List a -> {Int | nu == len(xs)}",
            "shadow",
        )
        assert outcome.solved

    def test_non_exhaustive_match_rejected(self):
        session, env = list_session()
        with pytest.raises(MatchError, match="missing Cons"):
            session.check_program(
                parse_term("\\xs . match xs with Nil -> 0"),
                parse_type("xs:List a -> Int"),
                env,
                where="partial",
            )

    def test_unknown_constructor_rejected(self):
        session, env = list_session()
        with pytest.raises(MatchError, match="not a constructor"):
            session.check_program(
                parse_term("\\xs . match xs with Nil -> 0 | Snoc y ys -> 0"),
                parse_type("xs:List a -> Int"),
                env,
                where="unknown-ctor",
            )

    def test_wrong_binder_count_rejected(self):
        session, env = list_session()
        with pytest.raises(MatchError, match="takes 2 arguments"):
            session.check_program(
                parse_term("\\xs . match xs with Nil -> 0 | Cons y -> 0"),
                parse_type("xs:List a -> Int"),
                env,
                where="arity",
            )

    def test_undeclared_datatype_rejected(self):
        session = TypecheckSession()
        env = EMPTY.bind("t", data_type("Tree", [int_type()]))
        with pytest.raises(MatchError, match="no declaration"):
            session.check_program(
                parse_term("\\t . match t with Leaf -> 0"),
                parse_type("t:Tree Int -> Int"),
                env.bind("t", data_type("Tree", [int_type()])),
                where="undeclared",
            )

    def test_non_datatype_scrutinee_rejected(self):
        session, env = list_session()
        with pytest.raises(MatchError, match="expected a datatype"):
            session.check_program(
                parse_term("\\n . match n with Nil -> 0"),
                parse_type("n:Int -> Int"),
                env,
                where="scalar-scrutinee",
            )


class TestFixTermination:
    def test_non_decreasing_recursion_refuted(self):
        """Calling fix on the same argument fails the metric obligation."""
        _, outcome = check_workload(
            "fix bad . \\xs . match xs with Nil -> 0 | Cons y ys -> bad xs",
            "xs:List a -> {Int | nu >= 0}",
            "non-decreasing",
        )
        assert not outcome.solved
        assert "case Cons" in outcome.failed.origin()

    def test_negative_int_descent_refuted(self):
        """An Int metric must stay non-negative: recursing on n - 1 without
        a lower-bound guard cannot terminate."""
        _, outcome = check_workload(
            "fix bad . \\n . bad (dec n)",
            "n:Int -> {Int | nu >= 0}",
            "negative-descent",
        )
        assert not outcome.solved

    def test_no_metric_argument_raises(self):
        session, env = list_session()
        with pytest.raises(TerminationError, match="well-founded metric"):
            session.check_program(
                parse_term("fix f . \\b . b"),
                parse_type("b:Bool -> Bool"),
                env,
                where="no-metric",
            )

    def test_fix_without_lambda_spine_raises(self):
        session, env = list_session()
        with pytest.raises(TerminationError, match="well-founded metric"):
            session.check_program(
                parse_term("fix f . f"),
                parse_type("b:Bool -> Bool"),
                env,
                where="no-lambdas",
            )

    def test_integer_accumulator_does_not_need_nonnegativity(self):
        """Structural recursion on the list with an unconstrained Int
        accumulator (passed through or decremented) must typecheck: the
        non-negativity bound belongs to the strictly-decreasing component,
        not to every metric-bearing argument."""
        for call in ("f n ys", "f (dec n) ys"):
            _, outcome = check_workload(
                f"fix f . \\n . \\xs . match xs with Nil -> n | Cons y ys -> {call}",
                "n:Int -> xs:List a -> Int",
                "accumulator",
            )
            assert outcome.solved, call

    def test_shadowed_spine_binder_keeps_its_metric(self):
        """Soundness regression: with `\\x . \\x .`, the termination metric
        of the first argument must track the renamed outer binder — the
        recursive call `f (dec x) x` never decreases the second (tested)
        argument, so the program must be refuted exactly like its
        distinct-binder alpha-variant."""
        for binders in ("\\x . \\x .", "\\w . \\x ."):
            _, outcome = check_workload(
                f"fix f . {binders} if leq x 1 then 0 else f (dec x) x",
                "p:Int -> q:Int -> Int",
                "shadow-metric",
            )
            assert not outcome.solved, binders

    def test_lambda_binder_shadowing_the_fix_name(self):
        """A lambda binder reusing the fix name shadows the recursive
        occurrence; the body must see the argument, not the recursive
        signature (and no termination metric is demanded)."""
        session, env = list_session()
        session.check_program(
            parse_term("fix f . \\f . f"),
            parse_type("f:Int -> Int"),
            env,
            where="shadowed-fix",
        )
        assert session.solve().solved

    def test_wide_signature_shares_its_escape_disjunction(self):
        """Each argument of the recursive signature may escape by a strict
        descent of any earlier one.  Those escapes form one disjunction,
        extended by one disjunct per argument and shared by every later
        position, so a 300-argument goal has a linear number of distinct
        ``||`` nodes (rebuilding it per position took quadratically many,
        about 45,000, and over a second)."""
        arity = 300
        spine = [(f"a{index}", int_type()) for index in range(arity)]
        signature = recursion_signature(TypecheckSession(), spine, int_type())
        seen, disjunctions = set(), set()
        stack = []
        while isinstance(signature, FunctionType):
            stack.append(signature.arg_type.refinement)
            signature = signature.result_type
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if isinstance(node, Binary):
                if node.op is BinaryOp.OR:
                    disjunctions.add(node)
                stack.extend((node.lhs, node.rhs))
        assert arity <= len(disjunctions) <= 2 * arity

    def test_lexicographic_second_argument(self):
        """Recursion that keeps the first list and shrinks the second is
        accepted: the first argument's metric stays equal (<=) and the
        second strictly decreases."""
        _, outcome = check_workload(
            "fix f . \\xs . \\ys . match ys with Nil -> 0 | Cons z zs -> inc (f xs zs)",
            "xs:List a -> ys:List a -> {Int | nu == len(ys)}",
            "lex",
        )
        assert outcome.solved

    def test_lexicographic_reset_of_later_component(self):
        """Genuine lexicographic descent: the first list strictly shrinks,
        which licenses the second to grow (the reverse-append shape)."""
        _, outcome = check_workload(
            "fix f . \\xs . \\ys . match xs with Nil -> 0 | Cons a as -> f as (Cons a ys)",
            "xs:List Int -> ys:List Int -> Int",
            "lex-reset",
        )
        assert outcome.solved

    def test_unbounded_escape_is_rejected(self):
        """An escape disjunct needs its own non-negativity bound: strictly
        decreasing an unconstrained Int must not license keeping the list."""
        _, outcome = check_workload(
            "fix f . \\n . \\xs . match xs with Nil -> 0 | Cons y ys -> f (dec n) xs",
            "n:Int -> xs:List a -> Int",
            "unbounded-escape",
        )
        assert not outcome.solved


class TestLiquidInferenceOverDatatypes:
    def test_length_postcondition_is_discovered(self):
        """Measure applications join the qualifier candidates, so the Horn
        solver can discover `nu == len(xs)` for length's fresh unknown."""
        session, env = list_session()
        elem = type_var("a")
        inner = env.bind("xs", data_type("List", [elem]))
        result = session.fresh_scalar(inner, INT_BASE)
        sig = arrow("xs", data_type("List", [elem]), result)
        session.check(env, parse_term(LENGTH), sig, where="length-infer")
        outcome = session.solve(minimize=True)
        assert outcome.solved
        list_sort = base_sort(data_type("List", [elem]).base)
        len_xs = App("len", (Var("xs", list_sort),), INT)
        nu = value_var(INT)
        valuation = set(outcome.assignment[result.refinement.name])
        assert ops.eq(nu, len_xs) in valuation or ops.eq(len_xs, nu) in valuation


class TestDeclarationsDriveTheChecker:
    SURFACE = """
    data List a where
        Nil :: {List a | len(nu) == 0}
      | Cons :: x:a -> xs:List a -> {List a | len(nu) == 1 + len(xs)}

    measure len :: List a -> {Int | nu >= 0} where
        Nil -> 0 | Cons x xs -> 1 + len(xs)
    """

    def test_parsed_declarations_typecheck_length(self):
        declarations = parse_declarations(self.SURFACE)
        session = TypecheckSession(
            datatypes=declarations.datatypes.values(),
            measure_defs=declarations.measures.values(),
        )
        env = session.bind_constructors(EMPTY).bind("inc", parse_type(INC))
        sig = parse_type("xs:List a -> {Int | nu == len(xs)}", measures=session.measures)
        session.check_program(parse_term(LENGTH), sig, env, where="parsed-prelude")
        assert session.solve().solved

    def test_parsed_declarations_match_the_builtin_prelude(self):
        declarations = parse_declarations(self.SURFACE)
        assert declarations.datatypes["List"] == list_datatype()
        assert declarations.measures["len"] == len_measure()


class TestApplicationUnification:
    """Type-variable unification threads through *later* curried arguments
    (ROADMAP gap closed for the synthesis enumerator): `Cons (dec n) xs`
    must instantiate the element variable from `xs` even though the first
    argument's shape is unknown at the application site."""

    @staticmethod
    def scalar_of(rtype):
        from repro.syntax.types import ContextualType

        while isinstance(rtype, ContextualType):
            rtype = rtype.body
        return rtype

    def test_later_argument_drives_instantiation(self):
        session, env = list_session()
        env = env.bind("n", int_type()).bind("xs", parse_type("List Int"))
        inferred = self.scalar_of(session.infer(env, parse_term("Cons (dec n) xs"), where="unify"))
        [elem] = inferred.base.args
        assert elem.base == INT_BASE
        assert session.solve().solved

    def test_first_argument_still_wins_when_known(self):
        session, env = list_session()
        env = env.bind("xs", parse_type("List Int"))
        inferred = self.scalar_of(session.infer(env, parse_term("Cons 3 xs"), where="unify"))
        [elem] = inferred.base.args
        assert elem.base == INT_BASE

    def test_binary_polymorphic_component(self):
        """A component whose second type variable only the second argument
        determines: `second n True` must elaborate at b := Bool."""
        from repro.syntax import generalize

        session, env = list_session()
        env = env.bind("second", generalize(parse_type("x:a -> y:b -> {b | nu == y}")))
        env = env.bind("n", int_type())
        inferred = self.scalar_of(session.infer(env, parse_term("second n True"), where="second"))
        from repro.syntax.types import BOOL_BASE

        assert inferred.base == BOOL_BASE
        assert session.solve().solved

    def test_monomorphic_checking_through_unified_constructor(self):
        _, outcome = check_workload(
            "\\n . \\xs . Cons (dec n) xs",
            "n:Int -> xs:List Int -> {List Int | len(nu) == 1 + len(xs)}",
            "cons-unified",
        )
        assert outcome.solved


class TestMeasureDefs:
    def test_unfold_per_constructor(self):
        length = len_measure()
        list_sort = length.arg_sort
        subject = Var("s", list_sort)
        assert length.unfold(subject, "Nil", []) == ops.eq(
            App("len", (subject,), INT), ops.int_lit(0)
        )
        head, tail = Var("h", VarSort("a")), Var("t", list_sort)
        cons = length.unfold(subject, "Cons", [head, tail])
        assert cons == ops.eq(
            App("len", (subject,), INT),
            ops.plus(ops.int_lit(1), App("len", (tail,), INT)),
        )

    def test_unfold_unknown_constructor_is_trivial(self):
        length = len_measure()
        assert length.unfold(Var("s", length.arg_sort), "Snoc", []) == ops.bool_lit(True)

    def test_unfold_arity_mismatch_raises(self):
        length = len_measure()
        with pytest.raises(ValueError, match="2 binders"):
            length.unfold(Var("s", length.arg_sort), "Cons", [])

    def test_unfold_with_untranslatable_binder_degrades(self):
        """A None argument that the case body needs yields the trivial
        axiom instead of an ill-formed one."""
        length = len_measure()
        subject = Var("s", length.arg_sort)
        assert length.unfold(subject, "Cons", [None, None]) == ops.bool_lit(True)
        # the head is not mentioned by len's Cons case, so it may be None
        tail = Var("t", length.arg_sort)
        assert length.unfold(subject, "Cons", [None, tail]) != ops.bool_lit(True)

    def test_boolean_measures_unfold_with_iff(self):
        list_sort = len_measure().arg_sort
        empty = MeasureDef(
            name="empty",
            datatype="List",
            arg_sort=list_sort,
            result_sort=ops.bool_lit(True).sort,
            cases=(MeasureCase("Nil", (), ops.bool_lit(True)),),
        )
        unfolded = empty.unfold(Var("s", list_sort), "Nil", [])
        assert unfolded == App("empty", (Var("s", list_sort),), ops.bool_lit(True).sort)

    def test_postcondition_instantiation_deduplicates(self):
        length = len_measure()
        xs = Var("xs", length.arg_sort)
        len_xs = App("len", (xs,), INT)
        formulas = [ops.ge(len_xs, ops.int_lit(1)), ops.eq(len_xs, ops.int_lit(2))]
        instances = instantiate_postconditions(formulas, {"len": length})
        assert instances == [ops.ge(len_xs, ops.int_lit(0))]
