"""Tests for the program syntax layer: types, terms, and the parser."""

import pytest

from repro.logic import ops
from repro.logic.formulas import TRUE, Unknown, Var, value_var
from repro.logic.sortcheck import SortError
from repro.logic.sorts import BOOL, INT, SetSort, UninterpretedSort, VarSort
from repro.syntax import (
    INT_BASE,
    Annot,
    AppTerm,
    BoolBase,
    BoolConst,
    ContextualType,
    DataBase,
    FixTerm,
    FunctionType,
    IfTerm,
    IntBase,
    IntConst,
    LambdaTerm,
    LetTerm,
    MatchCase,
    MatchTerm,
    ParseError,
    PredSig,
    ScalarType,
    TypeSchema,
    TypeVarBase,
    VarTerm,
    app,
    arrow,
    bool_type,
    data_type,
    if_,
    instantiate_schema,
    int_type,
    lam,
    lit,
    parse_formula,
    parse_program,
    parse_type,
    pretty_term,
    pretty_type,
    same_shape,
    shape,
    subst_type_vars,
    substitute_in_type,
    type_free_vars,
    type_var,
    v,
)

x = ops.var("x", INT)
y = ops.var("y", INT)
nu = value_var(INT)


ZERO, ONE = IntConst(0), IntConst(1)
CASE = MatchCase("Cons", ("y", "ys"), VarTerm("y"))

#: Sorts, base types, types and terms, each with its fields in declaration
#: order: every one is equal to the instance rebuilt from its fields, and
#: hashes as their tuple (as a frozen dataclass did).
VALUES_AND_FIELDS = [
    (INT, ()),
    (BOOL, ()),
    (UninterpretedSort("List", (INT,)), ("List", (INT,))),
    (SetSort(INT), (INT,)),
    (VarSort("a"), ("a",)),
    (IntBase(), ()),
    (BoolBase(), ()),
    (DataBase("List", (int_type(),)), ("List", (int_type(),))),
    (TypeVarBase("a"), ("a",)),
    (ScalarType(INT_BASE, ops.ge(nu, x)), (INT_BASE, ops.ge(nu, x))),
    (FunctionType("x", int_type(), bool_type()), ("x", int_type(), bool_type())),
    (ContextualType((("z", int_type()),), int_type()), ((("z", int_type()),), int_type())),
    (VarTerm("f"), ("f",)),
    (ZERO, (0,)),
    (BoolConst(True), (True,)),
    (AppTerm(VarTerm("f"), ONE), (VarTerm("f"), ONE)),
    (LambdaTerm("x", VarTerm("x")), ("x", VarTerm("x"))),
    (IfTerm(VarTerm("b"), ONE, ZERO), (VarTerm("b"), ONE, ZERO)),
    (LetTerm("z", ONE, VarTerm("z")), ("z", ONE, VarTerm("z"))),
    (CASE, ("Cons", ("y", "ys"), VarTerm("y"))),
    (MatchTerm(VarTerm("xs"), (CASE,)), (VarTerm("xs"), (CASE,))),
    (FixTerm("f", VarTerm("f")), ("f", VarTerm("f"))),
    (Annot(ONE, int_type()), (ONE, int_type())),
]


class TestValueSemantics:
    @pytest.mark.parametrize(
        "value, fields",
        VALUES_AND_FIELDS,
        ids=[type(value).__name__ for value, _ in VALUES_AND_FIELDS],
    )
    def test_equal_to_its_fields_and_hashed_as_them(self, value, fields):
        assert value == type(value)(*fields)
        assert hash(value) == hash(fields)

    @pytest.mark.parametrize(
        "lhs, rhs",
        [
            (IntConst(1), BoolConst(True)),
            (IntBase(), BoolBase()),
            (INT, BOOL),
            (FixTerm("f", ONE), LambdaTerm("f", ONE)),
            (VarTerm("a"), TypeVarBase("a")),
            (TypeVarBase("a"), VarSort("a")),
        ],
    )
    def test_different_classes_with_equal_fields_differ(self, lhs, rhs):
        assert lhs != rhs and not lhs == rhs


class TestTypes:
    def test_base_sorts(self):
        assert int_type().sort == INT
        assert bool_type().sort == BOOL
        assert type_var("a").sort == VarSort("a")
        assert data_type("List", [int_type()]).sort == UninterpretedSort("List", (INT,))

    def test_shape_erases_refinements(self):
        t = arrow("x", int_type(ops.ge(nu, x)), int_type(ops.ge(nu, ops.int_lit(0))))
        erased = shape(t)
        assert erased.arg_type.refinement == TRUE
        assert erased.result_type.refinement == TRUE

    def test_same_shape(self):
        assert same_shape(int_type(ops.ge(nu, x)), int_type())
        assert not same_shape(int_type(), bool_type())
        assert same_shape(type_var("a"), int_type())
        assert same_shape(arrow("x", int_type(), int_type()), arrow("y", int_type(), int_type()))
        assert not same_shape(arrow("x", int_type(), int_type()), int_type())
        assert same_shape(data_type("List", [int_type()]), data_type("List", [int_type()]))
        assert not same_shape(data_type("List"), data_type("Tree"))

    def test_type_free_vars_excludes_binders(self):
        t = arrow("x", int_type(), int_type(ops.and_(ops.ge(nu, x), ops.ge(nu, y))))
        assert type_free_vars(t) == {"y"}

    def test_contextual_free_vars(self):
        t = ContextualType(
            (("c", int_type(ops.eq(nu, ops.plus(x, ops.int_lit(1))))),),
            int_type(ops.eq(nu, Var("c", INT))),
        )
        assert type_free_vars(t) == {"x"}


class TestSubstitution:
    def test_scalar_substitution(self):
        t = int_type(ops.ge(nu, x))
        assert substitute_in_type(t, {"x": y}).refinement == ops.ge(nu, y)

    def test_value_var_never_substituted(self):
        t = int_type(ops.ge(nu, x))
        assert substitute_in_type(t, {"_v": y}) == t

    def test_binder_shadows_mapping(self):
        t = arrow("x", int_type(), int_type(ops.eq(nu, x)))
        # the arrow's own x is not the x being substituted
        assert substitute_in_type(t, {"x": y}).result_type.refinement == ops.eq(nu, x)

    def test_capture_avoiding_rename(self):
        # (b:Int -> {Int | nu == a + b})[b/a]: the binder must be renamed so
        # the substituted outer b is not captured.
        b = ops.var("b", INT)
        t = arrow("b", int_type(), int_type(ops.eq(nu, ops.plus(ops.var("a", INT), b))))
        result = substitute_in_type(t, {"a": b})
        assert result.arg_name == "b'"
        renamed = ops.var("b'", INT)
        assert result.result_type.refinement == ops.eq(nu, ops.plus(b, renamed))

    def test_subst_type_vars_conjoins_refinements(self):
        t = type_var("a", ops.ge(nu, x))
        target = int_type(ops.ge(nu, ops.int_lit(0)))
        result = subst_type_vars(t, {"a": target})
        assert result.base == int_type().base
        assert result.refinement == ops.and_(ops.ge(nu, ops.int_lit(0)), ops.ge(nu, x))

    def test_subst_type_vars_function_target(self):
        t = arrow("x", type_var("a"), type_var("a"))
        target = arrow("z", int_type(), int_type())
        result = subst_type_vars(t, {"a": target})
        assert isinstance(result.arg_type, FunctionType)
        assert isinstance(result.result_type, FunctionType)

    def test_subst_type_vars_rejects_refined_function_instantiation(self):
        t = type_var("a", ops.ge(nu, x))
        with pytest.raises(TypeError):
            subst_type_vars(t, {"a": arrow("z", int_type(), int_type())})


class TestSchemas:
    def test_predicate_instantiation(self):
        body = arrow("x", int_type(), ScalarType(int_type().base, Unknown("P")))
        schema = TypeSchema((), (PredSig("P", (INT,)),), body)
        result = instantiate_schema(schema, pred_args={"P": "_P7"})
        assert result.result_type.refinement == Unknown("_P7")

    def test_type_var_instantiation(self):
        schema = TypeSchema(("a",), (), arrow("x", type_var("a"), type_var("a")))
        result = instantiate_schema(schema, type_args={"a": int_type()})
        assert result.arg_type == int_type()
        assert result.result_type == int_type()


class TestTerms:
    def test_builders(self):
        term = lam("x", "y", body=if_(v("c"), app(v("f"), v("x"), v("y")), lit(0)))
        assert term.arg_name == "x"
        assert term.body.arg_name == "y"
        conditional = term.body.body
        assert conditional.cond == v("c")
        assert conditional.then_.fun.fun == v("f")

    def test_e_term_classification(self):
        assert v("x").is_e_term()
        assert lit(3).is_e_term()
        assert lit(True).is_e_term()
        assert app(v("f"), v("x")).is_e_term()
        assert not lam("x", body=v("x")).is_e_term()
        assert not if_(v("c"), v("x"), v("y")).is_e_term()

    def test_builder_validation(self):
        with pytest.raises(ValueError):
            app(v("f"))
        with pytest.raises(ValueError):
            lam("x")

    def test_pretty(self):
        term = lam("x", body=if_(v("c"), app(v("f"), v("x")), lit(0)))
        assert pretty_term(term) == "\\x . if c then f x else 0"


class TestFormulaParser:
    def test_precedence(self):
        parsed = parse_formula("x + y * 2 <= x - 1", {"x": INT, "y": INT})
        expected = ops.le(ops.plus(x, ops.times(y, ops.int_lit(2))), ops.minus(x, ops.int_lit(1)))
        assert parsed == expected

    def test_boolean_connectives(self):
        parsed = parse_formula("x <= y && !(x == y) ==> x < y || False", {"x": INT, "y": INT})
        expected = ops.implies(
            ops.and_(ops.le(x, y), ops.not_(ops.eq(x, y))),
            ops.or_(ops.lt(x, y), ops.bool_lit(False)),
        )
        assert parsed == expected

    def test_implication_is_right_associative(self):
        a, b, c = (ops.var(name, BOOL) for name in "abc")
        scope = {"a": BOOL, "b": BOOL, "c": BOOL}
        assert parse_formula("a ==> b ==> c", scope) == ops.implies(a, ops.implies(b, c))

    def test_value_variable_needs_sort(self):
        assert parse_formula("nu >= x", {"x": INT}, value_sort=INT) == ops.ge(nu, x)
        with pytest.raises(ParseError):
            parse_formula("nu >= x", {"x": INT})

    def test_unary_minus(self):
        assert parse_formula("-x <= 0", {"x": INT}) == ops.le(ops.neg(x), ops.int_lit(0))

    def test_measures(self):
        measures = {"len": ((INT,), INT)}
        parsed = parse_formula("len(x) >= 0", {"x": INT}, measures=measures)
        assert parsed == ops.ge(ops.measure("len", x, INT), ops.int_lit(0))

    def test_set_literals_and_membership(self):
        parsed = parse_formula("x in [x, y]", {"x": INT, "y": INT})
        assert parsed == ops.member(x, ops.set_lit(INT, [x, y]))
        with pytest.raises(ParseError):
            parse_formula("x in []", {"x": INT})

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_formula("x @ y", {"x": INT, "y": INT})
        with pytest.raises(ParseError):
            parse_formula("x +", {"x": INT})
        with pytest.raises(ParseError):
            parse_formula("(x", {"x": INT})
        with pytest.raises(ParseError):
            parse_formula("unbound + 1", {})
        with pytest.raises(ParseError):
            parse_formula("len(x)", {"x": INT})  # unknown measure
        with pytest.raises(ParseError):
            parse_formula("f(x, y)", {"x": INT, "y": INT}, measures={"f": ((INT,), INT)})


class TestIllSortedDeclarations:
    """Inside a program an ill-sorted formula is a parse error at its
    declaration; a formula parsed on its own keeps the sort checker's
    :class:`SortError`."""

    def test_ill_sorted_refinement_is_a_parse_error(self):
        with pytest.raises(ParseError, match="must have sort Int") as caught:
            parse_program("f :: {Int | nu + True > 0}\n")
        assert isinstance(caught.value.__cause__, SortError)

    def test_ill_sorted_measure_case_is_a_parse_error(self):
        source = "data L where\n    N :: L\n\nmeasure size :: L -> Int where\n    N -> 1 + True\n"
        with pytest.raises(ParseError, match="must have sort Int") as caught:
            parse_program(source)
        assert "measure size" in str(caught.value)

    @pytest.mark.parametrize(
        "source,position",
        [
            ("f :: {Int | nu + True > 0}\n", 12),
            ("f :: {Int | nu + 1}\n", 12),
            ("data L where\n    N :: L\n\nmeasure size :: L -> Int where\n    N -> 1 + True\n", 40),
            ("data L where\n    N :: L\n\nmeasure size :: L -> Int where\n    N -> True\n", 40),
        ],
        ids=[
            "ill-sorted-operand",
            "int-refinement",
            "ill-sorted-measure-case",
            "bool-measure-case",
        ],
    )
    def test_error_points_at_the_formula(self, source, position):
        """The position is the formula's first token (in the measure's own
        text for a measure case), not the token after the formula."""
        with pytest.raises(ParseError) as caught:
            parse_program(source)
        assert caught.value.position == position

    def test_a_lone_formula_keeps_sort_error(self):
        with pytest.raises(SortError, match="must have sort Int") as caught:
            parse_formula("x + True > 0", {"x": INT})
        assert not isinstance(caught.value, ParseError)


class TestTypeParser:
    def test_scalar_sugar(self):
        assert parse_type("Int") == int_type()
        assert parse_type("Bool") == bool_type()
        assert parse_type("{Int | nu >= 0}") == int_type(ops.ge(nu, ops.int_lit(0)))

    def test_dependent_arrow(self):
        parsed = parse_type("x:Int -> y:Int -> {Int | nu >= x && nu >= y}")
        assert parsed == arrow(
            "x",
            int_type(),
            arrow("y", int_type(), int_type(ops.and_(ops.ge(nu, x), ops.ge(nu, y)))),
        )

    def test_anonymous_arrow_binders(self):
        parsed = parse_type("Int -> Int")
        assert isinstance(parsed, FunctionType)
        assert parsed.arg_name.startswith("_arg")

    def test_refinements_see_outer_scope(self):
        parsed = parse_type("{Int | nu >= lo}", scope={"lo": INT})
        assert parsed.refinement == ops.ge(nu, ops.var("lo", INT))

    def test_binder_leaves_scope_after_arrow(self):
        with pytest.raises(ParseError):
            parse_type("(x:Int -> Int) -> {Int | nu >= x}")

    def test_datatypes_and_type_vars(self):
        parsed = parse_type("xs:List Int -> {Int | nu >= 0}")
        assert parsed.arg_type.base == DataBase("List", (int_type(),))
        assert parse_type("a") == type_var("a")
        parenthesized = parse_type("List ({Int | nu >= 0})")
        assert parenthesized.base.args[0] == int_type(ops.ge(nu, ops.int_lit(0)))

    def test_datatype_argument_forms(self):
        assert parse_type("List a").base == DataBase("List", (type_var("a"),))
        pair = parse_type("Pair (List Int) Bool")
        assert pair.base == DataBase("Pair", (data_type("List", [int_type()]), bool_type()))
        assert parse_type("Pair Maybe a").base == DataBase(
            "Pair", (data_type("Maybe"), type_var("a"))
        )

    def test_higher_order_argument(self):
        parsed = parse_type("f:(Int -> Int) -> Int")
        assert isinstance(parsed.arg_type, FunctionType)

    def test_pretty_type(self):
        text = "x:Int -> {Int | (nu >= x)}"
        assert pretty_type(parse_type(text)) == text

    def test_type_parse_errors(self):
        with pytest.raises(ParseError):
            parse_type("x:Int")  # binder without arrow
        with pytest.raises(ParseError):
            parse_type("{Int | nu >= missing}")
        with pytest.raises(ParseError):
            parse_type("Int Int")  # trailing input
        with pytest.raises(ParseError):
            parse_type("->")
