"""Tests for the refinement logic: formulas, ops, simplify, substitution."""

from repro.logic import ops
from repro.logic.formulas import (
    FALSE,
    TRUE,
    App,
    Binary,
    BinaryOp,
    BoolLit,
    IntLit,
    Ite,
    SetLit,
    Unary,
    Unknown,
    Var,
    intern_formula,
    value_var,
)
from repro.logic.simplify import conjuncts, negation_normal_form, simplify
from repro.logic.sorts import BOOL, INT, SetSort
from repro.logic.substitution import (
    apply_assignment,
    instantiate_value_var,
    rename,
    substitute,
)
from repro.logic.transform import free_vars, has_unknowns, subterms, transform

x = ops.var("x", INT)
y = ops.var("y", INT)
p = ops.var("p", BOOL)


class TestOps:
    def test_boolean_unit_folding(self):
        assert ops.and_(TRUE, p) == p
        assert ops.and_(p, FALSE) == FALSE
        assert ops.or_(FALSE, p) == p
        assert ops.or_(p, TRUE) == TRUE
        assert ops.implies(FALSE, p) == TRUE
        assert ops.implies(p, FALSE) == ops.not_(p)
        assert ops.not_(ops.not_(p)) == p

    def test_arithmetic_folding(self):
        assert ops.plus(IntLit(2), IntLit(3)) == IntLit(5)
        assert ops.minus(IntLit(2), IntLit(3)) == IntLit(-1)
        assert ops.times(IntLit(2), IntLit(3)) == IntLit(6)
        assert ops.lt(IntLit(1), IntLit(2)) == TRUE
        assert ops.ge(IntLit(1), IntLit(2)) == FALSE

    def test_equality_folding(self):
        assert ops.eq(x, x) == TRUE
        assert ops.neq(x, x) == FALSE
        assert ops.eq(IntLit(1), IntLit(2)) == FALSE

    def test_conj_disj(self):
        assert ops.conj([]) == TRUE
        assert ops.disj([]) == FALSE
        assert ops.conj([p]) == p


class TestHashing:
    def test_structural_equality_and_hash(self):
        f1 = ops.le(ops.var("x", INT), ops.var("y", INT))
        f2 = ops.le(ops.var("x", INT), ops.var("y", INT))
        assert f1 is not f2
        assert f1 == f2
        assert hash(f1) == hash(f2)

    def test_distinct_formulas_differ(self):
        assert ops.le(x, y) != ops.lt(x, y)
        assert ops.le(x, y) != ops.le(y, x)
        assert Var("x", INT) != Var("x", BOOL)

    def test_formulas_as_dict_keys(self):
        table = {ops.le(x, y): "le", ops.lt(x, y): "lt"}
        assert table[ops.le(ops.var("x", INT), y)] == "le"

    def test_interning_canonicalizes(self):
        f1 = intern_formula(ops.and_(ops.le(x, y), ops.neq(x, y)))
        f2 = intern_formula(ops.and_(ops.le(x, y), ops.neq(x, y)))
        assert f1 is f2
        # children are canonical too
        assert intern_formula(ops.le(x, y)) is f1.lhs

    def test_unknown_hashable_with_substitution(self):
        u1 = Unknown("P", (("_v", x),))
        u2 = Unknown("P", (("_v", x),))
        assert u1 == u2 and hash(u1) == hash(u2)
        assert u1 != Unknown("P", (("_v", y),))


class TestSimplify:
    def test_constant_folding_fixpoint(self):
        messy = ops.and_(
            Binary(BinaryOp.AND, TRUE, ops.le(x, y)),
            Binary(BinaryOp.OR, FALSE, TRUE),
        )
        assert simplify(messy) == ops.le(x, y)

    def test_nnf_pushes_negation(self):
        formula = ops.not_(ops.and_(p, ops.or_(p, ops.le(x, y))))
        nnf = negation_normal_form(formula)
        # no negation above a connective
        for node in subterms(nnf):
            if isinstance(node, Binary) and node.op in (BinaryOp.AND, BinaryOp.OR):
                continue
        assert negation_normal_form(ops.not_(ops.not_(p))) == p

    def test_nnf_implication(self):
        nnf = negation_normal_form(ops.not_(Binary(BinaryOp.IMPLIES, p, ops.le(x, y))))
        assert nnf == ops.and_(p, ops.not_(ops.le(x, y)))

    def test_conjuncts(self):
        formula = ops.conj([ops.le(x, y), ops.neq(x, y), TRUE])
        assert conjuncts(formula) == [ops.le(x, y), ops.neq(x, y)]


class TestSubstitution:
    def test_substitute_variable(self):
        formula = ops.le(x, y)
        assert substitute(formula, {"x": IntLit(0)}) == ops.le(IntLit(0), y)

    def test_rename_keeps_sort(self):
        renamed = rename(ops.le(x, y), {"x": "z"})
        assert renamed == ops.le(ops.var("z", INT), y)

    def test_substitution_composes_on_unknowns(self):
        u = Unknown("P", (("a", x),))
        result = substitute(u, {"x": y, "b": IntLit(1)})
        assert isinstance(result, Unknown)
        pending = dict(result.substitution)
        assert pending["a"] == y  # applied to the pending value
        assert pending["b"] == IntLit(1)  # added for later
        assert pending["x"] == y

    def test_apply_assignment(self):
        formula = ops.and_(Unknown("P"), ops.le(x, y))
        applied = apply_assignment(formula, {"P": [ops.neq(x, y)]})
        assert applied == ops.and_(ops.neq(x, y), ops.le(x, y))
        # missing unknowns become True
        assert apply_assignment(Unknown("Q"), {}) == TRUE

    def test_apply_assignment_pending_substitution(self):
        u = Unknown("P", (("_v", x),))
        nu = value_var(INT)
        applied = apply_assignment(u, {"P": [ops.le(nu, y)]})
        assert applied == ops.le(x, y)

    def test_instantiate_value_var(self):
        nu = value_var(INT)
        assert instantiate_value_var(ops.ge(nu, x), y) == ops.ge(y, x)

    def test_free_vars_and_unknowns(self):
        formula = ops.and_(Unknown("P"), ops.le(x, y))
        assert free_vars(formula) == {"x", "y"}
        assert has_unknowns(formula)
        assert not has_unknowns(ops.le(x, y))


def _every_kind(with_unknown=True):
    """A formula with a node of every kind (the Unknown optional)."""
    elems = ops.measure("elems", ops.var("xs", INT), SetSort(INT))
    picked = ops.member(ops.ite(p, ops.neg(x), IntLit(3)), ops.union(ops.singleton(y), elems))
    rest = Binary(BinaryOp.AND, ops.not_(p), TRUE)
    if with_unknown:
        rest = Binary(BinaryOp.OR, Unknown("P", (("_v", x),)), rest)
    return Binary(BinaryOp.AND, picked, rest)


class TestCopyFreeRewriting:
    """Rewrites share every subtree they leave unchanged."""

    def test_identity_transform_returns_the_same_object(self):
        formula = _every_kind()
        kinds = {type(node) for node in subterms(formula)}
        assert kinds == {BoolLit, IntLit, Var, Unknown, Unary, Binary, Ite, App, SetLit}
        assert transform(formula, lambda node: node) is formula

    def test_rewrites_that_change_nothing_return_the_same_object(self):
        formula = _every_kind(with_unknown=False)
        assert substitute(formula, {"absent": x}) is formula
        assert rename(formula, {"absent": "z"}) is formula
        assert apply_assignment(formula, {"P": [ops.le(x, y)]}) is formula
        simple = ops.and_(ops.le(x, y), ops.or_(p, ops.neq(x, IntLit(0))))
        assert simplify(simple) is simple

    def test_only_the_changed_spine_is_rebuilt(self):
        untouched = ops.le(y, IntLit(3))
        formula = ops.and_(ops.le(x, y), untouched)
        result = substitute(formula, {"x": IntLit(0)})
        assert result == ops.and_(ops.le(IntLit(0), y), untouched)
        assert result.rhs is untouched

    def test_callback_order_is_post_order_left_to_right(self):
        length = ops.measure("len", x, INT)
        larger = ops.app("max", [x, y], INT)
        formula = ops.ite(p, length, larger)
        visited = []

        def record(node):
            visited.append(node)
            return node

        transform(formula, record)
        assert visited == [p, x, length, x, y, larger, formula]

