"""Smart constructors for refinement formulas.

These perform light constant folding (so that, e.g., conjunction with
``True`` disappears) which keeps generated verification conditions small.
All code in the repository builds formulas through this module rather than
instantiating the dataclasses in :mod:`repro.logic.formulas` directly.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .formulas import (
    FALSE,
    TRUE,
    App,
    Binary,
    BinaryOp,
    BoolLit,
    Formula,
    IntLit,
    Ite,
    SetLit,
    Unary,
    UnaryOp,
    Var,
    is_false,
    is_true,
)
from .sorts import Sort


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------

def var(name: str, sort: Sort) -> Var:
    """A logical variable."""
    return Var(name, sort)


def int_lit(value: int) -> IntLit:
    """An integer literal."""
    return IntLit(value)


def bool_lit(value: bool) -> BoolLit:
    """A boolean literal."""
    return TRUE if value else FALSE


def measure(name: str, arg: Formula, result_sort: Sort) -> App:
    """Application of a unary measure (uninterpreted function)."""
    return App(name, (arg,), result_sort)


def app(name: str, args: Sequence[Formula], result_sort: Sort) -> App:
    """Application of an n-ary uninterpreted function."""
    return App(name, tuple(args), result_sort)


# ---------------------------------------------------------------------------
# boolean connectives
# ---------------------------------------------------------------------------

def not_(formula: Formula) -> Formula:
    """Logical negation with folding of literals and double negation."""
    if is_true(formula):
        return FALSE
    if is_false(formula):
        return TRUE
    if isinstance(formula, Unary) and formula.op is UnaryOp.NOT:
        return formula.arg
    return Unary(UnaryOp.NOT, formula)


def and_(lhs: Formula, rhs: Formula) -> Formula:
    """Binary conjunction with unit folding."""
    if is_true(lhs):
        return rhs
    if is_true(rhs):
        return lhs
    if is_false(lhs) or is_false(rhs):
        return FALSE
    if lhs == rhs:
        return lhs
    return Binary(BinaryOp.AND, lhs, rhs)


def or_(lhs: Formula, rhs: Formula) -> Formula:
    """Binary disjunction with unit folding."""
    if is_false(lhs):
        return rhs
    if is_false(rhs):
        return lhs
    if is_true(lhs) or is_true(rhs):
        return TRUE
    if lhs == rhs:
        return lhs
    return Binary(BinaryOp.OR, lhs, rhs)


def conj(formulas: Iterable[Formula]) -> Formula:
    """Conjunction of an iterable of formulas (``True`` if empty)."""
    result: Formula = TRUE
    for formula in formulas:
        result = and_(result, formula)
    return result


def disj(formulas: Iterable[Formula]) -> Formula:
    """Disjunction of an iterable of formulas (``False`` if empty)."""
    result: Formula = FALSE
    for formula in formulas:
        result = or_(result, formula)
    return result


def implies(lhs: Formula, rhs: Formula) -> Formula:
    """Implication with unit folding."""
    if is_true(lhs):
        return rhs
    if is_false(lhs) or is_true(rhs):
        return TRUE
    if is_false(rhs):
        return not_(lhs)
    return Binary(BinaryOp.IMPLIES, lhs, rhs)


def iff(lhs: Formula, rhs: Formula) -> Formula:
    """Bi-implication with unit folding."""
    if is_true(lhs):
        return rhs
    if is_true(rhs):
        return lhs
    if is_false(lhs):
        return not_(rhs)
    if is_false(rhs):
        return not_(lhs)
    if lhs == rhs:
        return TRUE
    return Binary(BinaryOp.IFF, lhs, rhs)


def ite(cond: Formula, then_: Formula, else_: Formula) -> Formula:
    """If-then-else refinement term."""
    if is_true(cond):
        return then_
    if is_false(cond):
        return else_
    if then_ == else_:
        return then_
    return Ite(cond, then_, else_)


# ---------------------------------------------------------------------------
# arithmetic and comparisons
# ---------------------------------------------------------------------------

def neg(arg: Formula) -> Formula:
    """Integer negation."""
    if isinstance(arg, IntLit):
        return IntLit(-arg.value)
    return Unary(UnaryOp.NEG, arg)


def _arith(op: BinaryOp, lhs: Formula, rhs: Formula) -> Formula:
    if isinstance(lhs, IntLit) and isinstance(rhs, IntLit):
        if op is BinaryOp.PLUS:
            return IntLit(lhs.value + rhs.value)
        if op is BinaryOp.MINUS:
            return IntLit(lhs.value - rhs.value)
        if op is BinaryOp.TIMES:
            return IntLit(lhs.value * rhs.value)
    return Binary(op, lhs, rhs)


def plus(lhs: Formula, rhs: Formula) -> Formula:
    """Integer addition."""
    return _arith(BinaryOp.PLUS, lhs, rhs)


def minus(lhs: Formula, rhs: Formula) -> Formula:
    """Integer subtraction."""
    return _arith(BinaryOp.MINUS, lhs, rhs)


def times(lhs: Formula, rhs: Formula) -> Formula:
    """Integer multiplication (only linear uses are decidable)."""
    return _arith(BinaryOp.TIMES, lhs, rhs)


def _compare(op: BinaryOp, lhs: Formula, rhs: Formula) -> Formula:
    if isinstance(lhs, IntLit) and isinstance(rhs, IntLit):
        table = {
            BinaryOp.LT: lhs.value < rhs.value,
            BinaryOp.LE: lhs.value <= rhs.value,
            BinaryOp.GT: lhs.value > rhs.value,
            BinaryOp.GE: lhs.value >= rhs.value,
        }
        return bool_lit(table[op])
    return Binary(op, lhs, rhs)


def lt(lhs: Formula, rhs: Formula) -> Formula:
    """Strictly-less-than comparison."""
    return _compare(BinaryOp.LT, lhs, rhs)


def le(lhs: Formula, rhs: Formula) -> Formula:
    """Less-than-or-equal comparison."""
    return _compare(BinaryOp.LE, lhs, rhs)


def gt(lhs: Formula, rhs: Formula) -> Formula:
    """Strictly-greater-than comparison."""
    return _compare(BinaryOp.GT, lhs, rhs)


def ge(lhs: Formula, rhs: Formula) -> Formula:
    """Greater-than-or-equal comparison."""
    return _compare(BinaryOp.GE, lhs, rhs)


def eq(lhs: Formula, rhs: Formula) -> Formula:
    """Polymorphic equality."""
    if lhs == rhs:
        return TRUE
    if isinstance(lhs, IntLit) and isinstance(rhs, IntLit):
        return bool_lit(lhs.value == rhs.value)
    if isinstance(lhs, BoolLit) and isinstance(rhs, BoolLit):
        return bool_lit(lhs.value == rhs.value)
    return Binary(BinaryOp.EQ, lhs, rhs)


def neq(lhs: Formula, rhs: Formula) -> Formula:
    """Polymorphic disequality."""
    if isinstance(lhs, IntLit) and isinstance(rhs, IntLit):
        return bool_lit(lhs.value != rhs.value)
    if lhs == rhs:
        return FALSE
    return Binary(BinaryOp.NEQ, lhs, rhs)


# ---------------------------------------------------------------------------
# sets
# ---------------------------------------------------------------------------

def empty_set(element_sort: Sort) -> SetLit:
    """The empty set of the given element sort."""
    return SetLit(element_sort, ())


def singleton(element: Formula) -> SetLit:
    """The singleton set ``[element]``."""
    return SetLit(element.sort, (element,))


def set_lit(element_sort: Sort, elements: Sequence[Formula]) -> SetLit:
    """A finite set literal."""
    return SetLit(element_sort, tuple(elements))


def union(lhs: Formula, rhs: Formula) -> Formula:
    """Set union; folds unions of literals."""
    if isinstance(lhs, SetLit) and not lhs.elements:
        return rhs
    if isinstance(rhs, SetLit) and not rhs.elements:
        return lhs
    if isinstance(lhs, SetLit) and isinstance(rhs, SetLit):
        return SetLit(lhs.element_sort, lhs.elements + rhs.elements)
    return Binary(BinaryOp.UNION, lhs, rhs)


def intersect(lhs: Formula, rhs: Formula) -> Formula:
    """Set intersection."""
    return Binary(BinaryOp.INTERSECT, lhs, rhs)


def set_diff(lhs: Formula, rhs: Formula) -> Formula:
    """Set difference."""
    return Binary(BinaryOp.DIFF, lhs, rhs)


def member(element: Formula, the_set: Formula) -> Formula:
    """Set membership predicate."""
    return Binary(BinaryOp.MEMBER, element, the_set)


def subset(lhs: Formula, rhs: Formula) -> Formula:
    """Subset-or-equal predicate."""
    return Binary(BinaryOp.SUBSET, lhs, rhs)


# Integer zero/one, used all over the component library.
ZERO = IntLit(0)
ONE = IntLit(1)
