"""Formula simplification.

The simplifier performs cheap, purely syntactic rewrites (constant folding,
unit laws, flattening of equal operands).  It is used to keep verification
conditions small before they reach the SMT substrate and to normalise
abduced branch conditions before they are turned into program guards.
"""

from __future__ import annotations

from typing import List

from . import ops
from .formulas import (
    Binary,
    BinaryOp,
    BoolLit,
    Formula,
    Unary,
    UnaryOp,
    is_true,
)
from .transform import transform


def simplify(formula: Formula) -> Formula:
    """Apply local simplification rules bottom-up until no rule applies.

    A formula no rule changes is returned as the same object.
    """
    current = formula
    # The rule set strictly decreases formula size, so this terminates fast.
    while True:
        simplified = transform(current, _simplify_node)
        if simplified == current:
            return current
        current = simplified


def _simplify_node(node: Formula) -> Formula:
    if isinstance(node, Unary):
        if node.op is UnaryOp.NOT:
            return ops.not_(node.arg)
        return ops.neg(node.arg)
    if isinstance(node, Binary):
        return _simplify_binary(node)
    return node


#: The smart constructor that re-folds each simplifiable binary operator.
_BUILDERS = {
    BinaryOp.AND: ops.and_,
    BinaryOp.OR: ops.or_,
    BinaryOp.IMPLIES: ops.implies,
    BinaryOp.IFF: ops.iff,
    BinaryOp.PLUS: ops.plus,
    BinaryOp.MINUS: ops.minus,
    BinaryOp.TIMES: ops.times,
    BinaryOp.LT: ops.lt,
    BinaryOp.LE: ops.le,
    BinaryOp.GT: ops.gt,
    BinaryOp.GE: ops.ge,
    BinaryOp.EQ: ops.eq,
    BinaryOp.NEQ: ops.neq,
    BinaryOp.UNION: ops.union,
}


def _simplify_binary(node: Binary) -> Formula:
    builder = _BUILDERS.get(node.op)
    if builder is None:
        return node
    return builder(node.lhs, node.rhs)


def conjuncts(formula: Formula) -> List[Formula]:
    """Split a formula into its top-level conjuncts (dropping ``True``),
    left to right."""
    result: List[Formula] = []
    # An explicit stack, not a recursive closure: a closure that calls
    # itself is a reference cycle, and this runs once per obligation.
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Binary) and node.op is BinaryOp.AND:
            stack.append(node.rhs)
            stack.append(node.lhs)
        elif not is_true(node):
            result.append(node)
    return result


def negation_normal_form(formula: Formula) -> Formula:
    """Push negations to the atoms (used by the SMT preprocessor)."""
    return _nnf(formula, positive=True)


def _nnf(formula: Formula, positive: bool) -> Formula:
    if isinstance(formula, Unary) and formula.op is UnaryOp.NOT:
        return _nnf(formula.arg, not positive)
    if isinstance(formula, BoolLit):
        return ops.bool_lit(formula.value if positive else not formula.value)
    if isinstance(formula, Binary):
        op = formula.op
        if op is BinaryOp.AND:
            combine = ops.and_ if positive else ops.or_
            return combine(_nnf(formula.lhs, positive), _nnf(formula.rhs, positive))
        if op is BinaryOp.OR:
            combine = ops.or_ if positive else ops.and_
            return combine(_nnf(formula.lhs, positive), _nnf(formula.rhs, positive))
        if op is BinaryOp.IMPLIES:
            if positive:
                return ops.or_(_nnf(formula.lhs, False), _nnf(formula.rhs, True))
            return ops.and_(_nnf(formula.lhs, True), _nnf(formula.rhs, False))
        if op is BinaryOp.IFF:
            both = ops.and_(
                ops.implies(formula.lhs, formula.rhs),
                ops.implies(formula.rhs, formula.lhs),
            )
            return _nnf(both, positive)
    # Atom (comparison, equality, membership, unknown, variable...).
    return formula if positive else ops.not_(formula)
