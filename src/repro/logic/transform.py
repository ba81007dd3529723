"""Generic traversals over refinement formulas.

Provides a bottom-up map (:func:`transform`), subterm iteration
(:func:`subterms`), and the readers of the facts every formula node caches
(free variables, unknowns, measure applications, set mentions; see
:mod:`repro.logic.formulas`), used by substitution, the qualifier
extractor, the Horn solver and the SMT front end.
"""

from __future__ import annotations

from operator import is_
from typing import AbstractSet, Callable, Iterator, Optional, Tuple

from .formulas import (
    App,
    Binary,
    BoolLit,
    Formula,
    IntLit,
    Ite,
    SetLit,
    Unary,
    Unknown,
    Var,
)


#: Node classes without formula children.
_LEAVES = frozenset((BoolLit, IntLit, Var, Unknown))


def transform(
    formula: Formula,
    fn: Callable[[Formula], Formula],
    changes: Optional[Callable[[Formula], object]] = None,
) -> Formula:
    """Rebuild ``formula`` bottom-up, applying ``fn`` to every node after its
    children have been transformed.

    ``fn`` is called exactly once per node, in post-order with children
    left to right; callers rely on that order (fresh-name and placeholder
    numbering follow it).  Unchanged subtrees are shared: a node is rebuilt
    only when some child came back as a different object, otherwise ``fn``
    receives the original node, so ``transform(f, lambda n: n) is f``.

    With ``changes``, a subtree for which ``changes(root)`` is false is
    returned as it is, and ``fn`` never sees its nodes.  That gives the
    same result only when ``fn`` is pure and would return each of those
    nodes unchanged; the rewrites of :mod:`repro.logic.substitution`
    decide it from the node's cached facts.
    """
    if changes is not None and not changes(formula):
        return formula
    kind = formula.__class__
    if kind is Binary:
        lhs = transform(formula.lhs, fn, changes)
        rhs = transform(formula.rhs, fn, changes)
        if lhs is not formula.lhs or rhs is not formula.rhs:
            formula = Binary(formula.op, lhs, rhs)
        return fn(formula)
    if kind in _LEAVES:
        return fn(formula)
    if kind is Unary:
        arg = transform(formula.arg, fn, changes)
        if arg is not formula.arg:
            formula = Unary(formula.op, arg)
        return fn(formula)
    if kind is App:
        args = _transform_all(formula.args, fn, changes)
        if args is not formula.args:
            formula = App(formula.func, args, formula.result_sort)
        return fn(formula)
    if kind is Ite:
        cond = transform(formula.cond, fn, changes)
        then_ = transform(formula.then_, fn, changes)
        else_ = transform(formula.else_, fn, changes)
        if cond is not formula.cond or then_ is not formula.then_ or else_ is not formula.else_:
            formula = Ite(cond, then_, else_)
        return fn(formula)
    if kind is SetLit:
        elements = _transform_all(formula.elements, fn, changes)
        if elements is not formula.elements:
            formula = SetLit(formula.element_sort, elements)
        return fn(formula)
    raise TypeError(f"unknown formula node: {formula!r}")


def _transform_all(
    children: Tuple[Formula, ...],
    fn: Callable[[Formula], Formula],
    changes: Optional[Callable[[Formula], object]],
) -> Tuple[Formula, ...]:
    """Transform each child in order; ``children`` itself when none changed."""
    results = tuple([transform(child, fn, changes) for child in children])
    return children if all(map(is_, results, children)) else results


def subterms(formula: Formula) -> Iterator[Formula]:
    """Yield every subterm of ``formula`` (including itself), pre-order."""
    yield formula
    if isinstance(formula, Unary):
        yield from subterms(formula.arg)
    elif isinstance(formula, Binary):
        yield from subterms(formula.lhs)
        yield from subterms(formula.rhs)
    elif isinstance(formula, Ite):
        yield from subterms(formula.cond)
        yield from subterms(formula.then_)
        yield from subterms(formula.else_)
    elif isinstance(formula, App):
        for arg in formula.args:
            yield from subterms(arg)
    elif isinstance(formula, SetLit):
        for el in formula.elements:
            yield from subterms(el)


# -- cached facts ---------------------------------------------------------


def free_vars(formula: Formula) -> AbstractSet[str]:
    """Names of all variables occurring in ``formula``."""
    return formula._vars


def unknowns(formula: Formula) -> AbstractSet[str]:
    """Names of all predicate unknowns occurring in ``formula``."""
    return formula._unknowns


def has_unknowns(formula: Formula) -> bool:
    """Does ``formula`` contain any predicate unknown?"""
    return bool(formula._unknowns)


def measure_apps(formula: Formula) -> AbstractSet[App]:
    """All uninterpreted-function applications occurring in ``formula``."""
    if formula.__class__ is App:
        return formula._apps | {formula}
    return formula._apps


def mentions_sets(formula: Formula) -> bool:
    """Does the formula contain any set-sorted subterm or set predicate?"""
    return formula._sets
