"""Walk-based reference answers for the facts formula nodes cache.

Every formula node carries its free variables, unknowns, uninterpreted
applications and whether it mentions sets, computed once from its
children (:mod:`repro.logic.formulas`), and the rewrites of
:mod:`repro.logic.substitution` skip the subtrees those facts rule out.
This module answers the same questions the way the library did before
the facts existed: by walking every subterm, and by rewriting every node.
The differential tests in ``test_logic.py`` pin the cached answers to it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Set

from repro.logic import ops
from repro.logic.formulas import (
    App,
    Binary,
    BinaryOp,
    Formula,
    Ite,
    SetLit,
    Unary,
    Unknown,
    Var,
)
from repro.logic.sorts import SetSort
from repro.logic.transform import transform


def subterms(formula: Formula) -> Iterator[Formula]:
    """Every subterm of ``formula`` (itself included), pre-order.  The
    pending substitution of an unknown is not a subterm."""
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
        for element in formula.elements:
            yield from subterms(element)


def free_vars(formula: Formula) -> Set[str]:
    return {node.name for node in subterms(formula) if isinstance(node, Var)}


def unknowns(formula: Formula) -> Set[str]:
    return {node.name for node in subterms(formula) if isinstance(node, Unknown)}


def measure_apps(formula: Formula) -> Set[App]:
    return {node for node in subterms(formula) if isinstance(node, App)}


def mentions_sets(formula: Formula) -> bool:
    for node in subterms(formula):
        if isinstance(node, SetLit) or isinstance(node.sort, SetSort):
            return True
        if isinstance(node, Binary) and node.op in (BinaryOp.MEMBER, BinaryOp.SUBSET):
            return True
    return False


# -- rewrites that visit every node -------------------------------------------


def substitute(formula: Formula, mapping: Mapping[str, Formula]) -> Formula:
    if not mapping:
        return formula

    def replace(node: Formula) -> Formula:
        if isinstance(node, Var) and node.name in mapping:
            return mapping[node.name]
        if isinstance(node, Unknown):
            composed: Dict[str, Formula] = {
                name: substitute(value, mapping) for name, value in node.substitution
            }
            for name, value in mapping.items():
                if name not in composed:
                    composed[name] = value
            return Unknown(node.name, tuple(sorted(composed.items(), key=lambda kv: kv[0])))
        return node

    return transform(formula, replace)


def rename(formula: Formula, mapping: Mapping[str, str]) -> Formula:
    def replace(node: Formula) -> Formula:
        if isinstance(node, Var) and node.name in mapping:
            return Var(mapping[node.name], node.var_sort)
        return node

    return transform(formula, replace)


def apply_assignment(formula: Formula, assignment: Mapping[str, Iterable[Formula]]) -> Formula:
    def replace(node: Formula) -> Formula:
        if isinstance(node, Unknown):
            body = ops.conj(list(assignment.get(node.name, ())))
            if node.substitution:
                body = substitute(body, dict(node.substitution))
            return body
        return node

    return transform(formula, replace)
