"""Substitution over refinement formulas.

Two flavours are needed by the type checker:

* :func:`substitute` replaces *variables* by formulas, e.g. ``[y/x]psi`` or
  ``[e/nu]psi`` when a value variable is instantiated.

* :func:`apply_assignment` replaces *predicate unknowns* ``P_i`` by the
  conjunction of their current liquid valuation, written ``[[psi]]_L`` in the
  paper (Sec. 3.5).

Each rewrite returns a subtree untouched, without visiting it, when its
cached facts show the rewrite cannot change it: no mapped variable and no
unknown below it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

from . import ops
from .formulas import Formula, Unknown, Var
from .transform import transform


def substitute(formula: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Capture-free substitution of variables by formulas.

    The refinement logic has no binders, so capture cannot occur.  Pending
    substitutions on predicate unknowns are composed rather than applied
    (their bodies are not known until the Horn solver assigns them).
    """
    if not mapping:
        return formula

    def replace(node: Formula) -> Formula:
        if isinstance(node, Var) and node.name in mapping:
            return mapping[node.name]
        if isinstance(node, Unknown):
            pending = dict(node.substitution)
            composed: Dict[str, Formula] = {
                name: substitute(value, mapping) for name, value in pending.items()
            }
            for name, value in mapping.items():
                if name not in composed:
                    composed[name] = value
            return Unknown(node.name, tuple(sorted(composed.items(), key=lambda kv: kv[0])))
        return node

    def changes(node: Formula) -> bool:
        return bool(node._unknowns) or not node._vars.isdisjoint(mapping)

    return transform(formula, replace, changes)


def rename(formula: Formula, mapping: Mapping[str, str]) -> Formula:
    """Rename variables; each new name keeps the old variable's sort."""

    def replace(node: Formula) -> Formula:
        if isinstance(node, Var) and node.name in mapping:
            return Var(mapping[node.name], node.var_sort)
        return node

    def changes(node: Formula) -> bool:
        return not node._vars.isdisjoint(mapping)

    return transform(formula, replace, changes)


def apply_assignment(formula: Formula, assignment: Mapping[str, Iterable[Formula]]) -> Formula:
    """Replace each predicate unknown by the conjunction of its valuation.

    Unknowns missing from ``assignment`` are replaced by ``True`` (the empty
    conjunction), matching the paper's initialisation ``L[P] = {}``.
    Pending substitutions recorded on the unknown are applied to the
    valuation after the replacement.
    """

    def replace(node: Formula) -> Formula:
        if isinstance(node, Unknown):
            valuation = list(assignment.get(node.name, ()))
            body = ops.conj(valuation)
            if node.substitution:
                body = substitute(body, dict(node.substitution))
            return body
        return node

    def changes(node: Formula) -> bool:
        return bool(node._unknowns)

    return transform(formula, replace, changes)


def instantiate_value_var(formula: Formula, value: Formula) -> Formula:
    """Substitute the value variable ``nu`` by ``value`` — ``[value/nu]psi``."""
    from .formulas import VALUE_VAR

    return substitute(formula, {VALUE_VAR: value})
