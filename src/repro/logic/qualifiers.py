"""Logical qualifiers and their instantiation.

A *qualifier* is an atomic formula over ``?``-placeholders (and possibly the
value variable ``nu``).  The space of liquid formulas for a predicate unknown
``P`` is the power set of ``Q_P``, the set of atomic formulas obtained by
replacing placeholders by variables of matching sorts that are in scope where
``P`` was created (Sec. 2 and Sec. 3.6 of the paper).

Qualifiers are either provided explicitly or extracted automatically from the
goal type and the component signatures (:func:`extract_qualifiers`).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from . import ops
from .formulas import (
    COMPARISON_OPS,
    EQUALITY_OPS,
    SET_PREDICATES,
    VALUE_VAR,
    Binary,
    BoolLit,
    Formula,
    IntLit,
    Unary,
    UnaryOp,
    Var,
)
from .sorts import BOOL, INT, SetSort, Sort, UninterpretedSort, VarSort
from .substitution import substitute
from .transform import subterms, transform

#: Prefix of placeholder variable names inside qualifiers.
PLACEHOLDER_PREFIX = "?"


class Qualifier:
    """A qualifier: an atomic boolean formula over placeholder variables.

    ``placeholders`` lists the placeholder names in the order they should be
    filled; each placeholder carries a sort that candidate variables must
    match (up to :func:`sorts_compatible`).
    """

    __slots__ = ("formula", "placeholders")

    def __init__(self, formula: Formula, placeholders: Tuple[Tuple[str, Sort], ...]) -> None:
        self.formula = formula
        self.placeholders = placeholders

    def arity(self) -> int:
        """Number of placeholders to fill."""
        return len(self.placeholders)


def placeholder(index: int, sort: Sort) -> Var:
    """The ``index``-th placeholder variable at ``sort``."""
    return Var(f"{PLACEHOLDER_PREFIX}{index}", sort)


def make_qualifier(formula: Formula) -> Qualifier:
    """Build a qualifier from a formula containing placeholder variables."""
    seen: Dict[str, Sort] = {}
    for node in subterms(formula):
        if isinstance(node, Var) and node.name.startswith(PLACEHOLDER_PREFIX):
            seen.setdefault(node.name, node.var_sort)
    ordered = tuple(sorted(seen.items(), key=lambda kv: kv[0]))
    return Qualifier(formula, ordered)


def default_qualifiers() -> List[Qualifier]:
    """The paper's running qualifier set ``{? <= ?, ? != ?}`` plus comparisons
    of a variable against the value variable, which cover branch guards for
    all integer benchmarks."""
    a = placeholder(0, INT)
    b = placeholder(1, INT)
    return [
        make_qualifier(ops.le(a, b)),
        make_qualifier(ops.neq(a, b)),
        make_qualifier(ops.lt(a, b)),
        make_qualifier(ops.eq(a, b)),
    ]


def sorts_compatible(candidate: Sort, wanted: Sort) -> bool:
    """May a variable of sort ``candidate`` fill a placeholder of sort
    ``wanted``?  Sort variables are compatible with everything (they stand for
    an unknown type-variable instantiation)."""
    if isinstance(wanted, VarSort) or isinstance(candidate, VarSort):
        return True
    if isinstance(candidate, SetSort) and isinstance(wanted, SetSort):
        return sorts_compatible(candidate.element, wanted.element)
    if isinstance(candidate, UninterpretedSort) and isinstance(wanted, UninterpretedSort):
        return candidate.name == wanted.name
    return candidate == wanted


def instantiate_qualifier(
    qualifier: Qualifier, candidates: Sequence[Formula]
) -> Iterable[Formula]:
    """All instantiations of ``qualifier`` with distinct candidate formulas of
    compatible sorts substituted for its placeholders."""
    slots: List[List[Formula]] = []
    for name, sort in qualifier.placeholders:
        matching = [c for c in candidates if sorts_compatible(c.sort, sort)]
        slots.append(matching)
    for choice in itertools.product(*slots):
        if len(set(choice)) < len(choice):
            continue  # skip trivially-reflexive instantiations like x <= x
        mapping = {name: value for (name, _), value in zip(qualifier.placeholders, choice)}
        yield substitute(qualifier.formula, mapping)


def instantiate_all(
    qualifiers: Sequence[Qualifier], candidates: Sequence[Formula]
) -> List[Formula]:
    """Union of all instantiations of all qualifiers, deduplicated."""
    seen: Set[Formula] = set()
    result: List[Formula] = []
    for qualifier in qualifiers:
        for inst in instantiate_qualifier(qualifier, candidates):
            if inst not in seen:
                seen.add(inst)
                result.append(inst)
    return result


# ---------------------------------------------------------------------------
# automatic qualifier extraction (Sec. 2: "Our system extracts an initial set
# of such predicates automatically from the goal type and the types of
# components")
# ---------------------------------------------------------------------------

def extract_qualifiers(formulas: Iterable[Formula]) -> List[Qualifier]:
    """Abstract the atomic subformulas of the given refinements into
    qualifiers by replacing their variables with placeholders."""
    result: List[Qualifier] = []
    seen: Set[Formula] = set()
    for formula in formulas:
        for atom in _atoms(formula):
            qualifier = _abstract_atom(atom)
            if qualifier is None:
                continue
            if qualifier.formula not in seen:
                seen.add(qualifier.formula)
                result.append(qualifier)
    return result


def _atoms(formula: Formula) -> Iterable[Formula]:
    interesting = COMPARISON_OPS | EQUALITY_OPS | SET_PREDICATES
    for node in subterms(formula):
        if isinstance(node, Binary) and node.op in interesting:
            yield node
        elif isinstance(node, Unary) and node.op is UnaryOp.NOT:
            yield node
        elif isinstance(node, Var) and node.var_sort == BOOL:
            yield node


def _abstract_atom(atom: Formula) -> Qualifier | None:
    """Replace program variables (not nu, not literals) with placeholders."""
    mapping: Dict[str, Var] = {}

    def replace(node: Formula) -> Formula:
        if isinstance(node, Var) and node.name != VALUE_VAR:
            if node.name not in mapping:
                mapping[node.name] = placeholder(len(mapping), node.var_sort)
            return mapping[node.name]
        return node

    abstracted = transform(atom, replace)
    if isinstance(abstracted, (BoolLit, IntLit)):
        return None
    return make_qualifier(abstracted)
