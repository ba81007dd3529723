"""Refinement terms (formulas) of the specification logic.

This is the language of refinement predicates ``psi`` from Fig. 2 of the
paper: boolean connectives, linear integer arithmetic, finite sets, and
uninterpreted (measure) applications.  The distinguished *value variable*
``nu`` is an ordinary :class:`Var` named ``_v``.

Formulas are immutable; structural equality and hashing are used pervasively
(assignments, caches, qualifier sets), so ``==`` is structural — use
:func:`repro.logic.ops.eq` to build an equality *formula*.

Every node precomputes its structural hash at construction time
(:meth:`Formula._seal`), so hashing is O(1) and formulas can serve directly
as dictionary keys in the hot caches of the SMT substrate and the Horn
solver.  :func:`intern_formula` additionally canonicalizes structurally
equal formulas to a single shared instance, which makes the identity fast
path of ``==`` fire on cache hits.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import Dict, Tuple

from .sorts import BOOL, INT, SetSort, Sort

#: Conventional name of the value variable nu.
VALUE_VAR = "_v"


class UnaryOp(enum.Enum):
    """Unary connectives and arithmetic."""

    NOT = "!"
    NEG = "-"


class BinaryOp(enum.Enum):
    """Binary interpreted symbols of the refinement logic."""

    # arithmetic (Int, Int) -> Int
    PLUS = "+"
    MINUS = "-"
    TIMES = "*"
    # comparisons (Int, Int) -> Bool
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    # polymorphic equality (a, a) -> Bool
    EQ = "=="
    NEQ = "!="
    # boolean connectives
    AND = "&&"
    OR = "||"
    IMPLIES = "==>"
    IFF = "<==>"
    # set operations (Set a, Set a) -> Set a
    UNION = "+s"
    INTERSECT = "*s"
    DIFF = "-s"
    # set predicates
    MEMBER = "in"        # (a, Set a) -> Bool
    SUBSET = "<=s"       # (Set a, Set a) -> Bool


ARITH_OPS = {BinaryOp.PLUS, BinaryOp.MINUS, BinaryOp.TIMES}
COMPARISON_OPS = {BinaryOp.LT, BinaryOp.LE, BinaryOp.GT, BinaryOp.GE}
EQUALITY_OPS = {BinaryOp.EQ, BinaryOp.NEQ}
BOOLEAN_OPS = {BinaryOp.AND, BinaryOp.OR, BinaryOp.IMPLIES, BinaryOp.IFF}
SET_OPS = {BinaryOp.UNION, BinaryOp.INTERSECT, BinaryOp.DIFF}
SET_PREDICATES = {BinaryOp.MEMBER, BinaryOp.SUBSET}


class Formula:
    """Base class of refinement terms.

    Subclasses are frozen dataclasses with ``eq=False``: equality and
    hashing are provided here, backed by a structural key precomputed once
    in ``__post_init__`` (child hashes are already cached, so sealing a node
    is O(arity), and ``hash`` is O(1) afterwards).
    """

    _key: Tuple
    _hash: int

    @property
    def sort(self) -> Sort:
        raise NotImplementedError

    def _seal(self, *key) -> None:
        """Record the structural key and its hash (called from __post_init__)."""
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if self.__class__ is not other.__class__:
            return False
        if self._hash != other._hash:
            return False
        return self._key == other._key  # type: ignore[attr-defined]

    def __reduce__(self) -> Tuple:
        # Rebuild through the constructor rather than copying __dict__: the
        # precomputed _key/_hash embed enum identities and child hashes that
        # are only valid within one process, and the portfolio ships
        # formulas to worker processes.  __post_init__ reseals on arrival.
        return (
            self.__class__,
            tuple(getattr(self, f.name) for f in dataclasses.fields(self)),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from .pretty import pretty_formula

        return pretty_formula(self)


@dataclass(frozen=True, eq=False, repr=False)
class BoolLit(Formula):
    """``True`` or ``False``."""

    value: bool

    def __post_init__(self) -> None:
        self._seal("bool", self.value)

    @property
    def sort(self) -> Sort:
        return BOOL


@dataclass(frozen=True, eq=False, repr=False)
class IntLit(Formula):
    """An integer constant."""

    value: int

    def __post_init__(self) -> None:
        self._seal("int", self.value)

    @property
    def sort(self) -> Sort:
        return INT


@dataclass(frozen=True, eq=False, repr=False)
class Var(Formula):
    """A logical variable (a program variable or the value variable)."""

    name: str
    var_sort: Sort

    def __post_init__(self) -> None:
        self._seal("var", self.name, self.var_sort)

    @property
    def sort(self) -> Sort:
        return self.var_sort


@dataclass(frozen=True, eq=False, repr=False)
class Unknown(Formula):
    """A predicate unknown ``P_i`` whose valuation is a liquid formula,
    discovered by the Horn solver.  ``substitution`` is a pending renaming
    applied when the unknown is instantiated (kept as a tuple of pairs so the
    node stays hashable)."""

    name: str
    substitution: Tuple[Tuple[str, "Formula"], ...] = ()

    def __post_init__(self) -> None:
        self._seal("unknown", self.name, self.substitution)

    @property
    def sort(self) -> Sort:
        return BOOL


@dataclass(frozen=True, eq=False, repr=False)
class Unary(Formula):
    """Application of a unary interpreted symbol."""

    op: UnaryOp
    arg: Formula

    def __post_init__(self) -> None:
        self._seal("unary", self.op, self.arg)

    @property
    def sort(self) -> Sort:
        return BOOL if self.op is UnaryOp.NOT else INT


@dataclass(frozen=True, eq=False, repr=False)
class Binary(Formula):
    """Application of a binary interpreted symbol."""

    op: BinaryOp
    lhs: Formula
    rhs: Formula

    def __post_init__(self) -> None:
        self._seal("binary", self.op, self.lhs, self.rhs)

    @property
    def sort(self) -> Sort:
        if self.op in ARITH_OPS:
            return INT
        if self.op in SET_OPS:
            return self.lhs.sort
        return BOOL


@dataclass(frozen=True, eq=False, repr=False)
class Ite(Formula):
    """``if cond then then_ else else_`` at the level of refinement terms."""

    cond: Formula
    then_: Formula
    else_: Formula

    def __post_init__(self) -> None:
        self._seal("ite", self.cond, self.then_, self.else_)

    @property
    def sort(self) -> Sort:
        return self.then_.sort


@dataclass(frozen=True, eq=False, repr=False)
class App(Formula):
    """Application of an uninterpreted function (a *measure* such as ``len``
    or ``elems``) to argument terms."""

    func: str
    args: Tuple[Formula, ...]
    result_sort: Sort

    def __post_init__(self) -> None:
        self._seal("app", self.func, self.args, self.result_sort)

    @property
    def sort(self) -> Sort:
        return self.result_sort


@dataclass(frozen=True, eq=False, repr=False)
class SetLit(Formula):
    """A finite set literal ``[e1, ..., ek]``; the empty set is ``SetLit(s, ())``."""

    element_sort: Sort
    elements: Tuple[Formula, ...] = ()

    def __post_init__(self) -> None:
        self._seal("setlit", self.element_sort, self.elements)

    @property
    def sort(self) -> Sort:
        return SetSort(self.element_sort)


TRUE = BoolLit(True)
FALSE = BoolLit(False)


def is_true(formula: Formula) -> bool:
    """Is ``formula`` the literal ``True``?"""
    return isinstance(formula, BoolLit) and formula.value


def is_false(formula: Formula) -> bool:
    """Is ``formula`` the literal ``False``?"""
    return isinstance(formula, BoolLit) and not formula.value


def value_var(sort: Sort) -> Var:
    """The value variable ``nu`` at the given sort."""
    return Var(VALUE_VAR, sort)


# ---------------------------------------------------------------------------
# interning
# ---------------------------------------------------------------------------

_INTERN_TABLE: Dict[Formula, Formula] = {TRUE: TRUE, FALSE: FALSE}


def intern_formula(formula: Formula) -> Formula:
    """The canonical shared instance of a formula.

    Structurally equal formulas intern to the same object, so the identity
    fast path of ``==`` fires on repeated cache lookups and dictionaries
    keyed by formulas behave like pointer maps.  Children are interned
    recursively; the table lives for the process (formulas are tiny and the
    synthesis workload revisits the same predicates constantly).
    """
    cached = _INTERN_TABLE.get(formula)
    if cached is not None:
        return cached
    if isinstance(formula, Unary):
        canonical: Formula = Unary(formula.op, intern_formula(formula.arg))
    elif isinstance(formula, Binary):
        canonical = Binary(formula.op, intern_formula(formula.lhs), intern_formula(formula.rhs))
    elif isinstance(formula, Ite):
        canonical = Ite(
            intern_formula(formula.cond),
            intern_formula(formula.then_),
            intern_formula(formula.else_),
        )
    elif isinstance(formula, App):
        canonical = App(
            formula.func,
            tuple(intern_formula(arg) for arg in formula.args),
            formula.result_sort,
        )
    elif isinstance(formula, SetLit):
        canonical = SetLit(
            formula.element_sort,
            tuple(intern_formula(el) for el in formula.elements),
        )
    elif isinstance(formula, Unknown) and formula.substitution:
        canonical = Unknown(
            formula.name,
            tuple((name, intern_formula(value)) for name, value in formula.substitution),
        )
    else:
        canonical = formula
    _INTERN_TABLE[canonical] = canonical
    return canonical
