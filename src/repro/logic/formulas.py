"""Refinement terms (formulas) of the specification logic.

This is the language of refinement predicates ``psi`` from Fig. 2 of the
paper: boolean connectives, linear integer arithmetic, finite sets, and
uninterpreted (measure) applications.  The distinguished *value variable*
``nu`` is an ordinary :class:`Var` named ``_v``.

Formulas are hash-consed (Filliâtre & Conchon, "Type-safe modular
hash-consing", 2006): every constructor returns the one canonical node for
its structure, so structurally equal formulas are the same object and
``==`` is identity — use :func:`repro.logic.ops.eq` to build an equality
*formula*.  The canonical table holds its nodes weakly: an entry leaves it
with the last reference to its node, so a long-running process keeps only
the formulas something still uses.  Nodes are shared by everything that
built the same structure, so they are immutable by contract: never assign
to their fields.

Each node is built with its structural hash (the hash of its constructor
tag and fields, so the iteration order of formula-keyed sets and dicts
never depends on addresses) and its *facts*, computed once from its
children: the names of its free variables and predicate unknowns, the
uninterpreted applications below it, and whether it mentions sets.
:mod:`repro.logic.transform` answers those questions from the facts
instead of walking the formula, and rewrites skip every subtree whose
facts show they cannot change it.
"""

from __future__ import annotations

import enum
import weakref
from _weakref import _remove_dead_weakref
from typing import Dict, FrozenSet, Optional, Tuple

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


# ---------------------------------------------------------------------------
# the canonical table
# ---------------------------------------------------------------------------


class _Entry(weakref.ref):
    """A weak reference to a canonical node that remembers its table key."""

    __slots__ = ("key",)


#: Key -> entry of the one live node with that structure.  A node's key is
#: its kind and its fields, the tuple its structural hash is the hash of.
#: Children in a key compare by identity, which is structural equality for
#: canonical nodes.  An entry leaves the table when its node dies, so its
#: key never keeps the node's children alive; an entry found dead is a
#: structure no live node has.
#:
#: Insertion is ``dict.setdefault`` and removal ``_remove_dead_weakref``
#: (the primitive behind ``weakref.WeakValueDictionary``): each is one dict
#: operation that runs atomically under the interpreter lock, so threads
#: need no lock of their own, and a late removal never takes out a newer
#: live entry under the same key.
_TABLE: Dict[Tuple, _Entry] = {}


def _forget(entry: _Entry, table=_TABLE, remove=_remove_dead_weakref) -> None:
    """Drop a dead node's entry (the weak reference's callback).

    The defaults keep the table in reach while the interpreter shuts down.
    """
    remove(table, entry.key)


def _live(key: Tuple) -> Optional["Formula"]:
    """The live node entered under ``key``, if any."""
    entry = _TABLE.get(key)
    return None if entry is None else entry()


def _publish(key: Tuple, node: "Formula") -> "Formula":
    """Enter a freshly built ``node`` under ``key`` and return it — or, when
    another thread entered the same structure first, return that node."""
    entry = _Entry(node, _forget)
    entry.key = key
    while True:
        current = _TABLE.setdefault(key, entry)
        if current is entry:
            return node
        winner = current()
        if winner is not None:
            return winner
        _remove_dead_weakref(_TABLE, key)


_EMPTY: FrozenSet = frozenset()


def _union(a: FrozenSet, b: FrozenSet) -> FrozenSet:
    """``a | b``, reusing an operand that already is the union."""
    if b is a or not b:
        return a
    if not a:
        return b
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def _leaf(
    node: "Formula", key: Tuple, free: FrozenSet, unknowns: FrozenSet, sets: bool
) -> "Formula":
    """Give a new node without formula children its hash and facts, and
    publish it."""
    node._hash = hash(key)
    node._vars = free
    node._unknowns = unknowns
    node._apps = _EMPTY
    node._sets = sets
    return _publish(key, node)


def _join(node: "Formula", key: Tuple, children: Tuple["Formula", ...], sets: bool) -> "Formula":
    """Give a new compound node its hash and the facts of its
    ``children``, and publish it."""
    node._hash = hash(key)
    free = unknowns = apps = _EMPTY
    for child in children:
        if child._vars is not free:
            free = _union(free, child._vars)
        if child._unknowns:
            unknowns = _union(unknowns, child._unknowns)
        if child._apps:
            apps = _union(apps, child._apps)
        if child.__class__ is App:
            apps = _union(apps, frozenset((child,)))
        if child._sets:
            sets = True
    node._vars = free
    node._unknowns = unknowns
    node._apps = apps
    node._sets = sets
    return _publish(key, node)


# ---------------------------------------------------------------------------
# node classes
# ---------------------------------------------------------------------------


class Formula:
    """Base class of refinement terms: a canonical, immutable node.

    Besides its fields, every node holds ``_hash`` and its facts:
    ``_vars`` and ``_unknowns`` (names of the free variables and predicate
    unknowns in its subterms), ``_apps`` (the uninterpreted applications
    strictly below it; an :class:`App` is not in its own set, which would
    make the node a reference cycle) and ``_sets`` (does it mention a
    set?).  The pending substitution of an :class:`Unknown` is not a
    subterm.
    """

    __slots__ = ("_hash", "_vars", "_unknowns", "_apps", "_sets", "__weakref__")

    @property
    def sort(self) -> Sort:
        raise NotImplementedError

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from .pretty import pretty_formula

        return pretty_formula(self)


class BoolLit(Formula):
    """``True`` or ``False``."""

    __slots__ = ("value",)
    value: bool

    def __new__(cls, value: bool) -> "BoolLit":
        key = ("bool", value)
        node = _live(key)
        if node is None:
            node = object.__new__(cls)
            node.value = value
            node = _leaf(node, key, _EMPTY, _EMPTY, False)
        return node

    @property
    def sort(self) -> Sort:
        return BOOL


class IntLit(Formula):
    """An integer constant."""

    __slots__ = ("value",)
    value: int

    def __new__(cls, value: int) -> "IntLit":
        key = ("int", value)
        node = _live(key)
        if node is None:
            node = object.__new__(cls)
            node.value = value
            node = _leaf(node, key, _EMPTY, _EMPTY, False)
        return node

    @property
    def sort(self) -> Sort:
        return INT


class Var(Formula):
    """A logical variable (a program variable or the value variable)."""

    __slots__ = ("name", "var_sort")
    name: str
    var_sort: Sort

    def __new__(cls, name: str, var_sort: Sort) -> "Var":
        key = ("var", name, var_sort)
        node = _live(key)
        if node is None:
            node = object.__new__(cls)
            node.name = name
            node.var_sort = var_sort
            node = _leaf(node, key, frozenset((name,)), _EMPTY, isinstance(var_sort, SetSort))
        return node

    @property
    def sort(self) -> Sort:
        return self.var_sort


class Unknown(Formula):
    """A predicate unknown ``P_i`` whose valuation is a liquid formula,
    discovered by the Horn solver.  ``substitution`` is a pending renaming
    applied when the unknown is instantiated (kept as a tuple of pairs so the
    node stays hashable)."""

    __slots__ = ("name", "substitution")
    name: str
    substitution: Tuple[Tuple[str, "Formula"], ...]

    def __new__(cls, name: str, substitution: Tuple[Tuple[str, "Formula"], ...] = ()) -> "Unknown":
        key = ("unknown", name, substitution)
        node = _live(key)
        if node is None:
            node = object.__new__(cls)
            node.name = name
            node.substitution = substitution
            node = _leaf(node, key, _EMPTY, frozenset((name,)), False)
        return node

    @property
    def sort(self) -> Sort:
        return BOOL


class Unary(Formula):
    """Application of a unary interpreted symbol."""

    __slots__ = ("op", "arg")
    op: UnaryOp
    arg: Formula

    def __new__(cls, op: UnaryOp, arg: Formula) -> "Unary":
        key = ("unary", op, arg)
        node = _live(key)
        if node is None:
            node = object.__new__(cls)
            node.op = op
            node.arg = arg
            node = _join(node, key, (arg,), False)
        return node

    @property
    def sort(self) -> Sort:
        return BOOL if self.op is UnaryOp.NOT else INT


class Binary(Formula):
    """Application of a binary interpreted symbol."""

    __slots__ = ("op", "lhs", "rhs")
    op: BinaryOp
    lhs: Formula
    rhs: Formula

    def __new__(cls, op: BinaryOp, lhs: Formula, rhs: Formula) -> "Binary":
        key = ("binary", op, lhs, rhs)
        node = _live(key)
        if node is None:
            node = object.__new__(cls)
            node.op = op
            node.lhs = lhs
            node.rhs = rhs
            node = _join(node, key, (lhs, rhs), op is BinaryOp.MEMBER or op is BinaryOp.SUBSET)
        return node

    @property
    def sort(self) -> Sort:
        if self.op in ARITH_OPS:
            return INT
        if self.op in SET_OPS:
            return self.lhs.sort
        return BOOL


class Ite(Formula):
    """``if cond then then_ else else_`` at the level of refinement terms."""

    __slots__ = ("cond", "then_", "else_")
    cond: Formula
    then_: Formula
    else_: Formula

    def __new__(cls, cond: Formula, then_: Formula, else_: Formula) -> "Ite":
        key = ("ite", cond, then_, else_)
        node = _live(key)
        if node is None:
            node = object.__new__(cls)
            node.cond = cond
            node.then_ = then_
            node.else_ = else_
            node = _join(node, key, (cond, then_, else_), False)
        return node

    @property
    def sort(self) -> Sort:
        return self.then_.sort


class App(Formula):
    """Application of an uninterpreted function (a *measure* such as ``len``
    or ``elems``) to argument terms."""

    __slots__ = ("func", "args", "result_sort")
    func: str
    args: Tuple[Formula, ...]
    result_sort: Sort

    def __new__(cls, func: str, args: Tuple[Formula, ...], result_sort: Sort) -> "App":
        key = ("app", func, args, result_sort)
        node = _live(key)
        if node is None:
            node = object.__new__(cls)
            node.func = func
            node.args = args
            node.result_sort = result_sort
            node = _join(node, key, args, isinstance(result_sort, SetSort))
        return node

    @property
    def sort(self) -> Sort:
        return self.result_sort


class SetLit(Formula):
    """A finite set literal ``[e1, ..., ek]``; the empty set is ``SetLit(s, ())``."""

    __slots__ = ("element_sort", "elements")
    element_sort: Sort
    elements: Tuple[Formula, ...]

    def __new__(cls, element_sort: Sort, elements: Tuple[Formula, ...] = ()) -> "SetLit":
        key = ("setlit", element_sort, elements)
        node = _live(key)
        if node is None:
            node = object.__new__(cls)
            node.element_sort = element_sort
            node.elements = elements
            node = _join(node, key, elements, True)
        return node

    @property
    def sort(self) -> Sort:
        return SetSort(self.element_sort)


TRUE = BoolLit(True)
FALSE = BoolLit(False)


def is_true(formula: Formula) -> bool:
    """Is ``formula`` the literal ``True``?"""
    return formula is TRUE


def is_false(formula: Formula) -> bool:
    """Is ``formula`` the literal ``False``?"""
    return formula is FALSE


def value_var(sort: Sort) -> Var:
    """The value variable ``nu`` at the given sort."""
    return Var(VALUE_VAR, sort)
