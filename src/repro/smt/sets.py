"""Element-wise elimination of finite-set constraints.

The paper's refinement logic uses sets (via the theory of arrays in Z3) for
measures such as ``elems`` and ``keys``.  This module compiles set atoms away
before the lazy SMT loop runs.  The incremental solver hands it one *joint
conjunction* per check — every live formula that mentions sets — so the
universe below spans the whole scope, however the formulas were asserted:

* the *universe* of each element sort is the set of element terms of that
  sort named in the query plus one fresh witness per negative set atom over
  sets of that sort;
* positive equalities / inclusions are expanded into membership constraints
  over the universe of their own element sort;
* negative equalities / inclusions are expanded using their witness element
  (which makes them exact);
* membership in an *uninterpreted* set term (a set-sorted variable or measure
  application) becomes an uninterpreted boolean application ``mem(e, S)``,
  so congruence closure supplies functional consistency.

For the operator set used by the refinement logic (union, intersection,
difference, literals, ``in``, subset, equality — no complement and no
cardinality) this reduction is satisfiability-preserving: base sets in a
countermodel can always be shrunk to contain only named elements.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..logic import ops
from ..logic.formulas import (
    App,
    Binary,
    BinaryOp,
    Formula,
    Ite,
    SetLit,
    Unary,
    UnaryOp,
    Var,
)
from ..logic.sorts import SetSort, Sort
from ..logic.transform import subterms
from .names import FreshNames

__all__ = ["SetEncoder", "eliminate_sets"]

#: Name of the uninterpreted membership predicate introduced by the encoding.
MEMBERSHIP_FUNC = "__mem"

#: Prefix of fresh witness element variables.
WITNESS_PREFIX = "__wit"


class SetEncoder:
    """Stateful encoder; one instance per joint conjunction.

    :class:`~repro.smt.solver.IncrementalSolver` eliminates the conjunction
    of a check's live set formulas with one encoder, and passes its
    :class:`FreshNames` so the witnesses of different conjunctions never
    alias each other.
    """

    __slots__ = ("fresh_names", "_universe", "_witnesses", "_witness_count")

    def __init__(self, fresh_names: Optional[FreshNames] = None) -> None:
        self.fresh_names = fresh_names
        #: The element terms of the query, grouped by sort.
        self._universe: Dict[Sort, List[Formula]] = {}
        #: The witness element of each set equality (``EQ``) or inclusion
        #: (``SUBSET``) that occurs negated, keyed by ``(op, lhs, rhs)``.
        self._witnesses: Dict[Tuple[BinaryOp, Formula, Formula], Var] = {}
        self._witness_count = 0

    def encode(self, formula: Formula) -> Formula:
        """Eliminate all set atoms from a formula in negation normal form.

        Every negated set equality or inclusion gets its witness before any
        atom is expanded, so the positive atoms are expanded at the
        witnesses too.
        """
        self._universe = self._collect_elements(formula)
        self._witnesses = {}
        for node in subterms(formula):
            if isinstance(node, Unary) and node.op is UnaryOp.NOT:
                atom = node.arg
                if isinstance(atom, Binary) and (
                    atom.op is BinaryOp.SUBSET
                    or (atom.op is BinaryOp.EQ and isinstance(atom.lhs.sort, SetSort))
                ):
                    self._witness(atom.op, atom.lhs, atom.rhs)
            elif (
                isinstance(node, Binary)
                and node.op is BinaryOp.NEQ
                and isinstance(node.lhs.sort, SetSort)
            ):
                self._witness(BinaryOp.EQ, node.lhs, node.rhs)
        return self._rewrite(formula)

    # -- universe construction --------------------------------------------

    def _collect_elements(self, formula: Formula) -> Dict[Sort, List[Formula]]:
        elements: Dict[Sort, List[Formula]] = {}
        seen = set()

        def add(term: Formula) -> None:
            if term not in seen:
                seen.add(term)
                elements.setdefault(term.sort, []).append(term)

        for node in subterms(formula):
            if isinstance(node, SetLit):
                for element in node.elements:
                    add(element)
            elif isinstance(node, Binary) and node.op is BinaryOp.MEMBER:
                add(node.lhs)
        return elements

    def _fresh_witness(self, sort: Sort) -> Var:
        if self.fresh_names is not None:
            return self.fresh_names.fresh_var("wit", sort)
        self._witness_count += 1
        return Var(f"{WITNESS_PREFIX}{self._witness_count}", sort)

    def _witness(self, op: BinaryOp, lhs: Formula, rhs: Formula) -> Var:
        """The element that tells ``lhs`` and ``rhs`` apart when the atom
        ``lhs op rhs`` is false; it joins its sort's universe when it is
        made."""
        key = (op, lhs, rhs)
        witness = self._witnesses.get(key)
        if witness is None:
            sort = self._element_sort(lhs)
            witness = self._fresh_witness(sort)
            self._witnesses[key] = witness
            self._universe.setdefault(sort, []).append(witness)
        return witness

    # -- rewriting ----------------------------------------------------------

    def _rewrite(self, formula: Formula) -> Formula:
        if isinstance(formula, Binary):
            op = formula.op
            if op in (BinaryOp.AND, BinaryOp.OR, BinaryOp.IMPLIES, BinaryOp.IFF):
                return Binary(op, self._rewrite(formula.lhs), self._rewrite(formula.rhs))
            if op is BinaryOp.MEMBER:
                return self._membership(formula.lhs, formula.rhs)
            if op is BinaryOp.SUBSET:
                return self._subset(formula.lhs, formula.rhs, positive=True)
            if op in (BinaryOp.EQ, BinaryOp.NEQ) and isinstance(formula.lhs.sort, SetSort):
                positive = op is BinaryOp.EQ
                if positive:
                    return self._set_equality(formula.lhs, formula.rhs, positive=True)
                return self._set_equality(formula.lhs, formula.rhs, positive=False)
            return formula
        if isinstance(formula, Unary) and formula.op is UnaryOp.NOT:
            inner = formula.arg
            if isinstance(inner, Binary):
                if inner.op is BinaryOp.MEMBER:
                    return ops.not_(self._membership(inner.lhs, inner.rhs))
                if inner.op is BinaryOp.SUBSET:
                    return self._subset(inner.lhs, inner.rhs, positive=False)
                if inner.op is BinaryOp.EQ and isinstance(inner.lhs.sort, SetSort):
                    return self._set_equality(inner.lhs, inner.rhs, positive=False)
                if inner.op is BinaryOp.NEQ and isinstance(inner.lhs.sort, SetSort):
                    return self._set_equality(inner.lhs, inner.rhs, positive=True)
            return ops.not_(self._rewrite(inner))
        if isinstance(formula, Ite):
            return Ite(
                self._rewrite(formula.cond),
                self._rewrite(formula.then_),
                self._rewrite(formula.else_),
            )
        return formula

    # -- atom encodings -----------------------------------------------------

    def _membership(self, element: Formula, set_term: Formula) -> Formula:
        """``element in set_term`` expanded structurally."""
        if isinstance(set_term, SetLit):
            return ops.disj(ops.eq(element, member) for member in set_term.elements)
        if isinstance(set_term, Binary):
            if set_term.op is BinaryOp.UNION:
                return ops.or_(
                    self._membership(element, set_term.lhs),
                    self._membership(element, set_term.rhs),
                )
            if set_term.op is BinaryOp.INTERSECT:
                return ops.and_(
                    self._membership(element, set_term.lhs),
                    self._membership(element, set_term.rhs),
                )
            if set_term.op is BinaryOp.DIFF:
                return ops.and_(
                    self._membership(element, set_term.lhs),
                    ops.not_(self._membership(element, set_term.rhs)),
                )
        if isinstance(set_term, Ite):
            return ops.ite(
                self._rewrite(set_term.cond),
                self._membership(element, set_term.then_),
                self._membership(element, set_term.else_),
            )
        # Uninterpreted set term (variable or measure application).
        from ..logic.sorts import BOOL

        return App(MEMBERSHIP_FUNC, (element, set_term), BOOL)

    def _element_sort(self, set_term: Formula) -> Sort:
        sort = set_term.sort
        if isinstance(sort, SetSort):
            return sort.element
        raise TypeError(f"not a set-sorted term: {set_term!r}")

    def _set_equality(self, lhs: Formula, rhs: Formula, positive: bool) -> Formula:
        if positive:
            return ops.conj(
                ops.iff(self._membership(e, lhs), self._membership(e, rhs))
                for e in self._universe.get(self._element_sort(lhs), ())
            )
        witness = self._witness(BinaryOp.EQ, lhs, rhs)
        return ops.not_(ops.iff(self._membership(witness, lhs), self._membership(witness, rhs)))

    def _subset(self, lhs: Formula, rhs: Formula, positive: bool) -> Formula:
        if positive:
            return ops.conj(
                ops.implies(self._membership(e, lhs), self._membership(e, rhs))
                for e in self._universe.get(self._element_sort(lhs), ())
            )
        witness = self._witness(BinaryOp.SUBSET, lhs, rhs)
        return ops.and_(self._membership(witness, lhs), ops.not_(self._membership(witness, rhs)))


def eliminate_sets(formula: Formula, fresh_names: Optional[FreshNames] = None) -> Formula:
    """Eliminate set atoms from a formula in negation normal form."""
    return SetEncoder(fresh_names).encode(formula)
