"""Theory solving for the combined EUF + LIA theory (the "T" in DPLL(T)).

One decision procedure lives here: congruence closure for equality with
uninterpreted functions, linear arithmetic for comparisons, and a
pragmatic one-directional Nelson–Oppen EUF -> LIA equality propagation.

* :class:`IncrementalTheory` — the *stateful* solver driving the DPLL(T)
  loop.  Literals are asserted one at a time between ``push`` / ``pop``
  marks; a persistent :class:`~repro.smt.euf.TermBank` interns terms once
  for the solver's lifetime, the congruence closure un-merges through an
  undo trail, and the :class:`~repro.smt.lia.Simplex` tableau keeps its
  rows and feasible basis across checks (bounds are added and retracted
  instead of the tableau being rebuilt; rows nothing asks for again are
  dropped once no bound is live).  Conflicts come back as *explanations*
  — the subset of asserted literals responsible — and the solver can
  *propagate*: report watched atoms whose truth value is already entailed
  by the asserted bounds or the congruence closure.

* :class:`TheoryChecker` — consistency of one literal *set*, decided on a
  fresh :class:`IncrementalTheory`.  It answers the probes that shrink
  unexplained conflicts, so a shrunk core is inconsistent for the very
  solver whose conflict it came from.

Propagation between the theories is one-directional (EUF -> LIA).  Missing
the reverse direction can only make the theory *fail to detect* a
conflict, i.e. report "consistent" too often; as the "Rational
relaxation" note in ``docs/architecture.md`` argues for LIA, this keeps
refinement-type checking sound (it can only reject more programs).  The
differential property suite (``tests/test_theory_incremental.py``) pins
both classes to a stateless Fourier–Motzkin oracle, kept under ``tests/``,
on random assert/push/pop sequences.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .. import limits
from ..testing import faults

from ..logic.formulas import (
    COMPARISON_OPS,
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
)
from ..logic.sorts import BOOL, IntSort
from ..metrics import Counters
from ..value import Value
from . import lia
from .euf import CongruenceClosure, TermBank
from .lia import DERIVED, SIMPLEX_COUNTERS, Constraint, LinearExpr, Relation, Simplex


class Literal(Value):
    """A theory literal: an atom together with its asserted polarity."""

    __slots__ = ("atom", "polarity")

    def __init__(self, atom: Formula, polarity: bool) -> None:
        self.atom = atom
        self.polarity = polarity

    def _fields(self) -> Tuple:
        return (self.atom, self.polarity)


def _negated_comparison(op: BinaryOp) -> BinaryOp:
    return {
        BinaryOp.LT: BinaryOp.GE,
        BinaryOp.LE: BinaryOp.GT,
        BinaryOp.GT: BinaryOp.LE,
        BinaryOp.GE: BinaryOp.LT,
    }[op]


def _comparison_constraint(
    op: BinaryOp, lhs: LinearExpr, rhs: LinearExpr, polarity: bool
) -> Constraint:
    """Translate a (possibly negated) integer comparison."""
    if not polarity:
        op = _negated_comparison(op)
    if op is BinaryOp.LE:
        return lia.le(lhs, rhs)
    if op is BinaryOp.LT:
        return lia.lt(lhs, rhs)
    if op is BinaryOp.GE:
        return lia.le(rhs, lhs)
    return lia.lt(rhs, lhs)


# ---------------------------------------------------------------------------
# the incremental theory
# ---------------------------------------------------------------------------


#: A theory conflict: the responsible literals plus whether they are an
#: *explanation* (a near-minimal subset) or just the full asserted set.
Conflict = Tuple[List[Literal], bool]


class _Frame:
    """Undo information for one :meth:`IncrementalTheory.push` level."""

    __slots__ = ("closure_mark", "simplex_mark", "asserted", "closure_lits", "refs", "links")

    def __init__(self, closure_mark, simplex_mark, asserted: int, closure_lits: int) -> None:
        self.closure_mark = closure_mark
        self.simplex_mark = simplex_mark
        self.asserted = asserted
        self.closure_lits = closure_lits
        #: (is_app, term_id) liveness increments made at this level
        self.refs: List[Tuple[bool, int]] = []
        #: Nelson–Oppen chain links asserted at this level
        self.links: List[Tuple[int, int]] = []


class IncrementalTheory:
    """Persistent, backtrackable solver for the combined EUF + LIA theory.

    All of its state — term bank, congruence closure, simplex tableau —
    stays alive across checks.  ``push`` snapshots the undo trails;
    ``pop`` retracts everything asserted since the matching push.
    Consistency of the current assertion stack is (re-)established by
    :meth:`check`, which resumes from the previous feasible simplex basis
    and only re-closes congruence over the *live* applications (those
    referenced by currently asserted literals; the bank's dead terms are
    never scanned).

    The simplex charges its pivots to ``statistics`` (a fresh set of
    counters when none is given).
    """

    def __init__(self, statistics: Optional[Counters] = None) -> None:
        self.bank = TermBank()
        self.closure = CongruenceClosure(self.bank)
        self._true = self.bank.constant("__true")
        self._false = self.bank.constant("__false")
        self.closure.assert_distinct(self._true, self._false)
        self.simplex = Simplex(
            statistics if statistics is not None else Counters(*SIMPLEX_COUNTERS)
        )
        self._term_ids: Dict[Formula, int] = {}
        #: term id -> (app ids, int-sorted ids) of the term's whole subtree
        self._term_refs: Dict[Formula, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
        self._int_terms: Dict[int, Formula] = {}
        #: live reference counts (asserted-literal occurrences)
        self._app_refs: Dict[int, int] = {}
        self._int_refs: Dict[int, int] = {}
        self._asserted: List[Literal] = []
        #: (atom, polarity) -> (simplex constraint, linear leaf terms) —
        #: translation of an arithmetic atom is scope-independent, so
        #: re-asserting after a backjump replays refcounts without
        #: rebuilding the linear expressions
        self._constraint_cache: Dict[
            Tuple[Formula, bool], Tuple[Constraint, Tuple[Formula, ...]]
        ] = {}
        #: bumped whenever a term's liveness flips (refcount 0 <-> 1)
        self._refs_version = 0
        #: asserted literals that touched the congruence closure, in order
        self._closure_lits: List[Literal] = []
        #: Nelson–Oppen equality links currently asserted into the simplex
        self._linked: Set[Tuple[int, int]] = set()
        self._frames: List[_Frame] = []
        self._base = _Frame(self.closure.mark(), self.simplex.mark(), 0, 0)
        #: sticky assert-time conflicts: (scope depth at failure, conflict).
        #: A rejected bound is never applied, so the infeasibility would be
        #: invisible to later checks; the marker keeps the verdict until the
        #: failing scope is popped.
        self._failed: List[Tuple[int, Conflict]] = []
        #: propagation watches: payload -> (cmp record, euf record)
        self._watches: Dict[object, Tuple[Optional[Tuple], Optional[Tuple]]] = {}
        #: closure state the last check closed over: (closure version,
        #: liveness version, live Nelson–Oppen link count) — matching state
        #: means the congruence/N-O half of check() can be skipped (nothing
        #: that feeds it has moved)
        self._closed_state: Optional[Tuple[int, int, int]] = None

    # -- scope management ----------------------------------------------------

    def push(self) -> None:
        """Open an undo scope (one per asserted SAT trail literal)."""
        self._frames.append(
            _Frame(
                self.closure.mark(),
                self.simplex.mark(),
                len(self._asserted),
                len(self._closure_lits),
            )
        )

    def pop(self) -> None:
        """Retract everything asserted since the matching :meth:`push`."""
        frame = self._frames.pop()
        self.closure.undo_to(frame.closure_mark)
        self.simplex.undo_to(frame.simplex_mark)
        del self._asserted[frame.asserted:]
        del self._closure_lits[frame.closure_lits:]
        for is_app, term_id in frame.refs:
            refs = self._app_refs if is_app else self._int_refs
            remaining = refs[term_id] - 1
            if remaining:
                refs[term_id] = remaining
            else:
                del refs[term_id]
                self._refs_version += 1
        for link in frame.links:
            self._linked.discard(link)
        depth = len(self._frames)
        while self._failed and self._failed[-1][0] > depth:
            self._failed.pop()

    @property
    def depth(self) -> int:
        """Number of open push scopes."""
        return len(self._frames)

    # -- term translation ----------------------------------------------------

    def _translate(self, term: Formula) -> int:
        """Intern a formula term (persistently memoized), recording its
        subtree's application and integer term ids for liveness tracking."""
        cached = self._term_ids.get(term)
        if cached is not None:
            return cached
        apps: Tuple[int, ...] = ()
        if isinstance(term, Var):
            term_id = self.bank.constant(f"var:{term.name}")
            ints: Tuple[int, ...] = ()
        elif isinstance(term, IntLit):
            term_id = self.bank.constant(f"int:{term.value}")
            ints = ()
        elif isinstance(term, BoolLit):
            term_id = self._true if term.value else self._false
            ints = ()
        elif isinstance(term, App):
            children = [self._translate(arg) for arg in term.args]
            term_id = self.bank.apply(term.func, children)
            apps, ints = self._merge_refs(term.args)
            apps += (term_id,)
        elif isinstance(term, Unary):
            child = self._translate(term.arg)
            term_id = self.bank.apply(f"unary:{term.op.value}", [child])
            apps, ints = self._merge_refs((term.arg,))
            apps += (term_id,)
        elif isinstance(term, Binary):
            children = [self._translate(term.lhs), self._translate(term.rhs)]
            term_id = self.bank.apply(f"binary:{term.op.value}", children)
            apps, ints = self._merge_refs((term.lhs, term.rhs))
            apps += (term_id,)
        elif isinstance(term, Ite):
            children = [
                self._translate(term.cond),
                self._translate(term.then_),
                self._translate(term.else_),
            ]
            term_id = self.bank.apply("ite", children)
            apps, ints = self._merge_refs((term.cond, term.then_, term.else_))
            apps += (term_id,)
        elif isinstance(term, SetLit):
            children = [self._translate(element) for element in term.elements]
            term_id = self.bank.apply("setlit", children)
            apps, ints = self._merge_refs(term.elements)
            apps += (term_id,)
        else:
            term_id = self.bank.constant(f"opaque:{term!r}")
            ints = ()
        if isinstance(term.sort, IntSort):
            self._int_terms.setdefault(term_id, term)
            ints += (term_id,)
        self._term_ids[term] = term_id
        self._term_refs[term] = (apps, ints)
        return term_id

    def _merge_refs(
        self, children: Iterable[Formula]
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        apps: Tuple[int, ...] = ()
        ints: Tuple[int, ...] = ()
        for child in children:
            child_apps, child_ints = self._term_refs[child]
            apps += child_apps
            ints += child_ints
        return apps, ints

    def _touch(self, term: Formula) -> int:
        """Translate ``term`` and count its whole subtree as live at the
        current scope (only live terms take part in congruence closure and
        Nelson–Oppen propagation)."""
        term_id = self._translate(term)
        apps, ints = self._term_refs[term]
        frame = self._frames[-1] if self._frames else self._base
        refs = frame.refs
        app_refs = self._app_refs
        int_refs = self._int_refs
        for app in apps:
            count = app_refs.get(app, 0)
            if not count:
                self._refs_version += 1
            app_refs[app] = count + 1
            refs.append((True, app))
        for integer in ints:
            count = int_refs.get(integer, 0)
            if not count:
                self._refs_version += 1
            int_refs[integer] = count + 1
            refs.append((False, integer))
        return term_id

    def _to_linear(
        self, term: Formula, leaves: Optional[List[Formula]]
    ) -> LinearExpr:
        """Translate an integer-sorted term into a linear expression.

        When ``leaves`` is given, the opaque (non-arithmetic) leaf terms
        are collected into it instead of being reference-counted here —
        the caller replays :meth:`_touch_linear_leaf` on them per assert,
        which is what makes the translation cacheable.
        """
        if isinstance(term, IntLit):
            return LinearExpr.constant_expr(term.value)
        if isinstance(term, Unary) and term.op is UnaryOp.NEG:
            return self._to_linear(term.arg, leaves).scale(-1)
        if isinstance(term, Binary):
            if term.op is BinaryOp.PLUS:
                return self._to_linear(term.lhs, leaves).add(
                    self._to_linear(term.rhs, leaves)
                )
            if term.op is BinaryOp.MINUS:
                return self._to_linear(term.lhs, leaves).subtract(
                    self._to_linear(term.rhs, leaves)
                )
            if term.op is BinaryOp.TIMES:
                if isinstance(term.lhs, IntLit):
                    return self._to_linear(term.rhs, leaves).scale(term.lhs.value)
                if isinstance(term.rhs, IntLit):
                    return self._to_linear(term.lhs, leaves).scale(term.rhs.value)
        term_id = self._translate(term)
        self._int_terms.setdefault(term_id, term)
        if leaves is not None:
            leaves.append(term)
        return LinearExpr.variable(f"t{term_id}")

    def _touch_linear_leaf(self, term: Formula) -> None:
        """Count one opaque arithmetic leaf as live at the current scope.

        The leaf stands for itself in the arithmetic; it is counted as a
        live integer term even when its sort tracking missed it.
        """
        term_id = self._touch(term)
        if not isinstance(term.sort, IntSort):
            count = self._int_refs.get(term_id, 0)
            if not count:
                self._refs_version += 1
            self._int_refs[term_id] = count + 1
            frame = self._frames[-1] if self._frames else self._base
            frame.refs.append((False, term_id))

    def _linear_constraint(self, atom: Formula, polarity: bool) -> Constraint:
        """The simplex constraint for an arithmetic atom under a polarity,
        cached per (atom, polarity) — only the leaf refcount replay is
        per-assert work."""
        key = (atom, polarity)
        cached = self._constraint_cache.get(key)
        if cached is None:
            leaves: List[Formula] = []
            lhs = self._to_linear(atom.lhs, leaves)
            rhs = self._to_linear(atom.rhs, leaves)
            if atom.op in COMPARISON_OPS:
                constraint = _comparison_constraint(atom.op, lhs, rhs, polarity)
            else:
                is_equality = (atom.op is BinaryOp.EQ) == polarity
                relation = Relation.EQ if is_equality else Relation.NEQ
                constraint = Constraint(lhs.subtract(rhs), relation)
            cached = (constraint, tuple(leaves))
            self._constraint_cache[key] = cached
        constraint, leaves = cached
        for leaf in leaves:
            self._touch_linear_leaf(leaf)
        return constraint

    # -- assertion -----------------------------------------------------------

    def assert_literal(self, literal: Literal) -> Optional[Conflict]:
        """Assert one literal; returns a conflict when it is immediately
        inconsistent (full consistency is decided by :meth:`check`)."""
        self._asserted.append(literal)
        atom, polarity = literal.atom, literal.polarity
        if isinstance(atom, BoolLit):
            if atom.value != polarity:
                return self._fail(([literal], True))
            return None
        if isinstance(atom, (Var, App)) and atom.sort == BOOL:
            self.closure.assert_equal(
                self._touch(atom), self._true if polarity else self._false
            )
            self._closure_lits.append(literal)
            return None
        if isinstance(atom, Binary) and atom.op in COMPARISON_OPS:
            constraint = self._linear_constraint(atom, polarity)
            return self._assert_constraint(constraint, literal)
        if isinstance(atom, Binary) and atom.op in (BinaryOp.EQ, BinaryOp.NEQ):
            is_equality = (atom.op is BinaryOp.EQ) == polarity
            lhs_id, rhs_id = self._touch(atom.lhs), self._touch(atom.rhs)
            if is_equality:
                self.closure.assert_equal(lhs_id, rhs_id)
            else:
                self.closure.assert_distinct(lhs_id, rhs_id)
            self._closure_lits.append(literal)
            if isinstance(atom.lhs.sort, IntSort):
                return self._assert_constraint(
                    self._linear_constraint(atom, polarity), literal
                )
            return None
        # Anything else (set atoms that escaped the encoder, etc.) is
        # treated as unconstrained — the safe, conservative answer.
        return None

    def _assert_constraint(self, constraint: Constraint, tag: object) -> Optional[Conflict]:
        conflict = self.simplex.assert_constraint(constraint, tag)
        if conflict is None:
            return None
        return self._fail(self._explain(conflict))

    def _fail(self, conflict: Conflict) -> Conflict:
        self._failed.append((len(self._frames), conflict))
        return conflict

    def _explain(self, tags: List[object]) -> Conflict:
        """Map simplex tags back to literals; conflicts involving derived
        (Nelson–Oppen) bounds fall back to the full asserted set."""
        literals: List[Literal] = []
        seen: Set[Literal] = set()
        for tag in tags:
            if tag is DERIVED:
                return (list(self._asserted), False)
            if tag not in seen:
                seen.add(tag)
                literals.append(tag)
        return (literals, True)

    # -- consistency ---------------------------------------------------------

    def check(self) -> Optional[Conflict]:
        """Re-establish consistency of the asserted stack; returns ``None``
        when consistent, else a conflict.

        Both halves are change-driven: the congruence rebuild and the
        Nelson–Oppen scan run only when the closure, the live application
        set, or the link set moved since the last check, and the simplex
        skips repair when no bound changed (its own dirty flag).
        """
        if faults.maybe_fire("theory.raise"):
            raise faults.FaultInjected("theory.raise: injected theory-check failure")
        # Wall-clock cancellation point before the (change-driven, but
        # potentially large) congruence rebuild; the simplex repair has its
        # own per-pivot checkpoint.
        limits.checkpoint()
        if self._failed:
            return self._failed[-1][1]
        state = (self.closure.version, self._refs_version, len(self._linked))
        if state != self._closed_state:
            self.closure.close_over(list(self._app_refs))
            if self.closure.inconsistent_disequality() is not None:
                return (list(self._asserted), False)
            conflict = self._propagate_equalities()
            if conflict is not None:
                return conflict
            # close_over and link assertion bump the version; record the
            # settled state so an unchanged prefix skips this block.
            self._closed_state = (
                self.closure.version, self._refs_version, len(self._linked)
            )
        tags = self.simplex.check()
        if tags is None:
            return None
        return self._explain(tags)

    def _propagate_equalities(self) -> Optional[Conflict]:
        """Nelson–Oppen step: chain live integer terms the closure proves
        equal into the simplex (each link asserted once per scope)."""
        find = self.closure._find
        groups: Dict[int, List[int]] = {}
        for term_id in sorted(self._int_refs):
            groups.setdefault(find(term_id), []).append(term_id)
        frame = self._frames[-1] if self._frames else self._base
        for members in groups.values():
            for first, second in zip(members, members[1:]):
                link = (first, second)
                if link in self._linked:
                    continue
                lhs = self._term_expr(self._int_terms[first], first)
                rhs = self._term_expr(self._int_terms[second], second)
                conflict = self.simplex.assert_constraint(
                    Constraint(lhs.subtract(rhs), Relation.EQ), DERIVED
                )
                if conflict is not None:
                    # Not recorded as linked: the bound was rejected, so the
                    # next check must re-derive (and re-detect) it.
                    return self._explain(conflict)
                self._linked.add(link)
                frame.links.append(link)
        return None

    @staticmethod
    def _term_expr(term: Formula, term_id: int) -> LinearExpr:
        """Linear expression for a tracked integer term."""
        if isinstance(term, IntLit):
            return LinearExpr.constant_expr(term.value)
        return LinearExpr.variable(f"t{term_id}")

    # -- propagation ---------------------------------------------------------

    def watch_atom(self, atom: Formula, payload: object) -> None:
        """Register an interned atom so :meth:`propagate` can report its
        entailed truth value.  Watching asserts nothing (terms are interned
        but not counted live)."""
        cmp_record = None
        euf_record = None
        if isinstance(atom, Binary) and atom.op in COMPARISON_OPS:
            positive = _comparison_constraint(
                atom.op,
                self._to_linear(atom.lhs, None),
                self._to_linear(atom.rhs, None),
                True,
            )
            negative = _comparison_constraint(
                atom.op,
                self._to_linear(atom.lhs, None),
                self._to_linear(atom.rhs, None),
                False,
            )
            cmp_record = (self.simplex.bound_form(positive), self.simplex.bound_form(negative))
        elif isinstance(atom, Binary) and atom.op in (BinaryOp.EQ, BinaryOp.NEQ):
            lhs_id, rhs_id = self._translate(atom.lhs), self._translate(atom.rhs)
            euf_record = (lhs_id, rhs_id, atom.op is BinaryOp.EQ)
            if isinstance(atom.lhs.sort, IntSort):
                expr = self._to_linear(atom.lhs, None).subtract(
                    self._to_linear(atom.rhs, None)
                )
                equality = Constraint(expr, Relation.EQ)
                form = self.simplex.bound_form(equality)
                if form is not None:
                    # For == atoms the positive side is the eq form; for !=
                    # atoms the polarity is flipped at propagation time.
                    cmp_record = ((form if atom.op is BinaryOp.EQ else None),
                                  (form if atom.op is BinaryOp.NEQ else None))
        if cmp_record is not None or euf_record is not None:
            self._watches[payload] = (cmp_record, euf_record)

    def is_watched(self, payload: object) -> bool:
        """Has an atom been registered under this payload?"""
        return payload in self._watches

    def propagate(
        self, payloads: Iterable[object]
    ) -> List[Tuple[object, bool, List[Literal]]]:
        """Truth values entailed for the watched atoms of ``payloads`` by
        the current assertions, with reason literals.

        Must be called after a successful :meth:`check` (the congruence
        closure is queried without re-closing).  LIA entailments come from
        the directly asserted bounds (single-literal reasons); EUF
        entailments from the closure (reasons are the closure-touching
        literals).
        """
        implied: List[Tuple[object, bool, List[Literal]]] = []
        lower = self.simplex._lower
        upper = self.simplex._upper
        find = self.closure._find
        for payload in payloads:
            record = self._watches.get(payload)
            if record is None:
                continue
            cmp_record, euf_record = record
            if cmp_record is not None:
                positive, negative = cmp_record
                outcome = None
                if positive is not None:
                    outcome = self._bound_refutation(positive, lower, upper)
                    if outcome is not None:
                        implied.append((payload, False, outcome))
                        continue
                    outcome = self._bound_entailment(positive, lower, upper)
                    if outcome is not None:
                        implied.append((payload, True, outcome))
                        continue
                if negative is not None:
                    outcome = self._bound_refutation(negative, lower, upper)
                    if outcome is not None:
                        implied.append((payload, True, outcome))
                        continue
            if euf_record is not None:
                lhs_id, rhs_id, is_equality = euf_record
                if find(lhs_id) == find(rhs_id) and self._closure_lits:
                    reasons = list(dict.fromkeys(self._closure_lits))
                    implied.append((payload, is_equality, reasons))
        return implied

    @staticmethod
    def _bound_refutation(form, lower, upper) -> Optional[List[Literal]]:
        """Reason the asserted bounds *contradict* ``var REL bound``."""
        var, kind, bound = form
        low = lower.get(var)
        high = upper.get(var)
        if kind == "ub" or kind == "eq":
            if low is not None and low[0] > bound and isinstance(low[1], Literal):
                return [low[1]]
        if kind == "lb" or kind == "eq":
            if high is not None and high[0] < bound and isinstance(high[1], Literal):
                return [high[1]]
        return None

    @staticmethod
    def _bound_entailment(form, lower, upper) -> Optional[List[Literal]]:
        """Reason the asserted bounds *entail* ``var REL bound``."""
        var, kind, bound = form
        low = lower.get(var)
        high = upper.get(var)
        if kind == "ub":
            if high is not None and high[0] <= bound and isinstance(high[1], Literal):
                return [high[1]]
        elif kind == "lb":
            if low is not None and low[0] >= bound and isinstance(low[1], Literal):
                return [low[1]]
        elif kind == "eq":
            if (
                low is not None
                and high is not None
                and low[0] == high[0] == bound
                and isinstance(low[1], Literal)
                and isinstance(high[1], Literal)
            ):
                reasons = [low[1]]
                if high[1] != low[1]:
                    reasons.append(high[1])
                return reasons
        return None


class TheoryChecker:
    """Checks consistency of a conjunction of theory literals, one set at
    a time.

    Each set is decided on a fresh :class:`IncrementalTheory`: every
    literal is asserted, the set is inconsistent at the first assert-time
    conflict, and otherwise consistent when :meth:`IncrementalTheory.check`
    finds none.  Nothing is memoized: within one solver's life so few
    probes repeat a set that a memo saves no time.
    """

    def is_consistent(self, literals: Sequence[Literal]) -> bool:
        """Is the conjunction of the given literals satisfiable?"""
        theory = IncrementalTheory()
        return (
            all(theory.assert_literal(literal) is None for literal in literals)
            and theory.check() is None
        )
