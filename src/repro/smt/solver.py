"""The DPLL(T) satisfiability solver.

This is the replacement for Z3 used by the original Synquid: a
propositional CDCL core (:mod:`repro.smt.sat`) explores the boolean
structure of the query while a persistent, backtrackable EUF + LIA theory
solver (:class:`repro.smt.theory.IncrementalTheory`) shadows its trail.
At every propagation fixpoint the newly assigned theory atoms are
asserted into the theory — per decision level, not only on complete
assignments — so inconsistent branches are refuted while they are still
partial; the theory also *propagates*, pushing atom values it can already
entail (LIA bound subsumption, congruence-entailed equalities) back into
the SAT trail as implications with reason clauses.  Theory conflicts are
explained (simplex bound tags) or QuickXplain-minimized with probes on
fresh theories, and learned as lemmas.

:class:`IncrementalSolver` runs that loop and is the one way to run a
query.  One persistent Tseitin encoder, **one persistent CDCL SAT
solver**, and one theory serve every query for the solver's whole
lifetime; each asserted formula is guarded by an *assumption literal* (a
selector), its CNF is loaded into the SAT core exactly once at
selector-creation time, and ``check`` merely solves under the active
selectors.  Clause relevance is free: watched-literal propagation never
touches clauses whose selectors are inactive (their guards are satisfied
by the solver's negative default phase).  Re-asserting a formula (the
Horn fixpoint loop does this constantly) reuses its existing CNF, theory
lemmas learned in one query prune all later ones, and the learned-lemma
database is garbage collected by clause activity so it stays bounded.
A one-shot question is a scoped query on it:
:meth:`IncrementalSolver.check_assuming` or
:meth:`IncrementalSolver.is_valid_implication`.

Per-query preprocessing (see :meth:`IncrementalSolver._preprocess`):

1. boolean equalities are rewritten to ``iff``;
2. if-then-else terms are lifted into fresh definitional variables;
3. the formula is put into negation normal form;
4. finite-set atoms are compiled away (``repro.smt.sets``), for all the
   live formulas that mention sets at once;
5. the result is Tseitin-encoded and handed to the lazy loop.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..logic import ops
from ..logic.formulas import (
    Binary,
    BinaryOp,
    BoolLit,
    Formula,
    Ite,
    Unary,
    UnaryOp,
    is_false,
    is_true,
)
from ..logic.simplify import negation_normal_form, simplify
from ..logic.sorts import BoolSort
from ..logic.transform import mentions_sets, transform
from ..metrics import Counters
from .names import FreshNames
from .lia import SIMPLEX_COUNTERS
from .sat import SAT_COUNTERS, SatSolver
from .sets import eliminate_sets
from .theory import Conflict, IncrementalTheory, Literal, TheoryChecker


#: The counters of one :class:`IncrementalSolver`: its own, then the ones
#: its SAT core and its bridge theory's simplex charge to it.
SOLVER_COUNTERS = (
    "sat_queries",
    # incremental theory checks of the bridge (one per literal batch)
    "theory_checks",
    # distinct formulas encoded into CNF (selector created)
    "encoded_assertions",
    # assertions answered from the selector table without re-encoding
    "reused_assertions",
    # theory checks spent minimizing conflicts (QuickXplain probes)
    "shrink_theory_checks",
    *SAT_COUNTERS,
    *SIMPLEX_COUNTERS,
)


# ---------------------------------------------------------------------------
# Tseitin encoding
# ---------------------------------------------------------------------------

class TseitinEncoder:
    """Encodes NNF formulas into CNF over fresh propositional variables.

    The encoder is persistent: theory atoms and previously encoded formulas
    are memoized in formula-keyed tables (O(1) lookups thanks to the cached
    structural hashes), so encoding the same subformula twice costs a single
    dictionary probe instead of a CNF rebuild.

    Every emitted gate clause is a full equivalence (``output <-> gate``),
    so under any complete assignment of the clause database the root
    literal of an encoded formula evaluates exactly to the formula's truth
    value — which is what lets consumers read counterexample models back
    through :meth:`IncrementalSolver.check_evaluating`.

    Atom *provenance* is tracked per encoded formula (the atoms it
    references itself plus the formulas it delegated to), so a consumer can
    ask for exactly the theory atoms a given root formula depends on
    (:meth:`atom_closure`).
    """

    def __init__(self) -> None:
        self.clauses: List[List[int]] = []
        self._atom_vars: Dict[Formula, int] = {}
        self._var_atoms: Dict[int, Formula] = {}
        #: append-only log of (atom, variable) in creation order, so
        #: consumers can postprocess newly interned atoms (theory linking).
        self.atom_log: List[Tuple[Formula, int]] = []
        self._roots: Dict[Formula, int] = {}
        #: subformulas whose encodings a formula depends on
        self._formula_deps: Dict[Formula, List[Formula]] = {}
        #: atom variables referenced directly while encoding a formula
        self._formula_atoms: Dict[Formula, List[int]] = {}
        self._atom_closures: Dict[Formula, frozenset] = {}
        self._frames: List[Tuple[List[Formula], List[int]]] = []
        self._next_var = 1

    def fresh_var(self) -> int:
        """Allocate a fresh propositional variable."""
        variable = self._next_var
        self._next_var += 1
        return variable

    def atom_variable(self, atom: Formula) -> int:
        """The propositional variable standing for a theory atom."""
        variable = self._atom_vars.get(atom)
        if variable is None:
            variable = self.fresh_var()
            self._atom_vars[atom] = variable
            self._var_atoms[variable] = atom
            self.atom_log.append((atom, variable))
        if self._frames:
            self._frames[-1][1].append(variable)
        return variable

    def emit_clause(self, clause: List[int]) -> int:
        """Record a clause; returns its index in :attr:`clauses`."""
        index = len(self.clauses)
        self.clauses.append(clause)
        return index

    def encode(self, formula: Formula) -> int:
        """Encode a formula; returns the literal equivalent to the formula."""
        if self._frames:
            self._frames[-1][0].append(formula)
        cached = self._roots.get(formula)
        if cached is not None:
            return cached
        self._frames.append(([], []))
        try:
            literal = self._encode(formula)
        finally:
            deps, atoms = self._frames.pop()
        self._roots[formula] = literal
        self._formula_deps[formula] = deps
        self._formula_atoms[formula] = atoms
        return literal

    def atom_closure(self, formula: Formula) -> frozenset:
        """Variables of every theory atom the formula's encoding contains."""
        cached = self._atom_closures.get(formula)
        if cached is not None:
            return cached
        needed: set = set()
        stack, seen = [formula], set()
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            needed.update(self._formula_atoms.get(current, ()))
            stack.extend(self._formula_deps.get(current, ()))
        closure = frozenset(needed)
        self._atom_closures[formula] = closure
        return closure

    def _encode(self, formula: Formula) -> int:
        if isinstance(formula, BoolLit):
            variable = self.fresh_var()
            self.emit_clause([variable] if formula.value else [-variable])
            return variable
        if isinstance(formula, Unary) and formula.op is UnaryOp.NOT:
            return -self.encode(formula.arg)
        if isinstance(formula, Binary) and formula.op is BinaryOp.AND:
            lhs, rhs = self.encode(formula.lhs), self.encode(formula.rhs)
            output = self.fresh_var()
            self.emit_clause([-output, lhs])
            self.emit_clause([-output, rhs])
            self.emit_clause([output, -lhs, -rhs])
            return output
        if isinstance(formula, Binary) and formula.op is BinaryOp.OR:
            lhs, rhs = self.encode(formula.lhs), self.encode(formula.rhs)
            output = self.fresh_var()
            self.emit_clause([-output, lhs, rhs])
            self.emit_clause([output, -lhs])
            self.emit_clause([output, -rhs])
            return output
        if isinstance(formula, Binary) and formula.op is BinaryOp.IMPLIES:
            return self.encode(ops.or_(ops.not_(formula.lhs), formula.rhs))
        if isinstance(formula, Binary) and formula.op is BinaryOp.IFF:
            both = ops.and_(
                ops.implies(formula.lhs, formula.rhs),
                ops.implies(formula.rhs, formula.lhs),
            )
            return self.encode(both)
        if isinstance(formula, Ite) and isinstance(formula.sort, BoolSort):
            expanded = ops.or_(
                ops.and_(formula.cond, formula.then_),
                ops.and_(ops.not_(formula.cond), formula.else_),
            )
            return self.encode(expanded)
        # A theory atom.
        return self.atom_variable(formula)


# ---------------------------------------------------------------------------
# the incremental backend
# ---------------------------------------------------------------------------


class _TheoryBridge:
    """Adapts :class:`IncrementalTheory` to the :class:`SatSolver` DPLL(T)
    listener protocol.

    One theory scope is pushed per ``extend`` batch (the trail literals
    assigned since the last propagation fixpoint), so a batch costs one
    undo frame no matter how many Tseitin auxiliaries it carries.  The
    solver only ever backtracks to propagation fixpoints, which are batch
    starts; a backjump that lands inside a batch (assumption levels share
    one batch) pops the whole batch and the next ``extend`` re-asserts the
    surviving prefix verbatim.  On success, the entailed values of
    watched, still-unassigned atoms are reported as implications.

    The bridge holds only what it reads — the encoder's atom tables, the
    SAT core's assignment list (grown in place, never replaced), the
    shrink checker and the statistics it charges — and never the
    :class:`IncrementalSolver` that owns it, so a solver is freed by
    reference counting the moment its last user lets go.
    """

    def __init__(
        self,
        encoder: TseitinEncoder,
        assign: List[Optional[bool]],
        statistics: Counters,
    ) -> None:
        self.theory = IncrementalTheory(statistics)
        self._encoder = encoder
        self._assign = assign
        #: decides the QuickXplain probes of unexplained conflicts.
        self._checker = TheoryChecker()
        self._statistics = statistics
        #: trail literals absorbed so far (the SatSolver protocol field).
        self.synced = 0
        #: trail position at which each open theory scope began.
        self._marks: List[int] = []
        #: watched atom variables of the current solve's decision cone.
        self._watch_vars: List[int] = []

    def begin(self, cone) -> None:
        """Start a solve over the given decision cone."""
        theory = self.theory
        self._watch_vars = [v for v in cone if theory.is_watched(v)]

    def backtrack(self, count: int) -> None:
        theory = self.theory
        marks = self._marks
        while marks and self.synced > count:
            theory.pop()
            self.synced = marks.pop()

    def extend(self, new_literals: Sequence[int]):
        theory = self.theory
        self._marks.append(self.synced)
        theory.push()
        self.synced += len(new_literals)
        var_atoms = self._encoder._var_atoms
        touched = False
        for lit in new_literals:
            atom = var_atoms.get(lit if lit > 0 else -lit)
            if atom is None:
                continue
            touched = True
            conflict = theory.assert_literal(Literal(atom, lit > 0))
            if conflict is not None:
                # The remaining batch is left unasserted: a conflict report
                # always backtracks the trail, popping this whole scope.
                return "conflict", self._conflict_clause(conflict)
        if not touched:
            return "ok", ()
        self._statistics.theory_checks += 1
        conflict = theory.check()
        if conflict is not None:
            return "conflict", self._conflict_clause(conflict)
        return "ok", self._implications()

    def _conflict_clause(self, conflict: Conflict) -> List[int]:
        """Turn a theory conflict into a blocking clause.

        Explained conflicts (simplex bound tags) are near-minimal already;
        unexplained ones (congruence, Nelson–Oppen) are QuickXplain-shrunk
        before blocking, each probe decided on a fresh theory.
        """
        literals, explained = conflict
        if not explained:
            literals = _shrink_conflict(self._checker, literals, self._statistics)
        atom_variable = self._encoder.atom_variable
        clause: List[int] = []
        seen: Set[int] = set()
        for literal in literals:
            lit = -atom_variable(literal.atom) if literal.polarity else atom_variable(literal.atom)
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
        return clause

    def _implications(self) -> Sequence[List[int]]:
        """Reason clauses for entailed values of unassigned watched atoms."""
        assign = self._assign
        top = len(assign)
        unassigned = [v for v in self._watch_vars if v >= top or assign[v] is None]
        if not unassigned:
            return ()
        atom_vars = self._encoder._atom_vars
        implications: List[List[int]] = []
        for payload, polarity, reasons in self.theory.propagate(unassigned):
            lit = payload if polarity else -payload
            clause = [lit]
            seen = {lit}
            for reason in reasons:
                reason_var = atom_vars[reason.atom]
                reason_lit = -reason_var if reason.polarity else reason_var
                if reason_lit not in seen:
                    seen.add(reason_lit)
                    clause.append(reason_lit)
            implications.append(clause)
        return implications


class IncrementalSolver:
    """Assumption-literal based incremental CDCL(T) solver.

    Every distinct asserted formula gets a *selector* literal ``s`` and a
    guard clause ``s -> formula``; a scope is the list of selectors asserted
    since the matching ``push``, and ``check`` solves under the union of the
    live selectors as assumptions.  Popping a scope merely forgets its
    selector list — the CNF, the atom table, and all learned theory lemmas
    stay in the **one persistent SAT solver**, so later scopes that
    re-assert the same formulas (the Horn fixpoint loop, the type checker's
    subtyping queries) reuse everything.  No clauses are ever copied per
    check: watched literals skip clauses whose selectors are inactive, and
    the SAT core's learned-clause GC keeps the lemma database bounded.

    Theory lemmas learned by blocking inconsistent assignments are valid
    sentences of the theory, so keeping them across scopes is sound (and
    dropping them in a garbage collection merely means the theory may have
    to refute the same assignment again).  Each ``check`` restricts the
    theory to the atoms of the *active* assertions, maintained
    incrementally as scopes are pushed and popped.

    Finite sets are eliminated per scope, not per assertion: a formula that
    mentions sets gets no selector of its own.  ``assert_`` records it in
    its scope, and each check conjoins every live one, in scope order, and
    eliminates the conjunction at once, so a positive set equality or
    inclusion is expanded over the elements of *every* live set formula
    however the caller split them.  Each distinct conjunction gets a
    selector like any other assertion and is encoded once.

    ``statistics`` holds :data:`SOLVER_COUNTERS`; the SAT core, the theory
    bridge and its simplex charge their counters to it directly.
    """

    def __init__(self) -> None:
        self.statistics = Counters(*SOLVER_COUNTERS)
        self._encoder = TseitinEncoder()
        self._sat = SatSolver(statistics=self.statistics)
        self._fresh = FreshNames()
        #: clauses of the encoder already loaded into the SAT core.
        self._loaded_clauses = 0
        #: formula -> selector literal (None when the formula is trivially true).
        self._selectors: Dict[Formula, Optional[int]] = {}
        #: selector literal -> variables of the theory atoms it activates.
        self._selector_atoms: Dict[int, frozenset] = {}
        #: multiset over the live selectors' atoms, maintained incrementally
        #: on assert_/pop instead of re-unioned per check.  Doubles as the
        #: SAT core's decision cone: Tseitin auxiliaries follow from atom
        #: assignments by unit propagation, so atoms are the only variables
        #: worth branching on.
        self._active_atom_counts: Dict[int, int] = {}
        #: directed (lhs, rhs) term pair -> [(relation, variable)] for the
        #: comparison/equality atoms over it (theory linking index).
        self._atoms_by_pair: Dict[Tuple[Formula, Formula], List[Tuple[str, int]]] = {}
        #: atoms of the encoder's log already linked.
        self._linked_atoms = 0
        self._frames: List[List[int]] = [[]]
        #: the live formulas that mention sets, in scope order, and the
        #: length of that list when each open scope was pushed.
        self._set_formulas: List[Formula] = []
        self._set_marks: List[int] = []
        #: the persistent DPLL(T) theory, shadowing the SAT trail.
        self._bridge = _TheoryBridge(self._encoder, self._sat._assign, self.statistics)

    # -- assertion scopes ----------------------------------------------------

    def push(self) -> None:
        """Open a new assertion scope."""
        self._frames.append([])
        self._set_marks.append(len(self._set_formulas))

    def pop(self) -> None:
        """Discard the innermost assertion scope."""
        if len(self._frames) == 1:
            raise RuntimeError("pop without matching push")
        del self._set_formulas[self._set_marks.pop() :]
        counts = self._active_atom_counts
        for selector in self._frames.pop():
            for variable in self._selector_atoms[selector]:
                remaining = counts[variable] - 1
                if remaining:
                    counts[variable] = remaining
                else:
                    del counts[variable]

    def assert_(self, formula: Formula) -> None:
        """Add a formula to the innermost scope (a formula asserted before
        reuses its selector and CNF).  One that mentions sets waits for the
        check, which eliminates the live ones together."""
        if mentions_sets(formula):
            self._set_formulas.append(formula)
            return
        selector = self._selector(formula)
        if selector is not None:
            self._frames[-1].append(selector)
            counts = self._active_atom_counts
            for variable in self._selector_atoms[selector]:
                counts[variable] = counts.get(variable, 0) + 1

    @contextmanager
    def scoped(self) -> Iterator["IncrementalSolver"]:
        """A ``with``-block assertion scope: ``push`` on entry, ``pop`` on
        exit (even on error), so a caller sharing one solver across many
        obligations keeps its scope discipline exception-safe."""
        self.push()
        try:
            yield self
        finally:
            self.pop()

    # -- queries -------------------------------------------------------------

    def check(self) -> bool:
        """Is the conjunction of all live assertions satisfiable?"""
        return self._solve_active() is not None

    def check_evaluating(
        self, probes: Sequence[Formula]
    ) -> Optional[List[Optional[bool]]]:
        """Check the live assertions; on SAT, also report each probe's truth
        value under the discovered theory-consistent model.

        Returns ``None`` when the assertions are unsatisfiable.  Otherwise
        the list holds one entry per probe: the probe is evaluated
        three-valued over exactly the atoms the theory vouched for
        (the model's prime implicant), so a ``True``/``False`` entry holds
        in a genuine theory model of the live assertions; ``None`` means
        the checked atoms leave the probe undetermined (or the probe is
        unevaluable: set atoms, ite-lifting).
        """
        outcome = self._solve_active()
        if outcome is None:
            return None
        model, checked = outcome
        atom_vars = self._encoder._atom_vars
        return [_evaluate_partial(probe, atom_vars, model, checked) for probe in probes]

    def check_assuming(self, formulas: Iterable[Formula]) -> bool:
        """Satisfiability of the live assertions plus the given formulas."""
        with self.scoped():
            for formula in formulas:
                self.assert_(formula)
            return self.check()

    def is_valid_implication(self, premises: Iterable[Formula], conclusion: Formula) -> bool:
        """Does the conjunction of ``premises`` entail ``conclusion`` (in the
        context of the live assertions)?"""
        return not self.check_assuming([*premises, ops.not_(conclusion)])

    # -- internals -----------------------------------------------------------

    def _solve_active(self) -> Optional[Tuple[Dict[int, bool], frozenset]]:
        """One DPLL(T) solve over the persistent SAT core.

        The theory bridge shadows the SAT trail, so a satisfiable verdict
        is already theory-consistent over every asserted atom — the old
        guess-check-block outer loop is gone.  Returns ``(model,
        checked_atoms)``: the model plus the active atom variables the
        theory vouched for, or ``None`` when the active scope is
        unsatisfiable.
        """
        self.statistics.sat_queries += 1
        assumptions = [lit for frame in self._frames for lit in frame]
        active_atoms = frozenset(self._active_atom_counts)
        if self._set_formulas:
            # One assertion for all live set formulas, so their sets are
            # eliminated over one universe; its atoms join this solve only.
            selector = self._selector(ops.conj(self._set_formulas))
            if selector is not None:
                assumptions.append(selector)
                active_atoms |= self._selector_atoms[selector]
        self._bridge.begin(active_atoms)
        result = self._sat.solve(assumptions, decide=active_atoms, theory=self._bridge)
        if not result.satisfiable:
            return None
        # Every assigned atom was asserted into (and accepted by) the
        # theory; the active ones are what probe evaluation may trust.
        checked = frozenset(
            variable for variable in active_atoms if variable in result.model
        )
        return result.model, checked

    def _selector(self, formula: Formula) -> Optional[int]:
        """The formula's selector, made (and its CNF loaded) on first use."""
        if formula in self._selectors:
            self.statistics.reused_assertions += 1
            return self._selectors[formula]
        selector = self._selectors[formula] = self._make_selector(formula)
        return selector

    def _make_selector(self, formula: Formula) -> Optional[int]:
        self.statistics.encoded_assertions += 1
        processed = self._preprocess(formula)
        if is_true(processed):
            return None
        selector = self._encoder.fresh_var()
        if is_false(processed):
            # Assuming the selector contradicts this unit guard, making any
            # scope that asserts the formula unsatisfiable.
            self._encoder.emit_clause([-selector])
            self._selector_atoms[selector] = frozenset()
        else:
            root = self._encoder.encode(processed)
            self._encoder.emit_clause([-selector, root])
            self._selector_atoms[selector] = self._encoder.atom_closure(processed)
        self._load_new_clauses()
        self._link_new_atoms()
        return selector

    def _load_new_clauses(self) -> None:
        """Feed clauses emitted since the last load into the SAT core —
        each clause is encoded and loaded exactly once per solver lifetime."""
        clauses = self._encoder.clauses
        for index in range(self._loaded_clauses, len(clauses)):
            self._sat.add_clause(clauses[index])
        self._loaded_clauses = len(clauses)

    #: A relation over a directed term pair (a, b), as the set of outcomes
    #: of comparing a with b it allows — bit 4: a < b, bit 2: a = b,
    #: bit 1: a > b.  (For non-arithmetic sorts only eq/neq atoms arise,
    #: and merging their "<"/">" bits into plain disequality stays exact.)
    _REL_SIGNS = {"lt": 0b100, "eq": 0b010, "gt": 0b001, "le": 0b110, "ge": 0b011, "neq": 0b101}

    #: Flip a relation to the opposite orientation of its term pair.
    _FLIP = {"le": "ge", "ge": "le", "lt": "gt", "gt": "lt", "eq": "eq", "neq": "neq"}

    def _link_new_atoms(self) -> None:
        """Seed theory-valid lemmas relating comparison atoms over the same
        term pair (``a = b  ->  a <= b`` and friends).

        The lazy loop would discover each of these as a one-off theory
        conflict (costing a theory check, a minimization, and a re-solve);
        linking them propositionally at interning time lets unit
        propagation rule the combinations out for free.
        """
        log = self._encoder.atom_log
        while self._linked_atoms < len(log):
            atom, variable = log[self._linked_atoms]
            self._linked_atoms += 1
            self._bridge.theory.watch_atom(atom, variable)  # theory propagation
            decomposed = _comparison_parts(atom)
            if decomposed is None:
                continue
            relation, lhs, rhs = decomposed
            same = self._atoms_by_pair.setdefault((lhs, rhs), [])
            for other_rel, other_var in same:
                self._emit_link(relation, variable, other_rel, other_var)
            if lhs is not rhs:
                for other_rel, other_var in self._atoms_by_pair.get((rhs, lhs), ()):
                    self._emit_link(relation, variable, self._FLIP[other_rel], other_var)
            same.append((relation, variable))

    def _emit_link(self, relation: str, variable: int, other_rel: str, other_var: int) -> None:
        """Every valid binary clause relating two atoms over one term pair.

        With relations as outcome sets S over {<, =, >}: ``P -> Q`` is valid
        iff S(P) is a subset of S(Q), ``P | Q`` iff the sets cover all
        outcomes, and ``!P | !Q`` iff they are disjoint.
        """
        first = self._REL_SIGNS[relation]
        second = self._REL_SIGNS[other_rel]
        lemma = self._sat.add_lemma
        if first | second == 0b111:
            lemma([variable, other_var])
        if first & second == 0:
            lemma([-variable, -other_var])
        if first & ~second == 0:
            lemma([-variable, other_var])
        if second & ~first == 0:
            lemma([variable, -other_var])

    def _preprocess(self, formula: Formula) -> Formula:
        formula = simplify(formula)
        formula = _booleanize_equalities(formula)
        formula, definitions = _lift_ite(formula, self._fresh)
        if definitions:
            formula = ops.and_(formula, ops.conj(definitions))
        formula = negation_normal_form(formula)
        if mentions_sets(formula):
            formula = eliminate_sets(formula, self._fresh)
            formula = negation_normal_form(formula)
        return simplify(formula)


_COMPARISON_RELS = {
    BinaryOp.LE: "le",
    BinaryOp.LT: "lt",
    BinaryOp.GE: "ge",
    BinaryOp.GT: "gt",
    BinaryOp.EQ: "eq",
    BinaryOp.NEQ: "neq",
}


def _comparison_parts(atom: Formula) -> Optional[Tuple[str, Formula, Formula]]:
    """Decompose a comparison/equality atom into (relation, lhs, rhs)."""
    if isinstance(atom, Binary):
        relation = _COMPARISON_RELS.get(atom.op)
        if relation is not None:
            return relation, atom.lhs, atom.rhs
    return None


def _evaluate_partial(
    formula: Formula,
    atom_vars: Dict[Formula, int],
    model: Dict[int, bool],
    checked: frozenset,
) -> Optional[bool]:
    """Three-valued evaluation of a (raw) probe formula under a model.

    Atoms count as decided only when the theory vouched for their
    model value (``checked``); every other leaf — unknown atoms, set
    atoms compiled away during encoding, lifted ``ite`` terms — is unknown,
    and unknowns propagate by three-valued logic.  A definite answer
    therefore holds in a genuine theory model of the live assertions,
    which is what makes counterexample-driven pruning sound.
    """
    if isinstance(formula, BoolLit):
        return formula.value
    if isinstance(formula, Unary) and formula.op is UnaryOp.NOT:
        inner = _evaluate_partial(formula.arg, atom_vars, model, checked)
        return None if inner is None else not inner
    if isinstance(formula, Binary) and formula.op in (
        BinaryOp.AND,
        BinaryOp.OR,
        BinaryOp.IMPLIES,
        BinaryOp.IFF,
    ):
        lhs = _evaluate_partial(formula.lhs, atom_vars, model, checked)
        rhs = _evaluate_partial(formula.rhs, atom_vars, model, checked)
        if formula.op is BinaryOp.AND:
            if lhs is False or rhs is False:
                return False
            return True if lhs is True and rhs is True else None
        if formula.op is BinaryOp.OR:
            if lhs is True or rhs is True:
                return True
            return False if lhs is False and rhs is False else None
        if formula.op is BinaryOp.IMPLIES:
            if lhs is False or rhs is True:
                return True
            return False if lhs is True and rhs is False else None
        if lhs is None or rhs is None:
            return None
        return lhs == rhs
    if isinstance(formula, Ite) and isinstance(formula.sort, BoolSort):
        cond = _evaluate_partial(formula.cond, atom_vars, model, checked)
        if cond is None:
            return None
        branch = formula.then_ if cond else formula.else_
        return _evaluate_partial(branch, atom_vars, model, checked)
    # A theory atom: trusted only when the theory check covered it.
    variable = atom_vars.get(formula)
    if variable is not None and variable in checked:
        return model.get(variable)
    return None


#: Below this size a linear deletion scan needs fewer theory checks than
#: the divide-and-conquer (which pays for re-checking split backgrounds).
_SHRINK_DELETION_LIMIT = 8


def _shrink_conflict(
    theory: TheoryChecker,
    literals: List[Literal],
    statistics: Optional[Counters] = None,
) -> List[Literal]:
    """QuickXplain-style divide-and-conquer minimization of an inconsistent
    literal set (Junker 2004).

    Replaces the former always-linear deletion loop: whole halves that are
    irrelevant to the conflict are discarded with a single theory check, so
    small cores inside wide assignments cost O(core * log n) checks instead
    of O(n).  Tiny conflicts (where deletion's n checks beat the
    divide-and-conquer's bookkeeping) keep the one-at-a-time scan as the
    base case.
    """

    def consistent(subset: List[Literal]) -> bool:
        if statistics is not None:
            statistics.shrink_theory_checks += 1
        return theory.is_consistent(subset)

    if len(literals) <= 1:
        return list(literals)
    if len(literals) <= _SHRINK_DELETION_LIMIT:
        return _deletion(consistent, [], literals)
    core = _quickxplain(consistent, [], list(literals), False)
    # Safety net: the divide-and-conquer relies on the theory checker being
    # monotone; fall back to blocking the full assignment if minimization
    # ever produced a consistent subset.
    if core and not consistent(core):
        return core
    return list(literals)


# The two shrink helpers are module functions, not closures of
# ``_shrink_conflict``: a recursive closure is a reference cycle, which
# would keep every conflict's checker alive until a cyclic collection.


def _deletion(
    consistent: Callable[[List[Literal]], bool],
    background: List[Literal],
    candidates: List[Literal],
) -> List[Literal]:
    """Minimal subset of ``candidates`` inconsistent with ``background``
    by one-at-a-time deletion — never returns a consistent core."""
    current = list(candidates)
    index = 0
    while index < len(current):
        trial = current[:index] + current[index + 1 :]
        if (trial or background) and not consistent(background + trial):
            current = trial
        else:
            index += 1
    return current


def _quickxplain(
    consistent: Callable[[List[Literal]], bool],
    background: List[Literal],
    candidates: List[Literal],
    background_grew: bool,
) -> List[Literal]:
    if background_grew and not consistent(background):
        return []
    if len(candidates) == 1:
        return list(candidates)
    if len(candidates) <= _SHRINK_DELETION_LIMIT:
        return _deletion(consistent, background, candidates)
    mid = len(candidates) // 2
    left, right = candidates[:mid], candidates[mid:]
    conflict_right = _quickxplain(consistent, background + left, right, bool(left))
    conflict_left = _quickxplain(
        consistent, background + conflict_right, left, bool(conflict_right)
    )
    return conflict_left + conflict_right


# ---------------------------------------------------------------------------
# preprocessing helpers
# ---------------------------------------------------------------------------

def _booleanize_equalities(formula: Formula) -> Formula:
    """Rewrite ``a == b`` / ``a != b`` over booleans into (negated) ``iff``."""

    def rewrite(node: Formula) -> Formula:
        if isinstance(node, Binary) and node.op in (BinaryOp.EQ, BinaryOp.NEQ):
            if isinstance(node.lhs.sort, BoolSort):
                equivalence = ops.iff(node.lhs, node.rhs)
                return equivalence if node.op is BinaryOp.EQ else ops.not_(equivalence)
        return node

    return transform(formula, rewrite)


def _lift_ite(formula: Formula, fresh: FreshNames) -> Tuple[Formula, List[Formula]]:
    """Replace non-boolean ``ite`` terms by fresh variables with definitional
    constraints ``cond ==> v == then`` and ``!cond ==> v == else``."""
    definitions: List[Formula] = []

    def rewrite(node: Formula) -> Formula:
        if isinstance(node, Ite) and not isinstance(node.sort, BoolSort):
            fresh_var = fresh.fresh_var("ite", node.sort)
            definitions.append(ops.implies(node.cond, ops.eq(fresh_var, node.then_)))
            definitions.append(ops.implies(ops.not_(node.cond), ops.eq(fresh_var, node.else_)))
            return fresh_var
        return node

    rewritten = transform(formula, rewrite)
    return rewritten, definitions
