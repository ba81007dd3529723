"""An incremental CDCL SAT solver (MiniSat-style).

This is the propositional core of the lazy SMT loop (``repro.smt.solver``).
Clauses are lists of non-zero integers in DIMACS convention: positive
literal ``v`` means variable ``v`` is true, ``-v`` means it is false.

The solver is *persistent*: clauses are added once and every later
:meth:`SatSolver.solve` call reuses them — there is no per-call copying.
The search is conflict-driven clause learning in the MiniSat mould:

* **two-watched-literal propagation** — each clause watches two of its
  literals, so an assignment only visits the clauses that might actually
  propagate; clauses whose selectors are inactive are never touched;
* **1UIP conflict analysis** with clause learning, non-chronological
  backjumping, and recursive self-subsumption minimization (Sörensson &
  Biere) so learned clauses stay short enough to be worth keeping;
* **a DPLL(T) theory hook** — ``solve(theory=...)`` syncs a theory
  listener with the trail at every propagation fixpoint (per decision
  level, not only on full assignments); the listener can veto the partial
  assignment with an explained conflict clause, or propagate entailed
  literals back as implications with reason clauses
  (``repro.smt.solver`` plugs the incremental EUF+LIA theory in here);
* **VSIDS-style decision scoring** with phase saving (unconstrained
  variables default to ``False``, which keeps guard clauses of inactive
  assumption selectors satisfied without search);
* **Luby restarts**;
* **assumption handling** — ``solve(assumptions)`` decides the assumption
  literals first (below all search decisions) and reports unsatisfiable
  when they cannot be extended to a model;
* **activity-driven clause-DB garbage collection** — learned clauses and
  externally added lemmas (:meth:`SatSolver.add_lemma`) live in a bounded
  database; when it overflows, the lowest-activity half is dropped, so the
  lemma DB cannot grow for the process lifetime.

Counters for all of the above are exposed on :attr:`SatSolver.statistics`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .. import limits
from ..metrics import Counters

#: Variable activities are rescaled past this magnitude (VSIDS).
_VAR_RESCALE = 1e100
#: Clause activities are rescaled past this magnitude.
_CLA_RESCALE = 1e20
#: Base restart interval in conflicts (multiplied by the Luby sequence).
_RESTART_BASE = 100

#: Sentinel returned by the theory-sync step when a theory conflict forced
#: a level-0 lemma: the search must restart from the assumptions.
_THEORY_RESTART = object()


#: The counters a :class:`SatSolver` charges, over its whole lifetime.
SAT_COUNTERS = (
    "decisions",
    "propagations",
    "conflicts",
    "restarts",
    "learned_clauses",
    "gced_clauses",
    "gc_runs",
    # literals deleted from 1UIP clauses by recursive self-subsumption
    "minimized_literals",
    # implications enqueued on behalf of the theory listener
    "theory_propagations",
    # conflicts raised by the theory listener (each learns a lemma)
    "theory_conflicts",
)


class SatResult:
    """Outcome of a SAT call: ``satisfiable`` plus a model when it is.

    ``model`` assigns every variable the search knows about (clause and
    assumption variables).  Under DPLL(T) every assigned atom was asserted
    into (and accepted by) the theory listener, so no separate
    prime-implicant restriction is reported: the whole model is vouched
    for.
    """

    __slots__ = ("satisfiable", "model")

    def __init__(self, satisfiable: bool, model: Optional[Dict[int, bool]] = None) -> None:
        self.satisfiable = satisfiable
        self.model = model if model is not None else {}


class _Clause:
    """A clause in the database.  ``lits[0]`` and ``lits[1]`` are watched."""

    __slots__ = ("lits", "learnt", "activity", "removed")

    def __init__(self, lits: List[int], learnt: bool) -> None:
        self.lits = lits
        self.learnt = learnt
        self.activity = 0.0
        self.removed = False


class SatSolver:
    """An incremental CDCL solver over integer literals.

    Problem clauses (:meth:`add_clause`) are permanent.  Lemmas
    (:meth:`add_lemma`) — clauses that are consequences the caller can
    re-derive, such as theory conflicts — join the learned-clause database
    and are subject to activity-driven garbage collection once the database
    exceeds ``max_learnts`` live clauses (the bound grows slowly with each
    collection, MiniSat-style).

    The solver charges :data:`SAT_COUNTERS` to ``statistics``: its own
    counters by default, or the ones of the solver it works for.
    """

    def __init__(self, max_learnts: int = 1000, statistics: Optional[Counters] = None) -> None:
        self._clauses: List[_Clause] = []
        self._learnts: List[_Clause] = []
        self._watches: Dict[int, List[_Clause]] = {}
        self._variables: Set[int] = set()
        # Dense per-variable state, indexed by variable (slot 0 unused).
        # Each list only ever grows in place: the DPLL(T) bridge in
        # ``repro.smt.solver`` reads ``_assign`` by reference.
        self._assign: List[Optional[bool]] = [None]
        self._level: List[int] = [0]
        self._reason: List[Optional[_Clause]] = [None]
        self._phase: List[bool] = [False]
        self._activity: List[float] = [0.0]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        # Decision order: a lazy max-heap over bumped variables plus a
        # cursor sweeping the never-bumped ones in index order.
        self._order: List[Tuple[float, int]] = []
        self._cursor = 1
        # Optional per-solve decision restriction (see solve()).
        self._decide: Optional[FrozenSet[int]] = None
        self._decide_order: Optional[List[int]] = None
        self._decide_cursor = 0
        #: heap entries of unassigned out-of-cone variables, parked for
        #: the rest of the current solve and restored at the next one —
        #: a cone-restricted check must not erase other scopes' VSIDS
        #: ordering.
        self._deferred: List[Tuple[float, int]] = []
        self._var_inc = 1.0
        self._cla_inc = 1.0
        self._unsat = False
        self._num_clauses = 0
        self._max_learnts = max_learnts
        #: lemmas received mid-search, integrated at the next return to
        #: decision level 0 (see add_lemma()).
        self._pending_lemmas: List[List[int]] = []
        #: the DPLL(T) theory listener of the current solve, None between
        #: solves (see solve()).
        self._theory = None
        self._theory_restarts = 0
        #: per-solve cap on theory-conflict restarts (a diverging theory
        #: loop raises instead of hanging; mirrors the old lazy-loop bound).
        self.max_theory_restarts = 20000
        self.statistics = statistics if statistics is not None else Counters(*SAT_COUNTERS)

    # -- clause management -------------------------------------------------

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a permanent clause (a disjunction of literals)."""
        self._add(literals, learnt=False)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        """Add several permanent clauses."""
        for clause in clauses:
            self._add(clause, learnt=False)

    def add_lemma(self, literals: Iterable[int]) -> None:
        """Add a re-derivable clause subject to learned-clause GC.

        Safe to call mid-search (a theory listener may emit lemmas while
        the solver sits at a positive decision level): clause integration
        treats assigned literals as permanent facts, so above level 0 the
        clause is parked and integrated at the next cancel to level 0.
        """
        if self._trail_lim:
            self._pending_lemmas.append(list(literals))
            return
        self._add(literals, learnt=True)

    @property
    def num_clauses(self) -> int:
        """Number of problem clauses accepted (tautologies excluded)."""
        return self._num_clauses

    @property
    def num_lemmas(self) -> int:
        """Live learned/lemma clauses (grows with learning, shrinks on GC)."""
        return len(self._learnts)

    def _add(self, literals: Iterable[int], learnt: bool) -> None:
        clause = sorted(set(literals))
        if any(-lit in clause for lit in clause):
            return  # tautology
        for lit in clause:
            var = lit if lit > 0 else -lit
            self._ensure_capacity(var)
            self._register(var)
        if not learnt:
            self._num_clauses += 1
        # The solver sits at decision level 0 between solves, so assigned
        # literals here are permanent facts: drop false ones, absorb the
        # clause if one is already true.
        assign = self._assign
        out: List[int] = []
        for lit in clause:
            var = lit if lit > 0 else -lit
            value = assign[var]
            if value is None:
                out.append(lit)
            elif value == (lit > 0):
                return  # satisfied forever
        if not out:
            self._unsat = True
            return
        if len(out) == 1:
            lit = out[0]
            var = lit if lit > 0 else -lit
            if assign[var] is None:
                self._enqueue(lit, None)
            return
        stored = _Clause(out, learnt)
        if learnt:
            stored.activity = self._cla_inc
            self._learnts.append(stored)
            if len(self._learnts) > self._max_learnts:
                self._reduce_db()
        else:
            self._clauses.append(stored)
        self._watches.setdefault(out[0], []).append(stored)
        self._watches.setdefault(out[1], []).append(stored)

    def _register(self, var: int) -> None:
        self._variables.add(var)
        # The decision cursor may already have swept past this index.
        if var < self._cursor:
            self._cursor = var

    def _ensure_capacity(self, var: int) -> None:
        grow = var + 1 - len(self._assign)
        if grow > 0:
            self._assign.extend([None] * grow)
            self._level.extend([0] * grow)
            self._reason.extend([None] * grow)
            self._phase.extend([False] * grow)
            self._activity.extend([0.0] * grow)

    # -- solving -----------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[int] = (),
        decide: Optional[FrozenSet[int]] = None,
        theory: Optional[object] = None,
    ) -> SatResult:
        """Search for a model of the stored clauses extended with the given
        assumption literals.

        ``decide`` optionally restricts branching to a variable cone: the
        search decides only those variables (propagation may still assign
        others) and declares satisfiability once they are all assigned,
        leaving the rest of the database unassigned.  This is sound exactly
        when the caller guarantees every clause outside the cone can be
        satisfied by *some* extension — the incremental SMT backend's clause
        discipline (guarded encodings, theory-valid lemmas) provides that;
        general users should leave it ``None`` for complete search.

        ``theory`` optionally attaches a DPLL(T) listener that is kept in
        sync with the trail at every propagation fixpoint.  The listener
        must expose ``synced`` (how many trail literals it has absorbed),
        ``extend(new_literals)`` returning either ``("conflict", clause)``
        — a clause over existing literals refuting the current assignment —
        or ``("ok", propagations)`` with zero or more ``(literal,
        reason_clause)`` implications (``reason_clause[0]`` being the
        implied literal), and ``backtrack(count)`` to unwind to a trail
        prefix.  Models returned with a theory attached are theory-
        consistent over every asserted literal the listener recognized.

        The listener is attached for this call only and dropped on every
        exit, a raised :class:`~repro.limits.BudgetExhausted` included, so
        the SAT core never keeps its caller's theory state alive.
        """
        self._theory = theory
        try:
            return self._solve(assumptions, decide)
        finally:
            self._theory = None

    def _solve(self, assumptions: Sequence[int], decide: Optional[FrozenSet[int]]) -> SatResult:
        self._theory_restarts = 0
        if self._unsat:
            return SatResult(False)
        self._decide = decide
        if decide is not None:
            self._decide_order = sorted(decide)
            for var in self._decide_order:
                self._ensure_capacity(var)
        else:
            self._decide_order = None
        self._decide_cursor = 0
        for lit in assumptions:
            var = lit if lit > 0 else -lit
            self._ensure_capacity(var)
            self._register(var)
        # Restore decision-order entries deferred by an earlier solve's cone.
        if self._deferred:
            for entry in self._deferred:
                heappush(self._order, entry)
            self._deferred.clear()
        # Flush unit propagation pending from clauses added since last call.
        if self._propagate() is not None:
            self._unsat = True
            self._cancel_until(0)
            return SatResult(False)
        answer: Optional[bool] = None
        restarts = 0
        try:
            while answer is None:
                # (Re-)establish assumptions as the bottommost decisions —
                # idempotent, so it is re-run after a learned level-0 fact
                # forced a full backtrack.
                if not self._assume_all(assumptions):
                    self._cancel_until(0)
                    return SatResult(False)
                root = len(self._trail_lim)
                budget = _RESTART_BASE * _luby(restarts)
                answer = self._search(budget, root)
                if answer is None:
                    restarts += 1
                    self.statistics.restarts += 1
        except limits.BudgetExhausted:
            # Cooperative cancellation mid-search: unwind the trail (which
            # also re-syncs the theory listener) so the solver is reusable,
            # then let the budget's owner handle the exhaustion.
            self._cancel_until(0)
            raise
        if not answer:
            self._cancel_until(0)
            return SatResult(False)
        model = {}
        for lit in self._trail:
            model[lit if lit > 0 else -lit] = lit > 0
        self._cancel_until(0)
        return SatResult(True, model)

    def _assume_all(self, assumptions: Sequence[int]) -> bool:
        """Decide every not-yet-implied assumption (one level each);
        ``False`` when the assumptions conflict with the clauses."""
        for lit in assumptions:
            var = lit if lit > 0 else -lit
            value = self._assign[var]
            if value is not None:
                if value != (lit > 0):
                    return False
                continue  # already implied
            self._trail_lim.append(len(self._trail))
            self._enqueue(lit, None)
            if self._propagate() is not None:
                return False
        return True

    # -- search internals --------------------------------------------------

    def _search(self, nof_conflicts: int, root: int) -> Optional[bool]:
        """Run CDCL until SAT (True), UNSAT under assumptions (False), or
        the conflict budget forces a restart (None)."""
        conflicts = 0
        while True:
            confl = self._propagate()
            if confl is None and self._theory is not None:
                confl = self._theory_advance()
                if confl is _THEORY_RESTART:
                    # A theory conflict learned a lemma at level 0; restart
                    # so the assumptions are re-established on top of it.
                    return False if self._unsat else None
            if confl is not None:
                conflicts += 1
                self.statistics.conflicts += 1
                # One cancellation point per conflict: free with no active
                # budget, and conflict analysis dwarfs the check otherwise.
                limits.checkpoint("sat_conflicts")
                if len(self._trail_lim) <= root:
                    # Conflict forced by assumptions (or facts) alone.
                    if root == 0:
                        self._unsat = True
                    return False
                learnt, bt_level = self._analyze(confl)
                self._var_inc /= 0.95
                self._cla_inc /= 0.999
                if len(learnt) == 1:
                    # A fact: assert it permanently at level 0 (surviving
                    # this solve) and let the caller re-establish the
                    # assumptions on top of it.
                    self._cancel_until(0)
                    self._enqueue(learnt[0], None)
                    if self._propagate() is not None:
                        self._unsat = True
                        return False
                    return None
                self._cancel_until(max(bt_level, root))
                self._record(learnt)
                continue
            if conflicts >= nof_conflicts:
                self._cancel_until(root)
                return None
            if len(self._learnts) > self._max_learnts:
                self._reduce_db()
            lit = self._pick_branch()
            if lit is None:
                return True  # every known variable assigned: a model
            self.statistics.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(lit, None)

    def _propagate(self) -> Optional[_Clause]:
        """Two-watched-literal unit propagation; returns a conflict clause
        or ``None`` at fixpoint."""
        trail = self._trail
        assign = self._assign
        watches = self._watches
        while self._qhead < len(trail):
            lit = trail[self._qhead]
            self._qhead += 1
            falsified = -lit
            watchers = watches.get(falsified)
            if not watchers:
                continue
            kept: List[_Clause] = []
            for index, clause in enumerate(watchers):
                if clause.removed:
                    continue  # lazily drop GC'd clauses from watch lists
                lits = clause.lits
                if lits[0] == falsified:
                    lits[0] = lits[1]
                    lits[1] = falsified
                first = lits[0]
                var0 = first if first > 0 else -first
                val0 = assign[var0]
                if val0 is not None and val0 == (first > 0):
                    kept.append(clause)  # already satisfied
                    continue
                for k in range(2, len(lits)):
                    other = lits[k]
                    var = other if other > 0 else -other
                    value = assign[var]
                    if value is None or value == (other > 0):
                        lits[1] = other
                        lits[k] = falsified
                        watches.setdefault(other, []).append(clause)
                        break
                else:
                    kept.append(clause)
                    if val0 is None:
                        self._enqueue(first, clause)
                        self.statistics.propagations += 1
                    else:
                        # Conflict: keep the unprocessed tail watched.
                        kept.extend(watchers[index + 1 :])
                        watches[falsified] = kept
                        self._qhead = len(trail)
                        return clause
            watches[falsified] = kept
        return None

    def _theory_advance(self):
        """Sync the theory listener with the trail at a propagation
        fixpoint.  Returns ``None`` when the theory is consistent and in
        sync, a conflicting :class:`_Clause` when a theory implication was
        contradicted by clause propagation, or :data:`_THEORY_RESTART`
        after a theory conflict forced a level-0 lemma."""
        theory = self._theory
        trail = self._trail
        while theory.synced < len(trail):
            outcome, payload = theory.extend(trail[theory.synced:])
            if outcome == "conflict":
                return self._theory_conflict(payload)
            advanced = False
            for lits in payload:
                lit = lits[0]
                var = lit if lit > 0 else -lit
                value = self._assign[var] if var < len(self._assign) else None
                if value == (lit > 0):
                    continue  # already assigned as implied
                if value is not None:
                    # The implied literal is assigned false: the reason
                    # clause refutes the current assignment.
                    return self._theory_conflict(lits)
                if len(lits) == 1:
                    # Theory-valid unit: a permanent fact.
                    return self._theory_conflict(lits)
                self._attach_propagation(lits)
                advanced = True
            if advanced:
                confl = self._propagate()
                if confl is not None:
                    return confl
        return None

    def _theory_conflict(self, lemma: Sequence[int]):
        """Learn a theory-derived clause at level 0 and force a restart."""
        self.statistics.theory_conflicts += 1
        self._theory_restarts += 1
        if self._theory_restarts > self.max_theory_restarts:
            raise RuntimeError("theory conflict budget exhausted; giving up")
        self._cancel_until(0)
        self._add(lemma, learnt=True)
        return _THEORY_RESTART

    def _attach_propagation(self, lits: List[int]) -> None:
        """Attach a theory implication (``lits[0]`` entailed by the falsity
        of the rest) as a learnt clause and enqueue the entailed literal."""
        self.statistics.theory_propagations += 1
        for lit in lits:
            var = lit if lit > 0 else -lit
            self._ensure_capacity(var)
            self._register(var)
        level = self._level
        high = 1
        for k in range(2, len(lits)):
            var = lits[k] if lits[k] > 0 else -lits[k]
            best = lits[high] if lits[high] > 0 else -lits[high]
            if level[var] > level[best]:
                high = k
        lits[1], lits[high] = lits[high], lits[1]
        clause = _Clause(lits, learnt=True)
        clause.activity = self._cla_inc
        self._learnts.append(clause)
        self._watches.setdefault(lits[0], []).append(clause)
        self._watches.setdefault(lits[1], []).append(clause)
        self._enqueue(lits[0], clause)

    def _enqueue(self, lit: int, reason: Optional[_Clause]) -> None:
        var = lit if lit > 0 else -lit
        self._assign[var] = lit > 0
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)

    def _analyze(self, confl: _Clause) -> Tuple[List[int], int]:
        """First-UIP conflict analysis; returns (learnt clause, backjump
        level) with the asserting literal first."""
        level = self._level
        trail = self._trail
        current = len(self._trail_lim)
        seen: Set[int] = set()
        learnt: List[int] = [0]  # slot 0 becomes the asserting literal
        bt_level = 0
        counter = 0
        index = len(trail) - 1
        uip = 0
        reason_lits: Sequence[int] = confl.lits
        self._bump_clause(confl)
        while True:
            for lit in reason_lits:
                var = lit if lit > 0 else -lit
                lit_level = level[var]
                if var not in seen and lit_level > 0:
                    seen.add(var)
                    self._bump_var(var)
                    if lit_level >= current:
                        counter += 1
                    else:
                        learnt.append(lit)
                        if lit_level > bt_level:
                            bt_level = lit_level
            while True:
                uip = trail[index]
                index -= 1
                if (uip if uip > 0 else -uip) in seen:
                    break
            var = uip if uip > 0 else -uip
            seen.discard(var)
            counter -= 1
            if counter == 0:
                break
            antecedent = self._reason[var]
            self._bump_clause(antecedent)
            reason_lits = antecedent.lits[1:]  # lits[0] is ``uip`` itself
        learnt[0] = -uip
        # At this point ``seen`` holds exactly the below-current-level
        # clause variables — the base set for redundancy.
        if len(learnt) > 1:
            learnt = self._minimize(learnt, seen)
            bt_level = 0
            for lit in learnt[1:]:
                var = lit if lit > 0 else -lit
                if level[var] > bt_level:
                    bt_level = level[var]
        return learnt, bt_level

    def _minimize(self, learnt: List[int], seen: Set[int]) -> List[int]:
        """Recursive self-subsumption: drop every literal whose negation is
        implied, through reason clauses, by the other clause literals and
        level-0 facts alone (resolving it away self-subsumes)."""
        memo: Dict[int, bool] = {}
        kept = [learnt[0]]
        removed = 0
        for lit in learnt[1:]:
            if self._redundant(lit if lit > 0 else -lit, seen, memo):
                removed += 1
            else:
                kept.append(lit)
        self.statistics.minimized_literals += removed
        return kept

    def _redundant(self, root: int, seen: Set[int], memo: Dict[int, bool]) -> bool:
        """Does every reason-DAG path from ``root`` end in a clause variable
        or a level-0 fact?  (Iterative DFS; the reason graph is acyclic
        because antecedents sit strictly earlier on the trail.)"""
        verdict = memo.get(root)
        if verdict is not None:
            return verdict
        reason = self._reason
        level = self._level
        if reason[root] is None:
            memo[root] = False
            return False
        stack: List[List[int]] = [[root, 0]]
        while stack:
            frame = stack[-1]
            var = frame[0]
            index = frame[1]
            lits = reason[var].lits
            child = 0
            failed = False
            while index < len(lits):
                q = lits[index]
                index += 1
                qv = q if q > 0 else -q
                if qv == var or level[qv] == 0 or qv in seen:
                    continue
                known = memo.get(qv)
                if known is True:
                    continue
                if known is False or reason[qv] is None:
                    memo[qv] = False
                    failed = True
                    break
                child = qv
                break
            frame[1] = index
            if failed:
                # Every variable on the DFS path depends on this failure.
                for entry in stack:
                    memo[entry[0]] = False
                return False
            if child:
                stack.append([child, 0])
                continue
            memo[var] = True
            stack.pop()
        return True

    def _record(self, learnt: List[int]) -> None:
        """Attach a freshly learned clause (length >= 2: unit learnts are
        asserted as permanent facts by the search loop) and assert its UIP
        literal."""
        # Watch the asserting literal and one literal of the backjump level.
        level = self._level
        high = 1
        for k in range(2, len(learnt)):
            lit = learnt[k]
            if level[lit if lit > 0 else -lit] > level[
                learnt[high] if learnt[high] > 0 else -learnt[high]
            ]:
                high = k
        learnt[1], learnt[high] = learnt[high], learnt[1]
        clause = _Clause(learnt, learnt=True)
        clause.activity = self._cla_inc
        self._learnts.append(clause)
        self.statistics.learned_clauses += 1
        self._watches.setdefault(learnt[0], []).append(clause)
        self._watches.setdefault(learnt[1], []).append(clause)
        self._enqueue(learnt[0], clause)

    def _cancel_until(self, target: int) -> None:
        if len(self._trail_lim) <= target:
            return
        trail = self._trail
        bound = self._trail_lim[target]
        assign = self._assign
        phase = self._phase
        reason = self._reason
        activity = self._activity
        order = self._order
        for i in range(len(trail) - 1, bound - 1, -1):
            lit = trail[i]
            var = lit if lit > 0 else -lit
            assign[var] = None
            phase[var] = lit > 0  # phase saving
            reason[var] = None
            if activity[var] > 0.0:
                heappush(order, (-activity[var], var))
        del trail[bound:]
        del self._trail_lim[target:]
        self._qhead = bound
        self._cursor = 1
        self._decide_cursor = 0
        theory = self._theory
        if theory is not None and theory.synced > bound:
            theory.backtrack(bound)
        if target == 0 and self._pending_lemmas:
            pending, self._pending_lemmas = self._pending_lemmas, []
            for clause in pending:
                self._add(clause, learnt=True)

    def _pick_branch(self) -> Optional[int]:
        assign = self._assign
        order = self._order
        decide = self._decide
        while order:
            entry = heappop(order)
            var = entry[1]
            if assign[var] is None:
                if decide is None or var in decide:
                    return var if self._phase[var] else -var
                # Park out-of-cone entries; the next solve restores them.
                self._deferred.append(entry)
        if self._decide_order is not None:
            restricted = self._decide_order
            index = self._decide_cursor
            top = len(restricted)
            while index < top:
                var = restricted[index]
                index += 1
                if assign[var] is None:
                    self._decide_cursor = index
                    return var if self._phase[var] else -var
            self._decide_cursor = index
            return None
        cursor = self._cursor
        top = len(assign)
        variables = self._variables
        while cursor < top:
            if assign[cursor] is None and cursor in variables:
                self._cursor = cursor + 1
                return cursor if self._phase[cursor] else -cursor
            cursor += 1
        self._cursor = cursor
        return None

    # -- activities and clause-DB maintenance ------------------------------

    def _bump_var(self, var: int) -> None:
        activity = self._activity
        activity[var] += self._var_inc
        if activity[var] > _VAR_RESCALE:
            for v in range(1, len(activity)):
                activity[v] *= 1e-100
            self._var_inc *= 1e-100
        if self._assign[var] is None:
            heappush(self._order, (-activity[var], var))

    def _bump_clause(self, clause: Optional[_Clause]) -> None:
        if clause is None or not clause.learnt:
            return
        clause.activity += self._cla_inc
        if clause.activity > _CLA_RESCALE:
            for learnt in self._learnts:
                learnt.activity *= 1e-20
            self._cla_inc *= 1e-20

    def _is_locked(self, clause: _Clause) -> bool:
        lit = clause.lits[0]
        var = lit if lit > 0 else -lit
        return self._reason[var] is clause and self._assign[var] == (lit > 0)

    def _reduce_db(self) -> None:
        """Drop the lowest-activity half of the learned clauses (keeping
        reasons of current assignments and binary clauses)."""
        self.statistics.gc_runs += 1
        learnts = sorted(self._learnts, key=lambda c: c.activity)
        removed = 0
        for clause in learnts[: len(learnts) // 2]:
            if len(clause.lits) == 2 or self._is_locked(clause):
                continue
            clause.removed = True
            removed += 1
        if removed:
            self._learnts = [c for c in self._learnts if not c.removed]
            self.statistics.gced_clauses += removed
        # Grow the bound so a conflict-heavy stretch is not thrashed.
        self._max_learnts = self._max_learnts + self._max_learnts // 5 + 1


def _luby(index: int) -> int:
    """The Luby restart sequence 1,1,2,1,1,2,4,... (Luby et al. 1993)."""
    size, seq = 1, 0
    while size < index + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) // 2
        seq -= 1
        index %= size
    return 1 << seq


def solve_clauses(clauses: Iterable[Iterable[int]], assumptions: Sequence[int] = ()) -> SatResult:
    """One-shot convenience wrapper around :class:`SatSolver`."""
    solver = SatSolver()
    solver.add_clauses(clauses)
    return solver.solve(assumptions)
