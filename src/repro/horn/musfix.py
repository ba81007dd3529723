"""MUSFix: MARCO-style enumeration of minimal unsatisfiable subsets.

The candidate-set Horn search (Sec. 5 of the paper) prunes its frontier
wholesale: the subsets of an abducible unknown's qualifier space that are
*inconsistent with a constraint's concrete premises* make that constraint
hold only vacuously — the guard renders its program point unreachable.
Those regions are summarized by their minimal elements: **minimal
unsatisfiable subsets** (MUSes) of the qualifier pool relative to one
constraint's unknown-free premises.  A MUS against a *single* constraint
is a lemma, not yet a death sentence (killing one match arm is what a
branch condition is for); a candidate is dropped — without a single
theory query — once known MUSes refute one of its guards in **every**
context demanding that unknown (:meth:`MusFixSolver.dooms_everywhere`),
which makes the guard unsatisfiable at its own declaration point.

Enumeration is the MARCO algorithm (Liffiton et al.): a propositional
"map" solver — one persistent :class:`repro.smt.sat.SatSolver` per
(constraint, pool) pair, variable *i* meaning "qualifier *i* is in the
subset" — proposes unexplored seeds.  Each seed is checked against the
theory through the shared incremental backend: a consistent seed is
*grown* into a maximal satisfiable subset (MSS) and the map learns that
every future seed must leave the MSS (at least one variable outside it is
true); an inconsistent seed is *shrunk* by linear deletion into a MUS,
which is recorded and blocked (at least one of its members is false).
Blocking clauses carve the power set down monotonically, so seeds never
repeat and the map going unsatisfiable means the lattice is exhausted.
Enumeration is budgeted (``mus_budget`` theory checks per pool) and
resumable: the map solver keeps its blocking clauses, so a later failure
of the same constraint continues where the last call stopped.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .. import limits
from ..logic.formulas import Formula
from ..smt.interface import SolverBackend
from ..smt.sat import SatSolver
from ..smt.sets import mentions_sets
from .constraints import HornConstraint
from .spaces import QualifierSpace

#: A candidate assignment restricted to what pruning needs: unknown name to
#: the qualifiers currently in its valuation.
CandidateLike = Mapping[str, Sequence[Formula]]


class MusFixStatistics:
    """Counters describing one enumerator's work."""

    def __init__(self) -> None:
        self.muses_enumerated = 0
        self.theory_checks = 0
        self.map_seeds = 0
        self.candidates_pruned = 0


class _MarcoState:
    """Resumable MARCO state for one (constraint, qualifier pool) pair."""

    __slots__ = ("pool", "map", "seeds", "budget_left", "complete")

    def __init__(
        self,
        pool: Tuple[Formula, ...],
        map: Optional[SatSolver] = None,
        seeds: Optional[List[FrozenSet[int]]] = None,
        budget_left: int = 0,
        complete: bool = False,
    ) -> None:
        self.pool = pool
        self.map = map if map is not None else SatSolver()
        #: Every seed the map proposed, in order (introspection: tests
        #: assert that blocking makes them unique).
        self.seeds = seeds if seeds is not None else []
        self.budget_left = budget_left
        self.complete = complete


class MusFixSolver:
    """Enumerates MUSes of refuted qualifier sets to prune candidates."""

    def __init__(
        self,
        spaces: Dict[str, QualifierSpace],
        backend: Optional[SolverBackend] = None,
        budget: int = 64,
    ) -> None:
        if backend is None:
            from ..smt.solver import IncrementalSolver

            backend = IncrementalSolver()
        self.spaces = spaces
        self.statistics = MusFixStatistics()
        self._backend = backend
        self._budget = budget
        self._states: Dict[Tuple[HornConstraint, Tuple[Formula, ...]], _MarcoState] = {}
        #: Known MUSes per constraint, as frozensets plus the ordered
        #: originals.
        self._mus_sets: Dict[HornConstraint, List[FrozenSet[Formula]]] = {}
        self._mus_order: Dict[HornConstraint, List[Tuple[Formula, ...]]] = {}
        #: Vacuity memo keyed by (concrete premises, valuation): many
        #: constraints share one premise context (same program point), so
        #: one theory check answers for all of them.  The value is the
        #: shrunk inconsistent core, or ``None`` when consistent.
        self._vacuity: Dict[
            Tuple[Tuple[Formula, ...], FrozenSet[Formula]], Optional[Tuple[Formula, ...]]
        ] = {}

    # -- the MARCO loop ------------------------------------------------------

    def enumerate_muses(
        self, constraint: HornConstraint, valuation: Sequence[Formula]
    ) -> List[List[Formula]]:
        """Minimal subsets of ``valuation`` inconsistent with the concrete
        premises of ``constraint`` — the subsets that refute it as a guard
        (any candidate containing one can only satisfy the constraint
        vacuously).

        Runs the MARCO loop until the power set is exhausted or the theory
        budget is spent; every known MUS inside ``valuation`` is returned,
        including those vacuity checks recorded.  Calling again resumes
        enumeration.
        """
        state = self._state(constraint, tuple(valuation))
        self._run_marco(constraint, state)
        members = set(valuation)
        return [
            list(mus)
            for mus, mus_set in zip(
                self._mus_order.get(constraint, []), self._mus_sets.get(constraint, [])
            )
            if mus_set <= members
        ]

    def _state(self, constraint: HornConstraint, pool: Tuple[Formula, ...]) -> _MarcoState:
        key = (constraint, pool)
        if key not in self._states:
            self._states[key] = _MarcoState(pool=pool, budget_left=self._budget)
        return self._states[key]

    def _run_marco(self, constraint: HornConstraint, state: _MarcoState) -> None:
        if state.complete or state.budget_left <= 0 or not state.pool:
            return
        hard = constraint.concrete_premises()
        with self._backend.scoped():
            for premise in hard:
                self._backend.assert_(premise)
            if not self._probe(state, ()):
                # The constraint's own premises are contradictory: it is
                # vacuous for every valuation, which is no valuation's
                # fault — there is nothing to prune.
                state.complete = True
                return
            n = len(state.pool)
            while state.budget_left > 0 and not state.complete:
                result = state.map.solve()
                if not result.satisfiable:
                    state.complete = True
                    break
                seed = [i for i in range(1, n + 1) if result.model.get(i, False)]
                state.seeds.append(frozenset(seed))
                self.statistics.map_seeds += 1
                if self._probe(state, seed):
                    self._grow(state, seed, n)
                else:
                    self._shrink(constraint, state, seed)

    def _grow(self, state: _MarcoState, seed: List[int], n: int) -> None:
        """Grow a consistent seed toward an MSS, then block its down-set.

        Blocking the down-set of *any* consistent set is sound (all its
        subsets are consistent, so none is a MUS) — which makes running out
        of budget mid-grow harmless.
        """
        mss = list(seed)
        inside = set(seed)
        for j in range(1, n + 1):
            if j in inside:
                continue
            if state.budget_left <= 0:
                break
            if self._probe(state, mss + [j]):
                mss.append(j)
                inside.add(j)
        blocking = [j for j in range(1, n + 1) if j not in inside]
        if not blocking:
            state.complete = True  # the whole pool is consistent: no MUSes
        else:
            state.map.add_clause(blocking)

    def _shrink(self, constraint: HornConstraint, state: _MarcoState, seed: List[int]) -> None:
        """Shrink an inconsistent seed by linear deletion; record the MUS.

        Supersets of any inconsistent set are blocked either way (they are
        inconsistent too, so none is an MSS and no MUS hides above them);
        the core is *recorded* as a MUS only when the deletion pass ran to
        completion, since an interrupted shrink is not yet minimal.
        """
        core = list(seed)
        minimal = True
        for j in list(core):
            if state.budget_left <= 0:
                minimal = False
                break
            trial = [k for k in core if k != j]
            if not self._probe(state, trial):
                core = trial
        state.map.add_clause([-j for j in core] or [1])
        if minimal:
            self._record_mus(constraint, tuple(state.pool[j - 1] for j in core))

    def _probe(self, state: _MarcoState, indices: Sequence[int]) -> bool:
        """Theory-check a subset against the asserted hard premises."""
        state.budget_left -= 1
        self.statistics.theory_checks += 1
        # The per-pool ``mus_budget`` bounds each enumerator's *total*
        # work; this checkpoint is the global budget's view of the same
        # quantum, so one deadline governs MUS enumeration too.
        limits.checkpoint("mus_theory_checks")
        return self._backend.check_assuming(state.pool[i - 1] for i in indices)

    def _record_mus(self, constraint: HornConstraint, mus: Tuple[Formula, ...]) -> None:
        known = self._mus_sets.setdefault(constraint, [])
        mus_set = frozenset(mus)
        if any(mus_set == existing for existing in known):
            return
        known.append(mus_set)
        self._mus_order.setdefault(constraint, []).append(mus)
        self.statistics.muses_enumerated += 1

    # -- candidate pruning ---------------------------------------------------

    def prune_everywhere(
        self,
        candidates: Sequence[Dict[str, Sequence[Formula]]],
        mentioning: Mapping[str, Sequence[HornConstraint]],
    ) -> List[Dict[str, Sequence[Formula]]]:
        """Drop every candidate some valuation of which is known-vacuous in
        *all* of its demanding contexts (see :meth:`dooms_everywhere`)."""
        survivors = [c for c in candidates if not self.dooms_everywhere(c, mentioning)]
        self.statistics.candidates_pruned += len(candidates) - len(survivors)
        return survivors

    def dooms_everywhere(
        self,
        candidate: CandidateLike,
        mentioning: Mapping[str, Sequence[HornConstraint]],
    ) -> bool:
        """Does some valuation of ``candidate`` contain a known MUS of
        *every* constraint mentioning that unknown?

        A guard inconsistent with one demanding context merely makes that
        program point unreachable — a legitimate branch condition.  Only a
        guard refuted in **all** the contexts where its unknown is demanded
        (equivalently, at the weakest of them — its own declaration point)
        is unestablishable outright, so this is the sound frontier prune
        for condition abduction.  MUS knowledge is partial (budgeted), so
        a ``False`` here is only "not yet known doomed".
        """
        for name, valuation in candidate.items():
            constrs = mentioning.get(name)
            if not constrs or not valuation:
                continue
            members = set(valuation)
            if all(
                any(mus <= members for mus in self._mus_sets.get(constr, []))
                for constr in constrs
            ):
                return True
        return False

    def note_live(self, constraint: HornConstraint, qualifier: Formula) -> None:
        """Record outside model evidence that ``qualifier`` is consistent
        with the constraint's concrete premises — a free ``None`` entry in
        the vacuity memo, no theory check spent.

        Only sound on *raw-occurrence* evidence: the caller must have seen
        a model of the premises satisfying ``qualifier`` itself (not some
        substituted instance of it).
        """
        key = (constraint.concrete_premises(), frozenset((qualifier,)))
        self._vacuity.setdefault(key, None)

    def prefill_vacuity(
        self, constraint: HornConstraint, qualifiers: Sequence[Formula]
    ) -> None:
        """Memoize singleton vacuity for a whole qualifier pool at once.

        One model of the constraint's concrete premises certifies every
        qualifier it satisfies as live; only the leftovers get individual
        probes, all under premises asserted a single time.  On a failure
        the candidate search calls this on every context demanding a
        repairable unknown, in order, so the per-candidate
        :meth:`is_vacuous` checks at the next level are memo hits.
        """
        hard = constraint.concrete_premises()
        pending = [q for q in qualifiers if (hard, frozenset((q,))) not in self._vacuity]
        if not pending or any(mentions_sets(f) for f in tuple(hard) + tuple(pending)):
            return
        with self._backend.scoped():
            for premise in hard:
                self._backend.assert_(premise)
            self.statistics.theory_checks += 1
            values = self._backend.check_evaluating(pending)
            if values is None:
                # Dead context: contradictory premises never count
                # against a guard.
                for q in pending:
                    self._vacuity[(hard, frozenset((q,)))] = None
                return
            remaining = []
            for q, value in zip(pending, values):
                if value is True:
                    self._vacuity[(hard, frozenset((q,)))] = None
                else:
                    remaining.append(q)
            # Probe the leftovers individually (the premises stay asserted
            # and each qualifier's selector is cached, so every probe is
            # one incremental solve).
            for q in remaining:
                key = (hard, frozenset((q,)))
                self.statistics.theory_checks += 1
                if self._backend.check_assuming((q,)):
                    self._vacuity[key] = None
                else:
                    self._vacuity[key] = (q,)
                    self._record_mus(constraint, (q,))

    def is_vacuous(self, constraint: HornConstraint, valuation: Sequence[Formula]) -> bool:
        """Is ``valuation`` inconsistent with the constraint's concrete
        premises (so the constraint only holds vacuously under it)?

        Answers from known MUSes when possible; otherwise asks the theory
        directly and, on inconsistency, shrinks the witness into a new MUS
        so the discovery prunes future candidates too.
        """
        if not valuation:
            return False
        members = set(valuation)
        if any(mus <= members for mus in self._mus_sets.get(constraint, [])):
            return True
        hard = constraint.concrete_premises()
        memo_key = (hard, frozenset(valuation))
        if memo_key in self._vacuity:
            core = self._vacuity[memo_key]
            if core is None:
                return False
            self._record_mus(constraint, core)
            return True
        with self._backend.scoped():
            for premise in hard:
                self._backend.assert_(premise)
            self.statistics.theory_checks += 1
            if self._backend.check_assuming(valuation):
                self._vacuity[memo_key] = None
                return False
            if not self._backend.check_assuming(()):
                self._vacuity[memo_key] = None
                return False  # the premises alone are contradictory
            core = list(valuation)
            for q in list(core):
                trial = [k for k in core if k is not q]
                self.statistics.theory_checks += 1
                if not self._backend.check_assuming(trial):
                    core = trial
        self._vacuity[memo_key] = tuple(core)
        self._record_mus(constraint, tuple(core))
        return True

    def seeds_for(
        self, constraint: HornConstraint, valuation: Sequence[Formula]
    ) -> List[FrozenSet[int]]:
        """The map-solver seeds proposed so far for this pool (1-based
        indices into ``valuation``) — introspection for tests and debugging."""
        state = self._states.get((constraint, tuple(valuation)))
        return list(state.seeds) if state is not None else []
