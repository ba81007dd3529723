"""MUSFix: minimal unsatisfiable subsets that prune the guard search.

The candidate-set Horn search (Sec. 5 of the paper) prunes its guard
candidates wholesale: the subsets of an abducible unknown's qualifier
space that are *inconsistent with a constraint's concrete premises* make
that constraint hold only vacuously — the guard renders its program point
unreachable.
Those regions are summarized by their minimal elements: **minimal
unsatisfiable subsets** (MUSes) of the qualifier pool relative to one
constraint's unknown-free premises.  A MUS against a *single* constraint
is a lemma, not yet a death sentence (killing one match arm is what a
branch condition is for); a candidate is dropped — without a single
theory query — once known MUSes refute one of its guards in **every**
context demanding that unknown (:meth:`MusFixSolver.dooms_everywhere`),
which makes the guard unsatisfiable at its own declaration point.

The MUSes are the cores of the vacuity probes the search runs anyway:
:meth:`MusFixSolver.prefill_vacuity` records every qualifier that is
inconsistent with a context on its own (a singleton core), and
:meth:`MusFixSolver.is_vacuous` shrinks each inconsistent candidate guard
by linear deletion into a minimal core.  Every probe goes through the
shared incremental backend, and a memo keyed by (premises, valuation)
answers a repeated probe without a theory check.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..logic.formulas import Formula
from ..metrics import Counters
from ..smt.solver import IncrementalSolver
from .constraints import HornConstraint

#: A candidate assignment restricted to what pruning needs: unknown name to
#: the qualifiers currently in its valuation.
CandidateLike = Mapping[str, Sequence[Formula]]


class MusFixSolver:
    """Records the MUSes its vacuity probes find and judges candidates by
    them.

    It charges ``muses_enumerated`` to ``statistics``, the counters of the
    Horn solver it works for.
    """

    def __init__(self, statistics: Counters, backend: Optional[IncrementalSolver] = None) -> None:
        self.statistics = statistics
        self._backend = backend if backend is not None else IncrementalSolver()
        #: Known MUSes per constraint.
        self._mus_sets: Dict[HornConstraint, List[FrozenSet[Formula]]] = {}
        #: Vacuity memo keyed by (concrete premises, valuation): many
        #: constraints share one premise context (same program point), so
        #: one theory check answers for all of them.  The value is the
        #: shrunk inconsistent core, or ``None`` when consistent.
        self._vacuity: Dict[
            Tuple[Tuple[Formula, ...], FrozenSet[Formula]], Optional[Tuple[Formula, ...]]
        ] = {}

    def _record_mus(self, constraint: HornConstraint, mus: Tuple[Formula, ...]) -> None:
        known = self._mus_sets.setdefault(constraint, [])
        mus_set = frozenset(mus)
        if any(mus_set == existing for existing in known):
            return
        known.append(mus_set)
        self.statistics.muses_enumerated += 1

    # -- candidate pruning ---------------------------------------------------

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
        is unestablishable outright, so this is the sound candidate prune
        for condition abduction.  MUS knowledge is partial (only the cores
        the vacuity probes have found so far), so a ``False`` here is only
        "not yet known doomed".
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
        if not pending:
            return
        with self._backend.scoped():
            for premise in hard:
                self._backend.assert_(premise)
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
            if self._backend.check_assuming(valuation):
                self._vacuity[memo_key] = None
                return False
            if not self._backend.check_assuming(()):
                self._vacuity[memo_key] = None
                return False  # the premises alone are contradictory
            core = list(valuation)
            for q in list(core):
                trial = [k for k in core if k is not q]
                if not self._backend.check_assuming(trial):
                    core = trial
        self._vacuity[memo_key] = tuple(core)
        self._record_mus(constraint, tuple(core))
        return True
