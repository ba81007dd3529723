"""The Horn-constraint solver: greatest fixpoint plus candidate sets.

Implements the constraint-solving procedure of Polikarpova, Kuraj &
Solar-Lezama, *Program Synthesis from Polymorphic Refinement Types*
(PLDI 2016): Sec. 5.1 (the greatest-fixpoint iteration over candidate
valuations, initialised at the strongest assignment), Sec. 5.2's use of
*weakest* solutions for unknowns in negative positions, and Sec. 5.3's
MUSFix search over *sets* of candidate assignments.

Ordinary unknowns take the classic path: the solver maintains one
candidate assignment ``L`` mapping each predicate unknown to a subset of
its qualifier space, starting from the *strongest* candidate
``L[P] = Q_P``.  One round visits every weakening constraint
``lhs ==> P[sigma]`` and prunes from ``L[P]`` the qualifiers that do not
follow from the premises under the current assignment; rounds repeat until
a fixpoint.  The result is the greatest fixpoint, and the remaining
*definite* constraints (concrete conclusions) are then checked against it:
if one fails there, no assignment in the qualifier space can succeed (the
premises only get weaker from here) — for this constraint language the
single candidate is complete.

Unknowns whose space is marked :attr:`~repro.horn.spaces.QualifierSpace.abducible`
(premise-position guards, as in condition abduction) break that
completeness: they are solved bottom-up from the weakest valuation
``True``, and a failing definite constraint admits *several* minimal
strengthenings — disjunctive inference.  For those the solver walks the
lattice of **candidate guards** breadth-first from ``True``: each
candidate fixes the abducible valuations, the classic fixpoint core runs
on the grounded system, and a failure branches the candidate into its
single-qualifier strengthenings, while
:class:`~repro.horn.musfix.MusFixSolver` records the inconsistent cores
(MUSes) its vacuity probes find.  A candidate whose guard contains one in
every demanding context is dropped without a fixpoint.  The walk stops at
the first size that holds a solution, so the solutions it returns are
exactly the minimal-size ones, and no one of them strengthens another.

Pruning on the classic path is unsat-core style: a constraint's full
valuation is first checked in one validity query; only when that fails
does the solver descend to per-qualifier checks to identify exactly the
conjuncts to drop.  All validity checks are issued through one
:class:`~repro.smt.solver.IncrementalSolver` — the premises of a constraint
are asserted once per round and every per-qualifier probe runs in a
sub-scope on top of them, so unchanged premises are never re-encoded.

In addition to the strongest solution the solver can greedily minimize it
into a locally *weakest* one (a minimal subset of each valuation keeping
every constraint valid), which is what the paper reports for inferred
preconditions.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from .. import limits
from ..logic import ops
from ..logic.formulas import Formula, Unknown
from ..logic.substitution import apply_assignment, substitute
from ..logic.transform import unknowns as formula_unknowns
from ..metrics import Counters
from ..smt.solver import IncrementalSolver
from .constraints import HornConstraint, substitute_unknowns
from .musfix import MusFixSolver
from .spaces import QualifierSpace, SpacesLike, as_space_map

#: A candidate valuation: unknown name -> conjunction of qualifiers.
Assignment = Dict[str, Tuple[Formula, ...]]


#: The counters of one :class:`HornSolver` (its MUS probes charge the last
#: one).
HORN_COUNTERS = (
    "validity_checks",
    "fixpoint_rounds",
    "weakenings",
    "pruned_qualifiers",
    # qualifiers pruned directly from a counterexample model, without a
    # per-qualifier validity probe of their own
    "model_pruned_qualifiers",
    # candidate assignments taken off the search queue and evaluated
    "candidates_explored",
    # candidates dropped because they contained a known MUS (or were
    # vacuous): work the search never had to do
    "candidates_pruned",
    # minimal unsatisfiable subsets the vacuity probes recorded
    "muses_enumerated",
)


class HornSolution:
    """Outcome of :meth:`HornSolver.solve`.

    ``candidates`` is the surviving candidate set, weakest first (on the
    classic path it is the one greatest-fixpoint assignment).
    ``assignment`` stays the chosen member — the weakest survivor — so
    existing callers keep working.  When ``solved`` is false, ``failed``
    names a definite constraint no candidate could satisfy, and
    ``error_message`` names the subtyping obligation it came from.
    ``weakest`` is the greedily minimized valuation, present only when
    minimization was requested.
    """

    __slots__ = ("solved", "assignment", "candidates", "weakest", "failed")

    def __init__(
        self,
        solved: bool,
        assignment: Assignment,
        candidates: Tuple[Assignment, ...] = (),
        weakest: Optional[Assignment] = None,
        failed: Optional[HornConstraint] = None,
    ) -> None:
        self.solved = solved
        self.assignment = assignment
        self.candidates = candidates
        self.weakest = weakest
        self.failed = failed

    def formula_for(self, unknown: str) -> Formula:
        """The chosen valuation of ``unknown`` as one conjunction."""
        return ops.conj(self.assignment.get(unknown, ()))

    @property
    def error_message(self) -> Optional[str]:
        """A human-readable account of the failure, if any."""
        if self.solved or self.failed is None:
            return None
        return (
            f"subtyping obligation failed at {self.failed.origin()}: "
            "no refinement in the qualifier space satisfies "
            f"`{self.failed!r}`"
        )


def _candidate_key(candidate: Assignment) -> Tuple:
    return tuple(sorted(candidate.items(), key=lambda item: item[0]))


def _solution_order_key(assignment: Assignment, spaces: Dict[str, QualifierSpace]) -> Tuple:
    """Sort key: total guard size, then per-space qualifier indices.

    Positions in each space's fixed qualifier order — not reprs — so the
    weakest survivor is the one a smallest-first, pool-order subset walk
    (``itertools.combinations`` over the space) would reach first; the
    brute-force abduction oracle relies on that agreement.
    """
    guards = [
        tuple(sorted(space.index_of(q) for q in assignment[name]))
        for name, space in sorted(spaces.items())
    ]
    return (sum(len(guard) for guard in guards), guards)


def order_solutions(
    solutions: Sequence[Assignment], spaces: Dict[str, QualifierSpace]
) -> List[Assignment]:
    """Deterministic weakest-first order of solutions over the abducible
    ``spaces``, stable across processes."""
    return sorted(solutions, key=lambda sol: _solution_order_key(sol, spaces))


def screen_singletons(
    backend: IncrementalSolver,
    statistics: Counters,
    constraints: Sequence[HornConstraint],
    name: str,
    qualifiers: Sequence[Formula],
    musfix: Optional[MusFixSolver] = None,
) -> Optional[Dict[Formula, Optional[HornConstraint]]]:
    """Classify every singleton valuation of ``name`` against a *flat*
    definite system, one countermodel sweep per constraint.

    Returns ``{qualifier: first refuting constraint, or None if valid
    everywhere}`` — or ``None`` when the system is not flat (weakening
    constraints, other unknowns, nested unknown occurrences) and the
    per-candidate fixpoint must run instead.

    The trick: under ``premises && !conclusion`` asserted once, a single
    SAT model convicts every qualifier it satisfies, and each qualifier
    it does not convict is probed alone, one incremental check under the
    same asserted premises; no singleton needs a grounded fixpoint.
    Constraints are processed in order and convicted qualifiers skipped,
    so each qualifier's refuter is the *first* failing constraint —
    exactly what the sequential fixpoint would report.
    """
    plan = []
    for constr in constraints:
        if not constr.is_definite():
            return None
        subs = []
        for premise in constr.premises:
            if isinstance(premise, Unknown):
                if premise.name != name:
                    return None
                subs.append(dict(premise.substitution))
            elif formula_unknowns(premise):
                return None  # an unknown nested under connectives
        plan.append((constr, subs))

    verdicts: Dict[Formula, Optional[HornConstraint]] = {q: None for q in qualifiers}
    for constr, subs in plan:
        pending = [q for q in qualifiers if verdicts[q] is None]
        if not pending:
            break
        if not subs:
            # The constraint ignores the abducible: one verdict for all.
            statistics.validity_checks += 1
            if not backend.is_valid_implication(list(constr.premises), constr.conclusion):
                for q in pending:
                    verdicts[q] = constr
            continue
        # Raw occurrences (no substitution) double as vacuity evidence:
        # any countermodel satisfies the premises, so the qualifiers it
        # makes true are consistent with them — free ``note_live`` entries
        # that spare the vacuity prefill a theory probe each.  A
        # substituted occurrence proves things about ``q[σ]``, not ``q``.
        raw = musfix is not None and all(not sub for sub in subs)
        applied = {
            q: ops.conj([substitute(q, sub) if sub else q for sub in subs]) for q in qualifiers
        }
        with backend.scoped():
            for premise in constr.concrete_premises():
                backend.assert_(premise)
            backend.assert_(ops.not_(constr.conclusion))
            statistics.validity_checks += 1
            # The whole pool is evaluated (not just the pending guards):
            # convicted guards need no further verdict, but their truth
            # values in the model are free vacuity harvest.
            values = backend.check_evaluating([applied[q] for q in qualifiers])
            if values is None:
                continue  # no countermodel at all: every guard valid here
            value_of = dict(zip(qualifiers, values))
            if raw:
                for q, value in value_of.items():
                    if value is True:
                        musfix.note_live(constr, q)
            for q in pending:
                if value_of[q] is True:
                    verdicts[q] = constr
                    continue
                # The model leaves this guard open: probe it individually
                # (the premises and negated conclusion stay asserted, and
                # the guard's selector is cached, so each probe is one
                # incremental solve).
                statistics.validity_checks += 1
                if backend.check_assuming((applied[q],)):
                    verdicts[q] = constr
                    if raw:
                        musfix.note_live(constr, q)
    return verdicts


class HornSolver:
    """Solves systems of Horn constraints over predicate unknowns."""

    def __init__(
        self,
        backend: Optional[IncrementalSolver] = None,
        validity_memo: Optional[Dict[Tuple[Tuple[Formula, ...], Formula], bool]] = None,
    ) -> None:
        self._backend = backend if backend is not None else IncrementalSolver()
        self.statistics = Counters(*HORN_COUNTERS)
        # Validity of a *grounded* implication is a pure function of its
        # formulas, and the candidate-set search re-derives the same
        # grounded constraints for every candidate that leaves them
        # untouched — so verdicts are memoized for the solver's lifetime.
        # A caller owning many solver runs (the typecheck session during
        # enumeration) may pass a shared ``validity_memo`` so the verdicts
        # outlive any single run.
        self._validity_memo: Dict[Tuple[Tuple[Formula, ...], Formula], bool] = (
            validity_memo if validity_memo is not None else {}
        )

    @property
    def backend(self) -> IncrementalSolver:
        """The incremental backend issuing this solver's validity checks."""
        return self._backend

    # -- public API ----------------------------------------------------------

    def solve(
        self,
        constraints: Sequence[HornConstraint],
        spaces: SpacesLike,
        minimize: bool = False,
    ) -> HornSolution:
        """Find assignments making every constraint valid.

        Unknowns that appear in constraints but have no qualifier space get
        the empty valuation ``True`` (they cannot constrain anything).
        Systems without abducible spaces take the classic greatest-fixpoint
        path; abducible spaces trigger the candidate-set search.
        ``minimize`` also greedily weakens the chosen assignment into a
        locally minimal one (:attr:`HornSolution.weakest`).
        """
        space_map = as_space_map(spaces)
        abducibles = sorted(name for name, sp in space_map.items() if sp.abducible)
        if abducibles:
            for constr in constraints:
                target = constr.conclusion_unknown()
                if target is not None and target.name in abducibles:
                    raise ValueError(
                        f"abducible unknown {target.name!r} cannot appear as a "
                        f"conclusion (it is solved bottom-up): {constr!r}"
                    )
            solution = self.search_candidates(constraints, space_map)
        else:
            solution = self._solve_fixpoint(constraints, space_map)
            if solution.solved:
                solution.candidates = (dict(solution.assignment),)
        if minimize and solution.solved:
            solution.weakest = self._minimize(constraints, solution.assignment)
        return solution

    # -- candidate-set search ------------------------------------------------

    def search_candidates(
        self, constraints: Sequence[HornConstraint], spaces: SpacesLike
    ) -> HornSolution:
        """Breadth-first search over candidate abducible valuations.

        Each candidate fixes every abducible unknown to a subset of its
        space (in canonical space order); the classic fixpoint core runs on
        the grounded system.  A candidate is rejected as *vacuous* when a
        guard contradicts the concrete premises of **every** constraint
        mentioning its unknown — refuted even in the weakest demanding
        context (its declaration point), it is unestablishable outright.
        Contradicting only *some* contexts is fine: such a guard merely
        makes those program points unreachable, which is exactly what a
        branch condition is for.  A failed candidate prefills the
        singleton vacuity of every context demanding a repairable unknown
        and branches into its single-qualifier strengthenings; a
        candidate that the recorded cores doom is dropped when it is
        generated or, if a later core dooms it, when it is popped.
        A space's :attr:`~repro.horn.spaces.QualifierSpace.max_conjuncts`
        stops branching past that valuation size.

        The walk starts at the all-``True`` root, which is never pruned:
        it either solves, ending the search, or fails and branches.  The
        lattice is finite and each candidate is queued once, so the walk
        ends.  It is *level-stopped*: the queue is size-ordered, so once a
        solution of total guard size ``k`` exists, the first pop of a
        size-``> k`` candidate ends the search.  Every solution therefore
        has the minimal total size, every minimal-size solution is found,
        and none strictly strengthens another: the survivors are an
        antichain, returned weakest first (:func:`order_solutions`).
        """
        space_map = as_space_map(spaces)
        abducibles = {n: sp for n, sp in space_map.items() if sp.abducible}
        positives = {n: sp for n, sp in space_map.items() if not sp.abducible}

        musfix = MusFixSolver(self.statistics, self._backend)

        # The demanding contexts of each abducible: one representative
        # constraint per distinct concrete-premise tuple, weakest first so
        # the all-contexts vacuity check short-circuits fast on live guards.
        mentioning: Dict[str, List[HornConstraint]] = {name: [] for name in abducibles}
        for name in abducibles:
            contexts = {}
            for constr in constraints:
                if name in constr.premise_unknowns():
                    contexts.setdefault(constr.concrete_premises(), constr)
            mentioning[name] = sorted(contexts.values(), key=lambda c: len(c.concrete_premises()))

        root: Assignment = {name: () for name in sorted(abducibles)}
        queue: deque = deque([root])
        seen = {_candidate_key(root)}

        solutions: List[Assignment] = []
        failed_constr: Optional[HornConstraint] = None
        best_size: Optional[int] = None

        # Flat systems (one abducible, no positives) get their whole
        # size-1 level classified by countermodel sweeps instead of one
        # grounded fixpoint per candidate; built when the root fails, so a
        # root that solves outright pays nothing.
        single_name = min(abducibles) if len(abducibles) == 1 and not positives else None
        screen: Optional[Dict[Formula, Optional[HornConstraint]]] = None

        while queue:
            candidate = queue.popleft()
            size = sum(len(candidate[name]) for name in abducibles)
            if best_size is not None and size > best_size:
                # Level stop: a weaker solution exists and this whole level
                # (the queue is size-ordered) can only strengthen it.
                break
            self.statistics.candidates_explored += 1
            # One cancellation point per candidate valuation: each costs at
            # least one grounded fixpoint, so this is the search's natural
            # quantum.
            limits.checkpoint("horn_candidates")
            if musfix.dooms_everywhere(candidate, mentioning):
                self.statistics.candidates_pruned += 1
                continue
            if self._vacuous(musfix, mentioning, candidate):
                # Checked *before* the fixpoint: a vacuous guard's whole
                # superset cone is vacuous too, so the recorded MUS prunes
                # it at the smallest level instead of after n fixpoints.
                self.statistics.candidates_pruned += 1
                continue

            if screen is not None and size == 1:
                original = screen[candidate[single_name][0]]
                solved = original is None
                assignment: Assignment = {}
            else:
                valuations = {name: ops.conj(quals) for name, quals in candidate.items()}
                grounded = [substitute_unknowns(c, valuations) for c in constraints]
                sub = self._solve_fixpoint(grounded, positives)
                solved = sub.solved
                assignment = sub.assignment
                original = sub.failed
                for orig, ground in zip(constraints, grounded):
                    if ground is sub.failed:
                        original = orig
                        break

            if solved:
                full = dict(assignment)
                full.update(candidate)
                solutions.append(full)
                best_size = size
                continue

            failed_constr = original
            assert original is not None
            repairable = sorted(n for n in original.premise_unknowns() if n in abducibles)
            if single_name is not None and size == 0:
                # Build the screen when the root fails: its countermodels
                # feed the vacuity harvest, so it must run before the
                # prefill below or the prefill re-proves every harvested
                # liveness the hard way.
                screen = screen_singletons(
                    self._backend,
                    self.statistics,
                    constraints,
                    single_name,
                    abducibles[single_name].qualifiers,
                    musfix,
                )
            for name in repairable:
                # Probe every demanding context, not just the failing
                # constraint: dooming needs a refutation in all of them
                # before a candidate may be dropped.
                for rep in mentioning[name]:
                    musfix.prefill_vacuity(rep, abducibles[name].qualifiers)
            for name in repairable:
                space = abducibles[name]
                current = set(candidate[name])
                if space.max_conjuncts is not None and len(current) >= space.max_conjuncts:
                    continue  # guard at its size cap: no further strengthening
                for qualifier in space.qualifiers:
                    if qualifier in current:
                        continue
                    successor = dict(candidate)
                    successor[name] = tuple(
                        q for q in space.qualifiers if q in current or q == qualifier
                    )
                    key = _candidate_key(successor)
                    if key in seen:
                        continue
                    seen.add(key)
                    if musfix.dooms_everywhere(successor, mentioning):
                        self.statistics.candidates_pruned += 1
                        continue
                    queue.append(successor)

        if not solutions:
            return HornSolution(False, {}, failed=failed_constr)
        ranked = order_solutions(solutions, abducibles)
        return HornSolution(True, dict(ranked[0]), candidates=tuple(ranked))

    def _vacuous(
        self,
        musfix: MusFixSolver,
        mentioning: Dict[str, List[HornConstraint]],
        candidate: Assignment,
    ) -> bool:
        """Does some guard contradict *every* demanding context of its
        unknown?  (Contexts whose premises are contradictory on their own
        don't count against the guard — :meth:`MusFixSolver.is_vacuous`
        answers ``False`` for those.)"""
        for name, constrs in mentioning.items():
            valuation = candidate.get(name)
            if not valuation or not constrs:
                continue
            if all(musfix.is_vacuous(constr, valuation) for constr in constrs):
                return True
        return False

    # -- fixpoint internals --------------------------------------------------

    def _solve_fixpoint(
        self,
        constraints: Sequence[HornConstraint],
        space_map: Dict[str, QualifierSpace],
    ) -> HornSolution:
        """The classic greatest-fixpoint core over one candidate."""
        assignment = self._initial_assignment(constraints, space_map)
        weakening = [c for c in constraints if not c.is_definite()]
        definite = [c for c in constraints if c.is_definite()]

        changed = True
        while changed:
            changed = False
            self.statistics.fixpoint_rounds += 1
            limits.checkpoint()  # wall-clock cancellation per weakening round
            for constr in weakening:
                if self._weaken(constr, assignment):
                    changed = True

        solution = HornSolution(True, dict(assignment))
        failed = self._first_invalid_definite(definite, assignment)
        if failed is not None:
            solution.solved = False
            solution.failed = failed
        return solution

    def _first_invalid_definite(
        self,
        definite: Sequence[HornConstraint],
        assignment: Assignment,
    ) -> Optional[HornConstraint]:
        """First definite constraint, in order, that the assignment does
        not validate: one memoized validity check per grounded constraint."""
        for constr in definite:
            if not self._constraint_valid(constr, assignment):
                return constr
        return None

    @staticmethod
    def _initial_assignment(
        constraints: Sequence[HornConstraint],
        space_map: Dict[str, QualifierSpace],
    ) -> Assignment:
        names = set()
        for constr in constraints:
            names |= constr.unknowns()
        return {name: space_map[name].qualifiers if name in space_map else () for name in names}

    def _weaken(self, constr: HornConstraint, assignment: Assignment) -> bool:
        """Prune the conclusion unknown's valuation; True if it shrank."""
        target = constr.conclusion_unknown()
        assert target is not None
        current = assignment[target.name]
        if not current:
            return False
        premises = [apply_assignment(p, assignment) for p in constr.premises]
        pending = dict(target.substitution)
        goals = [substitute(q, pending) if pending else q for q in current]

        # The premises are asserted (and encoded) once for the whole
        # sweep.  The fast-path query doubles as a batched probe: when the
        # full valuation is not entailed, the counterexample model is read
        # back and every qualifier it falsifies is pruned in one pass; only
        # qualifiers the model satisfies or leaves open (set atoms read as
        # open) fall back to a per-qualifier validity check.
        kept: List[Formula] = []
        retry: List[Tuple[Formula, Formula]] = []
        with self._backend.scoped():
            for premise in premises:
                self._backend.assert_(premise)
            with self._backend.scoped():
                self._backend.assert_(ops.not_(ops.conj(goals)))
                self.statistics.validity_checks += 1
                values = self._backend.check_evaluating(goals)
            if values is None:
                return False  # the whole current valuation is entailed
            for qualifier, goal, value in zip(current, goals, values):
                if value is False:
                    self.statistics.model_pruned_qualifiers += 1
                else:
                    retry.append((qualifier, goal))
            for qualifier, goal in retry:
                with self._backend.scoped():
                    self._backend.assert_(ops.not_(goal))
                    self.statistics.validity_checks += 1
                    if not self._backend.check():
                        kept.append(qualifier)

        dropped = len(current) - len(kept)
        if dropped:
            assignment[target.name] = tuple(kept)
            self.statistics.weakenings += 1
            self.statistics.pruned_qualifiers += dropped
        return dropped > 0

    def _constraint_valid(self, constr: HornConstraint, assignment: Assignment) -> bool:
        premises = [apply_assignment(p, assignment) for p in constr.premises]
        conclusion = apply_assignment(constr.conclusion, assignment)
        key = (tuple(premises), conclusion)
        cached = self._validity_memo.get(key)
        if cached is not None:
            return cached
        self.statistics.validity_checks += 1
        verdict = self._backend.is_valid_implication(premises, conclusion)
        self._validity_memo[key] = verdict
        return verdict

    # -- weakest-solution minimization ---------------------------------------

    def _minimize(
        self, constraints: Sequence[HornConstraint], assignment: Assignment
    ) -> Assignment:
        """Greedily drop qualifiers while every constraint stays valid.

        Dropping a qualifier from ``L[P]`` keeps constraints with ``P`` in
        the conclusion valid (fewer conjuncts to prove) but may break
        constraints with ``P`` in the premises, so each tentative drop is
        re-validated against the constraints mentioning ``P``.
        """
        weakest: Dict[str, List[Formula]] = {
            name: list(valuation) for name, valuation in assignment.items()
        }
        by_premise: Dict[str, List[HornConstraint]] = {name: [] for name in weakest}
        for constr in constraints:
            for name in constr.premise_unknowns():
                by_premise.setdefault(name, []).append(constr)

        for name in sorted(weakest):
            affected = by_premise.get(name, ())
            for qualifier in list(weakest[name]):
                weakest[name].remove(qualifier)
                trial = {n: tuple(v) for n, v in weakest.items()}
                if not all(self._constraint_valid(c, trial) for c in affected):
                    weakest[name].append(qualifier)
        return {name: tuple(valuation) for name, valuation in weakest.items()}
