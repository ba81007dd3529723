"""Condition abduction for branching programs (Sec. 5.2 of the paper).

When no single E-term satisfies a goal everywhere, the synthesizer splits
the input space with a conditional.  Rather than enumerating guard and
branches together, the paper *abduces* the guard from a branch candidate:
the candidate is checked under a fresh predicate unknown ``C`` assumed as
a path condition (``Γ; C ⊢ e :: T``), and the Horn system is then solved
for the **weakest** valuation of ``C`` — the weakest formula in the
qualifier space under which the branch checks.  ``C``'s space is
instantiated from the variables in scope exactly like a liquid refinement
(:meth:`~repro.typecheck.session.TypecheckSession.fresh_unknown`, no value
variable), so abduction reuses the same unknowns, spaces, and incremental
backend as ordinary liquid inference.

Because ``C`` occurs only in premises (a *negative* position), the
greatest-fixpoint solver cannot weaken it.  :func:`abduce_condition`
therefore re-marks ``C``'s space ``abducible`` and hands the system to
:meth:`~repro.horn.solver.HornSolver.solve`'s candidate-set search: a
breadth-first walk strengthens ``C`` from ``True`` one qualifier at a
time (capped at ``max_conjuncts``), the inconsistent cores (MUSes) its
vacuity probes record (:mod:`repro.horn.musfix`) prune every candidate
guard containing one in every demanding context, and vacuous guards
(ones contradicting **every** demanding context — equivalently,
unsatisfiable at the abduction point itself, so no executable branch
could ever take them; contradicting only a deeper context, say one match
arm, is what a branch condition is *for*) are rejected.  The search is
level-stopped, so the surviving candidates are exactly the minimal-size
solutions; :func:`_weakest_guards` then drops the ones another survivor
strictly entails, and the result is the weakest-guard *antichain* —
several genuinely incomparable conditions when the goal is disjunctive.
The synthesizer realizes them in order, falling to the next member when
no Boolean E-term establishes one.

The pre-candidate-set searcher — a brute-force smallest-first subset walk
over the pool — lives on in ``tests/abduction_oracle.py`` as the
differential oracle: ``tests/test_conditions_differential.py`` asserts
both agree on hundreds of randomized instances.  (Its original greedy
form was order-fragile: minimizing the *strongest* valuation can return a
minimal-but-strong conjunction such as ``x == 0 && y == 0`` where
``y <= x`` suffices.  Both now settle ties by logical entailment, so the
answer is the weakest guard regardless of pool order —
``tests/test_synth_disjunctive.py`` pins that with shuffled pools.)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .. import limits
from ..horn.solver import HornSolution, HornSolver
from ..horn.spaces import QualifierSpace
from ..logic import ops
from ..logic.formulas import Binary, BinaryOp, Formula
from ..metrics import Counters
from ..smt.solver import IncrementalSolver
from ..syntax.terms import Term
from ..syntax.types import RType
from ..typecheck.environment import Environment
from ..typecheck.errors import TypecheckError
from ..typecheck.session import TypecheckSession


#: The counters of an abduction's Horn search that ``abduce_condition``
#: adds to the synthesis run's.
ABDUCTION_COUNTERS = ("candidates_explored", "candidates_pruned", "muses_enumerated")


class AbducedCondition:
    """The weakest path conditions under which a branch candidate checks.

    ``candidates`` is the surviving antichain, weakest first: every member
    is a minimal conjunction of pool qualifiers validating the branch, and
    no member entails another.  ``qualifiers`` stays the chosen (first,
    weakest) member, so existing callers keep working; an empty tuple
    means the candidate checks unconditionally.
    """

    __slots__ = ("qualifiers", "candidates")

    def __init__(
        self,
        qualifiers: Tuple[Formula, ...],
        candidates: Tuple[Tuple[Formula, ...], ...] = (),
    ) -> None:
        self.qualifiers = qualifiers
        self.candidates = candidates

    def is_trivial(self) -> bool:
        """Does the candidate check under no assumption at all?"""
        return not self.qualifiers


#: The symmetric comparison operators: ``a OP b`` and ``b OP a`` are the
#: same qualifier, and instantiation generates both orientations.
_SYMMETRIC_OPS = frozenset({BinaryOp.EQ, BinaryOp.NEQ})


def _dedupe_pool(pool: Sequence[Formula]) -> Tuple[Formula, ...]:
    """Drop argument-flipped duplicates of symmetric qualifiers (``y == x``
    after ``x == y``), keeping the first orientation seen.

    Guards built from either orientation are logically identical, so the
    flips only widen the candidate lattice.  The differential oracle
    walks the pool this filter leaves, so both search the same lattice.
    """
    kept: List[Formula] = []
    seen = set()
    for qualifier in pool:
        if isinstance(qualifier, Binary) and qualifier.op in _SYMMETRIC_OPS:
            key = (qualifier.op, frozenset((qualifier.lhs, qualifier.rhs)))
            if key in seen:
                continue
            seen.add(key)
        kept.append(qualifier)
    return tuple(kept)


def abduce_condition(
    session: TypecheckSession,
    env: Environment,
    candidate: Term,
    goal: RType,
    where: str = "abduce",
    max_conjuncts: int = 2,
    stats: Optional[Counters] = None,
) -> Optional[AbducedCondition]:
    """The weakest qualifier-space conditions validating ``candidate``
    against ``goal``, or ``None`` when no consistent condition of at most
    ``max_conjuncts`` qualifiers does.

    The candidate's constraints are collected in a trial scope (no
    residue); ``C``'s space is then re-inserted marked ``abducible`` and
    the whole system goes through the candidate-set Horn search on the
    session's shared incremental backend.  ``stats`` — when given —
    accumulates the search's :data:`ABDUCTION_COUNTERS`.
    """
    # Cancellation point per abduction attempt: each spawns a whole
    # candidate-set Horn search, so check the budget before committing.
    limits.checkpoint()
    with session.trial():
        unknown = session.fresh_unknown(env, None, kind="C")
        pool = _dedupe_pool(session.spaces[unknown.name].qualifiers)
        try:
            session.check(env.assume(unknown), candidate, goal, where)
        except TypecheckError:
            return None
        # Solved inside the trial: the constraints mention the names the
        # check minted, which the trial gives back when it ends.
        solution = _search_guards(session, unknown.name, pool, max_conjuncts, stats)
    if solution is None:
        return None
    guards = [tuple(member.get(unknown.name, ())) for member in solution.candidates]
    antichain = _weakest_guards(session.backend, env.embedding(), guards)
    return AbducedCondition(antichain[0], tuple(antichain))


def _search_guards(
    session: TypecheckSession,
    name: str,
    pool: Tuple[Formula, ...],
    max_conjuncts: int,
    stats: Optional[Counters],
) -> Optional[HornSolution]:
    """The candidate-set search over the session's constraints, with the
    abducible unknown ``name`` ranging over conjunctions of at most
    ``max_conjuncts`` qualifiers of ``pool``; ``None`` when no guard
    solves them.

    The search walks that whole sublattice if it must, so it tries every
    guard the brute-force oracle tries, and its level stop leaves exactly
    the minimal-size solutions.
    """
    spaces: Dict[str, QualifierSpace] = {
        other: qspace for other, qspace in session.spaces.items() if other != name
    }
    spaces[name] = QualifierSpace(name, pool, abducible=True, max_conjuncts=max_conjuncts)
    solver = HornSolver(session.backend, validity_memo=session._validity_memo)
    try:
        solution = solver.solve(session.constraints, spaces)
    finally:
        # Also when the budget cuts the search short: the candidates it
        # explored before then are part of the run's work.
        if stats is not None:
            stats.add(solver.statistics, ABDUCTION_COUNTERS)
    return solution if solution.solved else None


def _weakest_guards(
    backend: IncrementalSolver,
    context: Sequence[Formula],
    guards: Sequence[Tuple[Formula, ...]],
) -> List[Tuple[Formula, ...]]:
    """The entailment-weakest antichain of ``guards``, order preserved.

    A guard is dropped when another guard is *strictly* weaker under the
    environment context (the first entails the second but not vice
    versa), or when an earlier survivor is logically equivalent.  Same-
    size guards need this — e.g. ``y < x``, ``y == x`` and ``y <= x`` can
    all validate a branch, and only ``y <= x`` should survive — and it is
    what makes the abduced answer independent of pool order.
    """
    formulas = [ops.conj(guard) for guard in guards]
    cache: Dict[Tuple[int, int], bool] = {}

    def entails(i: int, j: int) -> bool:
        """Does guard ``i`` entail guard ``j`` under the context?"""
        key = (i, j)
        if key not in cache:
            cache[key] = backend.is_valid_implication(
                list(context) + [formulas[i]], formulas[j]
            )
        return cache[key]

    kept: List[int] = []
    for i in range(len(guards)):
        strictly_dominated = any(
            entails(i, j) and not entails(j, i) for j in range(len(guards)) if j != i
        )
        if strictly_dominated:
            continue
        if any(entails(i, j) and entails(j, i) for j in kept):
            continue  # equivalent to an earlier survivor
        kept.append(i)
    return [tuple(guards[i]) for i in kept]
