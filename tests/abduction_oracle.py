"""Brute-force reference for condition abduction.

The differential tests pin :func:`repro.synth.conditions.abduce_condition`
(candidate-set Horn search with MUS pruning, level stop and antichain
filtering) to :func:`abduce_brute_force`, the searcher the
candidate-set path replaced: a smallest-first walk over every subset of
the qualifier pool, each grounded and solved on its own.  Both walk the
same deduplicated pool and settle ties with the same entailment filter,
so they must agree member for member.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from repro.horn.constraints import substitute_unknowns
from repro.horn.solver import HornSolver
from repro.horn.spaces import QualifierSpace
from repro.logic import ops
from repro.logic.formulas import Formula
from repro.synth.conditions import AbducedCondition, _dedupe_pool, _weakest_guards
from repro.syntax.terms import Term
from repro.syntax.types import RType
from repro.typecheck.environment import Environment
from repro.typecheck.errors import TypecheckError
from repro.typecheck.session import TypecheckSession


def abduce_brute_force(
    session: TypecheckSession,
    env: Environment,
    candidate: Term,
    goal: RType,
    where: str = "abduce",
    max_conjuncts: int = 2,
) -> Optional[AbducedCondition]:
    """The weakest guards by exhaustive search.

    Tries conjunctions of the pool smallest-first (the empty conjunction
    is ``True``; then single qualifiers; then pairs, up to
    ``max_conjuncts``), collecting every consistent subset at the first
    size where any validates all constraints — smaller conjunctions are
    logically weaker, so that size holds the weakest abducible conditions
    up to the space's granularity.  A subset is rejected as *vacuous*
    when it contradicts the concrete premises of **every** live
    constraint context mentioning ``C`` — exactly the candidate-set
    path's rule (refuted even at the abduction point itself, such a
    guard is unestablishable; killing only a deeper context is a
    legitimate branch condition).  Ties inside the size are settled
    exactly like the candidate-set path: ``_weakest_guards`` by
    entailment.
    """
    with session.trial():
        unknown = session.fresh_unknown(env, None, kind="C")
        pool = _dedupe_pool(session.spaces[unknown.name].qualifiers)
        try:
            session.check(env.assume(unknown), candidate, goal, where)
        except TypecheckError:
            return None
        constraints = list(session.constraints)
        other_spaces: Dict[str, QualifierSpace] = {
            name: qspace
            for name, qspace in session.spaces.items()
            if name != unknown.name
        }

    solver = HornSolver(session.backend, validity_memo=session._validity_memo)
    context = env.embedding()
    contexts = {
        constr.concrete_premises()
        for constr in constraints
        if unknown.name in constr.premise_unknowns()
    }
    # A context whose premises are contradictory on their own is dead
    # regardless of the guard, so it cannot count against one.
    live = [hard for hard in contexts if consistent(session, hard, ())]
    for size in range(0, max_conjuncts + 1):
        hits: List[Tuple[Formula, ...]] = []
        for subset in combinations(pool, size):
            if subset and live and all(not consistent(session, hard, subset) for hard in live):
                continue
            condition = {unknown.name: ops.conj(subset)}
            grounded = [substitute_unknowns(constr, condition) for constr in constraints]
            if solver.solve(grounded, other_spaces).solved:
                hits.append(subset)
        if hits:
            antichain = _weakest_guards(session.backend, context, hits)
            return AbducedCondition(antichain[0], tuple(antichain))
    return None


def consistent(
    session: TypecheckSession, context: Sequence[Formula], subset: Sequence[Formula]
) -> bool:
    """Is the tentative condition satisfiable together with the context?"""
    premises = list(context) + list(subset)
    return not session.backend.is_valid_implication(premises, ops.bool_lit(False))
