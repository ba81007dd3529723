"""Differential abduction: the candidate-set Horn path against the oracle.

:func:`repro.synth.conditions.abduce_condition` (candidate-set search with
MUS pruning, level stop, and antichain filtering) must agree
*everywhere* with :func:`abduction_oracle.abduce_brute_force` (the
exhaustive smallest-first subset walk): same abducible/unabducible verdict,
same surviving guard antichain, and in particular identical rejection of
vacuous conditions (guards unsatisfiable at the abduction point).  The
instances below are randomized but seeded, so a failure reproduces.
"""

import random

import pytest

from abduction_oracle import abduce_brute_force
from repro.logic import ops
from repro.logic.formulas import Var
from repro.logic.qualifiers import make_qualifier, placeholder
from repro.logic.sorts import INT
from repro.synth.conditions import abduce_condition
from repro.syntax import parse_term
from repro.syntax.types import ScalarType, int_type
from repro.typecheck import EMPTY, TypecheckSession
from repro.typecheck.environment import Environment

pytestmark = pytest.mark.timeout(120)

X = Var("x", INT)
Y = Var("y", INT)
ZERO = ops.int_lit(0)


def _nu():
    from repro.logic.formulas import value_var

    return value_var(INT)


#: Atoms a random goal refinement is assembled from (over ``nu``/x/y/0).
def _goal_atoms():
    nu = _nu()
    return [
        ops.eq(nu, X),
        ops.eq(nu, Y),
        ops.eq(nu, ZERO),
        ops.ge(nu, X),
        ops.ge(nu, Y),
        ops.le(nu, X),
        ops.le(nu, ZERO),
        ops.ge(nu, ZERO),
        ops.le(X, Y),
        ops.neq(nu, ZERO),
    ]


#: Optional refinements a binding may carry (over its own ``nu``).
def _binding_refinements():
    nu = _nu()
    return [
        None,
        ops.ge(nu, ZERO),
        ops.le(nu, ZERO),
        ops.gt(nu, ZERO),
        ops.neq(nu, ZERO),
    ]


def _qualifiers(rng: random.Random):
    a, b = placeholder(0, INT), placeholder(1, INT)
    quals = [make_qualifier(ops.le(a, b))]
    if rng.random() < 0.5:
        quals.append(make_qualifier(ops.eq(a, b)))
    return quals


def _goal(rng: random.Random) -> ScalarType:
    atoms = _goal_atoms()
    kind = rng.random()
    if kind < 0.35:
        body = rng.choice(atoms)
    elif kind < 0.65:
        body = ops.conj([rng.choice(atoms), rng.choice(atoms)])
    elif kind < 0.85:
        body = ops.disj([rng.choice(atoms), rng.choice(atoms)])
    else:
        body = ops.implies(rng.choice(atoms), rng.choice(atoms))
    return int_type(body)


def _instance(seed: int):
    rng = random.Random(seed)
    session = TypecheckSession(qualifiers=_qualifiers(rng), literals=(ZERO,))
    env: Environment = EMPTY
    for name in ("x", "y"):
        refinement = rng.choice(_binding_refinements())
        env = env.bind(name, int_type() if refinement is None else int_type(refinement))
    goal = _goal(rng)
    candidate = parse_term(rng.choice(["x", "y", "0"]))
    return session, env, candidate, goal


def _equivalent(session, context, lhs, rhs) -> bool:
    premises = list(context)
    backend = session.backend
    return backend.is_valid_implication(
        premises + [ops.conj(lhs)], ops.conj(rhs)
    ) and backend.is_valid_implication(premises + [ops.conj(rhs)], ops.conj(lhs))


def _run_block(seeds):
    """Run a block of seeded instances; return per-category tallies."""
    tallies = {"none": 0, "trivial": 0, "guarded": 0}
    for seed in seeds:
        session, env, candidate, goal = _instance(seed)
        fast = abduce_condition(session, env, candidate, goal)
        slow = abduce_brute_force(session, env, candidate, goal)
        assert (fast is None) == (slow is None), (
            f"seed {seed}: candidate-set={fast!r} brute-force={slow!r}"
        )
        if fast is None:
            tallies["none"] += 1
            continue
        assert slow is not None
        if fast.is_trivial():
            tallies["trivial"] += 1
        else:
            tallies["guarded"] += 1
        # The full antichains agree member for member (both paths order
        # solutions canonically and break ties by entailment).
        assert fast.candidates == slow.candidates, (
            f"seed {seed}: candidate-set={fast.candidates!r} "
            f"brute-force={slow.candidates!r}"
        )
        # ... and the chosen weakest guard is logically the same thing.
        assert _equivalent(session, env.embedding(), fast.qualifiers, slow.qualifiers)
    return tallies


BLOCKS = [range(start, start + 25) for start in range(0, 200, 25)]


@pytest.mark.parametrize("seeds", BLOCKS, ids=[f"seeds{b.start:03d}" for b in BLOCKS])
def test_candidate_set_agrees_with_brute_force(seeds):
    _run_block(seeds)


def test_instance_pool_covers_every_verdict():
    """The 200 differential instances genuinely exercise all three
    verdicts — unabducible, trivially true, and guarded — so agreement on
    them is not agreement on a degenerate distribution."""
    tallies = {"none": 0, "trivial": 0, "guarded": 0}
    for block in BLOCKS:
        for key, count in _run_block(block).items():
            tallies[key] += count
    assert tallies["none"] >= 10, tallies
    assert tallies["trivial"] >= 10, tallies
    assert tallies["guarded"] >= 20, tallies


def test_vacuous_condition_rejected_identically():
    """A candidate needing a guard that contradicts the abduction point is
    unabducible on both paths: ``y`` under ``x > 0`` can only meet
    ``nu <= 0 && nu == y`` via ``y <= 0 && x <= 0``-style guards, every
    one of which is unsatisfiable here."""
    session = TypecheckSession(
        qualifiers=[make_qualifier(ops.le(placeholder(0, INT), placeholder(1, INT)))],
        literals=(ZERO,),
    )
    nu = _nu()
    env = EMPTY.bind("x", int_type(ops.gt(nu, ZERO)))
    goal = int_type(ops.conj([ops.le(nu, ZERO), ops.le(X, ZERO)]))
    fast = abduce_condition(session, env, parse_term("0"), goal)
    slow = abduce_brute_force(session, env, parse_term("0"), goal)
    assert fast is None and slow is None
