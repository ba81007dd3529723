"""Disjunctive condition abduction and multi-guard conditional realization.

The candidate-set Horn search can return a surviving-candidate *antichain*
with several incomparable guards; the synthesizer realizes the antichain as
a nested conditional chain (``if g1 ... else if g2 ... else ...``) and
discharges a whole-term coverage obligation before accepting it.  These
tests pin the antichain itself, the realized multi-guard programs, guard
order independence, and, over the whole ``examples/`` corpus, that a
repeated run synthesizes the same program and that the printed program
re-checks on its own.
"""

import gc
import random
from pathlib import Path

import pytest

from repro.logic import ops
from repro.logic.formulas import Var, value_var
from repro.logic.qualifiers import default_qualifiers, make_qualifier, placeholder
from repro.logic.sorts import INT
from repro.synth import SynthesisGoal, Synthesizer, abduce_condition
from repro.syntax import IfTerm, parse_program, parse_term, parse_type, pretty_term
from repro.syntax.types import int_type
from repro.typecheck import EMPTY, TypecheckSession

pytestmark = pytest.mark.timeout(120)

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

X = Var("x", INT)
Y = Var("y", INT)
ZERO = ops.int_lit(0)

MAX_GOAL = "{Int | nu >= x && nu >= y && (nu == x || nu == y)}"


def synth_example(filename: str, goal_name: str, depth: int, **kw):
    source = (EXAMPLES / filename).read_text()
    goal = SynthesisGoal.from_program(parse_program(source), goal_name)
    synthesizer = Synthesizer(goal, max_depth=depth, **kw)
    return synthesizer, synthesizer.synthesize()


def eq_session():
    a, b = placeholder(0, INT), placeholder(1, INT)
    return TypecheckSession(qualifiers=[make_qualifier(ops.eq(a, b))], literals=(ZERO,))


class TestAntichain:
    """The abduced condition keeps *all* incomparable surviving guards."""

    def setup_method(self):
        self.session = eq_session()
        self.env = EMPTY.bind("x", int_type()).bind("y", int_type())
        nu = value_var(INT)
        # `0` meets `nu == x || nu == y` under `x == 0` OR under `y == 0` —
        # two guards neither of which implies the other.
        self.goal = int_type(ops.disj([ops.eq(nu, X), ops.eq(nu, Y)]))

    def abduce(self):
        abduced = abduce_condition(self.session, self.env, parse_term("0"), self.goal)
        assert abduced is not None
        return abduced

    def test_both_incomparable_guards_survive(self):
        abduced = self.abduce()
        assert abduced.candidates == ((ops.eq(X, ZERO),), (ops.eq(Y, ZERO),))
        assert abduced.qualifiers == abduced.candidates[0]

    def test_members_are_pairwise_incomparable(self):
        backend = self.session.backend
        context = list(self.env.embedding())
        members = [ops.conj(member) for member in self.abduce().candidates]
        for i, lhs in enumerate(members):
            for rhs in members[i + 1:]:
                assert not backend.is_valid_implication(context + [lhs], rhs)
                assert not backend.is_valid_implication(context + [rhs], lhs)

    def test_every_branch_of_the_chain_is_reachable(self):
        """Realized as a chain, each guard fires somewhere: member k is
        satisfiable under the negations of members 1..k-1, and so is the
        final else branch under all negations."""
        backend = self.session.backend
        context = list(self.env.embedding())
        FALSE = ops.bool_lit(False)
        taken = []
        for member in self.abduce().candidates:
            guard = ops.conj(member)
            assert not backend.is_valid_implication(context + taken + [guard], FALSE)
            taken.append(ops.neg(guard))
        assert not backend.is_valid_implication(context + taken, FALSE)


class TestDisjunctiveSynthesis:
    """sign.sq: the first example that *needs* a two-guard chain."""

    def test_sign_synthesizes_a_nested_conditional(self):
        _, result = synth_example("sign.sq", "sign", 3)
        assert result.solved and result.verified
        body = result.program
        while hasattr(body, "body"):
            body = body.body
        assert isinstance(body, IfTerm)
        assert isinstance(body.else_, IfTerm)
        assert body.cond != body.else_.cond

    def test_sign_recheck_in_fresh_session(self):
        """The coverage obligation is real: the whole chained program
        re-verifies branch by branch in a fresh checker session."""
        _, result = synth_example("sign.sq", "sign", 3)
        goal = result.goal
        session, env = goal.session_environment()
        session.check_program(result.program, goal.goal, env, where="re-check")
        assert session.solve().solved

    def test_single_conditional_budget_cannot_express_sign(self):
        _, result = synth_example("sign.sq", "sign", 3, max_conditionals=1)
        assert not result.solved

    def test_statistics_expose_candidate_search_counters(self):
        _, result = synth_example("sign.sq", "sign", 3)
        stats = result.statistics.as_dict()
        assert stats["candidates_explored"] > 1
        assert stats["muses_enumerated"] > 0
        assert stats["candidates_pruned"] > 0


#: Whole corpus: (file, goal, depth) — kept in sync with scripts/bench_synth.py.
CORPUS = [
    ("max.sq", "max", 3),
    ("replicate.sq", "replicate", 4),
    ("stutter.sq", "stutter", 4),
    ("list.sq", "length", 3),
    ("list.sq", "append", 4),
    ("sign.sq", "sign", 3),
]


class TestSynthesisDeterminism:
    @pytest.mark.parametrize("filename,goal,depth", CORPUS)
    def test_repeated_synthesis_gives_the_same_program(self, filename, goal, depth):
        """The second run starts with the formula table and its caches
        filled by the first, and nodes collected in between come back at
        new addresses; the program and the search counters are identical
        either way."""
        _, first = synth_example(filename, goal, depth)
        gc.collect()
        _, second = synth_example(filename, goal, depth)
        assert first.solved and second.solved
        assert pretty_term(first.program) == pretty_term(second.program)
        assert first.statistics.as_dict() == second.statistics.as_dict()


class TestCorpusRoundTrip:
    @pytest.mark.parametrize("filename,goal,depth", CORPUS)
    def test_printed_program_rechecks_in_a_fresh_session(self, filename, goal, depth):
        """What the user sees is the program: its printed text parses back
        to the same term, which checks against the goal on its own."""
        _, result = synth_example(filename, goal, depth)
        assert result.solved and result.verified
        reparsed = parse_term(pretty_term(result.program))
        assert reparsed == result.program
        session, env = result.goal.session_environment()
        session.check_program(reparsed, result.goal.goal, env, where="re-check")
        assert session.solve().solved


class TestGuardOrderIndependence:
    def test_weakest_guard_survives_pool_shuffling(self):
        """Regression for the conditions docstring case: abduction for the
        `max` x-branch must pick (something equivalent to) the weakest
        guard `y <= x`, never a stronger incidental solution like
        `x == 0 && y == 0`, no matter how the qualifier pool is ordered."""
        goal = parse_type(MAX_GOAL, scope={"x": INT, "y": INT})
        expected = ops.le(Y, X)
        for seed in range(10):
            pool = list(default_qualifiers())
            random.Random(seed).shuffle(pool)
            session = TypecheckSession(qualifiers=pool, literals=(ZERO,))
            env = EMPTY.bind("x", int_type()).bind("y", int_type())
            abduced = abduce_condition(session, env, parse_term("x"), goal)
            assert abduced is not None and not abduced.is_trivial(), f"seed {seed}"
            got = ops.conj(abduced.qualifiers)
            context = list(env.embedding())
            backend = session.backend
            assert backend.is_valid_implication(context + [got], expected), f"seed {seed}"
            assert backend.is_valid_implication(context + [expected], got), f"seed {seed}"
