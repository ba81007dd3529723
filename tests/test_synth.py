"""Round-trip synthesis: the paper's benchmarks from signatures alone.

Each benchmark must (a) synthesize, (b) be re-verified by the ordinary
type checker in a fresh session, and (c) show early pruning at work
(``pruned_early > 0``): the whole point of round-trip checking is that
ill-typed subterms die before they are extended.
"""

import pytest

from repro import limits
from repro.logic import ops
from repro.logic.formulas import Unknown, Var, value_var
from repro.logic.sorts import BOOL, INT
from repro.logic.transform import unknowns
from repro.metrics import Counters
from repro.service import api
from repro.syntax import (
    FixTerm,
    IfTerm,
    MatchTerm,
    parse_program,
    parse_term,
    parse_type,
    pretty_term,
)
from repro.syntax.types import (
    BOOL_BASE,
    PredSig,
    ScalarType,
    TypeSchema,
    arrow,
    bool_type,
    int_type,
    type_var,
)
from repro.synth import (
    ETermEnumerator,
    SynthesisGoal,
    Synthesizer,
    abduce_condition,
    synthesize,
)
from repro.synth.enumerator import rigid_shape_match
from repro.synth.synthesizer import SYNTHESIS_COUNTERS
from repro.typecheck import EMPTY, TypecheckSession

PRELUDE = """
data List a where
    Nil :: {List a | len(nu) == 0}
  | Cons :: x:a -> xs:List a -> {List a | len(nu) == 1 + len(xs)}

measure len :: List a -> {Int | nu >= 0} where
    Nil -> 0 | Cons x xs -> 1 + len(xs)
"""

MAX_SQ = """
leq :: a:Int -> b:Int -> {Bool | nu <==> a <= b}

max :: x:Int -> y:Int -> {Int | nu >= x && nu >= y && (nu == x || nu == y)}
max = ??
"""

REPLICATE_SQ = PRELUDE + """
dec :: a:Int -> {Int | nu == a - 1}

leq :: a:Int -> b:Int -> {Bool | nu <==> a <= b}

replicate :: n:{Int | nu >= 0} -> x:a -> {List a | len(nu) == n}
replicate = ??
"""

STUTTER_SQ = PRELUDE + """
stutter :: xs:List a -> {List a | len(nu) == len(xs) + len(xs)}
stutter = ??
"""

LENGTH_SQ = PRELUDE + """
inc :: a:Int -> {Int | nu == a + 1}

length :: xs:List a -> {Int | nu == len(xs)}
length = ??
"""

APPEND_SQ = PRELUDE + """
append :: xs:List a -> ys:List a -> {List a | len(nu) == len(xs) + len(ys)}
append = ??
"""


def run(source: str, name: str, **limits):
    goal = SynthesisGoal.from_program(parse_program(source), name)
    return synthesize(goal, **limits)


def top_body(term):
    """Strip the fix/lambda spine off a synthesized program."""
    while hasattr(term, "body"):
        term = term.body
    return term


class TestPaperBenchmarks:
    def test_max_needs_an_abduced_condition(self):
        result = run(MAX_SQ, "max", max_depth=3)
        assert result.solved and result.verified
        assert result.statistics.abductions >= 1
        assert result.statistics.pruned_early > 0
        assert isinstance(top_body(result.program), IfTerm)

    def test_stutter_needs_match_and_recursion(self):
        result = run(STUTTER_SQ, "stutter", max_depth=4)
        assert result.solved and result.verified
        assert result.statistics.pruned_early > 0
        assert isinstance(result.program, FixTerm)
        assert isinstance(top_body(result.program), MatchTerm)

    def test_replicate_needs_abduction_and_recursion(self):
        result = run(REPLICATE_SQ, "replicate", max_depth=4)
        assert result.solved and result.verified
        assert result.statistics.abductions >= 1
        assert result.statistics.pruned_early > 0
        assert isinstance(result.program, FixTerm)
        assert isinstance(top_body(result.program), IfTerm)

    def test_length(self):
        result = run(LENGTH_SQ, "length", max_depth=3)
        assert result.solved and result.verified
        assert result.statistics.pruned_early > 0

    def test_append(self):
        result = run(APPEND_SQ, "append", max_depth=4)
        assert result.solved and result.verified
        assert result.statistics.pruned_early > 0

    def test_synthesized_programs_reparse(self):
        """The reported surface syntax round-trips through the parser."""
        result = run(LENGTH_SQ, "length", max_depth=3)
        assert parse_term(pretty_term(result.program)) == result.program

    def test_verification_is_independent(self):
        """Re-checking runs in a fresh session of the ordinary checker."""
        result = run(MAX_SQ, "max", max_depth=3)
        goal = result.goal
        session, env = goal.session_environment()
        session.check_program(result.program, goal.goal, env, where="re-check")
        assert session.solve().solved


class TestSearchLimits:
    def test_depth_exhaustion_reports_no_program(self):
        """The enumerator terminates at the depth bound with a readable
        outcome instead of diverging."""
        result = run(STUTTER_SQ, "stutter", max_depth=2)
        assert not result.solved
        assert "no program found within depth 2" in result.reason
        assert result.statistics.generated > 0

    def test_unsatisfiable_goal_is_not_synthesized(self):
        source = "impossible :: x:Int -> {Int | nu > x && nu < x}\nimpossible = ??\n"
        result = run(source, "impossible", max_depth=3)
        assert not result.solved
        assert result.statistics.pruned_early > 0

    def test_conditional_budget_zero_disables_abduction(self):
        result = run(MAX_SQ, "max", max_depth=3, max_conditionals=0)
        assert not result.solved

    def test_a_budget_cut_abduction_reports_its_candidates(self):
        """The candidates an abduction's Horn search explored count in the
        timeout payload even when the budget stops that search (a count
        budget, so the cut falls at the same place on every run)."""
        with limits.budget_scope(limits.Budget(max_candidates=1)):
            payload = api.compute_synth(parse_program(MAX_SQ))
        [item] = payload["items"]
        assert item["timeout"] and item["limit"] == "horn_candidates"
        assert item["statistics"]["abductions"] == 1
        assert item["statistics"]["candidates_explored"] > 0


class TestEnumerator:
    def make(self, env, **kw):
        session = TypecheckSession(literals=[ops.int_lit(0)])
        return session, ETermEnumerator(session, env, Counters(*SYNTHESIS_COUNTERS), **kw)

    def test_atoms_are_shape_filtered(self):
        env = EMPTY.bind("n", int_type()).bind("b", bool_type())
        _, enum = self.make(env)
        ints = list(enum.candidates(int_type(), 1))
        assert [pretty_term(t) for t in ints] == ["n", "0"]
        bools = list(enum.candidates(bool_type(), 1))
        assert [pretty_term(t) for t in bools] == ["b"]

    def test_prefix_pruning_cuts_ill_typed_applications(self):
        """`pos` demands a positive argument; every atom in scope violates
        that, so depth-2 enumeration yields nothing and counts the prunes."""
        env = (
            EMPTY.bind("pos", parse_type("a:{Int | nu > 0} -> {Int | nu == a}"))
            .bind("n", int_type(ops.lt(ops.var("nu", INT), ops.int_lit(0))))
        )
        session = TypecheckSession(literals=[ops.int_lit(0)])
        enum = ETermEnumerator(session, env, Counters(*SYNTHESIS_COUNTERS))
        found = list(enum.candidates(int_type(), 2))
        assert found == []
        assert enum.statistics.pruned_early == 2  # pos n, pos 0
        assert enum.statistics.generated >= 2

    def test_pruning_leaves_no_constraint_residue(self):
        env = (
            EMPTY.bind("pos", parse_type("a:{Int | nu > 0} -> {Int | nu == a}"))
            .bind("n", int_type())
        )
        session = TypecheckSession(literals=[ops.int_lit(0)])
        enum = ETermEnumerator(session, env, Counters(*SYNTHESIS_COUNTERS))
        list(enum.candidates(int_type(), 2))
        assert session.constraints == []
        assert session.spaces == {}


class TestRigidShapes:
    def test_rigid_variable_only_matches_itself_or_flexible(self):
        a, b, c = type_var("a"), type_var("b"), type_var("c")
        rigid = frozenset({"a", "b"})
        assert rigid_shape_match(a, a, rigid)
        assert rigid_shape_match(c, a, rigid)  # flexible candidate
        assert not rigid_shape_match(b, a, rigid)  # another rigid variable
        assert not rigid_shape_match(int_type(), a, rigid)  # concrete type

    def test_flexible_goal_variable_is_permissive(self):
        assert rigid_shape_match(int_type(), type_var("c"), frozenset({"a"}))

    def test_component_variable_names_do_not_capture_rigid_ones(self):
        """A polymorphic component whose quantified variable happens to be
        named like the goal's rigid variable must stay applicable: schema
        variables are freshened before shape matching, and each
        instantiation mints fresh names."""
        from repro.syntax import generalize
        from repro.logic import ops

        session = TypecheckSession(literals=[ops.int_lit(0)])
        env = EMPTY.bind("ident", generalize(parse_type("x:a -> {a | nu == x}")))
        env = env.bind("n", int_type())
        enum = ETermEnumerator(session, env, Counters(*SYNTHESIS_COUNTERS), rigid=frozenset({"a"}))
        found = {pretty_term(t) for t in enum.candidates(int_type(), 2)}
        assert "ident n" in found and "ident 0" in found

    def test_degenerate_polymorphic_instantiation_is_refuted(self):
        """A `List a` goal must not be inhabited by lists of lists: the
        stutter benchmark once found `Cons Nil (Cons Nil ...)` this way."""
        result = run(STUTTER_SQ, "stutter", max_depth=4)
        assert "Cons Nil" not in pretty_term(result.program)


class TestAbduction:
    def goal_env(self):
        goal = SynthesisGoal.from_program(parse_program(MAX_SQ), "max")
        synthesizer = Synthesizer(goal)
        session, env = synthesizer.session, synthesizer.base_env
        env = env.bind("x", int_type()).bind("y", int_type())
        return session, env

    def test_weakest_condition_is_a_single_comparison(self):
        session, env = self.goal_env()
        goal = parse_type(
            "{Int | nu >= x && nu >= y && (nu == x || nu == y)}",
            scope={"x": INT, "y": INT},
        )
        abduced = abduce_condition(session, env, parse_term("x"), goal)
        assert abduced is not None
        assert abduced.qualifiers == (ops.le(Var("y", INT), Var("x", INT)),)

    def test_unconditional_candidate_abduces_trivially(self):
        session, env = self.goal_env()
        goal = parse_type("{Int | nu == x}", scope={"x": INT, "y": INT})
        abduced = abduce_condition(session, env, parse_term("x"), goal)
        assert abduced is not None and abduced.is_trivial()

    def test_unabducible_candidate_returns_none(self):
        session, env = self.goal_env()
        goal = parse_type("{Int | nu == x + 1}", scope={"x": INT, "y": INT})
        assert abduce_condition(session, env, parse_term("x"), goal) is None

    def test_abduction_leaves_no_residue(self):
        session, env = self.goal_env()
        goal = parse_type("{Int | nu == x}", scope={"x": INT, "y": INT})
        before_constraints = list(session.constraints)
        before_spaces = dict(session.spaces)
        abduce_condition(session, env, parse_term("y"), goal)
        assert session.constraints == before_constraints
        assert session.spaces == before_spaces


class TestTrialScopes:
    def test_try_check_rolls_back(self):
        session = TypecheckSession()
        env = EMPTY.bind("n", int_type())
        good = session.try_check(env, parse_term("n"), int_type())
        bad = session.try_check(
            env, parse_term("n"), parse_type("{Int | nu > n}", scope={"n": INT})
        )
        assert good.solved and not bad.solved
        assert session.constraints == []

    def test_try_check_reports_structural_errors_as_unsolved(self):
        session = TypecheckSession()
        env = EMPTY.bind("n", int_type())
        result = session.try_check(env, parse_term("n n"), int_type())
        assert not result.solved
        # no constraint was refuted, so there is no obligation to name
        assert result.failed is None and result.error_message is None

    def test_try_infer_rejects_unsolvable_obligations(self):
        session = TypecheckSession()
        env = EMPTY.bind(
            "pos", parse_type("a:{Int | nu > 0} -> Int")
        ).bind("n", int_type(ops.lt(ops.var("nu", INT), ops.int_lit(0))))
        assert session.try_infer(env, parse_term("pos n")) is None
        assert session.try_infer(env, parse_term("pos")) is not None

    def test_sibling_trials_mint_the_same_names(self):
        session = TypecheckSession()
        env = EMPTY.bind("n", int_type())

        def mint():
            with session.trial():
                return session.fresh_name("ctx"), session.fresh_unknown(env, INT).name

        first = mint()
        assert mint() == first
        assert session.spaces == {}
        # a name minted outside any trial stays taken
        kept = session.fresh_name("ctx")
        assert mint()[0] != kept

    def test_a_repeated_candidate_is_neither_encoded_nor_decided_again(self):
        """Its obligations mention contextual names (``_ctx``); minted
        again under the same names, they are the formulas the first check
        already encoded and decided."""
        env = (
            EMPTY.bind("pos", parse_type("a:{Int | nu > 0} -> {Int | nu == a}"))
            .bind("inc", parse_type("a:Int -> {Int | nu == a + 1}"))
            .bind("n", parse_type("{Int | nu >= 0}"))
        )
        session = TypecheckSession()
        candidate = parse_term("pos (pos (inc n))")
        statistics = session.backend.statistics
        assert session.try_infer(env, candidate) is not None
        assert session.try_check(env, candidate, int_type()).solved
        spent = (statistics.encoded_assertions, statistics.sat_queries)
        assert session.try_infer(env, candidate) is not None
        assert session.try_check(env, candidate, int_type()).solved
        assert (statistics.encoded_assertions, statistics.sat_queries) == spent

    def test_a_guard_mentioning_a_trial_minted_name_is_skipped(self):
        """``cmp x y`` entails the condition, but its refinement mentions
        the unknown its trial minted for ``P``: assumed in the else-branch,
        that name would alias whatever a later trial mints under it."""
        a, b = ops.var("a", INT), ops.var("b", INT)
        refinement = ops.and_(ops.iff(value_var(BOOL), ops.le(b, a)), Unknown("P"))
        body = arrow("a", int_type(), arrow("b", int_type(), ScalarType(BOOL_BASE, refinement)))
        env = (
            EMPTY.bind("cmp", TypeSchema((), (PredSig("P", (BOOL,)),), body))
            .bind("leq", parse_type("a:Int -> b:Int -> {Bool | nu <==> a <= b}"))
            .bind("x", int_type())
            .bind("y", int_type())
        )
        synthesizer = Synthesizer(SynthesisGoal.from_program(parse_program(MAX_SQ), "max"))
        enumerator = ETermEnumerator(synthesizer.session, env, synthesizer.statistics)
        condition = ops.le(ops.var("y", INT), ops.var("x", INT))
        guard, refuted = synthesizer._realize_guard(env, enumerator, condition)
        assert pretty_term(guard) == "leq y x"
        assert not unknowns(refuted)


class TestGoalDescription:
    def test_result_pretty_without_program(self):
        result = run(STUTTER_SQ, "stutter", max_depth=1)
        assert not result.solved
        assert "no program found" in result.pretty()


def test_custom_literals_reach_abduction_spaces():
    """The term-literal pool and the qualifier-space literal pool must
    agree: a goal whose guard needs the constant 1 synthesizes only when
    `IntConst(1)` is passed, because abduction can then discover `n <= 1`."""
    from repro.syntax.terms import IntConst

    source = (
        "leq :: a:Int -> b:Int -> {Bool | nu <==> a <= b}\n"
        "clamp :: n:{Int | nu >= 0} -> {Int | nu <= n && nu <= 1 && (nu == n || nu == 1)}\n"
        "clamp = ??\n"
    )
    goal = SynthesisGoal.from_program(parse_program(source), "clamp")
    result = synthesize(goal, max_depth=3, literals=(IntConst(0), IntConst(1)))
    assert result.solved and result.verified
    assert result.statistics.abductions >= 1
    body = top_body(result.program)
    assert isinstance(body, IfTerm)


def test_scalar_goal_without_arrows():
    """A scalar goal needs no lambdas at all."""
    source = "three :: {Int | nu == 3}\nthree = ??\n"
    goal = SynthesisGoal.from_program(parse_program(source), "three")
    result = synthesize(goal, max_depth=1, literals=(parse_term("3"),))
    assert result.solved and result.verified
    assert pretty_term(result.program) == "3"


def test_component_order_is_respected():
    """SynthesisGoal.from_program excludes the goal's own signature from
    the component pool (recursion goes through fix instead)."""
    goal = SynthesisGoal.from_program(parse_program(STUTTER_SQ), "stutter")
    assert "stutter" not in dict(goal.components)


@pytest.mark.parametrize("source,name", [(MAX_SQ, "max"), (LENGTH_SQ, "length")])
def test_statistics_counters_are_consistent(source, name):
    result = run(source, name, max_depth=3)
    stats = result.statistics
    assert stats.checked <= stats.generated
    assert stats.pruned_early <= stats.checked
    data = stats.as_dict()
    assert data["generated"] == stats.generated
    assert data["pruned_early"] == stats.pruned_early
