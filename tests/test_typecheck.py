"""End-to-end tests for the refinement type checker (Sec. 3 of the paper).

The paper's running examples: ``max`` and ``abs`` are typed against
refinement signatures, their subtyping obligations become Horn constraints,
and the Horn solver either validates the program (definite constraints) or
infers the refinements (predicate unknowns), whose valuations the tests
assert exactly.
"""

from repro.logic import ops
from repro.logic.formulas import Unknown, Var, value_var
from repro.logic.sorts import INT
from repro.smt.solver import IncrementalSolver
from repro.syntax import (
    ContextualType,
    annot,
    app,
    arrow,
    if_,
    int_type,
    lam,
    let,
    lit,
    parse_type,
    v,
)
from repro.syntax.types import INT_BASE
from repro.typecheck import EMPTY, Environment, TypecheckSession

x = ops.var("x", INT)
y = ops.var("y", INT)
nu = value_var(INT)

GEQ = "a:Int -> b:Int -> {Bool | nu <==> a >= b}"
NEG = "a:Int -> {Int | nu == 0 - a}"
INC = "a:Int -> {Int | nu == a + 1}"


def component_env(**components: str) -> Environment:
    env = EMPTY
    for name, signature in components.items():
        env = env.bind(name, parse_type(signature))
    return env


def max_term():
    return lam("x", "y", body=if_(app(v("geq"), v("x"), v("y")), v("x"), v("y")))


def abs_term():
    return lam("x", body=if_(app(v("geq"), v("x"), lit(0)), v("x"), app(v("neg"), v("x"))))


class TestEnvironment:
    def test_bind_lookup_shadowing(self):
        env = EMPTY.bind("x", int_type()).bind("x", int_type(ops.ge(nu, y)))
        assert env.lookup("x") == int_type(ops.ge(nu, y))
        assert env.lookup("missing") is None
        assert "x" in env and "missing" not in env

    def test_embedding_substitutes_value_var(self):
        env = EMPTY.bind("x", int_type(ops.ge(nu, ops.int_lit(0)))).assume(ops.lt(x, y))
        assert env.embedding() == [ops.ge(x, ops.int_lit(0)), ops.lt(x, y)]

    def test_embedding_skips_shadowed_refinements(self):
        env = EMPTY.bind("x", int_type(ops.ge(nu, ops.int_lit(7)))).bind("x", int_type())
        assert env.embedding() == []

    def test_scope_candidates_are_scalars_only(self):
        env = component_env(geq=GEQ).bind("x", int_type())
        assert env.scope_candidates() == [x]

    def test_assume_true_is_identity(self):
        env = EMPTY.assume(ops.bool_lit(True))
        assert env.assumptions == ()


class TestInference:
    def test_variable_selfification(self):
        session = TypecheckSession()
        env = EMPTY.bind("x", int_type(ops.ge(nu, ops.int_lit(0))))
        inferred = session.infer(env, v("x"))
        assert inferred.refinement == ops.and_(ops.ge(nu, ops.int_lit(0)), ops.eq(nu, x))

    def test_constants(self):
        session = TypecheckSession()
        assert session.infer(EMPTY, lit(3)).refinement == ops.eq(nu, ops.int_lit(3))
        bool_ref = session.infer(EMPTY, lit(True)).refinement
        assert bool_ref == ops.var("_v", ops.bool_lit(True).sort)

    def test_dependent_application_substitutes_argument(self):
        session = TypecheckSession()
        env = component_env(inc=INC).bind("x", int_type())
        inferred = session.infer(env, app(v("inc"), v("x")))
        assert inferred.refinement == ops.eq(nu, ops.plus(x, ops.int_lit(1)))

    def test_nested_application_produces_contextual_type(self):
        session = TypecheckSession()
        env = component_env(inc=INC).bind("x", int_type())
        inferred = session.infer(env, app(v("inc"), app(v("inc"), v("x"))))
        assert isinstance(inferred, ContextualType)
        ((name, bound),) = inferred.bindings
        assert bound.refinement == ops.eq(nu, ops.plus(x, ops.int_lit(1)))
        assert inferred.body.refinement == ops.eq(nu, ops.plus(Var(name, INT), ops.int_lit(1)))

    def test_annotation_checks_and_returns(self):
        session = TypecheckSession()
        env = EMPTY.bind("x", int_type(ops.ge(nu, ops.int_lit(1))))
        goal = int_type(ops.ge(nu, ops.int_lit(0)))
        assert session.infer(env, annot(v("x"), goal)) == goal
        assert session.solve().solved


class TestMaxExample:
    def test_concrete_signature_checks(self):
        """All obligations are definite: the checker validates max outright."""
        env = component_env(geq=GEQ)
        sig = parse_type("x:Int -> y:Int -> {Int | nu >= x && nu >= y}")
        session = TypecheckSession()
        session.check_program(max_term(), sig, env, where="max")
        assert session.constraints, "subtyping must have produced constraints"
        assert all(c.is_definite() for c in session.constraints)
        assert session.solve().solved

    def test_inferred_postcondition(self):
        """Liquid inference: a fresh unknown takes the place of the result
        refinement and the Horn solver discovers x <= nu && y <= nu."""
        env = component_env(geq=GEQ)
        session = TypecheckSession()
        inner = env.bind("x", int_type()).bind("y", int_type())
        result = session.fresh_scalar(inner, INT_BASE)
        sig = arrow("x", int_type(), arrow("y", int_type(), result))
        session.check(env, max_term(), sig, where="max")
        spec = parse_type("x:Int -> y:Int -> {Int | nu >= x && nu >= y}")
        session.subtype(env, sig, spec, where="max-spec")
        outcome = session.solve(minimize=True)
        assert outcome.solved
        unknown = result.refinement
        assert isinstance(unknown, Unknown)
        valuation = set(outcome.assignment[unknown.name])
        assert ops.le(x, nu) in valuation
        assert ops.le(y, nu) in valuation
        assert ops.le(nu, x) not in valuation
        assert set(outcome.weakest[unknown.name]) == {ops.le(x, nu), ops.le(y, nu)}

    def test_guards_are_required(self):
        """Without the branch guard the obligations would be invalid — the
        then-branch constraint must carry x >= y as a premise."""
        env = component_env(geq=GEQ)
        sig = parse_type("x:Int -> y:Int -> {Int | nu >= x && nu >= y}")
        session = TypecheckSession()
        session.check_program(max_term(), sig, env, where="max")
        then_constraints = [
            c for c in session.constraints if any("then" in p for p in c.provenance)
        ]
        assert then_constraints
        assert all(ops.ge(x, y) in c.premises for c in then_constraints)


class TestAbsExample:
    def test_concrete_signature_checks(self):
        env = component_env(geq=GEQ, neg=NEG)
        sig = parse_type("x:Int -> {Int | nu >= 0 && nu >= x}")
        session = TypecheckSession()
        session.check_program(abs_term(), sig, env, where="abs")
        assert session.solve().solved

    def test_inferred_postcondition_uses_literal_candidates(self):
        env = component_env(geq=GEQ, neg=NEG)
        session = TypecheckSession(literals=[ops.int_lit(0)])
        inner = env.bind("x", int_type())
        result = session.fresh_scalar(inner, INT_BASE)
        sig = arrow("x", int_type(), result)
        session.check(env, abs_term(), sig, where="abs")
        session.subtype(env, sig, parse_type("x:Int -> {Int | nu >= 0}"), "abs-spec")
        outcome = session.solve()
        assert outcome.solved
        valuation = set(outcome.assignment[result.refinement.name])
        assert ops.le(ops.int_lit(0), nu) in valuation


class TestCheckForms:
    def test_let_binding(self):
        env = component_env(inc=INC).bind("x", int_type())
        goal = int_type(ops.eq(nu, ops.plus(x, ops.int_lit(1))))
        session = TypecheckSession()
        session.check(env, let("z", app(v("inc"), v("x")), v("z")), goal, "let")
        assert session.solve().solved

    def test_nested_application_against_goal(self):
        """inc (inc x) : {Int | nu == x + 2} via a contextual type."""
        env = component_env(inc=INC).bind("x", int_type())
        goal = int_type(ops.eq(nu, ops.plus(x, ops.int_lit(2))))
        session = TypecheckSession()
        session.check(env, app(v("inc"), app(v("inc"), v("x"))), goal, "nested")
        assert session.solve().solved

    def test_lambda_binder_renaming(self):
        """The lambda may name its binder differently from the goal type."""
        env = component_env(inc=INC)
        sig = parse_type("n:Int -> {Int | nu == n + 1}")
        session = TypecheckSession()
        session.check_program(lam("m", body=app(v("inc"), v("m"))), sig, env)
        assert session.solve().solved

    def test_higher_order_argument(self):
        """A lambda argument is checked against the component's arrow
        domain (introduction terms cannot be inferred)."""
        twice = parse_type("f:(Int -> {Int | nu >= 0}) -> x:Int -> {Int | nu >= 0}")
        env = EMPTY.bind("twice", twice)
        session = TypecheckSession()
        inferred = session.infer(env, app(v("twice"), lam("z", body=lit(1))))
        assert inferred.arg_name == "x"
        assert session.solve().solved

    def test_datatype_arguments_are_covariant(self):
        """List {Int | nu > 0} <: List Int holds; the converse must emit a
        failing element-level obligation rather than being dropped."""
        from repro.syntax import data_type

        positive = data_type("List", [int_type(ops.gt(nu, ops.int_lit(0)))])
        plain = data_type("List", [int_type()])
        session = TypecheckSession()
        session.subtype(EMPTY, positive, plain, "covariant")
        assert session.solve().solved
        failing = TypecheckSession()
        failing.subtype(EMPTY, plain, positive, "covariant-bad")
        outcome = failing.solve()
        assert not outcome.solved
        assert "type argument 0" in outcome.failed.origin()

    def test_contravariant_argument_subtyping(self):
        """f : {Int | nu >= 0} -> Int is usable where Int -> Int flows the
        other way: sub's domain must be weaker."""
        session = TypecheckSession()
        strong_domain = arrow("x", int_type(ops.ge(nu, ops.int_lit(0))), int_type())
        weak_domain = arrow("x", int_type(), int_type())
        session.subtype(EMPTY, weak_domain, strong_domain, "contra")
        assert session.solve().solved
        failing = TypecheckSession()
        failing.subtype(EMPTY, strong_domain, weak_domain, "contra-bad")
        assert not failing.solve().solved


class TestSessionBackend:
    def test_one_backend_serves_the_whole_derivation(self):
        backend = IncrementalSolver()
        session = TypecheckSession(backend=backend)
        env = component_env(geq=GEQ)
        sig = parse_type("x:Int -> y:Int -> {Int | nu >= x && nu >= y}")
        session.check_program(max_term(), sig, env, where="max")
        assert session.solve().solved
        queries_after_first = backend.statistics.sat_queries
        assert queries_after_first > 0
        # a second solve on the same session reuses the same backend (and
        # its learned state); the solver object is fresh each time, but the
        # session's shared validity memo answers every grounded implication
        # it has already settled — an identical re-solve is query-free
        first_solver = session.last_solver
        assert session.solve().solved
        assert session.last_solver is not first_solver
        assert session.last_solver.backend is backend
        assert backend.statistics.sat_queries == queries_after_first
        # re-asserted premises were not re-encoded
        assert backend.statistics.reused_assertions > 0

    def test_default_backend_is_incremental(self):
        session = TypecheckSession()
        assert isinstance(session.backend, IncrementalSolver)


class TestSchemaInstantiation:
    def test_predicate_variables_become_fresh_unknowns(self):
        from repro.logic.sorts import INT as int_sort
        from repro.syntax import PredSig, ScalarType, TypeSchema

        body = arrow("x", int_type(), ScalarType(INT_BASE, Unknown("P")))
        schema = TypeSchema((), (PredSig("P", (int_sort,)),), body)
        session = TypecheckSession()
        env = EMPTY.bind("x", int_type())
        instantiated = session.instantiate(schema, env)
        unknown = instantiated.result_type.refinement
        assert isinstance(unknown, Unknown)
        assert unknown.name != "P"
        assert unknown.name in session.spaces
        assert len(session.spaces[unknown.name]) > 0

    def test_schema_bound_variable_is_instantiated_on_lookup(self):
        from repro.syntax import PredSig, ScalarType, TypeSchema

        body = arrow("a", int_type(), ScalarType(INT_BASE, Unknown("P")))
        schema = TypeSchema((), (PredSig("P", (INT,)),), body)
        session = TypecheckSession()
        env = EMPTY.bind("f", schema).bind("x", int_type())
        inferred = session.infer(env, app(v("f"), v("x")))
        assert isinstance(inferred.refinement, Unknown)
        assert inferred.refinement.name in session.spaces


class TestSolveOptions:
    """A session's plain ``solve()`` takes the classic path."""

    def build_session(self):
        env = component_env(geq=GEQ)
        session = TypecheckSession()
        inner = env.bind("x", int_type()).bind("y", int_type())
        result = session.fresh_scalar(inner, INT_BASE)
        sig = arrow("x", int_type(), arrow("y", int_type(), result))
        session.check(env, max_term(), sig, where="max")
        spec = parse_type("x:Int -> y:Int -> {Int | nu >= x && nu >= y}")
        session.subtype(env, sig, spec, where="max-spec")
        return session

    def test_classic_path_reports_its_single_candidate(self):
        outcome = self.build_session().solve()
        assert outcome.solved
        assert outcome.candidates == (outcome.assignment,)
