"""The bidirectional refinement type checker.

Implements the type system of Polikarpova, Kuraj & Solar-Lezama,
*Program Synthesis from Polymorphic Refinement Types* (PLDI 2016):
the round-trip-friendly bidirectional judgments of Sec. 3 (inference for
E-terms, checking for I-terms), selfification and contextual types of
Secs. 3.2–3.3, the liquid abstraction of Sec. 3.6 (via
:class:`~repro.typecheck.session.TypecheckSession`), match elaboration
with constructor selfification and measure unfolding (Sec. 3.2),
terminating ``fix`` (Sec. 3), and the application-site type-variable
unification that keeps polymorphic components first-order-instantiable.
The synthesizer (:mod:`repro.synth`, Sec. 4) re-enters this module
through :func:`elaborate_match_case` and :func:`recursion_signature`.

Typing is split into two mutually recursive judgments:

* :func:`infer` — elimination terms (variables, constants, applications,
  ascriptions) *produce* a type.  Variable lookups are selfified
  (``x : {B | psi && nu == x}``) so dependent application can talk about
  the argument precisely; applications substitute the argument into the
  callee's result type, or produce a :class:`ContextualType` binding a
  fresh name when the argument is not representable as a refinement term.

* :func:`check` — introduction terms (lambdas, conditionals, lets) are
  checked *against* a goal type.  Conditionals check each branch under the
  guard extracted from the scrutinee's refinement; the catch-all case
  infers a type and delegates to :func:`subtype`.

:func:`subtype` reduces ``Γ ⊢ T1 <: T2`` to Horn constraints: for scalars
it emits ``⟦Γ⟧ && [nu-normalized] psi1 ==> psi2`` (split into one
constraint per conjunct of ``psi2``, so conclusions are either a lone
predicate unknown or unknown-free, as the Horn solver requires); for
arrows it recurses contravariantly on arguments and covariantly on
results.  Every emitted constraint carries the provenance trail of the
obligation that produced it, so an unsolvable system names the program
location at fault.

``match`` elaboration (Sec. 3.2): the scrutinee must be a declared
datatype; each case binds the constructor's arguments at its instantiated
signature and checks the body under *constructor selfification* — the
constructor's result refinement with ``nu`` replaced by the scrutinee —
conjoined with the catamorphism unfolding of every measure on the
datatype (``len(xs) == 1 + len(ys)`` in the ``Cons`` case).  Matches must
be exhaustive.

``fix`` (Sec. 3): the recursive occurrence is bound at the goal signature
*strengthened with a termination metric*: every argument that has a
well-founded metric (``nu`` for Int, the first Int-resulted measure for a
datatype) is refined so the tuple of metrics decreases lexicographically
and stays non-negative at every recursive call.

At application sites, a polymorphic component's type variables are
unified against the shape of the actual argument
(:func:`_instantiate_at_application`), so ``Cons 3 xs`` elaborates at
``a := Int`` instead of leaving ``a`` free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from ..logic import ops
from ..logic.formulas import FALSE, TRUE, Formula, Var, value_var
from ..logic.simplify import simplify
from ..logic.sortcheck import MeasureSignatures, SortError, check_refinement
from ..logic.sorts import BOOL, INT, VarSort
from ..logic.substitution import instantiate_value_var, substitute
from ..syntax.terms import (
    Annot,
    AppTerm,
    BoolConst,
    FixTerm,
    IfTerm,
    IntConst,
    LambdaTerm,
    LetTerm,
    MatchCase,
    MatchTerm,
    Term,
    VarTerm,
)
from ..syntax.types import (
    BOOL_BASE,
    INT_BASE,
    ContextualType,
    DataBase,
    FunctionType,
    IntBase,
    RType,
    ScalarType,
    TypeSchema,
    TypeVarBase,
    same_shape,
    shape,
    substitute_in_type,
    type_free_vars,
)
from .environment import Environment
from .errors import (
    MatchError,
    ShapeError,
    TerminationError,
    TypecheckError,
    WellFormednessError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..syntax.datatypes import Datatype
    from .session import TypecheckSession

Provenance = Tuple[str, ...]


class _SubtypeLabel:
    """The provenance entry ``sub <: sup`` of a scalar subtyping obligation.

    Every obligation carries one, but only a rejection ever reads it, so
    the two types are rendered when the label is first read as text and
    not before.  It compares, hashes and answers ``in`` as that text.
    """

    __slots__ = ("sub", "sup", "_text")

    def __init__(self, sub: ScalarType, sup: ScalarType) -> None:
        self.sub = sub
        self.sup = sup
        self._text: Optional[str] = None

    def __str__(self) -> str:
        if self._text is None:
            self._text = f"{self.sub!r} <: {self.sup!r}"
        return self._text

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (str, _SubtypeLabel)):
            return str(self) == str(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(str(self))

    def __contains__(self, text: str) -> bool:
        return text in str(self)


# ---------------------------------------------------------------------------
# well-formedness
# ---------------------------------------------------------------------------


def well_formed(session: "TypecheckSession", env: Environment, rtype: RType) -> None:
    """Demand every refinement in ``rtype`` is a boolean formula over the
    variables in scope, raising :class:`WellFormednessError` otherwise."""
    _check_well_formed(rtype, env.sort_scope(), session.measures)


def _check_well_formed(node: RType, local: dict, measures: MeasureSignatures) -> None:
    """The walk behind :func:`well_formed` — a module function, not a
    recursive closure, so it builds no reference cycle around the session."""
    if isinstance(node, ScalarType):
        refinement_scope = dict(local)
        refinement_scope[value_var(node.sort).name] = node.sort
        try:
            check_refinement(node.refinement, refinement_scope, measures)
        except SortError as error:
            raise WellFormednessError(f"ill-formed refinement in {node!r}: {error}") from error
        return
    if isinstance(node, FunctionType):
        _check_well_formed(node.arg_type, local, measures)
        inner = dict(local)
        if isinstance(node.arg_type, ScalarType):
            inner[node.arg_name] = node.arg_type.sort
        _check_well_formed(node.result_type, inner, measures)
        return
    if isinstance(node, ContextualType):
        inner = dict(local)
        for name, bound in node.bindings:
            _check_well_formed(bound, inner, measures)
            if isinstance(bound, ScalarType):
                inner[name] = bound.sort
        _check_well_formed(node.body, inner, measures)
        return
    raise WellFormednessError(f"unknown type node: {node!r}")


# ---------------------------------------------------------------------------
# inference (elimination terms)
# ---------------------------------------------------------------------------


def infer(
    session: "TypecheckSession",
    env: Environment,
    term: Term,
    where: Provenance = (),
) -> RType:
    """Infer the type of an elimination term."""
    if isinstance(term, VarTerm):
        return _infer_var(session, env, term, where)
    if isinstance(term, IntConst):
        return ScalarType(INT_BASE, ops.eq(value_var(INT), ops.int_lit(term.value)))
    if isinstance(term, BoolConst):
        return ScalarType(BOOL_BASE, ops.iff(value_var(BOOL), ops.bool_lit(term.value)))
    if isinstance(term, AppTerm):
        return _infer_app(session, env, term, where)
    if isinstance(term, Annot):
        well_formed(session, env, term.rtype)
        check(session, env, term.term, term.rtype, where + ("ascription",))
        return term.rtype
    raise TypecheckError(
        f"cannot infer a type for the introduction term `{term!r}` "
        f"at {_pretty_where(where)}; check it against a goal type instead"
    )


def _infer_var(
    session: "TypecheckSession", env: Environment, term: VarTerm, where: Provenance
) -> RType:
    bound = env.lookup(term.name)
    if bound is None:
        raise TypecheckError(f"unbound variable `{term.name}` at {_pretty_where(where)}")
    if isinstance(bound, TypeSchema):
        bound = session.instantiate(bound, env)
    if isinstance(bound, ScalarType):
        # Selfification: x : {B | psi && nu == x} (Sec. 3.3) — the precise
        # singleton type dependent application relies on.
        nu = value_var(bound.sort)
        return ScalarType(
            bound.base,
            ops.and_(bound.refinement, ops.eq(nu, Var(term.name, bound.sort))),
        )
    return bound


def _infer_app(
    session: "TypecheckSession",
    env: Environment,
    term: AppTerm,
    where: Provenance,
    trailing: Tuple[Term, ...] = (),
) -> RType:
    fun_type = _infer_fun_type(session, env, term, where, trailing)
    context: Tuple[Tuple[str, RType], ...] = ()
    if isinstance(fun_type, ContextualType):
        context = fun_type.bindings
        fun_type = fun_type.body
    if not isinstance(fun_type, FunctionType):
        raise ShapeError(
            f"`{term.fun!r}` of type `{fun_type!r}` is applied but is not a "
            f"function, at {_pretty_where(where)}"
        )
    inner_env = env.bind_all(context)
    argument = _as_refinement_term(inner_env, term.arg)
    if argument is not None:
        check(session, inner_env, term.arg, fun_type.arg_type, where + ("argument",))
        result = substitute_in_type(fun_type.result_type, {fun_type.arg_name: argument})
        return ContextualType(context, result) if context else result

    dependent = fun_type.arg_name in type_free_vars(fun_type.result_type)
    if not term.arg.is_e_term():
        # Introduction terms (lambdas, conditionals) have no inferred type:
        # check them directly.  They cannot occur in refinements, so a
        # dependent position cannot be satisfied by one.
        check(session, inner_env, term.arg, fun_type.arg_type, where + ("argument",))
        if dependent:
            raise ShapeError(
                f"argument `{term.arg!r}` of a dependent application must be "
                f"scalar-typed, at {_pretty_where(where)}"
            )
        result = fun_type.result_type
        return ContextualType(context, result) if context else result

    # E-term argument without a refinement-term translation: infer its type
    # once (a check would walk the argument a second time) and, when the
    # result type needs the value, name it with a fresh contextual binding
    # (Sec. 3.2) and substitute the name instead.
    arg_type = infer(session, inner_env, term.arg, where + ("argument",))
    if isinstance(arg_type, ContextualType):
        context = context + arg_type.bindings
        inner_env = env.bind_all(context)
        arg_type = arg_type.body
    subtype(session, inner_env, arg_type, fun_type.arg_type, where + ("argument",))
    if not dependent:
        result = fun_type.result_type
        return ContextualType(context, result) if context else result
    if not isinstance(arg_type, ScalarType):
        raise ShapeError(
            f"argument `{term.arg!r}` of a dependent application must be "
            f"scalar-typed, got `{arg_type!r}`, at {_pretty_where(where)}"
        )
    fresh = session.fresh_name("ctx")
    context = context + ((fresh, arg_type),)
    result = substitute_in_type(
        fun_type.result_type, {fun_type.arg_name: Var(fresh, arg_type.sort)}
    )
    return ContextualType(context, result)


def _infer_fun_type(
    session: "TypecheckSession",
    env: Environment,
    term: AppTerm,
    where: Provenance,
    trailing: Tuple[Term, ...],
) -> RType:
    """The applied function's type — with type variables unified against the
    arguments when the function is a polymorphic component.

    ``trailing`` carries the arguments of the *enclosing* applications of a
    curried spine, so the innermost application (where the polymorphic head
    sits) sees every argument: ``Cons (dec n) xs`` instantiates the element
    variable from ``xs`` even though the first argument's shape is unknown.
    """
    spine_args = (term.arg,) + trailing
    if isinstance(term.fun, VarTerm):
        bound = env.lookup(term.fun.name)
        if isinstance(bound, TypeSchema) and bound.type_vars:
            return _instantiate_at_application(session, env, bound, spine_args)
    if isinstance(term.fun, AppTerm):
        return _infer_app(session, env, term.fun, where + ("function",), spine_args)
    return infer(session, env, term.fun, where + ("function",))


def _instantiate_at_application(
    session: "TypecheckSession",
    env: Environment,
    schema: TypeSchema,
    args: Tuple[Term, ...],
) -> RType:
    """Instantiate a polymorphic schema at an application site by unifying
    each curried parameter's shape against the corresponding argument's
    (Sec. 3.3: type variables are resolved structurally; refinements are
    erased so the instantiation never narrows the component's domain).
    Variables no argument determines stay free — a later application or the
    permissive sort compatibility of subtyping resolves them.
    """
    type_args: dict = {}
    type_vars = frozenset(schema.type_vars)
    node = schema.body
    for arg in args:
        if not isinstance(node, FunctionType):
            break
        arg_shape = _term_shape(env, arg)
        if arg_shape is not None:
            _unify_shape(node.arg_type, arg_shape, type_vars, type_args)
        node = node.result_type
    return session.instantiate(schema, env, type_args=type_args)


def _term_shape(env: Environment, term: Term) -> Optional[RType]:
    """The simple-type skeleton of an E-term, when it is known without a
    full inference walk."""
    if isinstance(term, VarTerm):
        bound = env.lookup(term.name)
        if isinstance(bound, TypeSchema):
            return None if bound.type_vars else shape(bound.body)
        return None if bound is None else shape(bound)
    if isinstance(term, IntConst):
        return ScalarType(INT_BASE)
    if isinstance(term, BoolConst):
        return ScalarType(BOOL_BASE)
    if isinstance(term, Annot):
        return shape(term.rtype)
    if isinstance(term, AppTerm):
        # The result shape of an application: peel one arrow off the head's
        # shape per argument.  Polymorphic heads yield None (their result
        # shape depends on the instantiation being computed).
        head: Term = term
        arity = 0
        while isinstance(head, AppTerm):
            head = head.fun
            arity += 1
        node = _term_shape(env, head)
        for _ in range(arity):
            if not isinstance(node, FunctionType):
                return None
            node = node.result_type
        return node
    return None


def _unify_shape(param: RType, arg: RType, type_vars: "frozenset", out: dict) -> None:
    """Match ``param`` against ``arg`` structurally, binding the schema's
    type variables to the argument's (refinement-erased) subtypes."""
    if isinstance(param, ContextualType):
        param = param.body
    if isinstance(arg, ContextualType):
        arg = arg.body
    if isinstance(param, ScalarType) and isinstance(param.base, TypeVarBase):
        name = param.base.name
        if name in type_vars and name not in out and isinstance(arg, ScalarType):
            out[name] = shape(arg)
        return
    if isinstance(param, ScalarType) and isinstance(arg, ScalarType):
        if (
            isinstance(param.base, DataBase)
            and isinstance(arg.base, DataBase)
            and param.base.name == arg.base.name
        ):
            for param_arg, arg_arg in zip(param.base.args, arg.base.args):
                _unify_shape(param_arg, arg_arg, type_vars, out)
        return
    if isinstance(param, FunctionType) and isinstance(arg, FunctionType):
        _unify_shape(param.arg_type, arg.arg_type, type_vars, out)
        _unify_shape(param.result_type, arg.result_type, type_vars, out)


def _as_refinement_term(env: Environment, term: Term) -> Optional[Formula]:
    """The refinement-logic translation of an E-term, when one exists."""
    if isinstance(term, IntConst):
        return ops.int_lit(term.value)
    if isinstance(term, BoolConst):
        return ops.bool_lit(term.value)
    if isinstance(term, VarTerm):
        bound = env.lookup(term.name)
        if isinstance(bound, ScalarType):
            return Var(term.name, bound.sort)
    return None


# ---------------------------------------------------------------------------
# checking (introduction terms)
# ---------------------------------------------------------------------------


def check(
    session: "TypecheckSession",
    env: Environment,
    term: Term,
    goal: RType,
    where: Provenance = (),
) -> None:
    """Check ``term`` against ``goal``, emitting subtyping constraints."""
    if isinstance(goal, ContextualType):
        check(session, env.bind_all(goal.bindings), term, goal.body, where)
        return
    if isinstance(term, LambdaTerm):
        _check_lambda(session, env, term, goal, where)
        return
    if isinstance(term, IfTerm):
        _check_if(session, env, term, goal, where)
        return
    if isinstance(term, LetTerm):
        value_type = infer(session, env, term.value, where + (f"let {term.name}",))
        env, renamed = env.unshadow(term.name)
        if renamed:
            value_type = substitute_in_type(value_type, renamed)
            goal = substitute_in_type(goal, renamed)
        check(
            session,
            env.bind(term.name, value_type),
            term.body,
            goal,
            where + ("let body",),
        )
        return
    if isinstance(term, MatchTerm):
        _check_match(session, env, term, goal, where)
        return
    if isinstance(term, FixTerm):
        _check_fix(session, env, term, goal, where)
        return
    inferred = infer(session, env, term, where)
    subtype(session, env, inferred, goal, where)


def _check_lambda(
    session: "TypecheckSession",
    env: Environment,
    term: LambdaTerm,
    goal: RType,
    where: Provenance,
) -> None:
    if not isinstance(goal, FunctionType):
        raise ShapeError(
            f"lambda checked against the non-function type `{goal!r}` "
            f"at {_pretty_where(where)}"
        )
    binder = term.arg_name
    # A binder reusing an in-scope name must not capture the context's
    # facts about the outer variable (branch guards, refinements): rename
    # the outer one out of the way first.  The substitution is applied to
    # the arrow as a whole so occurrences bound by the goal's own binder
    # are left alone.
    env, renamed = env.unshadow(binder)
    if renamed:
        goal = substitute_in_type(goal, renamed)
    goal_arg = goal.arg_type
    result = goal.result_type
    if binder != goal.arg_name:
        if binder in type_free_vars(result):
            raise TypecheckError(
                f"lambda binder `{binder}` collides with a variable free in the "
                f"goal type `{goal!r}`; alpha-rename the program, "
                f"at {_pretty_where(where)}"
            )
        if isinstance(goal_arg, ScalarType):
            result = substitute_in_type(result, {goal.arg_name: Var(binder, goal_arg.sort)})
    inner = env.bind(binder, goal_arg)
    check(session, inner, term.body, result, where + (f"\\{binder}",))


def _check_if(
    session: "TypecheckSession",
    env: Environment,
    term: IfTerm,
    goal: RType,
    where: Provenance,
) -> None:
    cond_type = infer(session, env, term.cond, where + ("condition",))
    context: Tuple[Tuple[str, RType], ...] = ()
    if isinstance(cond_type, ContextualType):
        context = cond_type.bindings
        cond_type = cond_type.body
    if not (isinstance(cond_type, ScalarType) and cond_type.base == BOOL_BASE):
        raise ShapeError(
            f"condition `{term.cond!r}` has type `{cond_type!r}`, expected Bool, "
            f"at {_pretty_where(where)}"
        )
    branch_env = env.bind_all(context)
    guard = simplify(instantiate_value_var(cond_type.refinement, TRUE))
    refuted = simplify(instantiate_value_var(cond_type.refinement, FALSE))
    check(session, branch_env.assume(guard), term.then_, goal, where + ("then-branch",))
    check(session, branch_env.assume(refuted), term.else_, goal, where + ("else-branch",))


# ---------------------------------------------------------------------------
# match elaboration (Sec. 3.2)
# ---------------------------------------------------------------------------


def _check_match(
    session: "TypecheckSession",
    env: Environment,
    term: MatchTerm,
    goal: RType,
    where: Provenance,
) -> None:
    scrutinee_type = infer(session, env, term.scrutinee, where + ("scrutinee",))
    context: Tuple[Tuple[str, RType], ...] = ()
    if isinstance(scrutinee_type, ContextualType):
        context = scrutinee_type.bindings
        scrutinee_type = scrutinee_type.body
    if not isinstance(scrutinee_type, ScalarType) or not isinstance(
        scrutinee_type.base, DataBase
    ):
        raise MatchError(
            f"scrutinee `{term.scrutinee!r}` has type `{scrutinee_type!r}`, "
            f"expected a datatype, at {_pretty_where(where)}"
        )
    base = scrutinee_type.base
    datatype = session.datatypes.get(base.name)
    if datatype is None:
        raise MatchError(
            f"datatype `{base.name}` has no declaration in this session, "
            f"at {_pretty_where(where)}"
        )
    match_env = env.bind_all(context)
    # Name the scrutinee so constructor selfification and measure unfoldings
    # can talk about it; a scrutinee that is not already a variable gets a
    # fresh binding carrying its inferred type.
    subject = _as_refinement_term(match_env, term.scrutinee)
    if subject is None:
        fresh = session.fresh_name("scr")
        match_env = match_env.bind(fresh, scrutinee_type)
        subject = Var(fresh, scrutinee_type.sort)
    type_args = dict(zip(datatype.type_params, base.args))
    covered: set = set()
    for case in term.cases:
        if case.constructor in covered:
            raise MatchError(f"duplicate case for `{case.constructor}` at {_pretty_where(where)}")
        covered.add(case.constructor)
        _check_match_case(session, match_env, case, datatype, type_args, subject, goal, where)
    missing = [name for name in datatype.constructor_names() if name not in covered]
    if missing:
        raise MatchError(
            f"non-exhaustive match on `{base.name}`: missing "
            f"{', '.join(missing)}, at {_pretty_where(where)}"
        )


def elaborate_match_case(
    session: "TypecheckSession",
    env: Environment,
    constructor: str,
    binders: Tuple[str, ...],
    datatype: "Datatype",
    type_args: dict,
    subject: Formula,
    goal: RType,
    where: Provenance,
) -> Tuple[Environment, RType]:
    """The typing context of one match alternative ``constructor binders ->``.

    Returns the environment the case body is checked in — the constructor's
    arguments bound at their instantiated signature types, under the
    *constructor selfification* assumption (the result refinement holding of
    the scrutinee ``subject``) conjoined with the catamorphism unfolding of
    every measure on the datatype — together with the goal type, alpha-
    renamed where a case binder shadowed a variable it mentions.  Shared by
    the checker (:func:`_check_match_case`) and by the synthesizer's match
    generator, which synthesizes the case body against the returned subgoal.
    """
    ctor = datatype.find(constructor)
    if ctor is None:
        raise MatchError(
            f"`{constructor}` is not a constructor of `{datatype.name}` "
            f"(has: {', '.join(datatype.constructor_names())}), "
            f"at {_pretty_where(where)}"
        )
    if len(set(binders)) != len(binders):
        raise MatchError(
            f"case `{constructor}` binds a name twice, at {_pretty_where(where)}",
        )
    node: RType = session.instantiate(ctor.schema, env, type_args=type_args)
    mapping: dict = {}  # signature binder name -> case binder variable
    binder_args: list = []  # per-position formulas for measure unfolding
    case_env = env
    for binder in binders:
        if not isinstance(node, FunctionType):
            raise MatchError(
                f"constructor `{constructor}` takes {ctor.arity()} "
                f"arguments, the case binds {len(binders)}, "
                f"at {_pretty_where(where)}"
            )
        # A case binder reusing an in-scope name (often the scrutinee
        # itself) must not capture the context's facts about it.
        case_env, renamed = case_env.unshadow(binder)
        if renamed:
            goal = substitute_in_type(goal, renamed)
            subject = substitute(subject, renamed)
            node = substitute_in_type(node, renamed)
            mapping = {name: substitute(value, renamed) for name, value in mapping.items()}
            binder_args = [
                None if value is None else substitute(value, renamed)
                for value in binder_args
            ]
        arg_type = substitute_in_type(node.arg_type, mapping)
        case_env = case_env.bind(binder, arg_type)
        if isinstance(arg_type, ScalarType):
            bound_var = Var(binder, arg_type.sort)
            mapping[node.arg_name] = bound_var
            binder_args.append(bound_var)
        else:
            binder_args.append(None)
        node = node.result_type
    if isinstance(node, FunctionType):
        raise MatchError(
            f"constructor `{constructor}` takes {ctor.arity()} arguments, "
            f"the case binds {len(binders)}, at {_pretty_where(where)}"
        )
    # Constructor selfification: the constructor's result refinement holds
    # of the scrutinee in this branch ...
    result = substitute_in_type(node, mapping)
    assert isinstance(result, ScalarType)
    assumption = instantiate_value_var(result.refinement, subject)
    # ... plus the catamorphism unfolding of every measure on the datatype.
    for mdef in session.measures_for(datatype.name):
        assumption = ops.and_(assumption, mdef.unfold(subject, constructor, binder_args))
    return case_env.assume(simplify(assumption)), goal


def _check_match_case(
    session: "TypecheckSession",
    env: Environment,
    case: MatchCase,
    datatype: "Datatype",
    type_args: dict,
    subject: Formula,
    goal: RType,
    where: Provenance,
) -> None:
    case_env, case_goal = elaborate_match_case(
        session, env, case.constructor, case.binders, datatype, type_args, subject, goal, where
    )
    check(session, case_env, case.body, case_goal, where + (f"case {case.constructor}",))


# ---------------------------------------------------------------------------
# fix: recursion with termination metrics (Sec. 3)
# ---------------------------------------------------------------------------


def _check_fix(
    session: "TypecheckSession",
    env: Environment,
    term: FixTerm,
    goal: RType,
    where: Provenance,
) -> None:
    if not isinstance(goal, FunctionType):
        raise ShapeError(
            f"fix checked against the non-function type `{goal!r}` "
            f"at {_pretty_where(where)}"
        )
    where = where + (f"fix {term.name}",)
    env, renamed = env.unshadow(term.name)
    if renamed:
        goal = substitute_in_type(goal, renamed)
    # Peel the body's lambda spine in lockstep with the goal's arrows —
    # exactly what _check_lambda would do — so the termination refinements
    # of the recursive signature can name the bound arguments.
    spine: list = []  # (binder, argument type as bound)
    body: Term = term.body
    remaining: RType = goal
    inner_env = env
    inner_where = where
    while isinstance(remaining, FunctionType) and isinstance(body, LambdaTerm):
        binder = body.arg_name
        inner_env, renamed = inner_env.unshadow(binder)
        if renamed:
            remaining = substitute_in_type(remaining, renamed)
            # An earlier spine binder being shadowed is renamed in the
            # environment; its spine entry must follow, or the termination
            # metric would compare against the inner (shadowing) variable.
            spine = [
                (
                    renamed[name].name if name in renamed else name,
                    substitute_in_type(rtype, renamed),
                )
                for name, rtype in spine
            ]
        goal_arg = remaining.arg_type
        result = remaining.result_type
        if binder != remaining.arg_name:
            if binder in type_free_vars(result):
                raise TypecheckError(
                    f"lambda binder `{binder}` collides with a variable free in "
                    f"the goal type `{remaining!r}`; alpha-rename the program, "
                    f"at {_pretty_where(inner_where)}"
                )
            if isinstance(goal_arg, ScalarType):
                result = substitute_in_type(
                    result, {remaining.arg_name: Var(binder, goal_arg.sort)}
                )
        inner_env = inner_env.bind(binder, goal_arg)
        spine.append((binder, goal_arg))
        inner_where = inner_where + (f"\\{binder}",)
        remaining = result
        body = body.body
    # A lambda binder reusing the fix name shadows the recursive occurrence
    # entirely (no recursive call can be written), so only bind — and only
    # demand a termination metric — when the name is actually visible.
    if term.name not in {binder for binder, _ in spine}:
        recursive = recursion_signature(session, spine, remaining, where)
        inner_env = inner_env.bind(term.name, recursive)
    check(session, inner_env, body, remaining, inner_where)


def _metric(session: "TypecheckSession", rtype: RType):
    """The termination metric of an argument type, as a formula builder:
    the value itself for Int, the datatype's first Int-resulted measure for
    a datatype, ``None`` when the type has no well-founded metric."""
    if not isinstance(rtype, ScalarType):
        return None
    base = rtype.base
    if isinstance(base, IntBase):
        return lambda value: value
    if isinstance(base, DataBase):
        mdef = session.termination_measure(base.name)
        if mdef is not None:
            return mdef.apply
    return None


def recursion_signature(
    session: "TypecheckSession",
    spine: list,
    result: RType,
    where: Provenance = (),
) -> RType:
    """The termination-strengthened signature a recursive occurrence is
    bound at, for an enclosing definition with argument ``spine`` (pairs of
    binder name and argument type) and result type ``result``: the arrow
    spine with every metric-bearing argument refined so the tuple of
    metrics is lexicographically smaller than the enclosing call's.

    :func:`_check_fix` binds ``fix`` bodies at it, and the synthesizer
    binds a goal's own name at it before enumerating recursive calls
    (Sec. 4: recursion is only ever attempted at the strengthened type, so
    non-terminating candidates are pruned like any other ill-typed term).
    Raises :class:`TerminationError` when no argument carries a
    well-founded metric.

    With metric positions ``p1 < ... < pk`` over outer arguments
    ``x1 ... xk`` and recursive binders ``y1 ... yk``, a *strict* descent
    of component ``j`` is ``0 <= m(yj) && m(yj) < m(xj)`` — bounded below
    exactly where well-foundedness needs it.  The last position demands a
    strict descent (or an earlier one as escape); earlier positions only
    demand ``m(nu) <= m(xi)`` (or an escape), so an integer accumulator
    passed through or decremented alongside structural recursion does not
    need a non-negativity proof.  Soundness: along an infinite call chain
    component 1 never increases and each strict drop lands >= 0, so it
    drops finitely often; once it is stable its escapes die and the
    argument repeats at component 2, until the last component would have
    to strictly descend below 0.
    """
    metric_positions = [
        index for index, (_, rtype) in enumerate(spine) if _metric(session, rtype) is not None
    ]
    if not metric_positions:
        raise TerminationError(
            f"cannot establish termination at {_pretty_where(where)}: no "
            "lambda-bound argument has a well-founded metric (Int, or a "
            "datatype with an Int-resulted measure); bind the decreasing "
            "argument with a lambda directly under the fix"
        )
    last = metric_positions[-1]
    fresh_names = [session.fresh_name(name) for name, _ in spine]
    mapping: dict = {}  # outer binder name -> recursive binder variable
    strengthened: list = []
    # The disjunction of every earlier m_j(y_j) < m_j(x_j) escape, shared
    # by all later positions and extended by one disjunct per metric
    # argument, so a wide signature builds a linear number of nodes.
    escape = FALSE
    for index, (binder, rtype) in enumerate(spine):
        arg_type = substitute_in_type(rtype, mapping)
        metric = _metric(session, arg_type)
        if metric is not None:
            assert isinstance(arg_type, ScalarType)
            nu = value_var(arg_type.sort)
            metric_nu = metric(nu)
            metric_outer = metric(Var(binder, arg_type.sort))
            if index == last:
                descends = ops.and_(
                    ops.le(ops.int_lit(0), metric_nu), ops.lt(metric_nu, metric_outer)
                )
            else:
                descends = ops.le(metric_nu, metric_outer)
            termination = ops.or_(descends, escape)
            arg_type = ScalarType(arg_type.base, ops.and_(arg_type.refinement, termination))
            recursive_var = Var(fresh_names[index], arg_type.sort)
            metric_recursive = metric(recursive_var)
            escape = ops.or_(
                escape,
                ops.and_(
                    ops.le(ops.int_lit(0), metric_recursive),
                    ops.lt(metric_recursive, metric_outer),
                ),
            )
        if isinstance(arg_type, ScalarType):
            mapping[binder] = Var(fresh_names[index], arg_type.sort)
        strengthened.append((fresh_names[index], arg_type))
    rec_type: RType = substitute_in_type(result, mapping)
    for name, arg_type in reversed(strengthened):
        rec_type = FunctionType(name, arg_type, rec_type)
    return rec_type


# ---------------------------------------------------------------------------
# subtyping: reduction to Horn constraints
# ---------------------------------------------------------------------------


def subtype(
    session: "TypecheckSession",
    env: Environment,
    sub: RType,
    sup: RType,
    where: Provenance = (),
) -> None:
    """Reduce ``Γ ⊢ sub <: sup`` to Horn constraints on the session."""
    if isinstance(sub, ContextualType):
        subtype(session, env.bind_all(sub.bindings), sub.body, sup, where)
        return
    if isinstance(sup, ContextualType):
        subtype(session, env.bind_all(sup.bindings), sub, sup.body, where)
        return
    if isinstance(sub, ScalarType) and isinstance(sup, ScalarType):
        if not same_shape(sub, sup):
            raise ShapeError(
                f"`{sub!r}` is not a subtype of `{sup!r}`: base types differ, "
                f"at {_pretty_where(where)}"
            )
        _scalar_subtype(session, env, sub, sup, where)
        return
    if isinstance(sub, FunctionType) and isinstance(sup, FunctionType):
        _arrow_subtype(session, env, sub, sup, where)
        return
    raise ShapeError(
        f"`{sub!r}` is not a subtype of `{sup!r}`: shapes differ, "
        f"at {_pretty_where(where)}"
    )


def _scalar_subtype(
    session: "TypecheckSession",
    env: Environment,
    sub: ScalarType,
    sup: ScalarType,
    where: Provenance,
) -> None:
    # Normalize both value variables to one concrete sort so the premises
    # and the conclusion talk about the same logical variable.
    sort = sub.sort if not isinstance(sub.sort, VarSort) else sup.sort
    nu = value_var(sort)
    lhs = substitute(sub.refinement, {nu.name: nu})
    rhs = substitute(sup.refinement, {nu.name: nu})
    premises = env.embedding()
    premises.append(lhs)
    session.emit(premises, rhs, where + (_SubtypeLabel(sub, sup),))
    # Datatype type arguments are covariant (as in Synquid): their
    # element-level obligations must be emitted too, or `List Int <:
    # List {Int | nu > 0}` would be silently accepted.
    if isinstance(sub.base, DataBase) and isinstance(sup.base, DataBase):
        for index, (sub_arg, sup_arg) in enumerate(zip(sub.base.args, sup.base.args)):
            subtype(session, env, sub_arg, sup_arg, where + (f"type argument {index}",))


def _arrow_subtype(
    session: "TypecheckSession",
    env: Environment,
    sub: FunctionType,
    sup: FunctionType,
    where: Provenance,
) -> None:
    binder = sup.arg_name
    # As in _check_lambda: protect outer facts about a same-named variable,
    # renaming whole arrows so their own binders' occurrences stay bound.
    env, renamed = env.unshadow(binder)
    if renamed:
        sub = substitute_in_type(sub, renamed)
        sup = substitute_in_type(sup, renamed)
        assert isinstance(sub, FunctionType) and isinstance(sup, FunctionType)
        binder = sup.arg_name
    sup_arg, sub_arg = sup.arg_type, sub.arg_type
    sub_result, sup_result = sub.result_type, sup.result_type
    subtype(session, env, sup_arg, sub_arg, where + ("argument (contravariant)",))
    if sub.arg_name != binder:
        if binder in type_free_vars(sub_result):
            raise TypecheckError(
                f"binder `{binder}` of `{sup!r}` collides with a variable free "
                f"in `{sub!r}`; alpha-rename one of the signatures, "
                f"at {_pretty_where(where)}"
            )
        if isinstance(sub_arg, ScalarType):
            sub_result = substitute_in_type(sub_result, {sub.arg_name: Var(binder, sub_arg.sort)})
    inner = env.bind(binder, sup_arg)
    subtype(session, inner, sub_result, sup_result, where + ("result",))


def _pretty_where(where: Provenance) -> str:
    return " / ".join(where) if where else "<top level>"
