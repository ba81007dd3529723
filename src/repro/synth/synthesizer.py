"""The round-trip synthesis driver (Secs. 4–5 of the paper).

A :class:`SynthesisGoal` packages what the paper calls a *synthesis
problem*: a name, a refinement-type signature to inhabit, and the
component library (other signatures, constructors, measures) the program
may use.  :class:`Synthesizer` runs the round-trip loop over it:

* **I-term generation** is goal-directed.  Arrow goals peel into lambdas
  whose binders join the environment; the goal's own name is bound at the
  termination-strengthened recursive signature
  (:func:`repro.typecheck.checker.recursion_signature`), so recursive
  calls are enumerated like any component but pruned unless their
  arguments decrease.  Scalar goals fall to the E-term enumerator; when no
  E-term fits, the loop tries ``match`` over each datatype-typed variable
  in scope (per-case subgoals via
  :func:`repro.typecheck.checker.elaborate_match_case`) and conditionals
  whose guards are *abduced* from a failing branch candidate
  (:mod:`repro.synth.conditions`).

* **E-term enumeration** with early local liquid checking lives in
  :mod:`repro.synth.enumerator`; every candidate obligation runs on one
  shared incremental SMT backend through
  :meth:`~repro.typecheck.session.TypecheckSession.trial` scopes.

* **Verification**: a found program is independently re-checked against
  the goal in a *fresh* session of the ordinary type checker before it is
  reported, so the synthesizer can never return a program the checker
  would reject.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .. import limits
from ..logic import ops
from ..logic.formulas import FALSE, TRUE, Var
from ..logic.measures import MeasureDef
from ..logic.simplify import simplify
from ..logic.substitution import instantiate_value_var
from ..syntax.datatypes import Datatype
from ..syntax.parser import Program
from ..syntax.terms import (
    BoolConst,
    FixTerm,
    IfTerm,
    IntConst,
    LambdaTerm,
    MatchCase,
    MatchTerm,
    Term,
    VarTerm,
    pretty_term,
    term_free_names,
)
from ..syntax.types import (
    BOOL_BASE,
    ContextualType,
    DataBase,
    FunctionType,
    RType,
    ScalarType,
    TypeLike,
    free_type_variables,
    generalize,
    pretty_type,
    shape,
    substitute_in_type,
)
from ..typecheck.checker import elaborate_match_case, recursion_signature
from ..typecheck.environment import EMPTY, Environment
from ..typecheck.errors import TerminationError, TypecheckError
from ..horn.solver import HornStatistics, SolveOptions
from ..typecheck.session import TypecheckSession
from .conditions import abduce_condition
from .enumerator import EnumerationStatistics, ETermEnumerator


@dataclass(frozen=True)
class SynthesisGoal:
    """A synthesis problem: inhabit ``goal`` using ``components``."""

    name: str
    goal: RType
    #: Component signatures available to the program, in binding order.
    components: Tuple[Tuple[str, TypeLike], ...] = ()
    datatypes: Tuple[Datatype, ...] = ()
    measures: Tuple[MeasureDef, ...] = ()

    @classmethod
    def from_program(cls, program: Program, name: str) -> "SynthesisGoal":
        """The goal ``name`` of a parsed ``.sq`` program: every *other*
        signature in the file becomes a component (free type variables
        implicitly generalized)."""
        if name not in program.signatures:
            raise KeyError(f"`{name}` has no signature in the program")
        components = tuple(
            (other, generalize(rtype))
            for other, rtype in program.signatures.items()
            if other != name
        )
        return cls(
            name=name,
            goal=program.signatures[name],
            components=components,
            datatypes=tuple(program.datatypes.values()),
            measures=tuple(program.measures.values()),
        )

    def session_environment(
        self, literals: Optional[Sequence[object]] = None
    ) -> Tuple[TypecheckSession, Environment]:
        """A fresh session and the component environment, constructors
        included.  ``literals`` are the formulas joining every qualifier
        space (default: the literal ``0``); the synthesizer passes the
        logical form of its own term-literal pool so that abduced
        conditions can mention exactly the constants enumeration can."""
        session = TypecheckSession(
            literals=[ops.int_lit(0)] if literals is None else literals,
            datatypes=self.datatypes,
            measure_defs=self.measures,
        )
        env = session.bind_constructors(EMPTY)
        for name, rtype in self.components:
            env = env.bind(name, rtype)
        return session, env


@dataclass
class SynthesisResult:
    """Outcome of one synthesis run."""

    goal: SynthesisGoal
    program: Optional[Term]
    statistics: EnumerationStatistics = field(default_factory=EnumerationStatistics)
    #: True when the program was independently re-checked in a fresh
    #: session of the ordinary type checker.
    verified: bool = False
    reason: str = ""
    #: True when the run was cut off by a :class:`repro.limits.Budget`
    #: rather than finishing its search; ``limit`` names what tripped.
    timeout: bool = False
    limit: Optional[str] = None

    @property
    def solved(self) -> bool:
        return self.program is not None

    def pretty(self) -> str:
        """The synthesized definition in surface syntax."""
        if self.program is None:
            return f"-- no program found for {self.goal.name}"
        return f"{self.goal.name} = {pretty_term(self.program)}"


class Synthesizer:
    """Runs the round-trip loop for one :class:`SynthesisGoal`."""

    def __init__(
        self,
        goal: SynthesisGoal,
        max_depth: int = 4,
        max_conditionals: int = 2,
        max_matches: int = 1,
        literals: Sequence[Term] = (IntConst(0),),
        workers: int = 1,
    ) -> None:
        self.goal = goal
        self.max_depth = max_depth
        self.max_conditionals = max_conditionals
        self.max_matches = max_matches
        self.workers = max(1, workers)
        self.literals: Tuple[Term, ...] = tuple(literals)
        self.statistics = EnumerationStatistics()
        #: The logical form of the term-literal pool: these join every
        #: qualifier space, so abduction and the enumerator agree on which
        #: constants exist.
        self._formula_literals = tuple(
            ops.int_lit(term.value) if isinstance(term, IntConst) else ops.bool_lit(term.value)
            for term in self.literals
            if isinstance(term, (IntConst, BoolConst))
        )
        # Verification below builds a fresh session, so the search's own
        # solver never vouches for the search's result.
        self.session, self.base_env = goal.session_environment(self._formula_literals)
        # `synth --workers N` reaches abduction through the session's
        # default solve options: every condition search fans its candidate
        # branches across the portfolio.
        self.session.solve_options = SolveOptions(max_workers=self.workers)
        #: The goal's free type variables are parametric: enumeration never
        #: instantiates them with concrete types (see rigid_shape_match).
        self.rigid = frozenset(free_type_variables(goal.goal))

    # -- top level -----------------------------------------------------------

    def synthesize(self) -> SynthesisResult:
        """Search for a program inhabiting the goal, verify it, report.

        A :class:`~repro.limits.BudgetExhausted` escaping the search is
        degradation, not failure: the result reports ``timeout`` with the
        best depth reached and the partial statistics, and the synthesizer
        returns normally — no caller above this ever sees the exception.
        """
        try:
            program = self._top()
        except TypecheckError as error:
            return SynthesisResult(
                self.goal, None, self.statistics, reason=f"ill-formed goal: {error}"
            )
        except limits.BudgetExhausted as exhausted:
            return self._timeout_result(exhausted)
        if program is None:
            return SynthesisResult(
                self.goal,
                None,
                self.statistics,
                reason=(
                    f"no program found within depth {self.max_depth} "
                    f"({self.statistics.generated} candidates generated, "
                    f"{self.statistics.pruned_early} pruned early)"
                ),
            )
        try:
            verified = self._verify(program)
        except limits.BudgetExhausted as exhausted:
            # Found but not re-checked in time: surface the program, but
            # as a timeout (and unverified, so it still counts failed).
            return self._timeout_result(exhausted, program)
        return SynthesisResult(self.goal, program, self.statistics, verified=verified)

    def _timeout_result(self, exhausted: limits.BudgetExhausted, program=None) -> SynthesisResult:
        """The structured ``timeout`` outcome every surface renders."""
        return SynthesisResult(
            self.goal,
            program,
            self.statistics,
            verified=False,
            reason=(
                f"timeout: {exhausted.limit} budget exhausted at depth "
                f"{self.statistics.depth_reached}/{self.max_depth} "
                f"({self.statistics.generated} candidates generated, "
                f"{self.statistics.goal_checks} goal checks)"
            ),
            timeout=True,
            limit=exhausted.limit,
        )

    def _top(self) -> Optional[Term]:
        """Peel the goal's arrows into lambda binders, bind the recursive
        occurrence when a termination metric exists, and synthesize the
        scalar body."""
        env = self.base_env
        self.session.well_formed(env, self.goal.goal)
        spine: List[Tuple[str, RType]] = []
        node: RType = self.goal.goal
        while isinstance(node, FunctionType):
            binder = node.arg_name
            result = node.result_type
            if binder in env:
                fresh = binder
                while fresh in env:
                    fresh += "'"
                if isinstance(node.arg_type, ScalarType):
                    result = substitute_in_type(result, {binder: Var(fresh, node.arg_type.sort)})
                binder = fresh
            env = env.bind(binder, node.arg_type)
            spine.append((binder, node.arg_type))
            node = result
        recursive = False
        if spine and self.goal.name not in {binder for binder, _ in spine}:
            try:
                signature = recursion_signature(self.session, spine, node, (self.goal.name,))
            except TerminationError:
                signature = None
            if signature is not None:
                env = env.bind(self.goal.name, signature)
                recursive = True
        body = self._scalar(env, node, self.max_conditionals, self.max_matches, frozenset())
        if body is None:
            return None
        term: Term = body
        for binder, _ in reversed(spine):
            term = LambdaTerm(binder, term)
        if recursive and self.goal.name in term_free_names(body):
            term = FixTerm(self.goal.name, term)
        return term

    # -- scalar goals ---------------------------------------------------------

    def _scalar(
        self,
        env: Environment,
        goal: RType,
        cond_budget: int,
        match_budget: int,
        matched: FrozenSet[str],
    ) -> Optional[Term]:
        """A term for a scalar goal: E-terms first (cheapest depth first),
        then match, then an abduced conditional."""
        enumerator = ETermEnumerator(
            self.session, env, self.statistics, self.literals, rigid=self.rigid
        )
        goal_shape = shape(goal)
        failures: List[Term] = []
        for depth in range(1, self.max_depth + 1):
            if depth > self.statistics.depth_reached:
                self.statistics.depth_reached = depth
            for candidate in enumerator.candidates(goal_shape, depth):
                self.statistics.goal_checks += 1
                if self.session.try_check(env, candidate, goal).solved:
                    return candidate
                failures.append(candidate)
        if match_budget > 0:
            term = self._matches(env, goal, cond_budget, match_budget, matched)
            if term is not None:
                return term
        if cond_budget > 0:
            term = self._conditional(
                env, goal, enumerator, failures, cond_budget, match_budget, matched
            )
            if term is not None:
                return term
        return None

    # -- match generation (goal-directed I-terms) -----------------------------

    def _matches(
        self,
        env: Environment,
        goal: RType,
        cond_budget: int,
        match_budget: int,
        matched: FrozenSet[str],
    ) -> Optional[Term]:
        for name, scalar in env.scalar_bindings():
            if name in matched or not isinstance(scalar.base, DataBase):
                continue
            datatype = self.session.datatypes.get(scalar.base.name)
            if datatype is None:
                continue
            term = self._match_on(
                env, name, scalar, datatype, goal, cond_budget, match_budget, matched
            )
            if term is not None:
                return term
        return None

    def _match_on(
        self,
        env: Environment,
        name: str,
        scalar: ScalarType,
        datatype: Datatype,
        goal: RType,
        cond_budget: int,
        match_budget: int,
        matched: FrozenSet[str],
    ) -> Optional[Term]:
        """``match name with ...`` — every constructor case must have a
        body, each synthesized against its elaborated subgoal."""
        subject = Var(name, scalar.sort)
        assert isinstance(scalar.base, DataBase)
        type_args = dict(zip(datatype.type_params, scalar.base.args))
        cases: List[MatchCase] = []
        for ctor in datatype.constructors:
            binders = self._case_binders(env, ctor.schema.body)
            case_env, case_goal = elaborate_match_case(
                self.session,
                env,
                ctor.name,
                binders,
                datatype,
                type_args,
                subject,
                goal,
                (f"match {name}", f"case {ctor.name}"),
            )
            body = self._scalar(
                case_env, case_goal, cond_budget, match_budget - 1, matched | {name}
            )
            if body is None:
                return None
            cases.append(MatchCase(ctor.name, binders, body))
        return MatchTerm(VarTerm(name), tuple(cases))

    @staticmethod
    def _case_binders(env: Environment, signature: RType) -> Tuple[str, ...]:
        """Case binder names from the constructor signature's own binders,
        uniquified against the scope so elaboration never has to rename."""
        binders: List[str] = []
        node = signature
        while isinstance(node, FunctionType):
            fresh = node.arg_name
            while fresh in env or fresh in binders:
                fresh += "'"
            binders.append(fresh)
            node = node.result_type
        return tuple(binders)

    # -- conditionals via abduction (Sec. 5.2) --------------------------------

    def _conditional(
        self,
        env: Environment,
        goal: RType,
        enumerator: ETermEnumerator,
        failures: Sequence[Term],
        cond_budget: int,
        match_budget: int,
        matched: FrozenSet[str],
    ) -> Optional[Term]:
        """An abduced conditional around a failing branch candidate.

        Abduction returns the weakest-guard *antichain*: several
        incomparable conditions when the candidate's validity region is
        disjunctive.  Every realizable member (within the conditional
        budget) guards the *same* then-branch, nested ``if g1 .. else if
        g2 ..`` — the executable form of the disjunction ``g1 || g2`` —
        and the final else is synthesized under every guard's refutation.
        The assembled term is re-checked whole against the goal (the
        ``coverage`` obligation: each branch under its own path condition,
        through the ordinary Horn pipeline) before it is returned.
        """
        for candidate in failures:
            self.statistics.abductions += 1
            sink = HornStatistics()
            abduced = abduce_condition(self.session, env, candidate, goal, stats=sink)
            self.statistics.merge_horn(sink)
            if abduced is None or abduced.is_trivial():
                continue
            members = abduced.candidates or (abduced.qualifiers,)
            realized: List[Tuple[Term, object]] = []
            guarded_env = env
            for member in members:
                if len(realized) >= cond_budget:
                    break
                got = self._realize_guard(guarded_env, enumerator, ops.conj(member))
                if got is None:
                    continue
                realized.append(got)
                guarded_env = guarded_env.assume(got[1])
            # Weakest-first: try all realized guards, then fall back to
            # fewer (a shorter chain leaves the else more budget).
            for keep in range(len(realized), 0, -1):
                else_env = env
                for _, refuted in realized[:keep]:
                    else_env = else_env.assume(refuted)
                else_term = self._scalar(
                    else_env, goal, cond_budget - keep, match_budget, matched
                )
                if else_term is None:
                    continue
                term: Term = else_term
                for guard, _ in reversed(realized[:keep]):
                    term = IfTerm(guard, candidate, term)
                if self.session.try_check(env, term, goal, "coverage").solved:
                    return term
        return None

    def _realize_guard(
        self, env: Environment, enumerator: ETermEnumerator, condition
    ) -> Optional[Tuple[Term, object]]:
        """A Bool E-term whose truth entails the abduced ``condition``.

        Returns the guard term and the *refuted* form of its refinement
        (the else-branch's path assumption).  Guards whose inferred type
        needs contextual bindings (arguments with no refinement-term
        translation) are skipped: their refinements mention internal
        ``_ctx*`` names, which must not leak into the else-branch's
        enumeration scope — a program would be synthesized over variables
        that do not exist in the emitted term.
        """
        bool_shape = ScalarType(BOOL_BASE)
        for depth in range(1, self.max_depth + 1):
            for guard in enumerator.candidates(bool_shape, depth):
                inferred = self.session.try_infer(env, guard)
                if inferred is None or isinstance(inferred, ContextualType):
                    continue
                if not (isinstance(inferred, ScalarType) and inferred.base == BOOL_BASE):
                    continue
                truth = simplify(instantiate_value_var(inferred.refinement, TRUE))
                refuted = simplify(instantiate_value_var(inferred.refinement, FALSE))
                premises = env.embedding() + [truth]
                if self.session.backend.is_valid_implication(premises, ops.bool_lit(False)):
                    # A guard that can never be true here (e.g. `lt x x`)
                    # entails any condition vacuously but guards only a
                    # dead branch.
                    continue
                if self.session.backend.is_valid_implication(premises, condition):
                    return guard, refuted
        return None

    # -- verification ---------------------------------------------------------

    def _verify(self, program: Term) -> bool:
        """Re-check the synthesized program against the goal in a fresh
        session of the ordinary checker (round-trip closed)."""
        session, env = self.goal.session_environment(self._formula_literals)
        try:
            session.check_program(program, self.goal.goal, env, where=self.goal.name)
        except TypecheckError:
            return False
        return session.solve().solved


def synthesize(goal: SynthesisGoal, **limits) -> SynthesisResult:
    """One-shot convenience: run a :class:`Synthesizer` over ``goal``."""
    return Synthesizer(goal, **limits).synthesize()


def describe_goal(goal: SynthesisGoal) -> str:
    """``name :: type`` for progress output."""
    return f"{goal.name} :: {pretty_type(goal.goal)}"
