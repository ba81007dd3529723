"""E-term enumeration with early local liquid checking (Sec. 4 of the paper).

The round-trip synthesis loop generates *elimination* terms — variables,
literals, and curried applications of components — in order of increasing
depth, and prunes them as early as possible:

* **shape direction**: a candidate is only built when its simple-type
  skeleton can match the goal's (type variables are permissive, so
  polymorphic components stay applicable);

* **early local liquid checking**: every application *prefix* ``f a1 .. ai``
  is round-tripped through the type checker the moment ``ai`` is chosen —
  :meth:`~repro.typecheck.session.TypecheckSession.try_infer` emits the
  prefix's argument-subtyping obligations into a trial scope and solves
  them on the session's shared incremental backend.  A prefix whose
  obligations are unsolvable cannot be repaired by supplying more
  arguments (the paper's key observation), so its entire extension subtree
  is pruned before it is enumerated.

The enumerator reports how much that pruning saves on the synthesis
run's counters (see :data:`repro.synth.synthesizer.SYNTHESIS_COUNTERS`):
``generated`` counts every candidate term built (including prefixes),
``pruned_early`` the ones rejected by the local check, ``pruned_shape``
the ones whose result shape violates a rigid type variable, and
``checked`` the solver round-trips issued.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .. import limits
from ..metrics import Counters
from ..syntax.terms import AppTerm, BoolConst, IntConst, Term, VarTerm
from ..syntax.types import (
    BOOL_BASE,
    INT_BASE,
    ContextualType,
    DataBase,
    FunctionType,
    RType,
    ScalarType,
    TypeSchema,
    TypeVarBase,
    shape,
    subst_type_vars,
    type_var,
)
from ..typecheck.environment import Environment
from ..typecheck.session import TypecheckSession


def _bind_flexible(candidate: RType, goal: RType, out: "Dict[str, RType]") -> None:
    """Bind the *freshened* flexible type variables (``%``-prefixed, minted
    by the enumerator's scope collection) of ``candidate`` to the matching
    sub-shapes of ``goal``, structurally."""
    if isinstance(candidate, ContextualType):
        candidate = candidate.body
    if isinstance(goal, ContextualType):
        goal = goal.body
    if isinstance(candidate, ScalarType) and isinstance(goal, ScalarType):
        cand_base = candidate.base
        if isinstance(cand_base, TypeVarBase) and cand_base.name.startswith("%"):
            out.setdefault(cand_base.name, ScalarType(goal.base))
            return
        if isinstance(cand_base, DataBase) and isinstance(goal.base, DataBase):
            for cand_arg, goal_arg in zip(cand_base.args, goal.base.args):
                _bind_flexible(cand_arg, goal_arg, out)
        return
    if isinstance(candidate, FunctionType) and isinstance(goal, FunctionType):
        _bind_flexible(candidate.arg_type, goal.arg_type, out)
        _bind_flexible(candidate.result_type, goal.result_type, out)


def rigid_shape_match(candidate: RType, goal: RType, rigid: "frozenset" = frozenset()) -> bool:
    """Can a term of (erased) shape ``candidate`` inhabit goal shape
    ``goal``, treating the type variables in ``rigid`` as *parametric*?

    The goal's own free type variables are universally quantified in
    spirit: a rigid variable is only matched by itself or by a component's
    still-uninstantiated (flexible) variable — never by a concrete type.
    Without this, a polymorphic goal such as ``List a`` admits degenerate
    instantiations (``Cons Nil ...`` building a ``List (List b)`` whose
    *length* spec still holds).  Flexible variables stay permissive, so
    polymorphic components remain applicable everywhere.
    """
    if isinstance(candidate, ContextualType):
        candidate = candidate.body
    if isinstance(goal, ContextualType):
        goal = goal.body
    if isinstance(candidate, ScalarType) and isinstance(goal, ScalarType):
        cand_base, goal_base = candidate.base, goal.base
        if isinstance(goal_base, TypeVarBase):
            if goal_base.name in rigid:
                return isinstance(cand_base, TypeVarBase) and (
                    cand_base.name == goal_base.name or cand_base.name not in rigid
                )
            return True
        if isinstance(cand_base, TypeVarBase):
            return cand_base.name not in rigid
        if isinstance(cand_base, DataBase) and isinstance(goal_base, DataBase):
            return (
                cand_base.name == goal_base.name
                and len(cand_base.args) == len(goal_base.args)
                and all(
                    rigid_shape_match(cand_arg, goal_arg, rigid)
                    for cand_arg, goal_arg in zip(cand_base.args, goal_base.args)
                )
            )
        return type(cand_base) is type(goal_base)
    if isinstance(candidate, FunctionType) and isinstance(goal, FunctionType):
        return rigid_shape_match(
            candidate.arg_type, goal.arg_type, rigid
        ) and rigid_shape_match(candidate.result_type, goal.result_type, rigid)
    return False


class _Head:
    """An application head: a component with at least one arrow."""

    __slots__ = ("name", "arrows")

    def __init__(self, name: str, arrows: RType) -> None:
        self.name = name
        self.arrows = arrows  # refinement-erased shape of the (instantiated) signature


class ETermEnumerator:
    """Enumerates E-terms for one scalar goal position.

    One enumerator serves one ``(session, env)`` pair — the environment
    fixes which components, binders, and recursive occurrences are in
    scope, and the session's trial scopes keep candidate obligations from
    leaking into each other.
    """

    def __init__(
        self,
        session: TypecheckSession,
        env: Environment,
        statistics: Counters,
        literals: Sequence[Term] = (IntConst(0),),
        rigid: "frozenset" = frozenset(),
    ) -> None:
        self.session = session
        self.env = env
        self.statistics = statistics
        self.literals: Tuple[Term, ...] = tuple(literals)
        #: The goal's parametric type variables (see :func:`rigid_shape_match`).
        self.rigid = frozenset(rigid)
        self._atoms: List[Tuple[Term, RType]] = []
        self._heads: List[_Head] = []
        self._collect_scope()
        #: Memoized candidate lists keyed by (shape repr, depth) — argument
        #: positions of many parent applications share the same goal shape.
        self._cache: Dict[Tuple[str, int], List[Term]] = {}
        #: Memoized local inference per candidate term (None = ill-typed):
        #: the same prefix reappears across depths and parent applications,
        #: and its local obligations do not change within one (session, env).
        #: A memoized type mentions names its trial minted and gave back
        #: (``_tv``, ``_ctx``, unknowns), which later trials mint again for
        #: other things; only its erased shape is ever read, and there a
        #: fresh ``_tv`` is a flexible variable, never one of ``rigid``.
        self._local_types: Dict[Term, Optional[RType]] = {}

    def _collect_scope(self) -> None:
        for name, bound in self.env.effective_bindings():
            if isinstance(bound, TypeSchema):
                # A schema's quantified variables are flexible regardless of
                # their names: freshen them so a component that happens to
                # reuse a rigid variable's name (`Cons :: x:a -> ...` under a
                # goal polymorphic in `a`) is not mistaken for rigid and
                # pruned out of positions it could legitimately fill.
                body = subst_type_vars(
                    bound.body,
                    {var: type_var(f"%{var}") for var in bound.type_vars},
                )
            else:
                body = bound
            if isinstance(body, ScalarType):
                # Scalar variables and nullary components (constructors like
                # ``Nil``) are depth-1 atoms.
                self._atoms.append((VarTerm(name), body))
            elif isinstance(body, FunctionType):
                self._heads.append(_Head(name, shape(body)))

    # -- enumeration ---------------------------------------------------------

    def candidates(self, goal_shape: RType, depth: int) -> Iterator[Term]:
        """Terms of depth exactly ``depth`` whose shape can match
        ``goal_shape``, cheapest first, early-pruned prefixes excluded.

        The synthesizer iterates depths ``1 .. max_depth`` so smaller
        programs are always preferred (the paper's enumeration order).
        """
        key = (repr(goal_shape), depth)
        if key in self._cache:
            for term in self._cache[key]:
                # Cached replays are cheap to produce but each drives a
                # goal check downstream — still one budget quantum apiece.
                limits.checkpoint("enum_terms")
                yield term
            return
        found: List[Term] = []
        for term in self._generate(goal_shape, depth):
            limits.checkpoint("enum_terms")
            found.append(term)
            yield term
        self._cache[key] = found

    def _generate(self, goal_shape: RType, depth: int) -> Iterator[Term]:
        if depth <= 0:
            return
        if depth == 1:
            for term, scalar in self._atoms:
                if rigid_shape_match(shape(scalar), goal_shape, self.rigid):
                    self.statistics.generated += 1
                    yield term
            for term in self.literals:
                literal_shape = self._literal_shape(term)
                if literal_shape is not None and rigid_shape_match(
                    literal_shape, goal_shape, self.rigid
                ):
                    self.statistics.generated += 1
                    yield term
            return
        for head in self._heads:
            params: List[RType] = []
            node = head.arrows
            while isinstance(node, FunctionType):
                params.append(node.arg_type)
                node = node.result_type
                # Partial applications are not enumerated as results: every
                # component is applied fully (goals with higher-order
                # positions take function-typed *variables* as arguments).
            if not rigid_shape_match(node, goal_shape, self.rigid):
                continue
            # Unify the head's (freshened, flexible) result shape against
            # the goal and push the bindings into the parameter shapes:
            # under a goal `List a`, `Cons : %a -> List %a -> List %a`
            # becomes `a -> List a -> List a`, so argument enumeration is
            # narrowed to rigid-compatible candidates instead of sweeping
            # every term in scope through a wildcard parameter.
            bindings: Dict[str, RType] = {}
            _bind_flexible(node, goal_shape, bindings)
            if bindings:
                params = [subst_type_vars(param, bindings) for param in params]
            yield from self._applications(VarTerm(head.name), 1, params, depth, goal_shape)

    @staticmethod
    def _literal_shape(term: Term) -> Optional[RType]:
        if isinstance(term, IntConst):
            return ScalarType(INT_BASE)
        if isinstance(term, BoolConst):
            return ScalarType(BOOL_BASE)
        return None

    def _applications(
        self, prefix: Term, prefix_depth: int, params: List[RType], depth: int, goal_shape: RType
    ) -> Iterator[Term]:
        """Fill the remaining ``params`` of ``prefix``, checking each prefix
        locally before descending — the early-pruning core.

        ``prefix_depth`` is the spine depth so far (``1 + max(arg depths)``,
        ``1`` for the bare head), maintained incrementally: arguments come
        from :meth:`candidates` at an *exact* depth, so extending with an
        argument of depth ``d`` gives ``max(prefix_depth, 1 + d)``.
        """
        if not params:
            # Only full applications of *exact* depth surface, so the
            # depth-by-depth sweep in the synthesizer never repeats terms.
            if prefix_depth == depth:
                yield prefix
            return
        param, rest = params[0], params[1:]
        for arg_depth in range(1, depth):
            for arg in self.candidates(shape(param), arg_depth):
                candidate = AppTerm(prefix, arg)
                inferred = self.local_type(candidate)
                if inferred is None:
                    continue
                if not self._result_matches(inferred, len(rest), goal_shape):
                    self.statistics.pruned_shape += 1
                    continue
                extended_depth = max(prefix_depth, 1 + arg_depth)
                yield from self._applications(candidate, extended_depth, rest, depth, goal_shape)

    def local_type(self, candidate: Term) -> Optional[RType]:
        """The early local liquid check, memoized per candidate term:
        the candidate's inferred type when its local obligations are
        solvable, ``None`` when they are not (the candidate and every
        extension of it are pruned)."""
        if candidate in self._local_types:
            return self._local_types[candidate]
        self.statistics.generated += 1
        self.statistics.checked += 1
        inferred = self.session.try_infer(self.env, candidate)
        self._local_types[candidate] = inferred
        if inferred is None:
            self.statistics.pruned_early += 1
        return inferred

    def _result_matches(self, inferred: RType, remaining: int, goal_shape: RType) -> bool:
        """Does the candidate's *instantiated* result shape (after the
        ``remaining`` parameters still to be filled) fit the goal, rigid
        variables respected?  This is where a prefix like ``Cons Nil ·``
        dies against a parametric ``List a`` goal: its instantiated result
        is ``List (List b)``."""
        node: RType = inferred
        if isinstance(node, ContextualType):
            node = node.body
        for _ in range(remaining):
            if not isinstance(node, FunctionType):
                return False
            node = node.result_type
            if isinstance(node, ContextualType):
                node = node.body
        return rigid_shape_match(shape(node), goal_shape, self.rigid)
