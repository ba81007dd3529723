"""Typechecking sessions: constraint accumulation and Horn solving.

A :class:`TypecheckSession` is the mutable half of the checker: the
bidirectional judgments in :mod:`repro.typecheck.checker` are pure walks
that *emit* into it — Horn constraints for every subtyping obligation,
qualifier spaces for every fresh predicate unknown (the liquid abstraction
of Sec. 3.6, instantiated from the environment where the unknown is
born).  One session owns one incremental SMT backend
(:class:`repro.smt.solver.IncrementalSolver`) that serves the *entire*
typing derivation: every Horn solver it spawns issues its validity checks
through the same backend, so premises shared between obligations are
encoded once and theory lemmas learned early prune every later query.

:meth:`TypecheckSession.solve` hands the accumulated system to
:class:`repro.horn.HornSolver` and returns its
:class:`~repro.horn.HornSolution`: on success it carries the inferred
valuation of every unknown; on failure it names the subtyping obligation
whose constraint was refuted (:attr:`~repro.horn.HornSolution.error_message`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..horn.constraints import HornConstraint
from ..horn.solver import HornSolution, HornSolver
from ..horn.spaces import QualifierSpace, build_space
from ..logic.formulas import App, Formula, Unknown, value_var
from ..logic.measures import MeasureDef, instantiate_postconditions
from ..logic.qualifiers import Qualifier, default_qualifiers
from ..logic.simplify import conjuncts
from ..logic.sortcheck import MeasureSignatures
from ..logic.sorts import INT, Sort, UninterpretedSort
from ..logic.transform import free_vars, unknowns
from ..smt.names import FreshNames
from ..smt.solver import IncrementalSolver
from ..syntax.datatypes import Datatype
from ..syntax.terms import Term
from ..syntax.types import BaseType, RType, ScalarType, TypeSchema, base_sort
from . import checker
from .environment import EMPTY, Environment
from .errors import TypecheckError, WellFormednessError


class TypecheckSession:
    """Accumulates constraints from a typing derivation and solves them."""

    def __init__(
        self,
        qualifiers: Optional[Sequence[Qualifier]] = None,
        literals: Iterable[Formula] = (),
        backend: Optional[IncrementalSolver] = None,
        measures: Optional[MeasureSignatures] = None,
        datatypes: Iterable[Datatype] = (),
        measure_defs: Iterable[MeasureDef] = (),
    ) -> None:
        self.qualifiers: List[Qualifier] = list(
            qualifiers if qualifiers is not None else default_qualifiers()
        )
        #: Extra candidate formulas (e.g. the literal 0) joining every
        #: qualifier space's placeholder pool.
        self.literals: Tuple[Formula, ...] = tuple(literals)
        self.backend = backend if backend is not None else IncrementalSolver()
        #: Raw measure signatures for sort checking; measure *definitions*
        #: (catamorphism cases + postconditions) add theirs automatically.
        self.measures: Dict[str, Tuple[Tuple[Sort, ...], Sort]] = dict(measures or {})
        self.datatypes: Dict[str, Datatype] = {}
        self.measure_defs: Dict[str, MeasureDef] = {}
        self.constraints: List[HornConstraint] = []
        self.spaces: Dict[str, QualifierSpace] = {}
        self.last_solver: Optional[HornSolver] = None
        #: Grounded-implication verdicts shared by every solver this
        #: session spawns: enumeration re-solves systems sharing most of
        #: their obligations, and validity is a pure function of the
        #: formulas, so verdicts stay good across solves (and trials).
        self._validity_memo: Dict = {}
        #: Each obligation formula's measure applications in their
        #: deterministic order, with their postcondition instances (see
        #: :func:`instantiate_postconditions`).
        self._postconditions: Dict[Formula, Tuple[Tuple[App, Formula], ...]] = {}
        self._names = FreshNames(prefix="_")
        self._last_trial_names: FrozenSet[str] = frozenset()
        for datatype in datatypes:
            self.declare_datatype(datatype)
        for mdef in measure_defs:
            self.declare_measure(mdef)

    # -- datatype and measure registries -------------------------------------

    def declare_datatype(self, datatype: Datatype) -> None:
        """Register a datatype so ``match`` can elaborate its constructors."""
        self.datatypes[datatype.name] = datatype

    def declare_measure(self, mdef: MeasureDef) -> None:
        """Register a measure: its signature joins the sort-checking map and
        its axioms are instantiated at match sites and on every emitted
        constraint."""
        self.measure_defs[mdef.name] = mdef
        self.measures[mdef.name] = mdef.signature()
        self._postconditions.clear()  # remembered under the old measures

    def measures_for(self, datatype: str) -> List[MeasureDef]:
        """The measures declared over ``datatype``, declaration order."""
        return [m for m in self.measure_defs.values() if m.datatype == datatype]

    def termination_measure(self, datatype: str) -> Optional[MeasureDef]:
        """The measure a decreasing argument of ``datatype`` is compared by:
        the first integer-resulted measure declared for it."""
        for mdef in self.measure_defs.values():
            if mdef.datatype == datatype and mdef.result_sort == INT:
                return mdef
        return None

    def bind_constructors(self, env: Environment = EMPTY) -> Environment:
        """``env`` extended with every registered constructor's schema, so
        programs can apply constructors as ordinary components."""
        for datatype in self.datatypes.values():
            for ctor in datatype.constructors:
                env = env.bind(ctor.name, ctor.schema)
        return env

    # -- fresh unknowns (liquid abstraction) ---------------------------------

    def fresh_name(self, kind: str = "x") -> str:
        """A fresh program-level name (for contextual bindings)."""
        return self._names.fresh(kind)

    def fresh_unknown(
        self, env: Environment, value_sort: Optional[Sort], kind: str = "T"
    ) -> Unknown:
        """A fresh predicate unknown whose qualifier space is instantiated
        from the variables in scope in ``env`` (plus session literals, plus
        measure applications over every datatype-sorted candidate — the
        terms liquid inference needs to talk about lengths and sizes)."""
        name = self._names.fresh(kind)
        candidates = env.scope_candidates() + list(self.literals)
        candidates.extend(self._measure_candidates(candidates, value_sort))
        self.spaces[name] = build_space(name, self.qualifiers, candidates, value_sort)
        return Unknown(name)

    def _measure_candidates(
        self, candidates: Sequence[Formula], value_sort: Optional[Sort]
    ) -> List[Formula]:
        """Applications ``m(c)`` of registered measures to the datatype-sorted
        candidates (and the value variable) in scope."""
        if not self.measure_defs:
            return []
        subjects = list(candidates)
        if isinstance(value_sort, UninterpretedSort):
            subjects.append(value_var(value_sort))
        applications: List[Formula] = []
        for subject in subjects:
            sort = subject.sort
            if not isinstance(sort, UninterpretedSort):
                continue
            for mdef in self.measures_for(sort.name):
                applications.append(mdef.apply(subject))
        return applications

    def fresh_scalar(self, env: Environment, base: BaseType) -> ScalarType:
        """A scalar type refined by a fresh unknown — the checker's stand-in
        for a refinement to be inferred."""
        return ScalarType(base, self.fresh_unknown(env, base_sort(base)))

    def instantiate(
        self,
        schema: TypeSchema,
        env: Environment,
        type_args: Optional[Mapping[str, RType]] = None,
    ) -> RType:
        """Strip a schema's quantifiers: type variables become the provided
        types (unresolved ones are *freshened* — each use site gets its own
        variables, so two instantiations never alias and a quantified name
        can never capture an identically-named variable free in the goal),
        predicate variables become fresh unknowns with spaces built from
        ``env``."""
        from ..syntax.types import instantiate_schema, type_var

        pred_mapping: Dict[str, str] = {}
        for sig in schema.pred_vars:
            value_sort = sig.arg_sorts[-1] if sig.arg_sorts else None
            pred_mapping[sig.name] = self.fresh_unknown(env, value_sort, kind="P").name
        full_args: Dict[str, RType] = dict(type_args or {})
        for var in schema.type_vars:
            if var not in full_args:
                full_args[var] = type_var(self.fresh_name("tv"))
        return instantiate_schema(schema, full_args, pred_mapping)

    # -- constraint accumulation ---------------------------------------------

    def emit(
        self,
        premises: Sequence[Formula],
        conclusion: Formula,
        provenance: Tuple[object, ...] = (),
    ) -> None:
        """Record ``premises ==> conclusion``, splitting the conclusion into
        conjuncts so each constraint is Horn-shaped (a lone unknown or an
        unknown-free formula on the right).

        Measure postconditions are instantiated here: every measure
        application occurring in the obligation contributes its axiom
        instance (e.g. ``len(xs) >= 0``) as an extra premise, which is how
        catamorphism facts reach the Horn solver without quantifiers.
        """
        if self.measure_defs:
            axioms = instantiate_postconditions(
                list(premises) + [conclusion], self.measure_defs, self._postconditions
            )
            if axioms:
                premises = list(premises) + axioms
        for conjunct in conjuncts(conclusion):
            try:
                self.constraints.append(
                    HornConstraint(tuple(premises), conjunct, provenance=provenance)
                )
            except ValueError as error:
                raise WellFormednessError(
                    f"refinement at {' / '.join(map(str, provenance)) or '<top level>'} mixes "
                    f"a predicate unknown into a compound conclusion: {error}"
                ) from error

    # -- checker entry points ------------------------------------------------

    def well_formed(self, env: Environment, rtype: RType) -> None:
        """Demand ``rtype`` is well-formed in ``env`` (see checker)."""
        checker.well_formed(self, env, rtype)

    def infer(self, env: Environment, term: Term, where: str = "") -> RType:
        """Infer the type of an elimination term."""
        return checker.infer(self, env, term, (where,) if where else ())

    def check(self, env: Environment, term: Term, goal: RType, where: str = "") -> None:
        """Check ``term`` against ``goal``, accumulating constraints."""
        checker.check(self, env, term, goal, (where,) if where else ())

    def subtype(self, env: Environment, sub: RType, sup: RType, where: str = "") -> None:
        """Record the subtyping obligation ``env ⊢ sub <: sup``."""
        checker.subtype(self, env, sub, sup, (where,) if where else ())

    def check_program(
        self,
        term: Term,
        goal: RType,
        env: Environment = EMPTY,
        where: str = "",
    ) -> None:
        """Well-formedness then checking — the common top-level sequence."""
        self.well_formed(env, goal)
        self.check(env, term, goal, where)

    # -- partial checking (round-trip synthesis, Sec. 4) ---------------------

    @contextmanager
    def trial(self) -> Iterator["TypecheckSession"]:
        """A scope whose constraints, qualifier spaces and fresh names are
        rolled back.

        The synthesizer's round-trip loop checks thousands of candidate
        terms against one session; each candidate's obligations must leave
        no residue once the candidate is discarded, while the shared
        incremental backend keeps every clause and theory lemma it learned
        (that reuse is what makes early pruning cheap).  The names the
        trial minted (``_ctx``, ``_tv`` and the unknowns) are given back as
        well, so sibling trials mint the same ones: an obligation that a
        candidate repeats from the prefix it extends is then the very same
        formula node, which the validity memo and the backend's per-formula
        tables answer without encoding or deciding it again.  So no value
        mentioning such a name may outlive its trial;
        :meth:`minted_in_last_trial` tells a caller whether one does.
        """
        constraints_mark = len(self.constraints)
        space_names = set(self.spaces)
        names_mark = self._names.mark()
        try:
            yield self
        finally:
            del self.constraints[constraints_mark:]
            for name in [n for n in self.spaces if n not in space_names]:
                del self.spaces[name]
            self._last_trial_names = self._names.release(names_mark)

    def minted_in_last_trial(self, formula: Formula) -> bool:
        """Does ``formula`` mention a variable or unknown that the latest
        :meth:`trial` minted (and gave back when it ended)?"""
        minted = self._last_trial_names
        return not (minted.isdisjoint(free_vars(formula)) and minted.isdisjoint(unknowns(formula)))

    def try_check(
        self,
        env: Environment,
        term: Term,
        goal: RType,
        where: str = "",
    ) -> HornSolution:
        """Check ``term`` against ``goal`` in a :meth:`trial` scope and solve.

        Structural rejections (shape, match, termination errors) are
        reported as an unsolved result instead of raised — a candidate the
        enumerator proposes is never a hard error, just not a program.
        """
        with self.trial():
            try:
                self.check(env, term, goal, where)
            except TypecheckError:
                return HornSolution(False, {})
            return self.solve()

    def try_infer(self, env: Environment, term: Term, where: str = "") -> Optional[RType]:
        """Infer ``term``'s type in a :meth:`trial` scope, solving the local
        obligations it emits (argument subtyping, instantiation).

        Returns ``None`` when the term is ill-typed — structurally, or
        because no valuation of the unknowns validates its obligations.
        This is the early local liquid check of Sec. 4: an application
        prefix rejected here cannot be repaired by any extension, so the
        enumerator prunes its whole subtree.  The type returned may mention
        names the trial minted and gave back (see
        :meth:`minted_in_last_trial`).
        """
        with self.trial():
            try:
                rtype = self.infer(env, term, where)
            except TypecheckError:
                return None
            return rtype if self.solve().solved else None

    # -- solving -------------------------------------------------------------

    def solve(self, minimize: bool = False) -> HornSolution:
        """Solve the accumulated system with a Horn solver running on this
        session's shared incremental backend; ``minimize`` also computes
        the locally weakest valuation (:attr:`HornSolution.weakest`)."""
        solver = HornSolver(self.backend, validity_memo=self._validity_memo)
        self.last_solver = solver
        return solver.solve(self.constraints, self.spaces, minimize)
