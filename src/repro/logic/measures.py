"""Measure definitions: catamorphisms over inductive datatypes (Sec. 3.2).

A *measure* such as ``len`` maps a datatype value into the refinement
logic; in formulas it appears as an uninterpreted :class:`~repro.logic.
formulas.App`, which the SMT substrate already handles with congruence
closure (EUF) plus EUF->LIA equality propagation.  What makes a measure
more than an opaque function are its *axioms*, and this module is their
home:

* the **catamorphism cases** — one per constructor, e.g.
  ``len(Nil) == 0`` and ``len(Cons x xs) == 1 + len(xs)``.  Quantified
  axioms are outside the decidable fragment, so they are never asserted
  globally; instead the type checker *instantiates* the matching case at
  every ``match`` branch, where the constructor is known
  (:meth:`MeasureDef.unfold`), keeping every SMT query ground.

* the **postcondition** — a fact true of every application, e.g.
  ``len(xs) >= 0``.  :func:`instantiate_postconditions` scans the formulas
  of an obligation for measure applications and instantiates the
  postcondition once per occurrence; the typecheck session conjoins the
  results into the premises of every Horn constraint it emits.

Both instantiation schemes are the standard trigger-style treatment of
catamorphism axioms restricted to ground occurrences, which is exactly
what the paper's benchmarks need (the decreasing-length obligations of
``length``/``append``/``replicate``/``stutter`` all discharge from one
unfolding per match case plus non-negativity of ``len``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..value import Value
from . import ops
from .formulas import TRUE, App, Formula, Var, is_true, value_var
from .sorts import BOOL, Sort
from .substitution import instantiate_value_var, substitute
from .transform import free_vars, measure_apps


class MeasureCase(Value):
    """One catamorphism case ``C x1 ... xk -> body``.

    ``binders`` are the constructor-argument variables the body may
    mention (at the sorts the datatype declaration gives them); ``body``
    is a refinement term over those binders, possibly applying the
    measure itself recursively (``1 + len(xs)``).
    """

    __slots__ = ("constructor", "binders", "body")

    def __init__(self, constructor: str, binders: Tuple[Var, ...], body: Formula) -> None:
        self.constructor = constructor
        self.binders = binders
        self.body = body

    def _fields(self) -> Tuple:
        return (self.constructor, self.binders, self.body)


class MeasureDef(Value):
    """A measure ``m :: D -> {S | post}`` with one case per constructor.

    ``arg_sort`` is the sort of the datatype being measured and
    ``result_sort`` the sort of the measured value; ``postcondition`` is
    a formula over the value variable at ``result_sort`` that holds of
    every application (``True`` when the measure promises nothing).
    """

    __slots__ = ("name", "datatype", "arg_sort", "result_sort", "cases", "postcondition")

    def __init__(
        self,
        name: str,
        datatype: str,
        arg_sort: Sort,
        result_sort: Sort,
        cases: Tuple[MeasureCase, ...] = (),
        postcondition: Formula = TRUE,
    ) -> None:
        self.name = name
        self.datatype = datatype
        self.arg_sort = arg_sort
        self.result_sort = result_sort
        self.cases = cases
        self.postcondition = postcondition

    def _fields(self) -> Tuple:
        return (
            self.name,
            self.datatype,
            self.arg_sort,
            self.result_sort,
            self.cases,
            self.postcondition,
        )

    def signature(self) -> Tuple[Tuple[Sort, ...], Sort]:
        """The sort signature in the shape :data:`~repro.logic.sortcheck.
        MeasureSignatures` expects."""
        return ((self.arg_sort,), self.result_sort)

    def case_for(self, constructor: str) -> Optional[MeasureCase]:
        """The catamorphism case of ``constructor``, if one is declared."""
        for case in self.cases:
            if case.constructor == constructor:
                return case
        return None

    def apply(self, subject: Formula) -> App:
        """The application ``m(subject)`` as a refinement term."""
        return App(self.name, (subject,), self.result_sort)

    def unfold(
        self, subject: Formula, constructor: str, args: Sequence[Optional[Formula]]
    ) -> Formula:
        """The catamorphism axiom instance for ``subject = constructor(args)``:
        ``m(subject) == body[args/binders]`` (``<==>`` for boolean measures).

        ``args`` are positional replacements for the case binders; a
        ``None`` entry marks a constructor argument with no refinement-term
        translation (e.g. function-typed) — if the case body mentions its
        binder the axiom cannot be instantiated and ``True`` is returned.
        """
        case = self.case_for(constructor)
        if case is None:
            return TRUE
        if len(args) != len(case.binders):
            raise ValueError(
                f"measure `{self.name}` case `{constructor}` has "
                f"{len(case.binders)} binders, got {len(args)} arguments"
            )
        mapping: Dict[str, Formula] = {}
        missing = set()
        for binder, arg in zip(case.binders, args):
            if arg is None:
                missing.add(binder.name)
            else:
                mapping[binder.name] = arg
        body = case.body
        if missing and missing & free_vars(body):
            return TRUE
        body = substitute(body, mapping)
        lhs = self.apply(subject)
        if self.result_sort == BOOL:
            return ops.iff(lhs, body)
        return ops.eq(lhs, body)

    def postcondition_for(self, application: Formula) -> Formula:
        """The postcondition instantiated at one application occurrence."""
        if is_true(self.postcondition):
            return TRUE
        return instantiate_value_var(self.postcondition, application)

    @property
    def value_var(self) -> Var:
        """The value variable the postcondition is written over."""
        return value_var(self.result_sort)


def instantiate_postconditions(
    formulas: Iterable[Formula],
    defs: Mapping[str, MeasureDef],
    memo: Optional[Dict[Formula, Tuple[Tuple[App, Formula], ...]]] = None,
) -> List[Formula]:
    """Postcondition instances for every measure application in ``formulas``.

    Occurrences are collected across all the formulas of one obligation
    (premises and conclusion alike — an axiom about a subterm of the goal
    is still a fact) and deduplicated; the result is deterministic so the
    emitted Horn constraints are stable across runs: each formula's
    applications are taken in the order of their printed form.

    ``memo`` remembers each formula's applications in that order, each
    with its instance, for a caller that passes the same formulas again
    (a typecheck session's obligations share most of their premises): a
    formula's applications are printed, sorted and instantiated once.
    """
    if not defs:
        return []
    if memo is None:
        memo = {}
    seen = set()
    instances: List[Formula] = []
    for formula in formulas:
        pairs = memo.get(formula)
        if pairs is None:
            pairs = memo[formula] = _postcondition_instances(formula, defs)
        for application, instance in pairs:
            if application not in seen:
                seen.add(application)
                instances.append(instance)
    return instances


def _postcondition_instances(
    formula: Formula, defs: Mapping[str, MeasureDef]
) -> Tuple[Tuple[App, Formula], ...]:
    """The applications in ``formula`` whose postcondition instance says
    something, in printed order, each with that instance."""
    pairs = []
    for application in sorted(measure_apps(formula), key=repr):
        mdef = defs.get(application.func)
        if mdef is not None:
            instance = mdef.postcondition_for(application)
            if not is_true(instance):
                pairs.append((application, instance))
    return tuple(pairs)
