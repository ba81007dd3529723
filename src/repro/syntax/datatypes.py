"""Datatype declarations: constructors with refined signatures (Sec. 3.2).

A :class:`Datatype` packages the constructors of an inductive type such as
``List a``; each :class:`Constructor` carries a :class:`~repro.syntax.
types.TypeSchema` quantified over the datatype's type parameters, whose
result refinement records the measure facts true of values built by that
constructor — e.g. ``Cons :: x:a -> xs:List a -> {List a | len(nu) == 1 +
len(xs)}``.  The type checker uses the declaration twice:

* applied as a component, the constructor's signature *produces* measure
  facts (building a ``Cons`` yields a value whose ``len`` is known);
* matched against, the signature is run backwards (*constructor
  selfification*): the scrutinee's ``len`` fact flows into the case
  binders together with the measure's catamorphism unfolding (see
  :meth:`repro.logic.measures.MeasureDef.unfold`).

:func:`list_datatype` builds the paper's ``List`` with the ``len``
measure — the prelude every datatype benchmark and test uses.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..logic import ops
from ..logic.formulas import App, Var, value_var
from ..logic.measures import MeasureCase, MeasureDef
from ..logic.sorts import INT, VarSort
from ..value import Value
from .types import (
    DataBase,
    FunctionType,
    RType,
    TypeSchema,
    arrow,
    base_sort,
    data_type,
    type_var,
)


class Constructor(Value):
    """A constructor and its refined signature.

    ``schema`` is quantified over exactly the owning datatype's type
    parameters; its body is the curried arrow ending in a scalar of the
    datatype (possibly refined by measure facts).
    """

    __slots__ = ("name", "schema")

    def __init__(self, name: str, schema: TypeSchema) -> None:
        self.name = name
        self.schema = schema

    def _fields(self) -> Tuple:
        return (self.name, self.schema)

    def arity(self) -> int:
        """Number of term-level arguments the constructor takes."""
        count = 0
        node: RType = self.schema.body
        while isinstance(node, FunctionType):
            count += 1
            node = node.result_type
        return count


class Datatype(Value):
    """An inductive datatype: name, type parameters, constructors."""

    __slots__ = ("name", "type_params", "constructors")

    def __init__(
        self,
        name: str,
        type_params: Tuple[str, ...] = (),
        constructors: Tuple[Constructor, ...] = (),
    ) -> None:
        self.name = name
        self.type_params = type_params
        self.constructors = constructors

    def _fields(self) -> Tuple:
        return (self.name, self.type_params, self.constructors)

    def find(self, constructor: str) -> Optional[Constructor]:
        """The named constructor, or ``None``."""
        for ctor in self.constructors:
            if ctor.name == constructor:
                return ctor
        return None

    def constructor_names(self) -> Tuple[str, ...]:
        """Names of all constructors, in declaration order."""
        return tuple(ctor.name for ctor in self.constructors)


def constructor(name: str, datatype_params: Tuple[str, ...], body: RType) -> Constructor:
    """A constructor whose schema quantifies the datatype's parameters."""
    return Constructor(name, TypeSchema(datatype_params, (), body))


# ---------------------------------------------------------------------------
# pretty printing (re-parseable by repro.syntax.parser)
# ---------------------------------------------------------------------------


def _pretty_sort(sort) -> str:
    """Render a sort in the surface syntax of base types."""
    from ..logic.sorts import BoolSort, IntSort, UninterpretedSort

    if isinstance(sort, IntSort):
        return "Int"
    if isinstance(sort, BoolSort):
        return "Bool"
    if isinstance(sort, VarSort):
        return sort.name
    if isinstance(sort, UninterpretedSort):
        if not sort.args:
            return sort.name
        rendered = []
        for arg in sort.args:
            text = _pretty_sort(arg)
            rendered.append(f"({text})" if " " in text else text)
        return f"{sort.name} {' '.join(rendered)}"
    raise TypeError(f"sort {sort} has no surface syntax")


def pretty_datatype(datatype: Datatype) -> str:
    """Render a datatype declaration, e.g.
    ``data List a where Nil :: ... | Cons :: ...``."""
    from .types import pretty_type

    params = "".join(f" {param}" for param in datatype.type_params)
    ctors = " | ".join(
        f"{ctor.name} :: {pretty_type(ctor.schema.body)}" for ctor in datatype.constructors
    )
    return f"data {datatype.name}{params} where {ctors}"


def pretty_measure(measure: MeasureDef) -> str:
    """Render a measure declaration, e.g.
    ``measure len :: List a -> {Int | (nu >= 0)} where Nil -> 0 | ...``."""
    from ..logic.formulas import is_true
    from ..logic.pretty import pretty_formula

    result = _pretty_sort(measure.result_sort)
    if not is_true(measure.postcondition):
        result = f"{{{result} | {pretty_formula(measure.postcondition)}}}"
    cases = " | ".join(
        f"{case.constructor}{''.join(f' {binder.name}' for binder in case.binders)}"
        f" -> {pretty_formula(case.body)}"
        for case in measure.cases
    )
    return (
        f"measure {measure.name} :: {_pretty_sort(measure.arg_sort)} -> {result}"
        f" where {cases}"
    )


# ---------------------------------------------------------------------------
# the List prelude (the paper's running datatype)
# ---------------------------------------------------------------------------


def len_measure() -> MeasureDef:
    """``len :: List a -> {Int | nu >= 0}`` with its catamorphism cases."""
    a = VarSort("a")
    list_sort = base_sort(DataBase("List", (type_var("a"),)))
    xs = Var("xs", list_sort)
    return MeasureDef(
        name="len",
        datatype="List",
        arg_sort=list_sort,
        result_sort=INT,
        cases=(
            MeasureCase("Nil", (), ops.int_lit(0)),
            MeasureCase(
                "Cons",
                (Var("x", a), xs),
                ops.plus(ops.int_lit(1), App("len", (xs,), INT)),
            ),
        ),
        postcondition=ops.ge(value_var(INT), ops.int_lit(0)),
    )


def list_datatype() -> Datatype:
    """``List a`` with measure-refined ``Nil`` / ``Cons`` signatures."""
    elem = type_var("a")
    list_a = data_type("List", [elem])
    nu = value_var(list_a.sort)
    xs = Var("xs", list_a.sort)

    def len_of(term):
        return App("len", (term,), INT)

    nil = constructor(
        "Nil",
        ("a",),
        data_type("List", [elem], ops.eq(len_of(nu), ops.int_lit(0))),
    )
    cons = constructor(
        "Cons",
        ("a",),
        arrow(
            "x",
            elem,
            arrow(
                "xs",
                list_a,
                data_type(
                    "List",
                    [elem],
                    ops.eq(len_of(nu), ops.plus(ops.int_lit(1), len_of(xs))),
                ),
            ),
        ),
    )
    return Datatype("List", ("a",), (nil, cons))
