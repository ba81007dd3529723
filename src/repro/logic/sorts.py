"""Sorts of the refinement logic.

The paper (Fig. 2) distinguishes interpreted sorts (``Bool``, ``Int``, sets)
from uninterpreted sorts used for datatype values and type variables.  Sorts
classify refinement *terms*; they are not program types (see
``repro.syntax.types`` for those).
"""

from __future__ import annotations

from typing import Tuple

from ..value import Value


class Sort(Value):
    """Base class for all sorts.

    Sorts sit inside formula keys such as ``("var", name, sort)``, so their
    hash (the tuple of their fields) fixes the iteration order of
    formula-keyed sets.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return str(self)


class BoolSort(Sort):
    """Sort of boolean refinement terms (formulas)."""

    __slots__ = ()

    def __str__(self) -> str:
        return "Bool"


class IntSort(Sort):
    """Sort of linear-integer-arithmetic terms."""

    __slots__ = ()

    def __str__(self) -> str:
        return "Int"


class UninterpretedSort(Sort):
    """An uninterpreted sort, e.g. the sort of values of a datatype or of a
    type variable.  ``args`` carries the sorts of type parameters so that
    ``List Int`` and ``List Bool`` are distinct sorts."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Tuple[Sort, ...] = ()) -> None:
        self.name = name
        self.args = args

    def _fields(self) -> Tuple:
        return (self.name, self.args)

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}({', '.join(map(str, self.args))})"


class SetSort(Sort):
    """Sort of finite sets of elements of ``element`` sort.

    The paper models sets with the theory of arrays; here they are a
    first-class sort handled by ``repro.smt.sets``.
    """

    __slots__ = ("element",)

    def __init__(self, element: Sort) -> None:
        self.element = element

    def _fields(self) -> Tuple:
        return (self.element,)

    def __str__(self) -> str:
        return f"Set {self.element}"


class VarSort(Sort):
    """A sort variable: the sort of a refinement term whose sort is not yet
    known (it stands for the sort of a program type variable ``alpha``)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def _fields(self) -> Tuple:
        return (self.name,)

    def __str__(self) -> str:
        return f"?{self.name}"


BOOL = BoolSort()
INT = IntSort()


def set_of(element: Sort) -> SetSort:
    """Convenience constructor for set sorts."""
    return SetSort(element)


def data_sort(name: str, *args: Sort) -> UninterpretedSort:
    """Sort of values of datatype ``name`` applied to ``args``."""
    return UninterpretedSort(name, tuple(args))
