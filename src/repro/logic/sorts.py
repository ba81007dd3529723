"""Sorts of the refinement logic.

The paper (Fig. 2) distinguishes interpreted sorts (``Bool``, ``Int``, sets)
from uninterpreted sorts used for datatype values and type variables.  Sorts
classify refinement *terms*; they are not program types (see
``repro.syntax.types`` for those).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


class Sort:
    """Base class for all sorts."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return str(self)


@dataclass(frozen=True)
class BoolSort(Sort):
    """Sort of boolean refinement terms (formulas)."""

    def __str__(self) -> str:
        return "Bool"


@dataclass(frozen=True)
class IntSort(Sort):
    """Sort of linear-integer-arithmetic terms."""

    def __str__(self) -> str:
        return "Int"


@dataclass(frozen=True)
class UninterpretedSort(Sort):
    """An uninterpreted sort, e.g. the sort of values of a datatype or of a
    type variable.  ``args`` carries the sorts of type parameters so that
    ``List Int`` and ``List Bool`` are distinct sorts."""

    name: str
    args: Tuple[Sort, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class SetSort(Sort):
    """Sort of finite sets of elements of ``element`` sort.

    The paper models sets with the theory of arrays; here they are a
    first-class sort handled by ``repro.smt.sets``.
    """

    element: Sort

    def __str__(self) -> str:
        return f"Set {self.element}"


@dataclass(frozen=True)
class VarSort(Sort):
    """A sort variable: the sort of a refinement term whose sort is not yet
    known (it stands for the sort of a program type variable ``alpha``)."""

    name: str

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
