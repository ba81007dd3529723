"""Per-solver fresh-name generation.

Every auxiliary symbol a solver invents (definitional variables for lifted
``ite`` terms, witness elements for negative set atoms) must be unique
*within* that solver instance, and name generation must not leak state
between instances: two solvers given the same queries in the same order
produce the same names, which keeps runs reproducible and instances
independent.  An owner that discards what a stretch of work built (a
typecheck session's trial scope) can give that stretch's names back with
:meth:`FreshNames.release`, so the next stretch mints the same ones.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from ..logic.formulas import Var
from ..logic.sorts import Sort


class FreshNames:
    """A counter-per-kind fresh-name source owned by a single solver."""

    def __init__(self, prefix: str = "__") -> None:
        self._prefix = prefix
        self._counts: Dict[str, int] = {}

    def fresh(self, kind: str) -> str:
        """The next unused name of the given kind, e.g. ``__ite3``."""
        count = self._counts.get(kind, 0)
        self._counts[kind] = count + 1
        return f"{self._prefix}{kind}{count}"

    def fresh_var(self, kind: str, sort: Sort) -> Var:
        """A fresh variable of the given kind and sort."""
        return Var(self.fresh(kind), sort)

    def mark(self) -> Dict[str, int]:
        """The counters now, to hand to :meth:`release` later."""
        return dict(self._counts)

    def release(self, mark: Dict[str, int]) -> FrozenSet[str]:
        """Give back every name minted since ``mark`` and return them: the
        same requests from here on mint the same names again."""
        minted = frozenset(
            f"{self._prefix}{kind}{index}"
            for kind, count in self._counts.items()
            for index in range(mark.get(kind, 0), count)
        )
        self._counts = dict(mark)
        return minted
