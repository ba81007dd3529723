"""Named integer counters: the one statistics type of the solver stack.

Each solver owns one :class:`Counters` and hands it to the parts that do
its work, so every counter is incremented on exactly one object and never
copied: an :class:`~repro.smt.solver.IncrementalSolver` to its SAT core,
its theory bridge and that theory's simplex; a
:class:`~repro.horn.solver.HornSolver` to its MUS probes; a
:class:`~repro.synth.synthesizer.Synthesizer` to its enumerators.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional


class Counters:
    """Named integer counters, starting at 0.

    They are instance attributes in declaration order, so ``vars()`` and
    :meth:`as_dict` list them as declared; two counter sets are equal when
    every counter is.
    """

    def __init__(self, *names: str) -> None:
        # One plain attribute store each (not a ``vars()`` update) keeps
        # the interpreter's fast attribute path for every increment.
        for name in names:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dict (for reports and benchmarks)."""
        return dict(vars(self))

    def add(self, other: "Counters", names: Optional[Iterable[str]] = None) -> None:
        """Add ``other``'s counters (only ``names``, when given) to these."""
        for name in vars(other) if names is None else names:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)
