"""Field-wise equality for the immutable value classes.

Sorts, program types and terms, datatype and measure declarations, Horn
constraints and theory literals are plain ``__slots__`` classes written
out by hand (a generated class costs import time).  Each one names its
fields, in declaration order, in :meth:`Value._fields`; this base class
turns that into equality and hashing.  Instances are immutable by
convention: never assign to their fields after construction.
"""

from __future__ import annotations

from typing import Tuple


class Value:
    """Equal to an instance of the same class with equal fields; hashes
    as the tuple of its fields (``hash(())`` when it has none)."""

    __slots__ = ()

    def _fields(self) -> Tuple:
        """The fields, in declaration order."""
        return ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())
