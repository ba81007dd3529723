"""Refinement type checking: subtyping reduced to Horn constraints.

The fifth layer of the reproduction (Sec. 3 of the paper): typing
environments with embeddings into the refinement logic, a bidirectional
checker whose subtyping judgment emits Horn constraints over fresh
predicate unknowns, and the :class:`TypecheckSession` that accumulates the
system and solves it with :class:`repro.horn.HornSolver` over one shared
incremental SMT backend.
"""

from .checker import (
    check,
    elaborate_match_case,
    infer,
    recursion_signature,
    subtype,
    well_formed,
)
from .environment import EMPTY, Environment
from .errors import (
    MatchError,
    ShapeError,
    TerminationError,
    TypecheckError,
    UnsupportedTermError,
    WellFormednessError,
)
from .session import TypecheckSession

__all__ = [
    "EMPTY",
    "Environment",
    "MatchError",
    "ShapeError",
    "TerminationError",
    "TypecheckError",
    "TypecheckSession",
    "UnsupportedTermError",
    "WellFormednessError",
    "check",
    "elaborate_match_case",
    "infer",
    "recursion_signature",
    "subtype",
    "well_formed",
]
