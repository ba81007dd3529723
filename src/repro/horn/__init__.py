"""Horn-constraint solving over predicate unknowns (Sec. 5 of the paper).

The third layer of the reproduction: constraints (``premises ==>
conclusion`` with :class:`~repro.logic.formulas.Unknown` nodes on either
side), qualifier spaces per unknown, and the :class:`HornSolver` —
greatest fixpoint for ordinary unknowns, candidate-set search with MUSFix
pruning for abducible ones.  All validity queries go through the
incremental SMT backend.
"""

from .constraints import HornConstraint, constraint, substitute_unknowns
from .musfix import MusFixSolver
from .solver import Assignment, HornSolution, HornSolver
from .spaces import QualifierSpace, as_space_map, build_space, build_spaces

__all__ = [
    "Assignment",
    "HornConstraint",
    "HornSolution",
    "HornSolver",
    "MusFixSolver",
    "QualifierSpace",
    "as_space_map",
    "build_space",
    "build_spaces",
    "constraint",
    "substitute_unknowns",
]
