"""The SMT substrate: SAT core, EUF, LIA, set encoding, lazy DPLL(T)."""

from .euf import CongruenceClosure, TermBank
from .lia import Constraint, LinearExpr, Relation
from .names import FreshNames
from .sat import SatResult, SatSolver, SatStatistics, solve_clauses
from .sets import eliminate_sets
from .solver import IncrementalSolver, SolverStatistics, TseitinEncoder
from .theory import Literal, TheoryChecker

__all__ = [
    "CongruenceClosure",
    "Constraint",
    "FreshNames",
    "IncrementalSolver",
    "LinearExpr",
    "Literal",
    "Relation",
    "SatResult",
    "SatSolver",
    "SatStatistics",
    "SolverStatistics",
    "TermBank",
    "TheoryChecker",
    "TseitinEncoder",
    "eliminate_sets",
    "solve_clauses",
]
