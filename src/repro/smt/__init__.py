"""The SMT substrate: SAT core, EUF, LIA, set encoding, lazy DPLL(T)."""

from .euf import CongruenceClosure, TermBank
from .lia import Constraint, LinearExpr, Relation
from .names import FreshNames
from .sat import SatResult, SatSolver, solve_clauses
from .sets import eliminate_sets
from .solver import IncrementalSolver, TseitinEncoder
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
    "TermBank",
    "TheoryChecker",
    "TseitinEncoder",
    "eliminate_sets",
    "solve_clauses",
]
