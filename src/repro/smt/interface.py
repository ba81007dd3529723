"""Solver backend protocol.

The type checker and the Horn solver issue a very large number of small
validity / satisfiability queries, all through :class:`SolverBackend`:
the abstract *incremental* interface (``push`` / ``pop`` / ``assert_`` /
``check``), whose scoped :meth:`~SolverBackend.check_assuming` and
:meth:`~SolverBackend.is_valid_implication` also answer one-shot
questions.  The concrete :class:`repro.smt.solver.IncrementalSolver`
implements it with assumption literals over a single persistent SAT
solver running DPLL(T) against one persistent, trail-backed theory state,
so a fixpoint loop that re-asserts the same premises thousands of times
pays for their encoding exactly once, keeps every learned theory lemma,
and resumes every simplex check from the previous feasible basis.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import Iterable, Iterator, List, Optional, Sequence

from ..logic import ops
from ..logic.formulas import Formula


class SolverBackend(ABC):
    """Abstract incremental satisfiability backend.

    Assertions are scoped: ``push`` opens a scope, ``assert_`` adds a
    formula to the innermost scope, ``pop`` discards the innermost scope,
    and ``check`` decides satisfiability of the conjunction of all formulas
    in all live scopes.  Implementations are expected to make re-assertion
    of a previously seen formula cheap (no re-encoding), which is what the
    Horn fixpoint loop relies on.
    """

    @abstractmethod
    def push(self) -> None:
        """Open a new assertion scope."""

    @abstractmethod
    def pop(self) -> None:
        """Discard the innermost assertion scope."""

    @abstractmethod
    def assert_(self, formula: Formula) -> None:
        """Add a formula to the innermost scope."""

    @abstractmethod
    def check(self) -> bool:
        """Is the conjunction of all live assertions satisfiable?"""

    # -- conveniences shared by all backends --------------------------------

    @contextmanager
    def scoped(self) -> Iterator["SolverBackend"]:
        """A ``with``-block assertion scope: ``push`` on entry, ``pop`` on
        exit (even on error).  Long-lived consumers — a typing derivation
        sharing one backend across many obligations — use this to keep
        their scope discipline exception-safe."""
        self.push()
        try:
            yield self
        finally:
            self.pop()

    def check_evaluating(
        self, probes: Sequence[Formula]
    ) -> Optional[List[Optional[bool]]]:
        """Check the live assertions; on SAT, report each probe formula's
        truth value under the model found when the backend can read it back.

        Returns ``None`` on UNSAT.  The default implementation answers the
        satisfiability question but evaluates nothing (every probe entry is
        ``None``) — backends with model access, like
        :class:`repro.smt.solver.IncrementalSolver`, override it, which is
        what lets the Horn solver prune whole qualifier batches from one
        counterexample.
        """
        if not self.check():
            return None
        return [None for _ in probes]

    def check_assuming(self, formulas: Iterable[Formula]) -> bool:
        """Satisfiability of the live assertions plus the given formulas."""
        with self.scoped():
            for formula in formulas:
                self.assert_(formula)
            return self.check()

    def is_valid_implication(self, premises: Iterable[Formula], conclusion: Formula) -> bool:
        """Does the conjunction of ``premises`` entail ``conclusion`` (in the
        context of the live assertions)?"""
        with self.scoped():
            for premise in premises:
                self.assert_(premise)
            self.assert_(ops.not_(conclusion))
            return not self.check()
