"""The per-server query guard: one query at a time, failures counted.

Every query computes on solvers of its own: each definition's or goal's
:class:`~repro.typecheck.session.TypecheckSession` builds an
:class:`~repro.smt.solver.IncrementalSolver`, every subtyping and Horn
check of that item shares it, and all of it is freed when the query
ends.  Nothing is carried from one program to the next, so the server
answers its thousandth unseen program as fast as its first, and a cache
hit builds no solver unless ``recheck`` asks to re-verify it.

A :class:`WarmStack` is what the service keeps between queries: the lock
that runs them one at a time (formulas are interned in one process-wide
table), and the counts ``/stats`` and the batch summary report —
queries served, queries that raised (``resets``) and the subset the
budget cancelled (``timeout_resets``).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

from .. import limits
from ..testing import faults


class WarmStack:
    """The query lock plus the counters ``/stats`` reports."""

    def __init__(self) -> None:
        self.queries = 0
        self.resets = 0
        self.timeout_resets = 0
        self._lock = threading.Lock()

    def reset(self, timeout: bool = False) -> None:
        """Count a query that raised.

        ``timeout=True`` marks one the budget cancelled — counted
        separately so ``/stats`` and the batch summary can distinguish a
        query that *died* from one that was *cancelled*.
        """
        self.resets += 1
        if timeout:
            self.timeout_resets += 1

    @contextmanager
    def query(self) -> Iterator[None]:
        """One query's turn: queries run one at a time, and one that
        raises is counted — a budget exhaustion
        (:class:`~repro.limits.BudgetExhausted`) as a *timeout* reset,
        any other exception as a plain one."""
        with self._lock:
            self.queries += 1
            try:
                if faults.maybe_fire("stack.stall"):
                    _stall_past_deadline()
                yield
            except limits.BudgetExhausted:
                self.reset(timeout=True)
                raise
            except Exception:
                self.reset()
                raise

    def flush_lemmas(self) -> int:
        """Always 0: there is no lemma pool to flush.

        Nothing in the service calls this; ``perfbench/launcher.py`` still
        looks it up by name.  A later benchmark change retires it, together
        with the ``service.lemma_pool`` and ``service.flush_lemmas_ms``
        metrics, which read 0 now.
        """
        return 0

    def stats(self) -> dict:
        return {
            "queries": self.queries,
            "resets": self.resets,
            "timeout_resets": self.timeout_resets,
        }


def _stall_past_deadline() -> None:
    """Chaos effect: sleep until the active deadline has passed (bounded
    at two seconds for scopes without one), then hit a checkpoint — the
    injected form of a query that outlives its budget."""
    left = limits.remaining_ms()
    time.sleep(min((left or 2000.0) / 1000.0 + 0.01, 2.0))
    limits.checkpoint()
