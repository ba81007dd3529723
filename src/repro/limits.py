"""Resource governance: deadlines, step budgets, cooperative cancellation.

Synquid's evaluation reports every benchmark under a per-goal timeout;
this module is that machinery for the whole stack.  A :class:`Budget` is
an immutable resource envelope — an absolute wall-clock deadline plus
optional per-counter step limits — and :func:`checkpoint` is the cheap
cooperative check the hot loops call at their natural quanta (one SAT
conflict, one simplex repair pivot, one Horn candidate, one enumerated
E-term, one MUS theory probe).  When a limit trips, the checkpoint
raises :class:`BudgetExhausted` carrying *which* limit tripped and the
progress counters accumulated so far — the raw material for the
structured ``unknown`` / ``timeout`` reports every surface renders.

Budgets are installed with :func:`budget_scope`, a thread-local stack:

* **Thread-local** because the service layer runs one query per thread
  (the batch pool, the threaded HTTP server) and one query's deadline
  must never cancel another's.
* **A stack** because scopes nest — a batch sweep's per-file budget can
  run inside a server request's budget — and a checkpoint honors every
  enclosing deadline, not just the innermost.
* **Absent by default**: with no active scope a checkpoint is one
  thread-local read and a truth test, so un-budgeted callers (the whole
  test suite, library users) pay nothing.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = [
    "Budget",
    "BudgetExhausted",
    "BudgetScope",
    "budget_scope",
    "checkpoint",
    "remaining_ms",
]


class BudgetExhausted(Exception):
    """A cooperative checkpoint found a :class:`Budget` limit exceeded.

    ``limit`` names what tripped (``"wall_clock"``, a step counter such
    as ``"sat_conflicts"``, or ``"cancelled"``); ``progress`` is a
    snapshot of the tripping scope's step counters — partial work the
    degradation reports surface so a timeout is never a silent loss.
    """

    def __init__(self, limit: str, progress: Optional[Dict[str, int]] = None) -> None:
        self.limit = limit
        self.progress: Dict[str, int] = dict(progress or {})
        detail = ", ".join(f"{k}={v}" for k, v in sorted(self.progress.items()))
        super().__init__(f"budget exhausted: {limit}" + (f" ({detail})" if detail else ""))


class Budget:
    """An immutable resource envelope.

    ``deadline`` is an absolute :func:`time.monotonic` instant (``None``
    = no wall-clock bound).  The ``max_*`` fields bound the matching
    :func:`checkpoint` counters (``None`` = unbounded).  Never assigning
    to a budget keeps the contract one-directional: limits are fixed at
    entry, progress lives in the (mutable) :class:`BudgetScope`.
    """

    __slots__ = (
        "deadline",
        "max_conflicts",
        "max_pivots",
        "max_candidates",
        "max_terms",
    )

    def __init__(
        self,
        deadline: Optional[float] = None,
        max_conflicts: Optional[int] = None,
        max_pivots: Optional[int] = None,
        max_candidates: Optional[int] = None,
        max_terms: Optional[int] = None,
    ) -> None:
        self.deadline = deadline
        #: SAT conflicts (checked once per CDCL conflict).
        self.max_conflicts = max_conflicts
        #: Simplex repair pivots.
        self.max_pivots = max_pivots
        #: Horn candidate valuations explored by the frontier search.
        self.max_candidates = max_candidates
        #: E-terms generated by the enumerator.
        self.max_terms = max_terms

    @classmethod
    def from_timeout_ms(cls, timeout_ms: Optional[float], **steps: Optional[int]) -> "Budget":
        """A budget whose deadline is ``timeout_ms`` from now (``None`` =
        steps-only); keyword step limits pass straight through."""
        deadline = None if timeout_ms is None else time.monotonic() + timeout_ms / 1000.0
        return cls(deadline=deadline, **steps)

    def remaining_ms(self) -> Optional[float]:
        """Milliseconds until the deadline (clamped at 0), or ``None``."""
        if self.deadline is None:
            return None
        return max(0.0, (self.deadline - time.monotonic()) * 1000.0)


#: Maps checkpoint counter names to the Budget field bounding them.
_LIMIT_FIELD: Dict[str, str] = {
    "sat_conflicts": "max_conflicts",
    "tableau_pivots": "max_pivots",
    "horn_candidates": "max_candidates",
    "enum_terms": "max_terms",
}


class BudgetScope:
    """One installed budget: the frozen limits plus mutable progress.

    ``cancel()`` flips a flag any thread may set; the owning thread's
    next checkpoint raises ``BudgetExhausted("cancelled", ...)`` — the
    cooperative half of cross-thread cancellation.
    """

    __slots__ = ("budget", "progress", "cancelled")

    def __init__(self, budget: Budget) -> None:
        self.budget = budget
        self.progress: Dict[str, int] = {}
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


_state = threading.local()


def _stack() -> List[BudgetScope]:
    try:
        return _state.stack
    except AttributeError:
        _state.stack = []
        return _state.stack


@contextmanager
def budget_scope(budget: Optional[Budget]) -> Iterator[Optional[BudgetScope]]:
    """Install ``budget`` for the calling thread (``None`` = no-op, so
    call sites need no conditional)."""
    if budget is None:
        yield None
        return
    stack = _stack()
    scope = BudgetScope(budget)
    stack.append(scope)
    try:
        yield scope
    finally:
        stack.pop()


def remaining_ms() -> Optional[float]:
    """Milliseconds left on the tightest enclosing deadline, or ``None``
    when no active scope has one."""
    tightest: Optional[float] = None
    for scope in _stack():
        left = scope.budget.remaining_ms()
        if left is not None and (tightest is None or left < tightest):
            tightest = left
    return tightest


def checkpoint(counter: Optional[str] = None, amount: int = 1) -> None:
    """One cooperative cancellation point.

    Free when no budget is installed.  Otherwise: bump ``counter`` on
    every enclosing scope, then verify every scope's deadline, step
    limits, and cancellation flag — innermost first, so the tightest
    envelope is the one reported.  Raises :class:`BudgetExhausted`.
    """
    stack = _stack()
    if not stack:
        return
    now = time.monotonic()
    for scope in reversed(stack):
        progress = scope.progress
        if counter is not None:
            progress[counter] = progress.get(counter, 0) + amount
        if scope.cancelled:
            raise BudgetExhausted("cancelled", progress)
        budget = scope.budget
        if budget.deadline is not None and now >= budget.deadline:
            raise BudgetExhausted("wall_clock", progress)
        if counter is not None:
            field = _LIMIT_FIELD.get(counter)
            if field is not None:
                bound = getattr(budget, field)
                if bound is not None and progress[counter] > bound:
                    raise BudgetExhausted(counter, progress)
