"""Warm solver stacks: one persistent incremental backend per worker.

A cold ``python -m repro`` invocation pays the full stack setup on every
query: a fresh SAT core, a fresh theory, every formula re-encoded, every
theory lemma re-learned.  A :class:`WarmStack` keeps **one**
:class:`repro.smt.solver.IncrementalSolver` alive across queries — the
same reuse a single synthesis run already gets from its shared session
backend, extended to *many* programs: encodings are keyed by interned
formulas, theory lemmas are valid sentences, so nothing a previous
program asserted can contaminate the next one's answers (sessions only
ever assert inside ``scoped()`` frames, which unwind even on error).

Each query runs inside :meth:`WarmStack.query`, which guards the backend
with an extra scope and — should a query die mid-flight — discards the
whole backend rather than trust a half-unwound one (``resets`` counts
how often that paranoia fired).  When a :class:`~repro.service.cache.
LemmaStore` is attached, the stack imports the persisted lemma pool into
every fresh backend and merges newly learned lemmas back on
:meth:`flush_lemmas` — the cross-run half of the warm start.  A flush
after a query that learned nothing new, such as a cache hit, leaves the
pool file untouched.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from .. import limits
from ..smt.solver import IncrementalSolver
from ..testing import faults
from .cache import LemmaStore


class WarmStack:
    """A reusable backend plus the bookkeeping ``/stats`` reports."""

    def __init__(self, lemma_store: Optional[LemmaStore] = None) -> None:
        self.lemma_store = lemma_store
        self.queries = 0
        self.resets = 0
        self.timeout_resets = 0
        self.lemmas_imported = 0
        self.lemmas_flushed = 0
        #: pool size after the last merge, reported again by a skipped flush.
        self._pool_size = 0
        #: the backend's lemma count at the last merge; ``None`` forces one.
        self._flushed_count: Optional[int] = None
        self._lock = threading.Lock()
        self.backend = self._fresh_backend()

    def _fresh_backend(self) -> IncrementalSolver:
        backend = IncrementalSolver()
        if self.lemma_store is not None:
            self.lemmas_imported += backend.import_theory_lemmas(self.lemma_store.load())
        return backend

    def reset(self, timeout: bool = False) -> None:
        """Replace the backend (after a failed query left it suspect).

        ``timeout=True`` marks a budget-triggered reset — counted
        separately so ``/stats`` and the batch summary can distinguish a
        query that *died* from one that was *cancelled*.
        """
        self.resets += 1
        if timeout:
            self.timeout_resets += 1
        self.backend = self._fresh_backend()
        self._flushed_count = None

    @contextmanager
    def query(self) -> Iterator[IncrementalSolver]:
        """One query's exclusive use of the warm backend.

        Serializes queries (the SAT core is single-threaded state), opens
        a guard scope so any assertion the query leaks is popped, and
        resets the backend if the query raises — a budget exhaustion
        (:class:`~repro.limits.BudgetExhausted`) counts as a *timeout*
        reset, any other exception as a plain one.
        """
        with self._lock:
            self.queries += 1
            backend = self.backend
            backend.push()
            try:
                if faults.maybe_fire("stack.stall"):
                    _stall_past_deadline()
                yield backend
            except limits.BudgetExhausted:
                self.reset(timeout=True)
                raise
            except Exception:
                self.reset()
                raise
            else:
                backend.pop()

    def flush_lemmas(self) -> int:
        """Merge this backend's learned lemmas into the persistent pool.

        The pool file is merged and rewritten only when the backend holds
        a lemma it did not hold at the last merge (or was replaced since);
        otherwise nothing is read or written.  Returns the pool size after
        the last merge.
        """
        if self.lemma_store is None:
            return 0
        with self._lock:
            count = self.backend.lemma_count
            if count != self._flushed_count:
                exported = self.backend.export_theory_lemmas()
                self._pool_size = self.lemma_store.merge(exported)
                self.lemmas_flushed = self._flushed_count = count
            return self._pool_size

    def stats(self) -> dict:
        return {
            "queries": self.queries,
            "resets": self.resets,
            "timeout_resets": self.timeout_resets,
            "lemmas_imported": self.lemmas_imported,
            "lemmas_flushed": self.lemmas_flushed,
        }


def _stall_past_deadline() -> None:
    """Chaos effect: sleep until the active deadline has passed (bounded
    at two seconds for scopes without one), then hit a checkpoint — the
    injected form of a query that outlives its budget."""
    left = limits.remaining_ms()
    time.sleep(min((left or 2000.0) / 1000.0 + 0.01, 2.0))
    limits.checkpoint()
