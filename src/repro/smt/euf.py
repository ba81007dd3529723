"""Congruence closure for equality with uninterpreted functions (EUF).

Measures (``len``, ``elems``, ``keys``, ...) are uninterpreted functions in
the refinement logic, so the theory solver needs congruence reasoning:
``t1 = t2`` must entail ``len t1 = len t2``.  This module implements a
union-find based congruence closure over first-order terms.

Terms are plain tuples: ``("app", fname, child_id, ...)`` for applications
and ``("const", name)`` for constants, interned to integer ids by
:class:`TermBank`.

The closure is *backtrackable*: every union is recorded on an undo trail,
so :meth:`CongruenceClosure.mark` / :meth:`CongruenceClosure.undo_to`
un-merge classes in reverse assertion order.  That is what lets
:class:`repro.smt.theory.IncrementalTheory` keep one persistent closure
across thousands of ``push``/``pop``-bracketed theory checks.  To keep
undo exact, ``_find`` does **not** path-compress (union-by-size bounds the
depth instead): undoing a union only has to detach the one root the union
attached.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple


class TermBank:
    """Interns first-order terms as integer ids."""

    __slots__ = ("_terms", "_ids")

    def __init__(self) -> None:
        self._terms: List[Tuple] = []
        self._ids: Dict[Tuple, int] = {}

    def constant(self, name: str) -> int:
        """Intern a constant symbol."""
        return self._intern(("const", name))

    def apply(self, function: str, args: Sequence[int]) -> int:
        """Intern an application of ``function`` to already-interned args."""
        return self._intern(("app", function) + tuple(args))

    def _intern(self, term: Tuple) -> int:
        if term in self._ids:
            return self._ids[term]
        term_id = len(self._terms)
        self._terms.append(term)
        self._ids[term] = term_id
        return term_id

    def term(self, term_id: int) -> Tuple:
        """The structure of an interned term."""
        return self._terms[term_id]

    def __len__(self) -> int:
        return len(self._terms)

    def all_ids(self) -> range:
        """Ids of all interned terms."""
        return range(len(self._terms))


#: A saved closure state: (union trail length, disequality count).
ClosureMark = Tuple[int, int]


class CongruenceClosure:
    """Union-find based congruence closure with an undo trail.

    Usage: intern terms through :attr:`bank`, assert equalities and
    disequalities, then ask :meth:`is_consistent` or enumerate entailed
    equalities over a set of terms.  Incremental users bracket assertions
    between :meth:`mark` and :meth:`undo_to`.
    """

    def __init__(self, bank: Optional[TermBank] = None) -> None:
        self.bank = bank if bank is not None else TermBank()
        self._parent: Dict[int, int] = {}
        self._size: Dict[int, int] = {}
        #: roots attached to a new parent, in union order (the undo trail).
        self._union_trail: List[int] = []
        self._disequalities: List[Tuple[int, int]] = []
        self._dirty = False
        self._rebuilt_size = -1
        #: bumped on every union, disequality, and state-changing undo, so
        #: incremental users can cheaply detect "nothing changed".
        self.version = 0

    # -- union-find --------------------------------------------------------

    def _find(self, term_id: int) -> int:
        parent = self._parent
        while True:
            up = parent.get(term_id, term_id)
            if up == term_id:
                return term_id
            term_id = up

    def _union(self, a: int, b: int) -> None:
        root_a, root_b = self._find(a), self._find(b)
        if root_a == root_b:
            return
        size = self._size
        if size.get(root_a, 1) > size.get(root_b, 1):
            root_a, root_b = root_b, root_a
        self._parent[root_a] = root_b
        size[root_b] = size.get(root_b, 1) + size.get(root_a, 1)
        self._union_trail.append(root_a)
        self._dirty = True
        self.version += 1

    # -- backtracking --------------------------------------------------------

    def mark(self) -> ClosureMark:
        """Snapshot the assertion state for a later :meth:`undo_to`."""
        return (len(self._union_trail), len(self._disequalities))

    def undo_to(self, mark: ClosureMark) -> None:
        """Un-merge every union and drop every disequality after ``mark``.

        A no-op undo (nothing asserted since the mark) leaves the closed
        fixpoint — and :attr:`version` — untouched, so back-to-back checks
        over unchanged prefixes skip the congruence rebuild entirely.
        """
        unions, disequalities = mark
        trail = self._union_trail
        if len(trail) > unions:
            parent = self._parent
            size = self._size
            while len(trail) > unions:
                root = trail.pop()
                attached_to = parent.pop(root)
                size[attached_to] -= size.get(root, 1)
            # Congruence merges after the mark were popped with everything
            # else; a later query must re-close the prefix.
            self._dirty = True
            self._rebuilt_size = -1
            self.version += 1
        if len(self._disequalities) > disequalities:
            del self._disequalities[disequalities:]
            self.version += 1

    # -- assertions ----------------------------------------------------------

    def assert_equal(self, a: int, b: int) -> None:
        """Assert that the two terms are equal."""
        self._union(a, b)

    def assert_distinct(self, a: int, b: int) -> None:
        """Assert that the two terms are distinct."""
        self._disequalities.append((a, b))
        self.version += 1

    # -- queries -------------------------------------------------------------

    def is_consistent(self) -> bool:
        """Do the asserted disequalities hold under the closure?

        Terms may have been interned (e.g. while asserting a disequality)
        after the last equality assertion, so congruence is re-established
        before checking — the result must not depend on assertion order.
        """
        self._rebuild_congruence()
        find = self._find
        return all(find(a) != find(b) for a, b in self._disequalities)

    def inconsistent_disequality(self) -> Optional[Tuple[int, int]]:
        """A violated disequality, if any (after re-closing congruence)."""
        self._rebuild_congruence()
        find = self._find
        for a, b in self._disequalities:
            if find(a) == find(b):
                return (a, b)
        return None

    def classes(self) -> Dict[int, Set[int]]:
        """The current partition of all interned terms into classes."""
        self._rebuild_congruence()
        result: Dict[int, Set[int]] = {}
        for term_id in self.bank.all_ids():
            result.setdefault(self._find(term_id), set()).add(term_id)
        return result

    # -- congruence ----------------------------------------------------------

    def close_over(self, app_ids: Iterable[int]) -> None:
        """Re-establish congruence over exactly the given application terms.

        Incremental users call this with the *live* applications (those
        referenced by currently asserted literals) so the fixpoint loop
        never scans the persistent bank's dead terms.  Queries made before
        the next assertion or undo then see the closed state.
        """
        self._close(list(app_ids))
        self._dirty = False
        self._rebuilt_size = len(self.bank)

    def _rebuild_congruence(self) -> None:
        """Merge classes until congruence is a fixpoint over the whole bank.

        The term banks in one-shot refinement queries hold at most a few
        hundred terms, so the quadratic fixpoint loop is plenty fast.  The
        loop is skipped entirely when no union happened and no term was
        interned since the last rebuild.
        """
        if not self._dirty and self._rebuilt_size == len(self.bank):
            return
        apps = [t for t in self.bank.all_ids() if self.bank.term(t)[0] == "app"]
        self._close(apps)
        self._dirty = False
        self._rebuilt_size = len(self.bank)

    def _close(self, apps: List[int]) -> None:
        find = self._find
        bank_term = self.bank.term
        changed = True
        while changed:
            changed = False
            signature: Dict[Tuple, int] = {}
            for term_id in apps:
                term = bank_term(term_id)
                key = (term[1],) + tuple(find(arg) for arg in term[2:])
                other = signature.get(key)
                if other is None:
                    signature[key] = term_id
                elif find(other) != find(term_id):
                    self._union(other, term_id)
                    changed = True
