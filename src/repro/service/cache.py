"""The persistent content-addressed result cache.

Every service query — ``check`` or ``synth`` over a parsed ``.sq``
program — is keyed by a *stable digest*: the SHA-256 of the program's
canonical pretty-printed form (declarations, signatures, definitions and
goals re-rendered from the interned formulas, so whitespace, comments and
formula interning order cannot perturb the key), the verb, the solver
options, and a schema/version salt.  Two processes that parse the same
program — in any order, under any ``PYTHONHASHSEED`` — derive the same
key; bumping :data:`CACHE_SCHEMA_VERSION` (or the package version)
invalidates every persisted entry at once, because old entries simply
stop being addressed.

Entries are JSON files under ``<cache_dir>/objects/<digest[:2]>/``,
written atomically (temp file + rename) and validated on read: a
corrupted or schema-mismatched entry is treated as a miss, counted, and
deleted so it can be recomputed.  The cache never changes *what* a query
answers — payloads are exactly the structures a fresh computation
produces, so serial CLI output is byte-identical with and without it —
only how fast.  Eviction is size-bounded: when ``max_entries`` is
exceeded the oldest entries (by file modification time) are dropped.
The cache counts its entries once when it opens and keeps the count as it
writes, evicts and drops entries, so a write lists the directory only
when the count passes the limit; a directory shared by several processes
is trimmed when this process's count passes the limit.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Dict, List, Optional

from ..syntax.datatypes import pretty_datatype, pretty_measure
from ..syntax.parser import Program
from ..syntax.terms import pretty_term
from ..syntax.types import pretty_type
from ..testing import faults
from ..version import package_version
from . import default_cache_dir

#: Bump to invalidate every persisted cache entry (schema salt).
#: v2: synth payload statistics gained ``depth_reached``.
#: v3: ``workers`` left the check and synth option sets.
CACHE_SCHEMA_VERSION = 3


def canonical_program_text(program: Program) -> str:
    """The program re-rendered from its parsed (interned) form.

    Declaration kinds are emitted in a fixed order but *within* a kind the
    file order is kept: signature order is semantically significant (the
    ``check`` component environment binds earlier signatures only), so two
    programs that differ in it must not share a key.
    """
    lines: List[str] = []
    for datatype in program.datatypes.values():
        lines.append(pretty_datatype(datatype))
    for measure in program.measures.values():
        lines.append(pretty_measure(measure))
    for name, rtype in program.signatures.items():
        lines.append(f"{name} :: {pretty_type(rtype)}")
    for name, term in program.definitions.items():
        lines.append(f"{name} = {pretty_term(term)}")
    for name in program.goals:
        lines.append(f"{name} = ??")
    return "\n".join(lines)


def program_digest(program: Program) -> str:
    """The content address of a program alone, without verb or options."""
    return hashlib.sha256(canonical_program_text(program).encode()).hexdigest()


def query_digest(verb: str, program: Program, options: Dict[str, object]) -> str:
    """The full cache key of one query: program + verb + options + salt."""
    payload = "\n\x00".join(
        (
            f"repro-cache/v{CACHE_SCHEMA_VERSION}/{package_version()}",
            verb,
            json.dumps(options, sort_keys=True),
            canonical_program_text(program),
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """Content-addressed result store with hit/miss/evict counters.

    Thread-safe: the service's batch pipeline and the threaded HTTP server
    share one instance across workers.
    """

    def __init__(self, root: os.PathLike, max_entries: int = 4096) -> None:
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.corrupt = 0
        self._lock = threading.Lock()
        self.objects.mkdir(parents=True, exist_ok=True)
        #: entries on disk as this process knows them (guarded by _lock)
        self._entries = len(self._listing())

    # -- result objects ------------------------------------------------------

    def _path(self, digest: str) -> Path:
        return self.objects / digest[:2] / f"{digest}.json"

    def _listing(self) -> List[Path]:
        return list(self.objects.glob("*/*.json"))

    def get(self, digest: str) -> Optional[dict]:
        """The stored payload for ``digest``, or ``None`` on a miss.

        A file that cannot be parsed, or whose recorded schema/digest does
        not match, counts as corrupt: it is removed and reported as a miss
        so the caller recomputes (and rewrites) the entry.
        """
        path = self._path(digest)
        try:
            entry = json.loads(path.read_text())
            if faults.maybe_fire("cache.corrupt-read"):
                raise ValueError("injected: cache entry corrupted mid-read")
            payload = entry["payload"]
            ok = entry["schema"] == CACHE_SCHEMA_VERSION and entry["digest"] == digest
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            ok, payload = False, None
        if not ok:
            with self._lock:
                self.corrupt += 1
                self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            else:
                with self._lock:
                    self._entries -= 1
            return None
        with self._lock:
            self.hits += 1
        return payload

    def put(self, digest: str, payload: dict) -> None:
        """Persist ``payload`` under ``digest`` (atomic write + eviction)."""
        path = self._path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = json.dumps(
            {"schema": CACHE_SCHEMA_VERSION, "digest": digest, "payload": payload},
            sort_keys=True,
        )
        created = not path.exists()
        _atomic_write(path, body.encode())
        with self._lock:
            self.puts += 1
            if created:
                self._entries += 1
            if self._entries > self.max_entries:
                self._evict_overflow()

    def _evict_overflow(self) -> None:
        """Drop the oldest entries down to ``max_entries`` and recount from
        the listing (called with ``_lock`` held)."""
        entries = sorted(self._listing(), key=lambda p: (p.stat().st_mtime, p.name))
        self._entries = len(entries)
        for path in entries[: max(0, len(entries) - self.max_entries)]:
            try:
                path.unlink()
            except OSError:
                continue
            self._entries -= 1
            self.evictions += 1

    # -- reporting -----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """The counters every surface (``/stats``, batch summary) reports."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "evictions": self.evictions,
                "corrupt": self.corrupt,
                "entries": len(self._listing()),
            }


def _atomic_write(path: Path, data: bytes) -> None:
    handle, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-")
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def open_cache(cache_dir: Optional[str], enabled: bool = True) -> Optional[ResultCache]:
    """The result cache a CLI verb or server should use.

    ``enabled=False`` (``--no-cache``) yields ``None``: callers treat a
    ``None`` cache as compute-always, which is exactly the fresh path —
    the differential guarantee that cached and uncached runs agree falls
    out of rendering both from the same payload structures.
    """
    if not enabled:
        return None
    return ResultCache(Path(cache_dir if cache_dir is not None else default_cache_dir()))
