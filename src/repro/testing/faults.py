"""Fault injection: named failure points the chaos suite can arm.

Production code hosts *injection points* — one :func:`maybe_fire` call at
each place the robustness layer claims to survive: a cache entry
corrupting mid-read, a theory check raising, a warm stack stalling past
its deadline.  Disarmed (the default, and the only state outside the
chaos tests) a point is a dict lookup against an empty table plus, on
first use per process, one environment read — nothing fires, nothing
allocates.

Arming is either programmatic (:func:`arm`, for same-process tests) or
via the ``REPRO_FAULTS`` environment variable (``point`` or
``point:count``, comma-separated), which arms a process started from a
shell, such as ``python -m repro serve``.  Each armed point fires
``count`` times (default 1) per process, then stays quiet, so a chaos
test can fail exactly one query and assert the rest of the run degrades
rather than dies.

The effect lives at the call site (the point only answers "should I fail
here, now?"): flipping a corrupt bit, stalling, raising
:class:`FaultInjected`.  That keeps this module dependency-free and the
injection points one honest line each.
"""

from __future__ import annotations

import os
from typing import Dict

FAULTS_ENV = "REPRO_FAULTS"

#: Remaining fires per armed point (process-local).
_armed: Dict[str, int] = {}
_env_loaded = False


class FaultInjected(RuntimeError):
    """The failure an armed point raises when its effect is "raise"."""


def _load_env() -> None:
    """Fold ``REPRO_FAULTS`` into the armed table once per process."""
    global _env_loaded
    if _env_loaded:
        return
    _env_loaded = True
    spec = os.environ.get(FAULTS_ENV, "")
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        point, _, count = part.partition(":")
        try:
            times = int(count) if count else 1
        except ValueError:
            times = 1
        _armed[point] = _armed.get(point, 0) + times


def arm(point: str, times: int = 1) -> None:
    """Arm ``point`` to fire ``times`` more times in this process."""
    _load_env()
    _armed[point] = _armed.get(point, 0) + times


def reset() -> None:
    """Disarm everything (chaos-test teardown); the environment is
    re-read on next use so ``monkeypatch.setenv`` keeps working."""
    global _env_loaded
    _armed.clear()
    _env_loaded = False


def maybe_fire(point: str) -> bool:
    """Consume one charge of ``point`` if armed; the caller performs the
    actual failure when this returns ``True``."""
    if not _env_loaded:
        _load_env()
    left = _armed.get(point, 0)
    if left <= 0:
        return False
    _armed[point] = left - 1
    return True
