"""The package version, resolved once per process.

The single source of truth is ``pyproject.toml``.  From a source checkout
(``PYTHONPATH=src``) the ``pyproject.toml`` two directories up is read
with plain ``os``/``open``, loading neither :mod:`importlib.metadata`
(whose distribution scan costs far more) nor :mod:`pathlib`; an installed
package has none there, and its metadata answers.  ``python -m repro
--version`` and the service's ``/healthz`` endpoint report the same
string.  The version also salts every cache key (see
:mod:`repro.service.cache`), so bumping it invalidates every persisted
result.
"""

from __future__ import annotations

import functools
import os
import re

PACKAGE_NAME = "repro-synquid"

_VERSION_RE = re.compile(r'^version\s*=\s*"(?P<version>[^"]+)"\s*$', re.M)


@functools.lru_cache(maxsize=None)
def package_version() -> str:
    """The version string, from ``pyproject.toml`` or installed metadata."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.realpath(__file__))))
    try:
        with open(os.path.join(root, "pyproject.toml")) as handle:
            match = _VERSION_RE.search(handle.read())
    except OSError:
        match = None
    if match:
        return match.group("version")
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version(PACKAGE_NAME)
    except PackageNotFoundError:
        return "0+unknown"
