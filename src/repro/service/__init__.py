"""Synthesis as a service: persistent server, result cache, batch mode.

The seventh layer of the stack (see ``docs/architecture.md``): everything
below — parser, typechecker, Horn solver, SMT stack, synthesizer — is a
pure function from a program to a result, so results can be
content-addressed and computed behind a long-running front.  This package
provides the three pieces:

- :mod:`repro.service.cache` — the persistent content-addressed store
  of query results, keyed by program digest.
- :mod:`repro.service.worker` — :class:`WarmStack`, the lock that runs
  queries one at a time and counts the ones that raised; every query
  builds and frees its own solvers.
- :mod:`repro.service.api` — ``check``/``synth`` as payload-returning
  queries, the layer the CLI, the HTTP server
  (:mod:`repro.service.server`) and the batch pipeline
  (:mod:`repro.service.batch`) all render from.

Import the submodule you use: the package loads none of them.  The
default cache location lives here so the CLI's help can name it without
loading the cache.
"""

import os

#: Default location, overridable per invocation (``--cache-dir``) or via
#: the ``REPRO_CACHE_DIR`` environment variable.
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> str:
    """The cache directory the CLI verbs use unless told otherwise.  An
    empty ``REPRO_CACHE_DIR`` counts as unset: it would name the working
    directory."""
    return os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
