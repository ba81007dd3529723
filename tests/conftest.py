"""Fixtures shared by the service tests."""

import weakref

import pytest

from repro.smt.solver import IncrementalSolver


@pytest.fixture
def solvers_made(monkeypatch):
    """Weak references to every :class:`IncrementalSolver` built from now on."""
    made = []
    init = IncrementalSolver.__init__

    def tracking(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(IncrementalSolver, "__init__", tracking)
    return made
