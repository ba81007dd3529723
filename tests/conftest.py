"""Fixtures shared by the test modules."""

import gc
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


@pytest.fixture
def refcount_only():
    """The cyclic collector off for the test: what the test builds must be
    freed by reference counting alone, so a liveness check needs no
    ``gc.collect()`` and gives the same answer on every run."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.fixture(params=["refinement", "type", "term"])
def deeply_nested(request):
    """A program nesting 2000 parentheses — past the interpreter's recursion
    limit — in a refinement, a type or a term, and the offset at which the
    declaration that nests starts."""
    opened, closed = "(" * 2000, ")" * 2000
    if request.param == "refinement":
        return f"f :: {{Int | {opened}nu{closed} > 0}}\n", 0
    if request.param == "type":
        return f"f :: {opened}Int{closed}\n", 0
    signature = "f :: Int\n"
    return f"{signature}f = {opened}0{closed}\n", len(signature)


@pytest.fixture
def curried_program():
    """``curried_program(n)``: the source of an ``n``-argument ``f`` whose
    definition nests ``n`` lambdas.  It parses at any ``n``, but checking
    600 arguments overflows the interpreter's stack, and 300 does not."""

    def make(arity):
        binders = [f"a{index}" for index in range(arity)]
        signature = " -> ".join(f"{name}:Int" for name in binders)
        lambdas = " ".join(f"\\{name} ." for name in binders)
        return f"f :: {signature} -> Int\nf = {lambdas} 0\n"

    return make
