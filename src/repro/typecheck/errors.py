"""Typed errors raised by the refinement type checker.

Every error carries enough provenance to name the program location.  A
refinement-level failure is not raised: ``TypecheckSession.solve`` returns
it as a :class:`~repro.horn.HornSolution` naming the refuted obligation,
e.g. ``subtyping obligation failed at max / if / then-branch: ... ==> ...``.
"""

from __future__ import annotations


class TypecheckError(TypeError):
    """Base class of all checker failures."""


class ShapeError(TypecheckError):
    """The simple-type skeletons of two types do not match (e.g. an arrow
    where a scalar is required)."""


class WellFormednessError(TypecheckError):
    """A refinement is ill-sorted or mentions out-of-scope variables."""


class UnsupportedTermError(TypecheckError):
    """A term form whose typing rule is not implemented.

    No current term form triggers this — match and fix elaborated in the
    datatypes PR — but the class stays exported for surface extensions
    (e.g. intersection-typed terms, see ROADMAP) and their callers.
    """


class MatchError(TypecheckError):
    """An ill-formed match: non-datatype scrutinee, unknown constructor,
    wrong binder count, or a non-exhaustive case list."""


class TerminationError(TypecheckError):
    """A ``fix`` whose termination cannot be established: no argument has
    a well-founded metric, or the body does not bind the decreasing
    arguments with lambdas."""
