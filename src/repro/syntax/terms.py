"""Program terms (Fig. 2 of the paper).

The paper splits terms into *elimination* terms ``E`` (variables and
applications — terms whose type is inferred) and *introduction* terms ``I``
(lambdas, conditionals, matches, fixpoints — terms checked against a goal
type).  The round-trip enumerator of Sec. 4 leans on that split; here it
drives the bidirectional checker's mode choice.

.. code-block:: text

    E ::= x | c | E E
    I ::= E | \\x . I | if E then I else I | match E with alts | fix f . I

``Match`` scrutinizes a datatype value: each :class:`MatchCase` names a
constructor and binds its arguments.  ``Fix`` introduces recursion; the
checker types the recursive occurrence at a signature strengthened with a
lexicographic termination metric (see
:mod:`repro.typecheck.checker`).
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from ..value import Value
from .types import RType


class Term(Value):
    """Base class of program terms."""

    __slots__ = ()

    def is_e_term(self) -> bool:
        """Is this an elimination term (type can be inferred)?"""
        return isinstance(self, (VarTerm, IntConst, BoolConst, AppTerm, Annot))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return pretty_term(self)


class VarTerm(Term):
    """A program variable occurrence."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def _fields(self) -> Tuple:
        return (self.name,)


class IntConst(Term):
    """An integer constant."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def _fields(self) -> Tuple:
        return (self.value,)


class BoolConst(Term):
    """A boolean constant."""

    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        self.value = value

    def _fields(self) -> Tuple:
        return (self.value,)


class AppTerm(Term):
    """Application ``fun arg`` (curried, one argument at a time)."""

    __slots__ = ("fun", "arg")

    def __init__(self, fun: Term, arg: Term) -> None:
        self.fun = fun
        self.arg = arg

    def _fields(self) -> Tuple:
        return (self.fun, self.arg)


class LambdaTerm(Term):
    """Abstraction ``\\arg_name . body``."""

    __slots__ = ("arg_name", "body")

    def __init__(self, arg_name: str, body: Term) -> None:
        self.arg_name = arg_name
        self.body = body

    def _fields(self) -> Tuple:
        return (self.arg_name, self.body)


class IfTerm(Term):
    """Conditional ``if cond then then_ else else_``."""

    __slots__ = ("cond", "then_", "else_")

    def __init__(self, cond: Term, then_: Term, else_: Term) -> None:
        self.cond = cond
        self.then_ = then_
        self.else_ = else_

    def _fields(self) -> Tuple:
        return (self.cond, self.then_, self.else_)


class LetTerm(Term):
    """``let name = value in body`` (monomorphic let)."""

    __slots__ = ("name", "value", "body")

    def __init__(self, name: str, value: Term, body: Term) -> None:
        self.name = name
        self.value = value
        self.body = body

    def _fields(self) -> Tuple:
        return (self.name, self.value, self.body)


class MatchCase(Term):
    """One alternative ``C x1 ... xk -> body`` of a match."""

    __slots__ = ("constructor", "binders", "body")

    def __init__(self, constructor: str, binders: Tuple[str, ...], body: Term) -> None:
        self.constructor = constructor
        self.binders = binders
        self.body = body

    def _fields(self) -> Tuple:
        return (self.constructor, self.binders, self.body)


class MatchTerm(Term):
    """``match scrutinee with cases`` over a datatype value."""

    __slots__ = ("scrutinee", "cases")

    def __init__(self, scrutinee: Term, cases: Tuple[MatchCase, ...]) -> None:
        self.scrutinee = scrutinee
        self.cases = cases

    def _fields(self) -> Tuple:
        return (self.scrutinee, self.cases)


class FixTerm(Term):
    """``fix name . body`` — recursion, checked with termination metrics."""

    __slots__ = ("name", "body")

    def __init__(self, name: str, body: Term) -> None:
        self.name = name
        self.body = body

    def _fields(self) -> Tuple:
        return (self.name, self.body)


class Annot(Term):
    """A term with a type ascription ``(term :: rtype)``."""

    __slots__ = ("term", "rtype")

    def __init__(self, term: Term, rtype: RType) -> None:
        self.term = term
        self.rtype = rtype

    def _fields(self) -> Tuple:
        return (self.term, self.rtype)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def v(name: str) -> VarTerm:
    """A variable occurrence."""
    return VarTerm(name)


def lit(value: "int | bool") -> Term:
    """An integer or boolean constant."""
    if isinstance(value, bool):
        return BoolConst(value)
    return IntConst(value)


def app(fun: Term, *args: Term) -> Term:
    """Curried application of ``fun`` to one or more arguments."""
    if not args:
        raise ValueError("app needs at least one argument")
    result = fun
    for arg in args:
        result = AppTerm(result, arg)
    return result


def lam(*arg_names: str, body: Optional[Term] = None) -> Term:
    """Nested lambdas: ``lam("x", "y", body=e)`` is ``\\x . \\y . e``."""
    if body is None:
        raise ValueError("lam needs a body")
    result = body
    for name in reversed(arg_names):
        result = LambdaTerm(name, result)
    return result


def if_(cond: Term, then_: Term, else_: Term) -> IfTerm:
    """A conditional."""
    return IfTerm(cond, then_, else_)


def let(name: str, value: Term, body: Term) -> LetTerm:
    """A monomorphic let binding."""
    return LetTerm(name, value, body)


def annot(term: Term, rtype: RType) -> Annot:
    """A type ascription."""
    return Annot(term, rtype)


def term_free_names(term: Term) -> Set[str]:
    """The program variables occurring free in a term."""
    if isinstance(term, VarTerm):
        return {term.name}
    if isinstance(term, (IntConst, BoolConst)):
        return set()
    if isinstance(term, AppTerm):
        return term_free_names(term.fun) | term_free_names(term.arg)
    if isinstance(term, LambdaTerm):
        return term_free_names(term.body) - {term.arg_name}
    if isinstance(term, IfTerm):
        return term_free_names(term.cond) | term_free_names(term.then_) | term_free_names(
            term.else_
        )
    if isinstance(term, LetTerm):
        return term_free_names(term.value) | (term_free_names(term.body) - {term.name})
    if isinstance(term, MatchCase):
        return term_free_names(term.body) - set(term.binders)
    if isinstance(term, MatchTerm):
        result = term_free_names(term.scrutinee)
        for case in term.cases:
            result |= term_free_names(case)
        return result
    if isinstance(term, FixTerm):
        return term_free_names(term.body) - {term.name}
    if isinstance(term, Annot):
        return term_free_names(term.term)
    raise TypeError(f"unknown term node: {term!r}")


# ---------------------------------------------------------------------------
# pretty printing
# ---------------------------------------------------------------------------


def _extends_right(term: Term) -> bool:
    """Would more input to the right be swallowed by this term when parsed?

    A match's case list keeps consuming ``| C ... -> ...`` alternatives, so
    any term whose rightmost leaf is an (unparenthesized) match must be
    wrapped in parentheses when printed inside another match's case.
    """
    if isinstance(term, MatchTerm):
        return True
    if isinstance(term, (LambdaTerm, FixTerm)):
        return _extends_right(term.body)
    if isinstance(term, IfTerm):
        return _extends_right(term.else_)
    if isinstance(term, LetTerm):
        return _extends_right(term.body)
    return False


#: Term forms that must be parenthesized in application position.
_NON_ATOMIC = (AppTerm, LambdaTerm, IfTerm, LetTerm, MatchTerm, FixTerm)


def pretty_term(term: Term) -> str:
    """Render a term in surface syntax (re-parseable by ``parse_term``)."""
    if isinstance(term, VarTerm):
        return term.name
    if isinstance(term, IntConst):
        return str(term.value)
    if isinstance(term, BoolConst):
        return "True" if term.value else "False"
    if isinstance(term, AppTerm):
        fun = pretty_term(term.fun)
        if isinstance(term.fun, (LambdaTerm, IfTerm, LetTerm, MatchTerm, FixTerm)):
            fun = f"({fun})"
        arg = pretty_term(term.arg)
        if isinstance(term.arg, _NON_ATOMIC):
            arg = f"({arg})"
        return f"{fun} {arg}"
    if isinstance(term, LambdaTerm):
        return f"\\{term.arg_name} . {pretty_term(term.body)}"
    if isinstance(term, IfTerm):
        return (
            f"if {pretty_term(term.cond)} "
            f"then {pretty_term(term.then_)} "
            f"else {pretty_term(term.else_)}"
        )
    if isinstance(term, LetTerm):
        return f"let {term.name} = {pretty_term(term.value)} in {pretty_term(term.body)}"
    if isinstance(term, MatchCase):
        binders = "".join(f" {binder}" for binder in term.binders)
        body = pretty_term(term.body)
        if _extends_right(term.body):
            body = f"({body})"
        return f"{term.constructor}{binders} -> {body}"
    if isinstance(term, MatchTerm):
        scrutinee = pretty_term(term.scrutinee)
        if isinstance(term.scrutinee, (LambdaTerm, IfTerm, LetTerm, MatchTerm, FixTerm)):
            scrutinee = f"({scrutinee})"
        cases = " | ".join(pretty_term(case) for case in term.cases)
        return f"match {scrutinee} with {cases}"
    if isinstance(term, FixTerm):
        return f"fix {term.name} . {pretty_term(term.body)}"
    if isinstance(term, Annot):
        return f"({pretty_term(term.term)} :: {term.rtype!r})"
    raise TypeError(f"unknown term node: {term!r}")
