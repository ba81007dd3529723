"""Refinement types of the program language (Fig. 2 of the paper).

The grammar distinguishes *base types* from *types*:

.. code-block:: text

    B ::= Int | Bool | D T1 ... Tk | alpha          (base types)
    T ::= {B | psi} | x:T -> T                      (scalar / dependent arrow)
    S ::= T | forall alpha. S | forall P :: Δ. S    (type schemas)

A scalar type ``{B | psi}`` refines the base ``B`` with a formula over the
program variables in scope and the value variable ``nu``; an arrow
``x:T1 -> T2`` binds ``x`` in the refinements of ``T2`` (dependent
function types).  Schemas add type polymorphism and *predicate
polymorphism*: a quantified predicate variable ``P`` of signature ``Δ``
stands for an unknown refinement, instantiated by the type checker with a
fresh :class:`~repro.logic.formulas.Unknown` whose valuation the Horn
solver discovers.

Contextual types ``<x1:T1, ...; T>`` (Sec. 3.2) package a type together
with bindings for fresh variables its refinements mention — the checker
produces them when the result of a dependent application names an argument
that is not a pure variable.

All nodes are immutable; :func:`substitute_in_type` is the capture-avoiding
substitution on refinements used by dependent application.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Set, Tuple, Union

from ..logic import ops
from ..logic.formulas import TRUE, VALUE_VAR, Formula, Unknown, Var, is_true
from ..logic.sorts import BOOL, INT, Sort, UninterpretedSort, VarSort
from ..logic.substitution import substitute
from ..logic.transform import free_vars, transform
from ..value import Value

# ---------------------------------------------------------------------------
# base types
# ---------------------------------------------------------------------------


class BaseType(Value):
    """Base class of base types ``B``."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return pretty_base(self)


class IntBase(BaseType):
    """The base type ``Int``."""

    __slots__ = ()


class BoolBase(BaseType):
    """The base type ``Bool``."""

    __slots__ = ()


class DataBase(BaseType):
    """A datatype ``D T1 ... Tk`` applied to refinement-type arguments."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Tuple["RType", ...] = ()) -> None:
        self.name = name
        self.args = args

    def _fields(self) -> Tuple:
        return (self.name, self.args)


class TypeVarBase(BaseType):
    """A type variable ``alpha``."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def _fields(self) -> Tuple:
        return (self.name,)


INT_BASE = IntBase()
BOOL_BASE = BoolBase()


def base_sort(base: BaseType) -> Sort:
    """The refinement-logic sort of values of a base type."""
    if isinstance(base, IntBase):
        return INT
    if isinstance(base, BoolBase):
        return BOOL
    if isinstance(base, TypeVarBase):
        return VarSort(base.name)
    if isinstance(base, DataBase):
        return UninterpretedSort(
            base.name,
            tuple(base_sort(arg.base) for arg in base.args if isinstance(arg, ScalarType)),
        )
    raise TypeError(f"unknown base type: {base!r}")


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


class RType(Value):
    """Base class of refinement types ``T``."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return pretty_type(self)


class ScalarType(RType):
    """A refined base type ``{B | psi}``; ``psi`` mentions ``nu``."""

    __slots__ = ("base", "refinement")

    def __init__(self, base: BaseType, refinement: Formula = TRUE) -> None:
        self.base = base
        self.refinement = refinement

    def _fields(self) -> Tuple:
        return (self.base, self.refinement)

    @property
    def sort(self) -> Sort:
        """The sort of the value variable of this scalar."""
        return base_sort(self.base)


class FunctionType(RType):
    """A dependent arrow ``x:T1 -> T2``; ``x`` scopes over ``T2``."""

    __slots__ = ("arg_name", "arg_type", "result_type")

    def __init__(self, arg_name: str, arg_type: RType, result_type: RType) -> None:
        self.arg_name = arg_name
        self.arg_type = arg_type
        self.result_type = result_type

    def _fields(self) -> Tuple:
        return (self.arg_name, self.arg_type, self.result_type)


class ContextualType(RType):
    """``<bindings; body>``: a type whose refinements mention the bound
    fresh variables (Sec. 3.2).  Bindings are ordered and dependent: each
    binding's type may mention the variables bound before it."""

    __slots__ = ("bindings", "body")

    def __init__(self, bindings: Tuple[Tuple[str, RType], ...], body: RType) -> None:
        self.bindings = bindings
        self.body = body

    def _fields(self) -> Tuple:
        return (self.bindings, self.body)


def int_type(refinement: Formula = TRUE) -> ScalarType:
    """The scalar ``{Int | refinement}``."""
    return ScalarType(INT_BASE, refinement)


def bool_type(refinement: Formula = TRUE) -> ScalarType:
    """The scalar ``{Bool | refinement}``."""
    return ScalarType(BOOL_BASE, refinement)


def data_type(name: str, args: Iterable[RType] = (), refinement: Formula = TRUE) -> ScalarType:
    """The scalar ``{D T1 ... Tk | refinement}``."""
    return ScalarType(DataBase(name, tuple(args)), refinement)


def type_var(name: str, refinement: Formula = TRUE) -> ScalarType:
    """The scalar ``{alpha | refinement}``."""
    return ScalarType(TypeVarBase(name), refinement)


def arrow(arg_name: str, arg_type: RType, result_type: RType) -> FunctionType:
    """The dependent arrow ``arg_name:arg_type -> result_type``."""
    return FunctionType(arg_name, arg_type, result_type)


def shape(rtype: RType) -> RType:
    """Erase every refinement, keeping the simple-type skeleton."""
    if isinstance(rtype, ScalarType):
        base = rtype.base
        if isinstance(base, DataBase):
            base = DataBase(base.name, tuple(shape(arg) for arg in base.args))
        return ScalarType(base, TRUE)
    if isinstance(rtype, FunctionType):
        return FunctionType(rtype.arg_name, shape(rtype.arg_type), shape(rtype.result_type))
    if isinstance(rtype, ContextualType):
        return shape(rtype.body)
    raise TypeError(f"unknown type node: {rtype!r}")


def same_shape(lhs: RType, rhs: RType) -> bool:
    """Do two types share a simple-type skeleton (up to type variables and
    binder names)?"""
    if isinstance(lhs, ContextualType):
        return same_shape(lhs.body, rhs)
    if isinstance(rhs, ContextualType):
        return same_shape(lhs, rhs.body)
    if isinstance(lhs, ScalarType) and isinstance(rhs, ScalarType):
        if isinstance(lhs.base, TypeVarBase) or isinstance(rhs.base, TypeVarBase):
            return True
        if isinstance(lhs.base, DataBase) and isinstance(rhs.base, DataBase):
            return lhs.base.name == rhs.base.name and len(lhs.base.args) == len(rhs.base.args)
        return type(lhs.base) is type(rhs.base)
    if isinstance(lhs, FunctionType) and isinstance(rhs, FunctionType):
        return same_shape(lhs.arg_type, rhs.arg_type) and same_shape(
            lhs.result_type, rhs.result_type
        )
    return False


# ---------------------------------------------------------------------------
# substitution on refinements (dependent application)
# ---------------------------------------------------------------------------


def type_free_vars(rtype: RType) -> Set[str]:
    """Variables free in the refinements of a type (binders excluded)."""
    if isinstance(rtype, ScalarType):
        result = free_vars(rtype.refinement) - {VALUE_VAR}
        if isinstance(rtype.base, DataBase):
            for arg in rtype.base.args:
                result |= type_free_vars(arg)
        return result
    if isinstance(rtype, FunctionType):
        result = type_free_vars(rtype.arg_type)
        result |= type_free_vars(rtype.result_type) - {rtype.arg_name}
        return result
    if isinstance(rtype, ContextualType):
        result: Set[str] = set()
        bound: Set[str] = set()
        for name, bound_type in rtype.bindings:
            result |= type_free_vars(bound_type) - bound
            bound.add(name)
        return result | (type_free_vars(rtype.body) - bound)
    raise TypeError(f"unknown type node: {rtype!r}")


def _fresh_binder(name: str, avoid: Set[str]) -> str:
    candidate = name
    while candidate in avoid:
        candidate += "'"
    return candidate


def _binder_var(name: str, arg_type: RType) -> Optional[Var]:
    """The logical variable an arrow binder contributes to refinements.

    Only scalar-typed binders occur in refinements; function-typed binders
    are invisible to the logic.
    """
    if isinstance(arg_type, ScalarType):
        return Var(name, arg_type.sort)
    return None


def substitute_in_type(rtype: RType, mapping: Mapping[str, Formula]) -> RType:
    """Capture-avoiding substitution of variables inside a type's refinements.

    The value variable is never substituted (each scalar rebinds it), and
    arrow binders both shadow the mapping and are alpha-renamed when a
    mapping value would otherwise capture them — the case the paper hits in
    dependent application ``T2[e/x]`` when the callee reuses a name the
    caller also has in scope.
    """
    live = {name: value for name, value in mapping.items() if name != VALUE_VAR}
    if not live:
        return rtype
    if isinstance(rtype, ScalarType):
        base = rtype.base
        if isinstance(base, DataBase):
            base = DataBase(
                base.name,
                tuple(substitute_in_type(arg, live) for arg in base.args),
            )
        return ScalarType(base, substitute(rtype.refinement, live))
    if isinstance(rtype, FunctionType):
        arg_type = substitute_in_type(rtype.arg_type, live)
        inner = {k: v for k, v in live.items() if k != rtype.arg_name}
        arg_name = rtype.arg_name
        result_type = rtype.result_type
        captured = any(arg_name in free_vars(value) for value in inner.values())
        if captured:
            avoid = type_free_vars(result_type) | set(inner)
            for value in inner.values():
                avoid |= free_vars(value)
            renamed = _fresh_binder(arg_name, avoid)
            binder = _binder_var(arg_name, rtype.arg_type)
            if binder is not None:
                result_type = substitute_in_type(
                    result_type, {arg_name: Var(renamed, binder.var_sort)}
                )
            arg_name = renamed
        return FunctionType(arg_name, arg_type, substitute_in_type(result_type, inner))
    if isinstance(rtype, ContextualType):
        bindings = []
        inner = dict(live)
        for name, bound_type in rtype.bindings:
            bindings.append((name, substitute_in_type(bound_type, inner)))
            inner.pop(name, None)
        return ContextualType(tuple(bindings), substitute_in_type(rtype.body, inner))
    raise TypeError(f"unknown type node: {rtype!r}")


def rename_predicates(rtype: RType, mapping: Mapping[str, str]) -> RType:
    """Rename predicate unknowns inside a type's refinements."""

    def rename(formula: Formula) -> Formula:
        def replace(node: Formula) -> Formula:
            if isinstance(node, Unknown) and node.name in mapping:
                return Unknown(mapping[node.name], node.substitution)
            return node

        return transform(formula, replace)

    if isinstance(rtype, ScalarType):
        base = rtype.base
        if isinstance(base, DataBase):
            base = DataBase(
                base.name,
                tuple(rename_predicates(arg, mapping) for arg in base.args),
            )
        return ScalarType(base, rename(rtype.refinement))
    if isinstance(rtype, FunctionType):
        return FunctionType(
            rtype.arg_name,
            rename_predicates(rtype.arg_type, mapping),
            rename_predicates(rtype.result_type, mapping),
        )
    if isinstance(rtype, ContextualType):
        return ContextualType(
            tuple((name, rename_predicates(bound, mapping)) for name, bound in rtype.bindings),
            rename_predicates(rtype.body, mapping),
        )
    raise TypeError(f"unknown type node: {rtype!r}")


def subst_type_vars(rtype: RType, mapping: Mapping[str, RType]) -> RType:
    """Substitute type variables by types, conjoining refinements.

    ``{alpha | psi}[T/alpha]`` with ``T = {B | phi}`` is ``{B | phi && psi}``
    — the paper's refinement-preserving type-variable instantiation.
    """
    if not mapping:
        return rtype
    if isinstance(rtype, ScalarType):
        base = rtype.base
        if isinstance(base, TypeVarBase) and base.name in mapping:
            target = mapping[base.name]
            if isinstance(target, ScalarType):
                return ScalarType(target.base, ops.and_(target.refinement, rtype.refinement))
            if is_true(rtype.refinement):
                return target
            raise TypeError(
                f"cannot refine type variable {base.name} instantiated with "
                f"the function type {target!r}"
            )
        if isinstance(base, DataBase):
            base = DataBase(
                base.name,
                tuple(subst_type_vars(arg, mapping) for arg in base.args),
            )
        return ScalarType(base, rtype.refinement)
    if isinstance(rtype, FunctionType):
        return FunctionType(
            rtype.arg_name,
            subst_type_vars(rtype.arg_type, mapping),
            subst_type_vars(rtype.result_type, mapping),
        )
    if isinstance(rtype, ContextualType):
        return ContextualType(
            tuple((name, subst_type_vars(bound, mapping)) for name, bound in rtype.bindings),
            subst_type_vars(rtype.body, mapping),
        )
    raise TypeError(f"unknown type node: {rtype!r}")


# ---------------------------------------------------------------------------
# type schemas (type and predicate polymorphism)
# ---------------------------------------------------------------------------


class PredSig(Value):
    """The signature ``P :: Δ`` of a quantified predicate variable: the
    sorts of its arguments (the last one conventionally being the value the
    predicate refines)."""

    __slots__ = ("name", "arg_sorts")

    def __init__(self, name: str, arg_sorts: Tuple[Sort, ...] = ()) -> None:
        self.name = name
        self.arg_sorts = arg_sorts

    def _fields(self) -> Tuple:
        return (self.name, self.arg_sorts)


class TypeSchema(Value):
    """``forall alphas. forall preds. body`` — a polymorphic refinement type.

    Monomorphic signatures are schemas with empty quantifier lists; the
    checker calls :func:`instantiate_schema` to strip the quantifiers,
    substituting concrete types for type variables and fresh predicate
    unknowns for predicate variables.
    """

    __slots__ = ("type_vars", "pred_vars", "body")

    def __init__(
        self, type_vars: Tuple[str, ...], pred_vars: Tuple[PredSig, ...], body: RType
    ) -> None:
        self.type_vars = type_vars
        self.pred_vars = pred_vars
        self.body = body

    def _fields(self) -> Tuple:
        return (self.type_vars, self.pred_vars, self.body)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        quants = "".join(f"<{a}> . " for a in self.type_vars)
        quants += "".join(f"<{p.name}> . " for p in self.pred_vars)
        return f"{quants}{pretty_type(self.body)}"


def monomorphic(body: RType) -> TypeSchema:
    """A schema with no quantifiers."""
    return TypeSchema((), (), body)


def free_type_variables(rtype: RType) -> Set[str]:
    """Names of the type variables occurring free in ``rtype``."""
    if isinstance(rtype, ScalarType):
        base = rtype.base
        if isinstance(base, TypeVarBase):
            return {base.name}
        if isinstance(base, DataBase):
            result: Set[str] = set()
            for arg in base.args:
                result |= free_type_variables(arg)
            return result
        return set()
    if isinstance(rtype, FunctionType):
        return free_type_variables(rtype.arg_type) | free_type_variables(rtype.result_type)
    if isinstance(rtype, ContextualType):
        result = free_type_variables(rtype.body)
        for _, bound in rtype.bindings:
            result |= free_type_variables(bound)
        return result
    raise TypeError(f"unknown type node: {rtype!r}")


def generalize(rtype: RType) -> TypeSchema:
    """Quantify every free type variable of ``rtype`` into a schema.

    This is how a surface signature such as ``id :: x:a -> {a | nu == x}``
    becomes a polymorphic component: its free type variables are implicitly
    universally quantified, so each use site instantiates them afresh
    (via :func:`~repro.typecheck.checker._instantiate_at_application`).
    """
    return TypeSchema(tuple(sorted(free_type_variables(rtype))), (), rtype)


def instantiate_schema(
    schema: TypeSchema,
    type_args: Optional[Mapping[str, RType]] = None,
    pred_args: Optional[Mapping[str, str]] = None,
) -> RType:
    """Strip a schema's quantifiers.

    ``type_args`` maps quantified type variables to types (missing ones stay
    as free type variables); ``pred_args`` maps quantified predicate names
    to the names of fresh unknowns minted by the caller (typically
    :meth:`repro.typecheck.session.TypecheckSession.instantiate`).
    """
    body = schema.body
    if pred_args:
        body = rename_predicates(body, pred_args)
    if type_args:
        body = subst_type_vars(
            body, {name: type_args[name] for name in schema.type_vars if name in type_args}
        )
    return body


# ---------------------------------------------------------------------------
# pretty printing
# ---------------------------------------------------------------------------


def pretty_base(base: BaseType) -> str:
    """Render a base type in surface syntax."""
    if isinstance(base, IntBase):
        return "Int"
    if isinstance(base, BoolBase):
        return "Bool"
    if isinstance(base, TypeVarBase):
        return base.name
    if isinstance(base, DataBase):
        if not base.args:
            return base.name
        return f"{base.name} {' '.join(pretty_type(arg) for arg in base.args)}"
    raise TypeError(f"unknown base type: {base!r}")


def pretty_type(rtype: RType) -> str:
    """Render a type in surface syntax, e.g. ``x:Int -> {Int | nu >= x}``."""
    if isinstance(rtype, ScalarType):
        if is_true(rtype.refinement):
            return pretty_base(rtype.base)
        return f"{{{pretty_base(rtype.base)} | {rtype.refinement!r}}}"
    if isinstance(rtype, FunctionType):
        arg = pretty_type(rtype.arg_type)
        if isinstance(rtype.arg_type, FunctionType):
            arg = f"({arg})"
        return f"{rtype.arg_name}:{arg} -> {pretty_type(rtype.result_type)}"
    if isinstance(rtype, ContextualType):
        bindings = ", ".join(f"{name}:{pretty_type(bound)}" for name, bound in rtype.bindings)
        return f"<{bindings}; {pretty_type(rtype.body)}>"
    raise TypeError(f"unknown type node: {rtype!r}")


TypeLike = Union[RType, TypeSchema]
