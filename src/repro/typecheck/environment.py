"""Typing environments (contexts) for the refinement checker.

An :class:`Environment` is an immutable sequence of variable bindings plus
path assumptions (branch guards).  Three projections of it drive the
reduction to Horn constraints:

* :meth:`Environment.embedding` — the premises every subtyping obligation
  inherits: each scalar binding ``x : {B | psi}`` contributes ``[x/nu]psi``
  and each assumption contributes itself (``⟦Γ⟧`` in Sec. 3.5 of the
  paper);
* :meth:`Environment.scope_candidates` — the formulas allowed to fill
  qualifier placeholders when a fresh predicate unknown is created here
  (the liquid abstraction of Sec. 3.6);
* :meth:`Environment.sort_scope` — the sort context used to check
  well-formedness of refinements written at this point.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..logic.formulas import Formula, Var, is_true
from ..logic.sorts import Sort
from ..logic.substitution import instantiate_value_var, substitute
from ..logic.transform import free_vars
from ..syntax.types import RType, ScalarType, TypeSchema, substitute_in_type, type_free_vars

#: What an environment may bind a name to.
Binding = Union[RType, TypeSchema]


class Environment:
    """An immutable typing context; extension returns a new environment."""

    __slots__ = ("bindings", "assumptions", "_embedding")

    def __init__(
        self,
        bindings: Tuple[Tuple[str, Binding], ...] = (),
        assumptions: Tuple[Formula, ...] = (),
    ) -> None:
        self.bindings = bindings
        self.assumptions = assumptions
        #: :meth:`embedding`, made on first use.
        self._embedding: Optional[Tuple[Formula, ...]] = None

    # -- construction --------------------------------------------------------

    def bind(self, name: str, rtype: Binding) -> "Environment":
        """Extend with ``name : rtype`` (shadowing any earlier binding)."""
        return Environment(self.bindings + ((name, rtype),), self.assumptions)

    def bind_all(self, pairs: "Tuple[Tuple[str, RType], ...]") -> "Environment":
        """Extend with several dependent bindings, in order."""
        env = self
        for name, rtype in pairs:
            env = env.bind(name, rtype)
        return env

    def assume(self, guard: Formula) -> "Environment":
        """Extend with a path condition (a branch guard)."""
        if is_true(guard):
            return self
        return Environment(self.bindings, self.assumptions + (guard,))

    def unshadow(self, name: str) -> "Tuple[Environment, Dict[str, Formula]]":
        """Alpha-rename an existing scalar binding of ``name`` out of the
        way of a new binder of the same name.

        Returns the renamed environment and the substitution the caller
        must apply to any types it captured under the old name (empty when
        nothing scalar was shadowed).  Without this, a binder reusing an
        in-scope name would capture the context's facts about the outer
        variable — branch guards recorded by conditionals, refinements of
        other bindings — and the checker would certify unsound programs.
        """
        bound = self.lookup(name)
        if not isinstance(bound, ScalarType):
            # Nothing scalar to protect: refinements and guards can only
            # mention scalar-typed variables, so plain shadowing is sound.
            return self, {}
        avoid = {bound_name for bound_name, _ in self.bindings}
        for assumption in self.assumptions:
            avoid |= free_vars(assumption)
        for _, rtype in self.bindings:
            body = rtype.body if isinstance(rtype, TypeSchema) else rtype
            avoid |= type_free_vars(body)
        fresh = name
        while fresh in avoid:
            fresh += "'"
        mapping: Dict[str, Formula] = {name: Var(fresh, bound.sort)}
        bindings = []
        for bound_name, rtype in self.bindings:
            if isinstance(rtype, TypeSchema):
                rtype = TypeSchema(
                    rtype.type_vars,
                    rtype.pred_vars,
                    substitute_in_type(rtype.body, mapping),
                )
            else:
                rtype = substitute_in_type(rtype, mapping)
            bindings.append((fresh if bound_name == name else bound_name, rtype))
        assumptions = tuple(substitute(a, mapping) for a in self.assumptions)
        return Environment(tuple(bindings), assumptions), mapping

    # -- queries -------------------------------------------------------------

    def lookup(self, name: str) -> Optional[Binding]:
        """The latest binding of ``name``, or ``None``."""
        for bound_name, rtype in reversed(self.bindings):
            if bound_name == name:
                return rtype
        return None

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None

    def _effective(self) -> Iterator[Tuple[str, Binding]]:
        """Bindings with shadowing resolved (latest value, stable order)."""
        effective: Dict[str, Binding] = {}
        for name, rtype in self.bindings:
            effective[name] = rtype
        seen = set()
        for name, _ in self.bindings:
            if name not in seen:
                seen.add(name)
                yield name, effective[name]

    def scalar_bindings(self) -> Iterator[Tuple[str, ScalarType]]:
        """The scalar-typed bindings, shadowing resolved."""
        for name, rtype in self._effective():
            if isinstance(rtype, ScalarType):
                yield name, rtype

    def effective_bindings(self) -> Iterator[Tuple[str, Binding]]:
        """Every binding with shadowing resolved — the component pool the
        synthesis enumerator draws atoms and application heads from."""
        yield from self._effective()

    # -- projections into the refinement logic -------------------------------

    def sort_scope(self) -> Dict[str, Sort]:
        """Sorts of the scalar-typed variables in scope."""
        return {name: scalar.sort for name, scalar in self.scalar_bindings()}

    def scope_candidates(self) -> List[Formula]:
        """The variables available to instantiate qualifier placeholders."""
        return [Var(name, scalar.sort) for name, scalar in self.scalar_bindings()]

    def embedding(self) -> List[Formula]:
        """The formulas this context contributes as premises: ``[x/nu]psi``
        for every scalar binding ``x : {B | psi}``, then the assumptions.

        Every obligation checked in one context asks for its premises, so
        they are derived once per (immutable) environment; each call
        returns a new list the caller may extend."""
        if self._embedding is None:
            premises: List[Formula] = []
            for name, scalar in self.scalar_bindings():
                if not is_true(scalar.refinement):
                    premises.append(
                        instantiate_value_var(scalar.refinement, Var(name, scalar.sort))
                    )
            premises.extend(self.assumptions)
            self._embedding = tuple(premises)
        return list(self._embedding)


#: The empty context.
EMPTY = Environment()
