"""Horn constraints over predicate unknowns (Sec. 5 of the paper).

A Horn constraint is an implication ``p1 && ... && pk ==> c`` whose premises
may mention predicate unknowns anywhere and whose conclusion is either a
single predicate unknown (a *weakening* constraint — solving it may shrink
the unknown's valuation) or an unknown-free formula (a *definite*
constraint — it can only be checked, never repaired by weakening, because
weakening the premises proves less).

The type checker emits such constraints while walking the program (liquid
type inference reduces subtyping between refinement types to exactly this
shape); the Horn solver finds valuations for the unknowns that make every
constraint valid.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Mapping, Optional, Tuple

from ..logic.formulas import Formula, Unknown
from ..logic.substitution import substitute
from ..logic.transform import transform
from ..logic.transform import unknowns as formula_unknowns
from ..value import Value


class HornConstraint(Value):
    """``premises ==> conclusion`` with unknowns on either side.

    ``provenance`` is the structured diagnostics trail the type checker
    emits: the judgments (program location, branch, subtyping obligation)
    that produced the constraint, outermost first, so an unsolvable system
    can name the failing obligation precisely.  An entry is a string or a
    label whose ``str()`` renders it on demand (the type checker's
    subtyping obligations).  :meth:`origin` is the single diagnostics
    entry point.
    """

    __slots__ = ("premises", "conclusion", "provenance", "_premise_unknowns", "_concrete_premises")

    def __init__(
        self,
        premises: Tuple[Formula, ...],
        conclusion: Formula,
        provenance: Tuple[object, ...] = (),
    ) -> None:
        if not isinstance(conclusion, Unknown) and formula_unknowns(conclusion):
            raise ValueError(
                "conclusion must be a single predicate unknown or unknown-free, "
                f"got: {conclusion!r}"
            )
        self.premises = premises
        self.conclusion = conclusion
        self.provenance = provenance
        self._premise_unknowns: Optional[FrozenSet[str]] = None
        self._concrete_premises: Optional[Tuple[Formula, ...]] = None

    def _fields(self) -> Tuple:
        return (self.premises, self.conclusion, self.provenance)

    # -- structure -----------------------------------------------------------

    def conclusion_unknown(self) -> Optional[Unknown]:
        """The conclusion's predicate unknown, if this is a weakening
        constraint."""
        return self.conclusion if isinstance(self.conclusion, Unknown) else None

    def is_definite(self) -> bool:
        """Is the conclusion unknown-free?"""
        return not isinstance(self.conclusion, Unknown)

    def premise_unknowns(self) -> FrozenSet[str]:
        """Names of unknowns occurring in the premises.

        Memoized: the candidate search's pruning sweep calls this once per
        (queued candidate, known MUS) pair, and re-joining the premises'
        cached unknowns over big environment embeddings each time adds up.
        """
        cached = self._premise_unknowns
        if cached is None:
            names = set()
            for premise in self.premises:
                names |= formula_unknowns(premise)
            cached = frozenset(names)
            self._premise_unknowns = cached
        return cached

    def unknowns(self) -> FrozenSet[str]:
        """Names of all unknowns occurring in the constraint."""
        names = set(self.premise_unknowns())
        names |= formula_unknowns(self.conclusion)
        return frozenset(names)

    def concrete_premises(self) -> Tuple[Formula, ...]:
        """The unknown-free premises — the hard facts that hold regardless
        of any valuation.  The vacuity probes check tentative valuations of
        premise-position unknowns for consistency against exactly these.
        Memoized like :meth:`premise_unknowns`."""
        cached = self._concrete_premises
        if cached is None:
            cached = tuple(p for p in self.premises if not formula_unknowns(p))
            self._concrete_premises = cached
        return cached

    # -- diagnostics ---------------------------------------------------------

    def origin(self) -> str:
        """Where this constraint came from, for error messages: the joined
        provenance trail, or a placeholder when there is none."""
        if self.provenance:
            return " / ".join(map(str, self.provenance))
        return "<unlabeled constraint>"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lhs = " && ".join(repr(p) for p in self.premises) or "True"
        tag = f"  [{self.origin()}]" if self.provenance else ""
        return f"{lhs} ==> {self.conclusion!r}{tag}"


def constraint(
    premises: Iterable[Formula],
    conclusion: Formula,
    label: str = "",
    provenance: Tuple[object, ...] = (),
) -> HornConstraint:
    """Convenience constructor accepting any iterable of premises.

    ``label`` is a provenance shorthand: a bare tag is appended to the
    trail, so ``constraint(ps, c, "spec")`` means
    ``HornConstraint(ps, c, provenance=("spec",))``.
    """
    trail = provenance + (label,) if label else provenance
    return HornConstraint(tuple(premises), conclusion, trail)


def substitute_unknowns(
    constr: HornConstraint, valuations: Mapping[str, Formula]
) -> HornConstraint:
    """``constr`` with the named unknowns replaced by concrete formulas.

    Each occurrence's pending substitution is applied to the replacement,
    so ``P[x := e]`` grounds to the valuation with ``e`` in place of ``x``.
    Unknowns not named in ``valuations`` are left untouched.  The candidate
    search uses this to fix a candidate's abducible valuations before
    running the greatest-fixpoint core; condition abduction uses it to try
    a tentative guard.
    """

    def replace(node: Formula) -> Formula:
        if isinstance(node, Unknown) and node.name in valuations:
            body = valuations[node.name]
            if node.substitution:
                body = substitute(body, dict(node.substitution))
            return body
        return node

    def changes(node: Formula) -> bool:
        return not formula_unknowns(node).isdisjoint(valuations)

    def ground(formula: Formula) -> Formula:
        return transform(formula, replace, changes)

    conclusion = constr.conclusion
    if isinstance(conclusion, Unknown) and conclusion.name in valuations:
        conclusion = ground(conclusion)
    return HornConstraint(
        tuple(ground(premise) for premise in constr.premises),
        conclusion,
        constr.provenance,
    )
