"""Qualifier spaces: the search space of each predicate unknown.

Following Sec. 2 and Sec. 3.6 of the paper, the space of liquid formulas
for an unknown ``P`` is the power set of ``Q_P`` — the atomic formulas
obtained by instantiating the qualifiers' placeholders with the variables
(and distinguished terms such as literals or the value variable ``nu``)
that were in scope where ``P`` was created.  A valuation of ``P`` is a
subset of ``Q_P``, read as the conjunction of its members; the greatest
valuation ``Q_P`` itself is the *strongest* candidate the fixpoint
iteration starts from.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from ..logic.formulas import Formula, value_var
from ..logic.qualifiers import Qualifier, instantiate_all
from ..logic.sorts import Sort


class QualifierSpace:
    """The instantiated qualifier set ``Q_P`` of one predicate unknown.

    ``abducible`` marks an unknown solved from the *bottom* of the lattice:
    it may only appear in premises (a negative position — an abduced guard
    or inferred precondition), it starts at the weakest valuation ``True``,
    and the candidate-set search strengthens it one qualifier at a time,
    branching when a failing constraint admits several minimal repairs (the
    disjunctive inference of Sec. 5 of the paper).  Ordinary unknowns keep
    the greatest-fixpoint treatment: start strongest, weaken to a unique
    maximal fixpoint.

    ``max_conjuncts`` bounds how many qualifiers a single abducible
    valuation may conjoin — condition abduction caps guards at a small
    size so the search terminates on unabducible goals at the same depth
    the brute-force subset walk did.  ``None`` leaves the valuation size
    unbounded (the whole power set of the space is reachable).
    """

    __slots__ = ("unknown", "qualifiers", "abducible", "max_conjuncts")

    def __init__(
        self,
        unknown: str,
        qualifiers: Tuple[Formula, ...],
        abducible: bool = False,
        max_conjuncts: Optional[int] = None,
    ) -> None:
        self.unknown = unknown
        self.qualifiers = qualifiers
        self.abducible = abducible
        self.max_conjuncts = max_conjuncts

    def __len__(self) -> int:
        return len(self.qualifiers)

    def index_of(self, qualifier: Formula) -> int:
        """Position of ``qualifier`` in the space's fixed order — the order
        the candidate search canonicalizes subsets by, so every run (and
        the brute-force abduction oracle) agrees on candidate identity."""
        return self.qualifiers.index(qualifier)


def build_space(
    unknown: str,
    qualifiers: Sequence[Qualifier],
    candidates: Sequence[Formula],
    value_sort: Optional[Sort] = None,
    abducible: bool = False,
) -> QualifierSpace:
    """Instantiate ``qualifiers`` over the scope of ``unknown``.

    ``candidates`` are the formulas allowed to fill placeholders — normally
    the program variables in scope, optionally enriched with interesting
    literals such as ``0``.  When ``value_sort`` is given, the value
    variable ``nu`` at that sort joins the candidate pool, which is how
    post-condition unknowns talk about the value being produced.
    ``abducible`` marks the unknown for bottom-up candidate-set search
    (see :class:`QualifierSpace`).
    """
    pool = list(candidates)
    if value_sort is not None:
        pool.append(value_var(value_sort))
    return QualifierSpace(unknown, tuple(instantiate_all(qualifiers, pool)), abducible)


SpacesLike = Union[Mapping[str, QualifierSpace], Iterable[QualifierSpace]]


def as_space_map(spaces: SpacesLike) -> Dict[str, QualifierSpace]:
    """Normalize a mapping or iterable of spaces into a name-keyed dict."""
    if isinstance(spaces, Mapping):
        return dict(spaces)
    return {space.unknown: space for space in spaces}


def build_spaces(
    scopes: Mapping[str, Sequence[Formula]],
    qualifiers: Sequence[Qualifier],
    value_sort: Optional[Sort] = None,
) -> Dict[str, QualifierSpace]:
    """Build one space per unknown from a name -> scope-candidates map."""
    return {
        unknown: build_space(unknown, qualifiers, candidates, value_sort)
        for unknown, candidates in scopes.items()
    }
