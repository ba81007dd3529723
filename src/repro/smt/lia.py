"""Linear integer arithmetic over conjunctions of literals.

The theory solver (``repro.smt.theory``) translates each arithmetic
literal into a linear :class:`Constraint` and asserts it into the
incremental :class:`Simplex`, which decides feasibility with integer
tightening of strict inequalities (``lhs < rhs`` becomes
``lhs + 1 <= rhs``) and disequalities split into ``expr <= -1`` or
``expr >= 1``.

The simplex decides rational feasibility, which is sound for validity
checking but incomplete over the integers; the argument is the "Rational
relaxation" note in the SMT section of ``docs/architecture.md``.

Numbers are exact and stay plain ``int`` until a division is inexact,
which promotes them to :class:`fractions.Fraction` (``_exact_div``).  The
two types compare and hash equal at equal values, so the number type
never changes a comparison, a dictionary lookup or a pivot choice; it only
keeps the mostly unit-coefficient constraints of refinement checking off
the slow ``Fraction`` arithmetic.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Set, Tuple, Union

from .. import limits
from ..metrics import Counters

#: An exact rational: an ``int``, or a ``Fraction`` after an inexact division.
Number = Union[int, Fraction]


def _exact_div(numerator: Number, denominator: Number) -> Number:
    """``numerator / denominator``, as an ``int`` when the result is one."""
    if numerator.__class__ is int and denominator.__class__ is int:
        if numerator % denominator:
            return Fraction(numerator, denominator)
        return numerator // denominator
    return _demote(numerator / denominator)


def _demote(value: Number) -> Number:
    """An integral ``Fraction`` as an ``int``; anything else unchanged."""
    if value.__class__ is Fraction and value.denominator == 1:
        return value.numerator
    return value


class Relation(enum.Enum):
    """Relation of a linear constraint ``expr REL 0``."""

    LE = "<="
    EQ = "=="
    NEQ = "!="


class LinearExpr:
    """A linear expression ``sum(coeff * var) + constant``.

    Coefficients and the constant are exact :data:`Number` values; an
    expression built from integer terms holds only ``int``.
    """

    __slots__ = ("coefficients", "constant")

    def __init__(
        self, coefficients: Tuple[Tuple[str, Number], ...] = (), constant: Number = 0
    ) -> None:
        self.coefficients = coefficients
        self.constant = constant

    @staticmethod
    def from_dict(coefficients: Dict[str, Number], constant: Number) -> "LinearExpr":
        """Build an expression, dropping zero coefficients and fixing order."""
        cleaned = tuple(
            sorted((name, coeff) for name, coeff in coefficients.items() if coeff != 0)
        )
        return LinearExpr(cleaned, constant)

    @staticmethod
    def constant_expr(value: int) -> "LinearExpr":
        """The constant expression ``value``."""
        return LinearExpr((), value)

    @staticmethod
    def variable(name: str) -> "LinearExpr":
        """The expression consisting of a single variable."""
        return LinearExpr(((name, 1),), 0)

    def as_dict(self) -> Dict[str, Number]:
        """Coefficients as a mutable dictionary."""
        return dict(self.coefficients)

    def scale(self, factor: Number) -> "LinearExpr":
        """Multiply the whole expression by ``factor``."""
        return LinearExpr.from_dict(
            {name: coeff * factor for name, coeff in self.coefficients},
            self.constant * factor,
        )

    def add(self, other: "LinearExpr") -> "LinearExpr":
        """Pointwise sum of two expressions."""
        coefficients = self.as_dict()
        for name, coeff in other.coefficients:
            coefficients[name] = coefficients.get(name, 0) + coeff
        return LinearExpr.from_dict(coefficients, self.constant + other.constant)

    def subtract(self, other: "LinearExpr") -> "LinearExpr":
        """Pointwise difference of two expressions."""
        return self.add(other.scale(-1))

    def is_constant(self) -> bool:
        """Does the expression mention no variables?"""
        return not self.coefficients


class Constraint:
    """A linear constraint ``expr REL 0``."""

    __slots__ = ("expr", "relation")

    def __init__(self, expr: LinearExpr, relation: Relation) -> None:
        self.expr = expr
        self.relation = relation


def le(lhs: LinearExpr, rhs: LinearExpr) -> Constraint:
    """Constraint ``lhs <= rhs``."""
    return Constraint(lhs.subtract(rhs), Relation.LE)


def lt(lhs: LinearExpr, rhs: LinearExpr) -> Constraint:
    """Constraint ``lhs < rhs`` tightened over the integers to ``lhs + 1 <= rhs``."""
    return Constraint(lhs.subtract(rhs).add(LinearExpr.constant_expr(1)), Relation.LE)


# ---------------------------------------------------------------------------
# incremental simplex
# ---------------------------------------------------------------------------

#: Explanation tag of constraints derived internally (Nelson–Oppen equality
#: propagation); conflicts containing it cannot be explained from bound tags
#: alone and callers fall back to the full asserted set.
DERIVED = object()


#: The counters a :class:`Simplex` charges.
SIMPLEX_COUNTERS = ("tableau_pivots",)


class Simplex:
    """An incremental Dutertre–de Moura general simplex over the rationals.

    Row coefficients, the assignment and the bounds are exact
    :data:`Number` values: ``int`` until a bound of a scaled form or a
    pivot on a coefficient other than ±1 divides inexactly, and demoted
    back to ``int`` whenever a sum comes out integral.  Difference
    constraints (``x - y <= c``) only ever pivot on ±1, so their tableaus
    never leave integer arithmetic.

    Every linear atom gets a slack variable ``s = expr`` whose id is
    permanent and shared by all later constraints over the same
    (gcd/sign-normalized) expression; its defining row is installed on
    demand.  Asserting a constraint only adds or tightens a *bound* on a
    variable — recorded on an undo trail so :meth:`mark` / :meth:`undo_to`
    retract it in O(1) — and :meth:`check` restores bound feasibility by
    Bland-rule pivoting that resumes from the previous feasible basis
    rather than re-solving from scratch.

    The tableau stays bounded by one rule: when :meth:`undo_to` empties
    the trail, the whole tableau is dropped if any installed row went
    unasked-for since the trail last emptied.  With no live bound every
    assignment is feasible, so the empty tableau is equisatisfiable, and
    each row is re-derived from its slack's expression when a constraint
    needs it again.  A basis whose rows were all asked for again — the
    same bounds re-asserted cycle after cycle — is kept and resumes warm,
    where a rebuilt tableau would pivot back to it every cycle.

    It decides rational feasibility of integer-tightened constraints, with
    disequalities split into ±1 cases; the differential test suite checks
    it against a Fourier–Motzkin oracle kept under ``tests/``.  Every bound
    carries the caller's *tag* (typically the asserting theory literal);
    infeasibility verdicts return the tags of a conflicting bound set, so
    theory conflicts are explained without a minimization pass.

    Each pivot is charged to ``statistics.tableau_pivots``.
    """

    def __init__(self, statistics: Counters) -> None:
        self.statistics = statistics
        #: external name -> variable id
        self._ids: Dict[str, int] = {}
        #: normalized multi-variable expression -> slack variable id
        self._slacks: Dict[Tuple[Tuple[int, Number], ...], int] = {}
        #: memo of :meth:`_variable_for` resolutions keyed by the raw
        #: coefficient tuple: (variable, scale, normalized key or None).
        #: Sound because the form -> variable mapping is persistent —
        #: ids are never deallocated, only the tableau's rows are dropped.
        self._form_cache: Dict[
            Tuple[Tuple[str, Number], ...],
            Tuple[int, Number, Optional[Tuple[Tuple[int, Number], ...]]],
        ] = {}
        self._next_var = 0
        #: basic variable -> {nonbasic variable: coefficient}
        self._rows: Dict[int, Dict[int, Number]] = {}
        #: nonbasic variable -> basic variables whose row mentions it
        self._cols: Dict[int, Set[int]] = {}
        #: the current rational assignment (beta)
        self._value: Dict[int, Number] = {}
        self._lower: Dict[int, Tuple[Number, object]] = {}
        self._upper: Dict[int, Tuple[Number, object]] = {}
        #: live disequalities: (variable, tag, left split bound, right split bound)
        self._neqs: List[Tuple[int, object, Tuple, Tuple]] = []
        self._trail: List[Tuple] = []
        #: slack ids whose defining relation is currently in the tableau
        #: (all are dropped together by undo_to and re-derived on demand)
        self._row_installed: Set[int] = set()
        #: slack ids whose rows _variable_for asked for since the trail
        #: last emptied; an installed row outside it went unused
        self._requested: Set[int] = set()
        #: slack id -> normalized expression key (for row reinstallation)
        self._slack_keys: Dict[int, Tuple[Tuple[int, Number], ...]] = {}
        #: basic variables whose value or bounds changed since they were
        #: last verified in-bounds; _repair only scans these
        self._suspects: Set[int] = set()
        #: has any bound changed since the last feasible check()?
        self._dirty = False

    # -- backtracking --------------------------------------------------------

    def mark(self) -> int:
        """Snapshot the bound state for a later :meth:`undo_to`."""
        return len(self._trail)

    def undo_to(self, mark: int) -> None:
        """Retract every bound and disequality recorded after ``mark``.

        The assignment is *not* rolled back: bounds only loosen on undo, so
        the current assignment stays bound-feasible whenever it was, and
        :meth:`check` repairs it from wherever it is otherwise.  Emptying
        the trail drops the tableau if it holds a row nothing asked for
        since the trail last emptied (see the class docstring).
        """
        trail = self._trail
        if len(trail) <= mark:
            return
        self._dirty = True
        while len(trail) > mark:
            record = trail.pop()
            kind = record[0]
            if kind == "ub":
                _, var, old = record
                if old is None:
                    del self._upper[var]
                else:
                    self._upper[var] = old
            elif kind == "lb":
                _, var, old = record
                if old is None:
                    del self._lower[var]
                else:
                    self._lower[var] = old
            else:  # "neq"
                self._neqs.pop()
        if not trail:
            if not self._row_installed <= self._requested:
                self._rows.clear()
                self._cols.clear()
                self._row_installed.clear()
                self._suspects.clear()
            self._requested.clear()

    # -- constraint assertion ------------------------------------------------

    def assert_constraint(self, constraint: Constraint, tag: object) -> Optional[List[object]]:
        """Assert ``constraint`` (tagged for explanations); returns a
        conflicting tag set when the new bound is immediately infeasible
        against an opposite bound, else ``None`` (full feasibility is only
        decided by :meth:`check`)."""
        expr = constraint.expr
        relation = constraint.relation
        if expr.is_constant():
            value = expr.constant
            trivially_true = (
                value <= 0 if relation is Relation.LE
                else value == 0 if relation is Relation.EQ
                else value != 0
            )
            return None if trivially_true else [tag]
        var, scale = self._variable_for(expr.coefficients)
        target = _exact_div(-expr.constant, scale)
        if relation is Relation.LE:
            if scale > 0:
                return self._assert_upper(var, target, tag)
            return self._assert_lower(var, target, tag)
        if relation is Relation.EQ:
            conflict = self._assert_upper(var, target, tag)
            if conflict is not None:
                return conflict
            return self._assert_lower(var, target, tag)
        # Relation.NEQ — recorded for case splitting at check time:
        # expr <= -1 or expr >= 1 over the integers.
        low = _exact_div(-1 - expr.constant, scale)
        high = _exact_div(1 - expr.constant, scale)
        if scale > 0:
            left, right = ("ub", low), ("lb", high)
        else:
            left, right = ("lb", low), ("ub", high)
        self._neqs.append((var, tag, left, right))
        self._trail.append(("neq",))
        self._dirty = True
        return None

    def bound_form(self, constraint: Constraint) -> Optional[Tuple[int, str, Number]]:
        """Normalize a LE/EQ constraint into ``(variable, kind, bound)`` with
        ``kind`` one of ``"ub"``/``"lb"``/``"eq"``, for bound-propagation
        bookkeeping.  Returns ``None`` for constant or NEQ constraints.
        Asserts nothing — it names the expression's tableau variable but
        does not install a defining row (bound lookups need only the id).
        """
        expr = constraint.expr
        if expr.is_constant() or constraint.relation is Relation.NEQ:
            return None
        var, scale = self._variable_for(expr.coefficients, need_row=False)
        bound = _exact_div(-expr.constant, scale)
        if constraint.relation is Relation.EQ:
            return (var, "eq", bound)
        return (var, "ub" if scale > 0 else "lb", bound)

    def _variable_for(
        self, coefficients: Tuple[Tuple[str, Number], ...], need_row: bool = True
    ) -> Tuple[int, Number]:
        """The tableau variable standing for a linear form, plus the scale
        such that ``form == scale * variable``  (gcd/sign normalization, so
        ``2x+2y`` and ``-x-y`` share one slack).  With ``need_row`` the
        slack's defining row is (re)installed; without it only the id is
        allocated — enough to read bounds for propagation."""
        cached = self._form_cache.get(coefficients)
        if cached is None:
            cached = self._resolve_form(coefficients)
            self._form_cache[coefficients] = cached
        variable, scale, key = cached
        if need_row and key is not None:
            self._requested.add(variable)
            if variable not in self._row_installed:
                self._install_row(variable, key)
        return variable, scale

    def _resolve_form(
        self, coefficients: Tuple[Tuple[str, Number], ...]
    ) -> Tuple[int, Number, Optional[Tuple[Tuple[int, Number], ...]]]:
        """Allocate (or find) the variable for a linear form: the slow
        gcd/sign normalization behind :meth:`_variable_for`'s memo."""
        if len(coefficients) == 1:
            name, coeff = coefficients[0]
            return self._plain_var(name), coeff, None
        denominator_lcm = 1
        for _, coeff in coefficients:
            denominator_lcm = denominator_lcm * coeff.denominator // gcd(
                denominator_lcm, coeff.denominator
            )
        numerators = [int(coeff * denominator_lcm) for _, coeff in coefficients]
        magnitude = 0
        for numerator in numerators:
            magnitude = gcd(magnitude, abs(numerator))
        scale = _exact_div(magnitude, denominator_lcm)
        if numerators[0] < 0:
            scale = -scale
        key = tuple(
            (self._plain_var(name), _exact_div(coeff, scale)) for name, coeff in coefficients
        )
        slack = self._slacks.get(key)
        if slack is None:
            slack = self._next_var
            self._next_var += 1
            self._slacks[key] = slack
            self._slack_keys[slack] = key
            self._value[slack] = 0
        return slack, scale, key

    def _plain_var(self, name: str) -> int:
        var = self._ids.get(name)
        if var is None:
            var = self._next_var
            self._next_var += 1
            self._ids[name] = var
            self._value[var] = 0
        return var

    def _install_row(self, slack: int, key: Tuple[Tuple[int, Number], ...]) -> None:
        """(Re)install the defining row ``slack == sum(coeff * var)``,
        substituting current basics away and recomputing the slack's
        assignment.  :meth:`undo_to` may drop the tableau whenever the
        trail empties, so installation must be repeatable."""
        row: Dict[int, Number] = {}
        for var, coeff in key:
            basic_row = self._rows.get(var)
            if basic_row is None:
                row[var] = row.get(var, 0) + coeff
            else:
                for nonbasic, inner in basic_row.items():
                    row[nonbasic] = row.get(nonbasic, 0) + coeff * inner
        row = {var: _demote(coeff) for var, coeff in row.items() if coeff != 0}
        self._value[slack] = _demote(
            sum(coeff * self._value[var] for var, coeff in row.items())
        )
        self._rows[slack] = row
        for nonbasic in row:
            self._cols.setdefault(nonbasic, set()).add(slack)
        self._row_installed.add(slack)

    def _assert_upper(self, var: int, bound: Number, tag: object) -> Optional[List[object]]:
        current = self._upper.get(var)
        if current is not None and bound >= current[0]:
            return None  # not a tightening
        lower = self._lower.get(var)
        if lower is not None and bound < lower[0]:
            return [tag, lower[1]]
        self._trail.append(("ub", var, current))
        self._upper[var] = (bound, tag)
        self._dirty = True
        if var not in self._rows:
            if self._value[var] > bound:
                self._update(var, bound)
        elif self._value[var] > bound:
            self._suspects.add(var)
        return None

    def _assert_lower(self, var: int, bound: Number, tag: object) -> Optional[List[object]]:
        current = self._lower.get(var)
        if current is not None and bound <= current[0]:
            return None
        upper = self._upper.get(var)
        if upper is not None and bound > upper[0]:
            return [tag, upper[1]]
        self._trail.append(("lb", var, current))
        self._lower[var] = (bound, tag)
        self._dirty = True
        if var not in self._rows:
            if self._value[var] < bound:
                self._update(var, bound)
        elif self._value[var] < bound:
            self._suspects.add(var)
        return None

    def _update(self, var: int, value: Number) -> None:
        """Move a nonbasic variable, adjusting every dependent basic."""
        delta = value - self._value[var]
        self._value[var] = value
        values = self._value
        rows = self._rows
        suspects = self._suspects
        for basic in self._cols.get(var, ()):
            values[basic] = _demote(values[basic] + rows[basic][var] * delta)
            suspects.add(basic)

    # -- feasibility ---------------------------------------------------------

    def check(self) -> Optional[List[object]]:
        """Restore feasibility by pivoting; returns ``None`` when feasible
        or the conflicting bounds' tags when not.

        No-op when no bound changed since the last feasible check (the
        assignment is still feasible).
        """
        if not self._dirty:
            return None
        conflict = self._repair()
        if conflict is None:
            conflict = self._check_neqs()
        if conflict is None:
            self._dirty = False
        return conflict

    def _repair(self) -> Optional[List[object]]:
        """Bland-rule pivoting from the current basis until every basic
        variable sits within its bounds.

        Only *suspect* basics (value or bounds changed since last verified
        in-bounds) are scanned; every mutation path maintains the
        invariant that an out-of-bounds basic is a suspect.
        """
        values = self._value
        rows = self._rows
        lower = self._lower
        upper = self._upper
        suspects = self._suspects
        while True:
            broken = None
            below = False
            settled = []
            for var in suspects:
                if var not in rows:
                    settled.append(var)  # became nonbasic: within bounds
                    continue
                low = lower.get(var)
                if low is not None and values[var] < low[0]:
                    if broken is None or var < broken:
                        broken, below = var, True
                    continue
                high = upper.get(var)
                if high is not None and values[var] > high[0]:
                    if broken is None or var < broken:
                        broken, below = var, False
                    continue
                settled.append(var)
            for var in settled:
                suspects.discard(var)
            if broken is None:
                return None
            row = rows[broken]
            pivot_col = None
            for var in sorted(row):
                coeff = row[var]
                if (coeff > 0) == below:
                    high = upper.get(var)
                    if high is None or values[var] < high[0]:
                        pivot_col = var
                        break
                else:
                    low = lower.get(var)
                    if low is None or values[var] > low[0]:
                        pivot_col = var
                        break
            if pivot_col is None:
                if below:
                    conflict = [lower[broken][1]]
                    for var, coeff in row.items():
                        conflict.append(
                            upper[var][1] if coeff > 0 else lower[var][1]
                        )
                else:
                    conflict = [upper[broken][1]]
                    for var, coeff in row.items():
                        conflict.append(
                            lower[var][1] if coeff > 0 else upper[var][1]
                        )
                return conflict
            target = lower[broken][0] if below else upper[broken][0]
            # Cancellation point per repair pivot; aborting here leaves the
            # tableau structurally sound and still dirty, so the next check
            # resumes the repair.
            limits.checkpoint("tableau_pivots")
            self._pivot_and_update(broken, pivot_col, target)

    def _pivot_and_update(self, leaving: int, entering: int, target: Number) -> None:
        self.statistics.tableau_pivots += 1
        values = self._value
        rows = self._rows
        cols = self._cols
        row = rows.pop(leaving)
        coeff = row.pop(entering)
        theta = _exact_div(target - values[leaving], coeff)
        values[leaving] = target
        values[entering] = _demote(values[entering] + theta)
        mentioning = cols.pop(entering, set())
        mentioning.discard(leaving)
        suspects = self._suspects
        suspects.add(entering)
        for basic in mentioning:
            values[basic] = _demote(values[basic] + rows[basic][entering] * theta)
            suspects.add(basic)
        # New defining row for the entering variable.
        new_row: Dict[int, Number] = {leaving: _exact_div(1, coeff)}
        for var, inner in row.items():
            new_row[var] = _exact_div(-inner, coeff)
            cols[var].discard(leaving)
        rows[entering] = new_row
        for var in new_row:
            cols.setdefault(var, set()).add(entering)
        # Substitute the entering variable out of every row that mentions it.
        for basic in mentioning:
            other = rows[basic]
            factor = other.pop(entering)
            for var, inner in new_row.items():
                merged = other.get(var, 0) + factor * inner
                if merged == 0:
                    if var in other:
                        del other[var]
                        cols.get(var, set()).discard(basic)
                else:
                    other[var] = _demote(merged)
                    cols.setdefault(var, set()).add(basic)

    def _branch_satisfied(self, var: int, branch: Tuple) -> bool:
        kind, bound = branch
        value = self._value.get(var, 0)
        return value <= bound if kind == "ub" else value >= bound

    def _check_neqs(self) -> Optional[List[object]]:
        """Case-split every disequality neither of whose ±1 branches the
        current assignment satisfies: over the integers ``expr != 0`` is
        ``expr <= -1  or  expr >= 1``, which rules out more than rational
        ``!=`` does."""
        for index in range(len(self._neqs)):
            var, tag, left, right = self._neqs[index]
            if self._branch_satisfied(var, left) or self._branch_satisfied(var, right):
                continue
            conflict_tags: List[object] = [tag]
            for kind, bound in (left, right):
                saved = self.mark()
                if kind == "ub":
                    conflict = self._assert_upper(var, bound, tag)
                else:
                    conflict = self._assert_lower(var, bound, tag)
                if conflict is None:
                    conflict = self._repair()
                if conflict is None:
                    # The branch bound keeps this disequality satisfied while
                    # the remaining ones are re-examined, so the recursion
                    # retires at least one violation per level.
                    conflict = self._check_neqs()
                self.undo_to(saved)
                if conflict is None:
                    return None  # this branch is feasible
                conflict_tags.extend(conflict)
            return conflict_tags
        return None

