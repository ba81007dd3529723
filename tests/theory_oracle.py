"""Stateless reference decision procedure for the EUF + LIA theory.

The differential tests pin :mod:`repro.smt.theory` to this oracle.  It
decides the same theory — congruence closure, one-directional
Nelson–Oppen EUF -> LIA equality propagation, rational feasibility of
integer-tightened linear constraints with disequalities split into
``expr <= -1`` or ``expr >= 1`` — by a different algorithm: every call
interns the literals into a fresh term bank and runs Fourier–Motzkin
elimination (after Gaussian substitution of equalities) instead of the
incremental simplex, so a bookkeeping fault in the warm tableau, the undo
trails or the liveness counts shows up as a disagreement.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.logic.formulas import (
    COMPARISON_OPS,
    App,
    Binary,
    BinaryOp,
    BoolLit,
    Formula,
    IntLit,
    Ite,
    SetLit,
    Unary,
    UnaryOp,
    Var,
)
from repro.logic.sorts import BOOL, IntSort
from repro.smt.euf import CongruenceClosure, TermBank
from repro.smt.lia import Constraint, LinearExpr, Number, Relation, _exact_div
from repro.smt.theory import Literal, _comparison_constraint


def coefficient(expr: LinearExpr, name: str) -> Number:
    """Coefficient of ``name`` in ``expr`` (zero if absent)."""
    return dict(expr.coefficients).get(name, 0)


def eq(lhs: LinearExpr, rhs: LinearExpr) -> Constraint:
    """Constraint ``lhs == rhs``."""
    return Constraint(lhs.subtract(rhs), Relation.EQ)


def neq(lhs: LinearExpr, rhs: LinearExpr) -> Constraint:
    """Constraint ``lhs != rhs``."""
    return Constraint(lhs.subtract(rhs), Relation.NEQ)


class LiaSolver:
    """Feasibility of conjunctions of linear integer constraints by
    Fourier–Motzkin elimination over the rationals."""

    #: Safety cap on Fourier–Motzkin growth; queries stay far below it.
    MAX_INEQUALITIES = 20_000

    def is_feasible(self, constraints: Sequence[Constraint]) -> bool:
        """Is the conjunction of ``constraints`` satisfiable?"""
        return self._solve(list(constraints))

    def _solve(self, constraints: List[Constraint]) -> bool:
        # Split on the first disequality, if any.
        for index, constraint in enumerate(constraints):
            if constraint.relation is Relation.NEQ:
                rest = constraints[:index] + constraints[index + 1 :]
                strictly_less = Constraint(
                    constraint.expr.add(LinearExpr.constant_expr(1)), Relation.LE
                )
                strictly_greater = Constraint(
                    constraint.expr.scale(-1).add(LinearExpr.constant_expr(1)),
                    Relation.LE,
                )
                return self._solve(rest + [strictly_less]) or self._solve(
                    rest + [strictly_greater]
                )

        # Eliminate equalities by substitution (or split into two inequalities
        # when no unit coefficient is available).
        for index, constraint in enumerate(constraints):
            if constraint.relation is Relation.EQ:
                rest = constraints[:index] + constraints[index + 1 :]
                if constraint.expr.is_constant():
                    if constraint.expr.constant != 0:
                        return False
                    return self._solve(rest)
                substituted = self._substitute_equality(constraint, rest)
                if substituted is not None:
                    return self._solve(substituted)
                as_inequalities = [
                    Constraint(constraint.expr, Relation.LE),
                    Constraint(constraint.expr.scale(-1), Relation.LE),
                ]
                return self._solve(rest + as_inequalities)

        inequalities = [c.expr for c in constraints]
        return self._fourier_motzkin(inequalities)

    @staticmethod
    def _substitute_equality(
        equality: Constraint, others: List[Constraint]
    ) -> Optional[List[Constraint]]:
        """Solve ``equality`` for one of its variables and substitute it away.

        Any variable can be isolated because coefficients are rational; the
        substitution preserves rational feasibility exactly.
        """
        expr = equality.expr
        if not expr.coefficients:
            return None
        name, coeff = expr.coefficients[0]
        # name = -(rest)/coeff
        rest = LinearExpr.from_dict(
            {n: c for n, c in expr.coefficients if n != name}, expr.constant
        )
        replacement = rest.scale(_exact_div(-1, coeff))

        def substitute(target: LinearExpr) -> LinearExpr:
            c = coefficient(target, name)
            if c == 0:
                return target
            without = LinearExpr.from_dict(
                {n: k for n, k in target.coefficients if n != name}, target.constant
            )
            return without.add(replacement.scale(c))

        return [Constraint(substitute(c.expr), c.relation) for c in others]

    def _fourier_motzkin(self, inequalities: List[LinearExpr]) -> bool:
        """Rational feasibility of ``expr <= 0`` constraints by elimination."""
        inequalities = list(inequalities)
        while True:
            # Constant rows are decided immediately.
            remaining: List[LinearExpr] = []
            for expr in inequalities:
                if expr.is_constant():
                    if expr.constant > 0:
                        return False
                else:
                    remaining.append(expr)
            inequalities = remaining
            if not inequalities:
                return True

            variable = self._pick_variable(inequalities)
            lower, upper, unrelated = [], [], []
            for expr in inequalities:
                coeff = coefficient(expr, variable)
                if coeff > 0:
                    upper.append(expr)  # variable <= bound
                elif coeff < 0:
                    lower.append(expr)  # bound <= variable
                else:
                    unrelated.append(expr)

            combined: List[LinearExpr] = []
            for up in upper:
                for low in lower:
                    up_coeff = coefficient(up, variable)
                    low_coeff = -coefficient(low, variable)
                    combined.append(up.scale(low_coeff).add(low.scale(up_coeff)))
            inequalities = unrelated + combined
            if len(inequalities) > self.MAX_INEQUALITIES:
                # Give up on proving infeasibility; "feasible" is the safe
                # (sound) answer for validity checking.
                return True

    @staticmethod
    def _pick_variable(inequalities: List[LinearExpr]) -> str:
        """Choose the variable whose elimination creates the fewest rows."""
        occurrences: Dict[str, Tuple[int, int]] = {}
        for expr in inequalities:
            for name, coeff in expr.coefficients:
                lower, upper = occurrences.get(name, (0, 0))
                if coeff < 0:
                    occurrences[name] = (lower + 1, upper)
                else:
                    occurrences[name] = (lower, upper + 1)
        return min(occurrences, key=lambda n: occurrences[n][0] * occurrences[n][1])


class FourierMotzkinChecker:
    """Consistency of a conjunction of theory literals, decided anew on
    every call (answers memoized per literal set)."""

    def __init__(self) -> None:
        self._lia = LiaSolver()
        self._cache: Dict[frozenset, bool] = {}

    def is_consistent(self, literals: Sequence[Literal]) -> bool:
        """Is the conjunction of the given literals satisfiable?"""
        key = frozenset(literals)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._cache[key] = self._check(literals)
        return cached

    def _check(self, literals: Sequence[Literal]) -> bool:
        bank = TermBank()
        closure = CongruenceClosure(bank)
        true_id = bank.constant("__true")
        false_id = bank.constant("__false")
        closure.assert_distinct(true_id, false_id)

        term_ids: Dict[Formula, int] = {}
        int_terms: Dict[int, Formula] = {}
        constraints: List[Constraint] = []

        def intern(term: Formula) -> int:
            """Intern a formula term for congruence closure purposes."""
            if term in term_ids:
                return term_ids[term]
            if isinstance(term, Var):
                term_id = bank.constant(f"var:{term.name}")
            elif isinstance(term, IntLit):
                term_id = bank.constant(f"int:{term.value}")
            elif isinstance(term, BoolLit):
                term_id = true_id if term.value else false_id
            elif isinstance(term, App):
                term_id = bank.apply(term.func, [intern(arg) for arg in term.args])
            elif isinstance(term, Unary):
                term_id = bank.apply(f"unary:{term.op.value}", [intern(term.arg)])
            elif isinstance(term, Binary):
                term_id = bank.apply(
                    f"binary:{term.op.value}", [intern(term.lhs), intern(term.rhs)]
                )
            elif isinstance(term, Ite):
                term_id = bank.apply(
                    "ite",
                    [intern(term.cond), intern(term.then_), intern(term.else_)],
                )
            elif isinstance(term, SetLit):
                term_id = bank.apply("setlit", [intern(element) for element in term.elements])
            else:
                term_id = bank.constant(f"opaque:{term!r}")
            term_ids[term] = term_id
            if isinstance(term.sort, IntSort):
                int_terms.setdefault(term_id, term)
            return term_id

        def atom_variable(term: Formula) -> str:
            """Arithmetic variable standing for a non-arithmetic integer term."""
            term_id = intern(term)
            int_terms.setdefault(term_id, term)
            return f"t{term_id}"

        def to_linear(term: Formula) -> LinearExpr:
            """Translate an integer-sorted term into a linear expression."""
            if isinstance(term, IntLit):
                return LinearExpr.constant_expr(term.value)
            if isinstance(term, Unary) and term.op is UnaryOp.NEG:
                return to_linear(term.arg).scale(-1)
            if isinstance(term, Binary):
                if term.op is BinaryOp.PLUS:
                    return to_linear(term.lhs).add(to_linear(term.rhs))
                if term.op is BinaryOp.MINUS:
                    return to_linear(term.lhs).subtract(to_linear(term.rhs))
                if term.op is BinaryOp.TIMES:
                    if isinstance(term.lhs, IntLit):
                        return to_linear(term.rhs).scale(term.lhs.value)
                    if isinstance(term.rhs, IntLit):
                        return to_linear(term.lhs).scale(term.rhs.value)
                    # Non-linear product: treat the whole product as opaque.
                    return LinearExpr.variable(atom_variable(term))
            return LinearExpr.variable(atom_variable(term))

        def term_expr(term_id: int) -> LinearExpr:
            """Linear expression for a tracked integer term."""
            term = int_terms[term_id]
            if isinstance(term, IntLit):
                return LinearExpr.constant_expr(term.value)
            return LinearExpr.variable(f"t{term_id}")

        # -- assert each literal -------------------------------------------
        for literal in literals:
            atom, polarity = literal.atom, literal.polarity
            if isinstance(atom, BoolLit):
                if atom.value != polarity:
                    return False
                continue
            if isinstance(atom, (Var, App)) and atom.sort == BOOL:
                closure.assert_equal(intern(atom), true_id if polarity else false_id)
                continue
            if isinstance(atom, Binary) and atom.op in COMPARISON_OPS:
                lhs, rhs = to_linear(atom.lhs), to_linear(atom.rhs)
                constraints.append(_comparison_constraint(atom.op, lhs, rhs, polarity))
                continue
            if isinstance(atom, Binary) and atom.op in (BinaryOp.EQ, BinaryOp.NEQ):
                is_equality = (atom.op is BinaryOp.EQ) == polarity
                lhs_id, rhs_id = intern(atom.lhs), intern(atom.rhs)
                if is_equality:
                    closure.assert_equal(lhs_id, rhs_id)
                else:
                    closure.assert_distinct(lhs_id, rhs_id)
                if isinstance(atom.lhs.sort, IntSort):
                    lhs, rhs = to_linear(atom.lhs), to_linear(atom.rhs)
                    constraints.append((eq if is_equality else neq)(lhs, rhs))
                continue
            # Anything else (set atoms that escaped the encoder, etc.) is
            # treated as unconstrained — the safe, conservative answer.

        if not closure.is_consistent():
            return False

        # -- propagate entailed equalities between integer terms ------------
        tracked = sorted(int_terms)
        for members in closure.classes().values():
            class_members = [t for t in tracked if t in members]
            for first, second in zip(class_members, class_members[1:]):
                constraints.append(eq(term_expr(first), term_expr(second)))

        return self._lia.is_feasible(constraints)
