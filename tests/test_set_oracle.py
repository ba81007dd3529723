"""Finite-set reasoning against a bounded brute-force oracle.

Set atoms reach the solver compiled away element by element
(``repro.smt.sets``): a set equality or inclusion holds when it holds at
every element of a finite *universe* — the elements the query names plus
one witness per negated equality or inclusion.  The solver eliminates
every live set formula of a check together, so the answer must not depend
on how a query is split into assertions.  For this fragment (union,
intersection, difference, literals, membership, inclusion, equality;
no cardinality) a query with ``e`` element variables and ``a`` equality
or inclusion atoms has a countermodel exactly when it has one over
``e + a`` elements, which is what the oracle enumerates.
"""

import itertools
import random

import pytest

from repro.logic import ops
from repro.logic.formulas import App, Var
from repro.logic.sorts import INT, SetSort, UninterpretedSort
from repro.logic.transform import subterms
from repro.smt.sets import MEMBERSHIP_FUNC, eliminate_sets
from repro.smt.solver import IncrementalSolver

ELEMENTS = ("x", "y")
SETS = ("s", "t", "u")


def element(name):
    return Var(name, INT)


def set_var(name):
    return Var(name, SetSort(INT))


s, t, u = (set_var(name) for name in SETS)
x, y = (element(name) for name in ELEMENTS)


@pytest.mark.parametrize(
    "premises, goal, valid",
    [
        pytest.param([ops.eq(s, t)], ops.eq(t, s), True, id="s==t |- t==s"),
        pytest.param([ops.eq(s, t), ops.eq(t, u)], ops.eq(s, u), True, id="s==t, t==u |- s==u"),
        pytest.param([ops.eq(s, ops.union(t, u))], ops.subset(t, s), True, id="s==t+u |- t<=s"),
        pytest.param(
            [ops.eq(s, ops.union(ops.singleton(x), ops.singleton(y)))],
            ops.eq(s, ops.union(ops.singleton(y), ops.singleton(x))),
            True,
            id="s==[x]+[y] |- s==[y]+[x]",
        ),
        pytest.param([ops.subset(t, s)], ops.eq(s, t), False, id="t<=s |- s==t"),
    ],
)
def test_set_implications(premises, goal, valid):
    """The witness of a negated atom joins the universe that the positive
    atoms are expanded over; before it did, all four valid implications
    here were answered invalid."""
    assert IncrementalSolver().is_valid_implication(premises, goal) is valid


def test_set_atoms_expand_only_at_elements_of_their_own_sort():
    """An equality of ``Int`` sets next to a disequality of ``List Int``
    sets: the ``List`` witness must not be tested for membership in the
    ``Int`` sets, nor any element in a set of another element sort."""
    ints, lists = SetSort(INT), SetSort(UninterpretedSort("List", (INT,)))
    left, right = Var("left", ints), Var("right", ints)
    xs, ys = Var("xs", lists), Var("ys", lists)
    encoded = eliminate_sets(ops.and_(ops.eq(left, right), ops.neq(xs, ys)))
    memberships = [
        node
        for node in subterms(encoded)
        if isinstance(node, App) and node.func == MEMBERSHIP_FUNC
    ]
    assert memberships
    for node in memberships:
        element, set_term = node.args
        assert element.sort == set_term.sort.element, f"ill-sorted {node!r}"


def test_set_atoms_of_two_element_sorts_keep_their_meaning():
    """Each sort's atoms still decide correctly next to the other's."""
    ints, lists = SetSort(INT), SetSort(UninterpretedSort("List", (INT,)))
    left, right = Var("left", ints), Var("right", ints)
    xs, ys = Var("xs", lists), Var("ys", lists)
    n = Var("n", INT)
    solver = IncrementalSolver()
    apart = ops.neq(xs, ys)
    assert solver.check_assuming([ops.eq(left, right), apart])
    assert not solver.check_assuming(
        [ops.eq(left, right), apart, ops.member(n, left), ops.not_(ops.member(n, right))]
    )
    assert solver.is_valid_implication(
        [ops.subset(left, right), ops.member(n, left), apart], ops.member(n, right)
    )
    assert not solver.is_valid_implication([ops.subset(left, right), apart], ops.eq(left, right))


def test_set_formulas_asserted_one_by_one_share_one_universe():
    """``x`` is named only by the last two assertions, yet ``s == t``
    must be expanded at it; eliminated one by one, ``s == t`` expands at
    no element and the scope reads satisfiable."""
    solver = IncrementalSolver()
    for formula in (ops.eq(s, t), ops.member(x, s), ops.not_(ops.member(x, t))):
        solver.assert_(formula)
    assert solver.check() is False


def test_check_assuming_sees_the_live_set_assertions():
    solver = IncrementalSolver()
    solver.assert_(ops.eq(s, t))
    solver.assert_(ops.member(x, s))
    assert solver.check_assuming([ops.not_(ops.member(x, t))]) is False


def test_each_conjunction_of_live_set_formulas_is_encoded_once():
    """A popped scope takes its set formulas with it, and a check whose
    live set formulas were checked before reuses their encoding."""
    solver = IncrementalSolver()
    solver.assert_(ops.eq(s, t))
    assert solver.check()
    with solver.scoped():
        solver.assert_(ops.member(x, s))
        solver.assert_(ops.not_(ops.member(x, t)))
        assert not solver.check()
    encoded = solver.statistics.encoded_assertions
    assert solver.check()
    assert solver.statistics.encoded_assertions == encoded
    assert not solver.check_assuming([ops.member(x, s), ops.not_(ops.member(x, t))])
    assert solver.statistics.encoded_assertions == encoded


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------
#
# A set term is ("var", name), ("lit", element names) or (op, lhs, rhs) with
# op one of "+", "*", "-"; an atom is ("==", a, b), ("<=", a, b),
# ("in", element name, a) or ("eq", element name, element name); a literal
# is (polarity, atom).  Sets evaluate to bit masks over the domain.


def set_formula(term):
    kind = term[0]
    if kind == "var":
        return set_var(term[1])
    if kind == "lit":
        return ops.set_lit(INT, [element(name) for name in term[1]])
    build = {"+": ops.union, "*": ops.intersect, "-": ops.set_diff}[kind]
    return build(set_formula(term[1]), set_formula(term[2]))


def literal_formula(literal):
    polarity, (kind, lhs, rhs) = literal
    if kind == "==":
        atom = ops.eq(set_formula(lhs), set_formula(rhs))
    elif kind == "<=":
        atom = ops.subset(set_formula(lhs), set_formula(rhs))
    elif kind == "in":
        atom = ops.member(element(lhs), set_formula(rhs))
    else:
        atom = ops.eq(element(lhs), element(rhs))
    return atom if polarity else ops.not_(atom)


def set_value(term, env):
    kind = term[0]
    if kind == "var":
        return env[term[1]]
    if kind == "lit":
        mask = 0
        for name in term[1]:
            mask |= 1 << env[name]
        return mask
    lhs, rhs = set_value(term[1], env), set_value(term[2], env)
    if kind == "+":
        return lhs | rhs
    if kind == "*":
        return lhs & rhs
    return lhs & ~rhs


def literal_value(literal, env):
    polarity, (kind, lhs, rhs) = literal
    if kind == "==":
        holds = set_value(lhs, env) == set_value(rhs, env)
    elif kind == "<=":
        holds = set_value(lhs, env) & ~set_value(rhs, env) == 0
    elif kind == "in":
        holds = bool(set_value(rhs, env) >> env[lhs] & 1)
    else:
        holds = env[lhs] == env[rhs]
    return holds == polarity


def names_in(node, names):
    if isinstance(node, str):
        if node in ELEMENTS or node in SETS:
            names.add(node)
    elif isinstance(node, tuple):
        for child in node:
            names_in(child, names)
    return names


def oracle_valid(premises, goal):
    """Does every model over a large enough finite domain satisfying the
    premises satisfy the goal?"""
    literals = premises + [goal]
    names = names_in(tuple(literals), set())
    elements = sorted(names & set(ELEMENTS))
    sets = sorted(names & set(SETS))
    atoms = sum(1 for _, (kind, _, _) in literals if kind in ("==", "<="))
    size = max(1, len(elements) + atoms)
    for element_values in itertools.product(range(size), repeat=len(elements)):
        for set_values in itertools.product(range(1 << size), repeat=len(sets)):
            env = dict(zip(elements, element_values))
            env.update(zip(sets, set_values))
            if all(literal_value(p, env) for p in premises) and not literal_value(goal, env):
                return False
    return True


def random_set_term(rng, depth):
    if depth == 0 or rng.random() < 0.45:
        if rng.random() < 0.7:
            return ("var", rng.choice(SETS[:2]))
        return ("lit", tuple(rng.sample(ELEMENTS, rng.randint(0, 2))))
    return (rng.choice("+*-"), random_set_term(rng, depth - 1), random_set_term(rng, depth - 1))


def random_literal(rng):
    roll = rng.random()
    if roll < 0.4:
        atom = ("==", random_set_term(rng, 2), random_set_term(rng, 2))
    elif roll < 0.7:
        atom = ("<=", random_set_term(rng, 2), random_set_term(rng, 2))
    elif roll < 0.92:
        atom = ("in", rng.choice(ELEMENTS), random_set_term(rng, 2))
    else:
        atom = ("eq", "x", "y")
    return (rng.random() < 0.6, atom)


def needs_witness(premises, goal):
    """Does the query negate a set equality or inclusion?  Validity is
    checked by refuting the premises and the negated goal, so a positive
    goal atom counts."""
    negated = [(not polarity, atom) for polarity, atom in premises] + [goal]
    return any(flag and atom[0] in ("==", "<=") for flag, atom in negated)


def random_queries(seed, count):
    rng = random.Random(seed)
    return [
        ([random_literal(rng) for _ in range(rng.randint(1, 2))], random_literal(rng))
        for _ in range(count)
    ]


def test_solver_agrees_with_the_bounded_oracle():
    """Seeded random implications over two set and two element variables:
    the solver must give the oracle's answer on every one."""
    wrong = []
    valid = witnessed = 0
    for premises, goal in random_queries(seed=2016, count=150):
        expected = oracle_valid(premises, goal)
        answer = IncrementalSolver().is_valid_implication(
            [literal_formula(p) for p in premises], literal_formula(goal)
        )
        if answer != expected:
            wrong.append((premises, goal, expected))
        valid += expected
        witnessed += needs_witness(premises, goal)
    assert not wrong, f"{len(wrong)} wrong answers, first: {wrong[0]}"
    # The sample exercises both answers and the witnesses of negated atoms.
    assert 20 <= valid <= 130
    assert witnessed >= 50


def split_valid(solver, premises, goal, assume_goal):
    """Validity asked through split assertions in a scope of ``solver``:
    one assertion per premise, then the negated goal asserted too or
    passed to ``check_assuming``."""
    negated = ops.not_(literal_formula(goal))
    with solver.scoped():
        for premise in premises:
            solver.assert_(literal_formula(premise))
        if assume_goal:
            return not solver.check_assuming([negated])
        solver.assert_(negated)
        return not solver.check()


@pytest.mark.parametrize("assume_goal", [False, True], ids=["asserted", "check_assuming"])
def test_split_assertions_agree_with_the_bounded_oracle(assume_goal):
    """The seeded implications again, each premise its own assertion, on
    one solver shared by all 150: the answers must not depend on how the
    query was split, nor on the scopes popped before it."""
    solver = IncrementalSolver()
    wrong = [
        (premises, goal)
        for premises, goal in random_queries(seed=2016, count=150)
        if split_valid(solver, premises, goal, assume_goal) != oracle_valid(premises, goal)
    ]
    assert not wrong, f"{len(wrong)} wrong answers, first: {wrong[0]}"
