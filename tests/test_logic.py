"""Tests for the refinement logic: formulas, ops, simplify, substitution."""

import gc
import pickle
import random
import sys
import threading

import pytest

import formula_oracle
from repro.logic import formulas, ops
from repro.logic.formulas import (
    FALSE,
    TRUE,
    App,
    Binary,
    BinaryOp,
    BoolLit,
    IntLit,
    Ite,
    SetLit,
    Unary,
    UnaryOp,
    Unknown,
    Var,
    value_var,
)
from repro.logic.simplify import conjuncts, negation_normal_form, simplify
from repro.logic.sorts import BOOL, INT, SetSort, data_sort
from repro.logic.substitution import (
    apply_assignment,
    instantiate_value_var,
    rename,
    substitute,
)
from repro.logic.transform import (
    free_vars,
    has_unknowns,
    measure_apps,
    mentions_sets,
    subterms,
    transform,
    unknowns,
)

x = ops.var("x", INT)
y = ops.var("y", INT)
p = ops.var("p", BOOL)


class TestOps:
    def test_boolean_unit_folding(self):
        assert ops.and_(TRUE, p) == p
        assert ops.and_(p, FALSE) == FALSE
        assert ops.or_(FALSE, p) == p
        assert ops.or_(p, TRUE) == TRUE
        assert ops.implies(FALSE, p) == TRUE
        assert ops.implies(p, FALSE) == ops.not_(p)
        assert ops.not_(ops.not_(p)) == p

    def test_arithmetic_folding(self):
        assert ops.plus(IntLit(2), IntLit(3)) == IntLit(5)
        assert ops.minus(IntLit(2), IntLit(3)) == IntLit(-1)
        assert ops.times(IntLit(2), IntLit(3)) == IntLit(6)
        assert ops.lt(IntLit(1), IntLit(2)) == TRUE
        assert ops.ge(IntLit(1), IntLit(2)) == FALSE

    def test_equality_folding(self):
        assert ops.eq(x, x) == TRUE
        assert ops.neq(x, x) == FALSE
        assert ops.eq(IntLit(1), IntLit(2)) == FALSE

    def test_conj_disj(self):
        assert ops.conj([]) == TRUE
        assert ops.disj([]) == FALSE
        assert ops.conj([p]) == p


class TestHashing:
    def test_structural_equality_and_hash(self):
        f1 = ops.le(ops.var("x", INT), ops.var("y", INT))
        f2 = ops.le(ops.var("x", INT), ops.var("y", INT))
        assert f1 is f2
        assert f1 == f2
        # The hash is the structural one, never an address.
        assert hash(f1) == hash(("binary", BinaryOp.LE, x, y))
        assert hash(x) == hash(("var", "x", INT))

    @pytest.mark.parametrize(
        "var, key",
        [
            (Var("x", INT), ("var", "x", ())),
            (Var("b", BOOL), ("var", "b", ())),
            (Var("s", SetSort(INT)), ("var", "s", ((),))),
            (Var("xs", data_sort("List", INT)), ("var", "xs", ("List", ((),)))),
        ],
    )
    def test_sort_keyed_var_hash_is_unchanged(self, var, key):
        """A sort hashes as the tuple of its fields, ``hash(())`` when it
        has none, so a variable hashes as its key with each sort spelled
        as its fields, and formula-keyed sets keep their order."""
        assert hash(var) == hash(key)

    def test_distinct_formulas_differ(self):
        assert ops.le(x, y) != ops.lt(x, y)
        assert ops.le(x, y) != ops.le(y, x)
        assert Var("x", INT) != Var("x", BOOL)

    def test_formulas_as_dict_keys(self):
        table = {ops.le(x, y): "le", ops.lt(x, y): "lt"}
        assert table[ops.le(ops.var("x", INT), y)] == "le"

    def test_interning_canonicalizes(self):
        f1 = ops.and_(ops.le(x, y), ops.neq(x, y))
        f2 = Binary(BinaryOp.AND, Binary(BinaryOp.LE, x, y), Binary(BinaryOp.NEQ, x, y))
        assert f1 is f2
        # children are canonical too
        assert ops.le(x, y) is f1.lhs
        assert Var("x", SetSort(INT)) is Var("x", SetSort(INT))
        assert App("len", (x,), INT) is ops.measure("len", x, INT)

    def test_unknown_hashable_with_substitution(self):
        u1 = Unknown("P", (("_v", x),))
        u2 = Unknown("P", (("_v", x),))
        assert u1 == u2 and hash(u1) == hash(u2)
        assert u1 != Unknown("P", (("_v", y),))


class TestSimplify:
    def test_constant_folding_fixpoint(self):
        messy = ops.and_(
            Binary(BinaryOp.AND, TRUE, ops.le(x, y)),
            Binary(BinaryOp.OR, FALSE, TRUE),
        )
        assert simplify(messy) == ops.le(x, y)

    def test_nnf_pushes_negation(self):
        formula = ops.not_(ops.and_(p, ops.or_(p, ops.le(x, y))))
        nnf = negation_normal_form(formula)
        # no negation above a connective
        for node in subterms(nnf):
            if isinstance(node, Binary) and node.op in (BinaryOp.AND, BinaryOp.OR):
                continue
        assert negation_normal_form(ops.not_(ops.not_(p))) == p

    def test_nnf_implication(self):
        nnf = negation_normal_form(ops.not_(Binary(BinaryOp.IMPLIES, p, ops.le(x, y))))
        assert nnf == ops.and_(p, ops.not_(ops.le(x, y)))

    def test_conjuncts(self):
        formula = ops.conj([ops.le(x, y), ops.neq(x, y), TRUE])
        assert conjuncts(formula) == [ops.le(x, y), ops.neq(x, y)]


class TestSubstitution:
    def test_substitute_variable(self):
        formula = ops.le(x, y)
        assert substitute(formula, {"x": IntLit(0)}) == ops.le(IntLit(0), y)

    def test_rename_keeps_sort(self):
        renamed = rename(ops.le(x, y), {"x": "z"})
        assert renamed == ops.le(ops.var("z", INT), y)

    def test_substitution_composes_on_unknowns(self):
        u = Unknown("P", (("a", x),))
        result = substitute(u, {"x": y, "b": IntLit(1)})
        assert isinstance(result, Unknown)
        pending = dict(result.substitution)
        assert pending["a"] == y  # applied to the pending value
        assert pending["b"] == IntLit(1)  # added for later
        assert pending["x"] == y

    def test_apply_assignment(self):
        formula = ops.and_(Unknown("P"), ops.le(x, y))
        applied = apply_assignment(formula, {"P": [ops.neq(x, y)]})
        assert applied == ops.and_(ops.neq(x, y), ops.le(x, y))
        # missing unknowns become True
        assert apply_assignment(Unknown("Q"), {}) == TRUE

    def test_apply_assignment_pending_substitution(self):
        u = Unknown("P", (("_v", x),))
        nu = value_var(INT)
        applied = apply_assignment(u, {"P": [ops.le(nu, y)]})
        assert applied == ops.le(x, y)

    def test_instantiate_value_var(self):
        nu = value_var(INT)
        assert instantiate_value_var(ops.ge(nu, x), y) == ops.ge(y, x)

    def test_free_vars_and_unknowns(self):
        formula = ops.and_(Unknown("P"), ops.le(x, y))
        assert free_vars(formula) == {"x", "y"}
        assert has_unknowns(formula)
        assert not has_unknowns(ops.le(x, y))


def _every_kind(with_unknown=True):
    """A formula with a node of every kind (the Unknown optional)."""
    elems = ops.measure("elems", ops.var("xs", INT), SetSort(INT))
    picked = ops.member(ops.ite(p, ops.neg(x), IntLit(3)), ops.union(ops.singleton(y), elems))
    rest = Binary(BinaryOp.AND, ops.not_(p), TRUE)
    if with_unknown:
        rest = Binary(BinaryOp.OR, Unknown("P", (("_v", x),)), rest)
    return Binary(BinaryOp.AND, picked, rest)


class TestCopyFreeRewriting:
    """Rewrites share every subtree they leave unchanged."""

    def test_identity_transform_returns_the_same_object(self):
        formula = _every_kind()
        kinds = {type(node) for node in subterms(formula)}
        assert kinds == {BoolLit, IntLit, Var, Unknown, Unary, Binary, Ite, App, SetLit}
        assert transform(formula, lambda node: node) is formula

    def test_rewrites_that_change_nothing_return_the_same_object(self):
        formula = _every_kind(with_unknown=False)
        assert substitute(formula, {"absent": x}) is formula
        assert rename(formula, {"absent": "z"}) is formula
        assert apply_assignment(formula, {"P": [ops.le(x, y)]}) is formula
        simple = ops.and_(ops.le(x, y), ops.or_(p, ops.neq(x, IntLit(0))))
        assert simplify(simple) is simple

    def test_only_the_changed_spine_is_rebuilt(self):
        untouched = ops.le(y, IntLit(3))
        formula = ops.and_(ops.le(x, y), untouched)
        result = substitute(formula, {"x": IntLit(0)})
        assert result == ops.and_(ops.le(IntLit(0), y), untouched)
        assert result.rhs is untouched

    def test_callback_order_is_post_order_left_to_right(self):
        length = ops.measure("len", x, INT)
        larger = ops.app("max", [x, y], INT)
        formula = ops.ite(p, length, larger)
        visited = []

        def record(node):
            visited.append(node)
            return node

        transform(formula, record)
        assert visited == [p, x, length, x, y, larger, formula]



# ---------------------------------------------------------------------------
# the canonical table and the facts cached on its nodes
# ---------------------------------------------------------------------------

INT_SET = SetSort(INT)
LIST = data_sort("List", INT)
KINDS = ("int", "bool", "set")
VALUE_NAME = value_var(INT).name


def random_formula(rng, kind, depth, tag=""):
    """A random formula of ``kind`` built with the raw node constructors (no
    folding), so every node kind and every sort of fact turns up.  Every
    variable, unknown and function name starts with ``tag``."""

    def name(prefix):
        return f"{tag}{prefix}{rng.randint(0, 2)}"

    def sub(kind):
        return random_formula(rng, kind, depth - 1, tag)

    if depth == 0 or rng.random() < 0.2:
        if kind == "int":
            return rng.choice(
                [
                    IntLit(rng.randint(-2, 2)),
                    Var(name("i"), INT),
                    App(name("len"), (Var(name("xs"), LIST),), INT),
                ]
            )
        if kind == "bool":
            pending = ((VALUE_NAME, Var(name("i"), INT)),) if rng.random() < 0.5 else ()
            return rng.choice(
                [BoolLit(rng.random() < 0.5), Var(name("b"), BOOL), Unknown(name("P"), pending)]
            )
        return rng.choice(
            [
                Var(name("s"), INT_SET),
                SetLit(INT, tuple(IntLit(i) for i in range(rng.randint(0, 2)))),
                App(name("elems"), (Var(name("xs"), LIST),), INT_SET),
            ]
        )
    if kind == "int":
        return rng.choice(
            [
                lambda: Unary(UnaryOp.NEG, sub("int")),
                lambda: Binary(rng.choice([BinaryOp.PLUS, BinaryOp.MINUS]), sub("int"), sub("int")),
                lambda: Ite(sub("bool"), sub("int"), sub("int")),
                lambda: App(name("f"), (sub("int"), sub("int")), INT),
            ]
        )()
    if kind == "bool":
        return rng.choice(
            [
                lambda: Unary(UnaryOp.NOT, sub("bool")),
                lambda: Binary(rng.choice([BinaryOp.AND, BinaryOp.IFF]), sub("bool"), sub("bool")),
                lambda: Binary(rng.choice([BinaryOp.LE, BinaryOp.EQ]), sub("int"), sub("int")),
                lambda: Binary(BinaryOp.MEMBER, sub("int"), sub("set")),
                lambda: Binary(BinaryOp.SUBSET, sub("set"), sub("set")),
                lambda: Ite(sub("bool"), sub("bool"), sub("bool")),
            ]
        )()
    return rng.choice(
        [
            lambda: Binary(rng.choice([BinaryOp.UNION, BinaryOp.DIFF]), sub("set"), sub("set")),
            lambda: Ite(sub("bool"), sub("set"), sub("set")),
            lambda: SetLit(INT, (sub("int"), sub("int"))),
        ]
    )()


def live_nodes():
    """Every node in the canonical table, after a collection."""
    gc.collect()
    return [entry() for entry in formulas._TABLE.values()]


def mentioning(tag):
    """Live nodes with a variable or unknown whose name starts with ``tag``."""
    found = []
    for node in live_nodes():
        names = free_vars(node) | unknowns(node) if node is not None else ()
        if any(name.startswith(tag) for name in names):
            found.append(node)
    return found


class TestCachedFacts:
    """Every node's cached facts answer what a walk over its subterms does,
    and rewrites that skip subtrees by those facts rewrite like full ones."""

    def test_facts_match_the_walk(self):
        rng = random.Random(2024)
        nodes = 0
        for _ in range(300):
            formula = random_formula(rng, rng.choice(KINDS), 4)
            for node in formula_oracle.subterms(formula):
                assert free_vars(node) == formula_oracle.free_vars(node)
                assert unknowns(node) == formula_oracle.unknowns(node)
                assert has_unknowns(node) == bool(formula_oracle.unknowns(node))
                assert measure_apps(node) == formula_oracle.measure_apps(node)
                assert mentions_sets(node) == formula_oracle.mentions_sets(node)
                nodes += 1
        assert nodes > 3000

    def test_skipping_rewrites_match_full_rewrites(self):
        rng = random.Random(99)
        names = [f"{prefix}{i}" for prefix in "ibs" for i in range(3)] + [VALUE_NAME]
        for _ in range(300):
            formula = random_formula(rng, rng.choice(KINDS), 4)
            mapping = {
                name: random_formula(rng, "int", 1) for name in rng.sample(names, rng.randint(1, 3))
            }
            assert substitute(formula, mapping) is formula_oracle.substitute(formula, mapping)
            renaming = {name: name + "'" for name in rng.sample(names, 2)}
            assert rename(formula, renaming) is formula_oracle.rename(formula, renaming)
            valuation = {"P0": [random_formula(rng, "bool", 1)], "P1": []}
            assert apply_assignment(formula, valuation) is formula_oracle.apply_assignment(
                formula, valuation
            )


class TestCanonicalTable:
    def test_unpickling_never_builds_a_second_node(self):
        # Nothing ships formulas between processes; a node rebuilt behind
        # the constructor's back would break ``==`` being identity.
        with pytest.raises(TypeError):
            pickle.loads(pickle.dumps(ops.le(Var("pickled_x", INT), IntLit(7))))

    def test_an_entry_leaves_with_its_node(self):
        formula = random_formula(random.Random(3), "bool", 4, tag="gone_")
        assert mentioning("gone_")
        del formula
        assert mentioning("gone_") == []
        assert None not in live_nodes()

    def test_a_late_cleanup_never_removes_a_newer_node(self):
        node = Var("late_x", INT)
        key = ("var", "late_x", INT)
        current = formulas._TABLE[key]
        # The entry of a node that died before ``node`` took its key, whose
        # cleanup only runs now.
        stale = formulas._Entry(IntLit(123456789))
        stale.key = key
        assert stale() is None
        formulas._forget(stale)
        assert formulas._TABLE[key] is current and current() is node

    def test_threads_agree_on_one_node_per_structure(self):
        seeds = range(600)
        threads = 4
        results = [None] * threads
        barrier = threading.Barrier(threads)

        def build(seed):
            # A structure of its own per seed, so the threads, running
            # abreast, race to enter the same unseen nodes.
            return random_formula(random.Random(seed), "bool", 3, tag=f"thr_{seed}_")

        def worker(index):
            rng = random.Random(index)
            barrier.wait(timeout=60)
            built = [build(seed) for seed in seeds]
            for _ in range(3):
                # Drop some formulas while other threads build them again.
                for position in rng.sample(range(len(built)), len(built) // 2):
                    built[position] = None
                built = [
                    node if node is not None else build(seed) for node, seed in zip(built, seeds)
                ]
            results[index] = built

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        for column in zip(*results):
            assert all(node is column[0] for node in column)
        assert [build(seed) for seed in seeds] == results[0]
        del results, column
        assert mentioning("thr_") == []
        assert None not in live_nodes()
