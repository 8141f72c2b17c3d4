"""Canonical trees: construction, interning, symmetry, enumeration, text
format."""

import copy
import gc
import importlib
import itertools
import math
import pickle
import pkgutil
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import cdse
from cdse import (
    Decoration,
    Forest,
    Tree,
    TreeSyntaxError,
    forest_symmetry,
    forest_text,
    forests_of_degree,
    ladder,
    leaf,
    parse_forest,
    parse_tree,
    single,
    tree_symmetry,
    tree_text,
    trees_of_degree,
)
from cdse import trees as trees_module
from cdse.trees import EMPTY_FOREST

from helpers import (
    TWO_LABELS,
    automorphism_count,
    forest_automorphism_count,
    forest_shape_key,
    forests_up_to,
    shape_key,
    trees_up_to,
)

A = Decoration(1, 1)
B = Decoration(2, 1)
C = Decoration(1, 2)


# ------------------------------------------------------------ construction

def test_degree_sums_label_degrees():
    assert leaf(1).degree == 1
    assert leaf(1, 2).degree == 2
    assert ladder(C, Decoration(2, 3)).degree == 5
    assert Tree(A, (leaf(1), leaf(1, 2))).degree == 4


def test_vertex_count():
    assert leaf(1).vertices == 1
    assert ladder(A, A, A).vertices == 3
    assert Tree(A, (leaf(1), leaf(1, 2))).vertices == 3


def test_ladder_root_first():
    t = ladder(A, B)
    assert t.decoration == A
    assert t.children == (Tree(B),)


def test_children_order_ignored():
    x, y = ladder(A, A), Tree(B)
    assert Tree(A, (x, y)) == Tree(A, (y, x))
    assert hash(Tree(A, (x, y))) == hash(Tree(A, (y, x)))


def test_forest_is_a_multiset():
    f = single(leaf(1)) * single(leaf(2)) * single(leaf(1))
    assert f == Forest((leaf(2), leaf(1), leaf(1)))
    assert f.grouped() == ((leaf(1), 2), (leaf(2), 1))
    assert len(f) == 3


def test_empty_forest_is_the_unit():
    f = single(leaf(1))
    assert EMPTY_FOREST * f == f
    assert f * EMPTY_FOREST == f
    assert EMPTY_FOREST.degree == 0


def _shuffled_rebuild(t, rng):
    kids = [_shuffled_rebuild(c, rng) for c in t.children]
    rng.shuffle(kids)
    return Tree(t.decoration, kids)


@st.composite
def random_trees(draw, depth=3):
    decs = st.sampled_from([A, B, C])

    def build(d):
        kids = () if d == 0 else tuple(
            build(d - 1) for _ in range(draw(st.integers(0, 2))))
        return Tree(draw(decs), kids)

    return build(depth)


@given(random_trees(), st.randoms(use_true_random=False))
def test_canonical_form_is_order_invariant(t, rng):
    assert _shuffled_rebuild(t, rng) == t


@given(random_trees())
def test_canonical_idempotent(t):
    again = Tree(t.decoration, t.children)
    assert again == t and again.key == t.key


# --------------------------------------------------------------- interning

# shapes (decoration, child shapes) over few labels and small depth, so that
# equal shapes come up often
_shapes = st.recursive(
    st.tuples(st.sampled_from([A, B, C]), st.just(())),
    lambda kids: st.tuples(st.sampled_from([A, B]),
                           st.lists(kids, max_size=2).map(tuple)),
    max_leaves=4)


def _build(shape, rng):
    dec, kids = shape
    built = [_build(k, rng) for k in kids]
    rng.shuffle(built)
    return Tree(dec, built)


def _agrees_with(objs, keys):
    """Two objects are one exactly when their shape keys agree, and the
    objects sort as their keys do."""
    for (x, kx), (y, ky) in itertools.product(zip(objs, keys), repeat=2):
        assert (x is y) == (kx == ky)
    order = sorted(range(len(objs)), key=objs.__getitem__)
    assert [keys[i] for i in order] == sorted(keys)


@given(st.lists(_shapes, min_size=2, max_size=8),
       st.randoms(use_true_random=False))
def test_equal_shapes_build_one_tree(shapes, rng):
    _agrees_with([_build(s, rng) for s in shapes],
                 [shape_key(s) for s in shapes])


@given(st.lists(st.lists(_shapes, max_size=3), min_size=2, max_size=6),
       st.randoms(use_true_random=False))
def test_equal_shapes_build_one_forest(forests, rng):
    built = []
    for shapes in forests:
        ts = [_build(s, rng) for s in shapes]
        rng.shuffle(ts)
        built.append(Forest(ts))
    _agrees_with(built, [forest_shape_key(f) for f in forests])


def test_a_tree_referenced_nowhere_leaves_the_table():
    dec = Decoration(7, 3)  # used by no other test
    t = Tree(dec, (leaf(1), ladder(A, B)))
    f = Forest((t, t))
    kids = t.children
    refs = weakref.ref(t), weakref.ref(f)
    del t, f
    gc.collect()
    assert [r() for r in refs] == [None, None]
    assert kids not in trees_module._TREES[dec]
    assert not any(u.decoration == dec for ts in trees_module._FORESTS
                   for u in ts)
    # built again, it is a new object of the same shape
    again = Tree(dec, reversed(kids))
    assert again.children == kids and trees_module._TREES[dec][kids]() is again


def test_no_module_level_cache():
    """A functools cache lives inside the call that makes it: one on a
    module-level function or method would keep its trees alive."""
    held = []
    for info in pkgutil.iter_modules(cdse.__path__, "cdse."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            found = [(name, obj)]
            if isinstance(obj, type):
                found += [(f"{name}.{attr}", getattr(x, "__func__", x))
                          for attr, x in vars(obj).items()]
            held += [f"{info.name}.{what}" for what, x in found
                     if hasattr(x, "cache_info")]
    assert held == []


@pytest.mark.parametrize("how", ["copy", "deepcopy"] + [
    f"pickle-{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)])
def test_copies_are_the_object_itself(how):
    def clone(x):
        if how.startswith("pickle"):
            return pickle.loads(pickle.dumps(x, int(how[-1])))
        return getattr(copy, how)(x)

    t = Tree(A, (ladder(A, B), leaf(1, 2), leaf(1, 2)))
    for x in (leaf(1), t, single(t), Forest((t, leaf(2))), EMPTY_FOREST):
        assert clone(x) is x


@pytest.mark.parametrize("how", ["deepcopy", "pickle"])
def test_deep_ladder_copies_are_the_object_itself(how):
    # at the default recursion limit, which a copier that recursed once per
    # level would exceed
    t = ladder(*[A] * 2000)
    for x in (t, Forest((t, leaf(2)))):
        if how == "pickle":
            assert pickle.loads(pickle.dumps(x)) is x
        else:
            assert copy.deepcopy(x) is x


# ---------------------------------------------------------------- symmetry

def test_symmetry_small_cases():
    assert tree_symmetry(leaf(1)) == 1
    assert tree_symmetry(ladder(A, A, A)) == 1
    assert tree_symmetry(Tree(A, (leaf(1), leaf(1)))) == 2
    assert tree_symmetry(Tree(A, (leaf(1), leaf(2)))) == 1
    corolla4 = Tree(A, tuple(leaf(1) for _ in range(4)))
    assert tree_symmetry(corolla4) == math.factorial(4)
    # two identical branches that are themselves symmetric
    branch = Tree(A, (leaf(1), leaf(1)))
    assert tree_symmetry(Tree(B, (branch, branch))) == 2 * 2 * 2


def test_deep_ladder_symmetry_stays_clear_of_the_recursion_limit():
    assert tree_symmetry(ladder(*[A] * 1500)) == 1
    # a cherry hung below a deep ladder keeps its factor 2
    t = Tree(A, (leaf(1), leaf(1)))
    for _ in range(1500):
        t = Tree(B, (t,))
    assert tree_symmetry(t) == 2
    assert forest_symmetry(Forest((t, leaf(1), leaf(1)))) == 4


def test_symmetry_against_permutation_search():
    for t in trees_up_to(TWO_LABELS, 6):
        assert tree_symmetry(t) == automorphism_count(t)


def test_forest_symmetry_against_permutation_search():
    for f in forests_up_to(TWO_LABELS, 4):
        assert forest_symmetry(f) == forest_automorphism_count(f)
    # repeated symmetric trees, the factorial-of-multiplicity regime
    t = Tree(A, (leaf(1), leaf(1)))
    f = Forest((t, t, leaf(1)))
    assert forest_symmetry(f) == forest_automorphism_count(f) == 8


# ------------------------------------------------------------- enumeration

def test_tree_counts_single_label():
    counts = [len(trees_of_degree((A,), n)) for n in range(1, 9)]
    assert counts == [1, 1, 2, 4, 9, 20, 48, 115]


def test_trees_degree_lte_4_single_label_by_hand():
    a = leaf(1)
    assert set(trees_of_degree((A,), 1)) == {a}
    assert set(trees_of_degree((A,), 2)) == {ladder(A, A)}
    assert set(trees_of_degree((A,), 3)) == {ladder(A, A, A), Tree(A, (a, a))}
    assert set(trees_of_degree((A,), 4)) == {
        ladder(A, A, A, A),
        Tree(A, (a, ladder(A, A))),
        Tree(A, (Tree(A, (a, a)),)),
        Tree(A, (a, a, a)),
    }


def test_trees_respect_label_degrees():
    # degree 3 over {(1,1), (1,2)}: two all-light shapes plus the two
    # two-vertex mixed ladders; no single vertex has degree 3
    got = set(trees_of_degree((A, C), 3))
    a, c = leaf(1), leaf(1, 2)
    assert got == {ladder(A, A, A), Tree(A, (a, a)),
                   Tree(A, (c,)), Tree(C, (a,))}


def test_forest_counts_shift_tree_counts():
    # hanging a forest under a fresh root is a bijection onto trees of one
    # higher degree, when all labels have degree 1
    for n in range(0, 7):
        forests = forests_of_degree(TWO_LABELS, n) if n else (EMPTY_FOREST,)
        rooted = {Tree(A, f.trees) for f in forests}
        wanted = {t for t in trees_of_degree(TWO_LABELS, n + 1)
                  if t.decoration == A}
        assert rooted == wanted


def test_enumeration_is_sorted_and_duplicate_free():
    ts = trees_of_degree(TWO_LABELS, 4)
    assert list(ts) == sorted(set(ts), key=lambda t: t.key)
    fs = forests_of_degree(TWO_LABELS, 4)
    assert list(fs) == sorted(set(fs), key=lambda f: f.key)


# ------------------------------------------------------------- text format

def test_text_examples():
    assert tree_text(leaf(1)) == "(1.1:)"
    assert tree_text(ladder(A, B)) == "(1.1: (2.1:))"
    assert tree_text(Tree(C, (leaf(1), leaf(2)))) == "(1.2: (1.1:) (2.1:))"
    assert forest_text(EMPTY_FOREST) == "1"
    assert forest_text(single(leaf(1)) * single(leaf(2))) == "(1.1:) (2.1:)"


def test_deep_ladder_text_stays_clear_of_the_recursion_limit():
    depth = 1500
    want = "(1.1: " * (depth - 1) + "(1.1:" + ")" * depth
    assert tree_text(ladder(*[A] * depth)) == want


def test_deep_ladder_parse_stays_clear_of_the_recursion_limit():
    text = tree_text(ladder(*[(1, 1)] * 1500))
    t = parse_tree(text)
    assert t.degree == t.vertices == 1500
    assert tree_text(t) == text
    assert forest_text(parse_forest(text + " (2.1:)")) == "(2.1:) " + text


def test_text_round_trip_exhaustive():
    for t in trees_up_to(TWO_LABELS + (C,), 4):
        assert parse_tree(tree_text(t)) == t
    for f in forests_up_to(TWO_LABELS, 4):
        assert parse_forest(forest_text(f)) == f


@given(random_trees())
def test_text_round_trip_random(t):
    assert parse_tree(tree_text(t)) == t


def test_parse_tolerates_spacing():
    assert parse_tree("  (1.1:(2.1:)  (2.1:) )") == Tree(A, (leaf(2), leaf(2)))
    assert parse_forest(" (1.1:)   (2.1:) ") == Forest((leaf(1), leaf(2)))


@pytest.mark.parametrize("bad", [
    "", "(", "(1.1", "(1:)", "(1.1:", "(1.1:))", "(x.1:)",
    "(1.1:) extra", "1 (1.1:)",
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(TreeSyntaxError):
        parse_forest(bad)
