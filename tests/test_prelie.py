"""Grafting, the forest composition product, and the word-side dual."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from cdse import (
    Decoration,
    Forest,
    ForestSum,
    TensorSum,
    Tree,
    WordSum,
    circ,
    circ_recursive,
    coproduct,
    affine_circ,
    falling_product,
    fdb_circ,
    fdb_circ_recursive,
    fdb_image,
    fdb_solution,
    fdb_solution_recursive,
    fdb_surjective,
    forests_of_degree,
    graft,
    ladder,
    leaf,
    pairing,
    reachable_degrees,
    single,
    star,
    tensor_pairing,
    tree_weight,
    trees_of_degree,
)
from cdse import linear, prelie, suites
from cdse.families import build_case1
from cdse.hopf import forest_coproduct
from cdse.linear import LinComb
from cdse.solver import solve

from helpers import TWO_LABELS, forests_up_to, trees_up_to

F = Fraction
A, B, C = Decoration(1, 1), Decoration(2, 1), Decoration(3, 1)


def tfs(t, c=1):
    return ForestSum.of_tree(t, c)


# ---------------------------------------------------------------- grafting

def test_graft_single_vertices():
    assert graft(leaf(1), Tree(B)) == tfs(Tree(B, (leaf(1),)))


def test_graft_offers_every_vertex():
    target = Tree(B, (Tree(C),))
    got = graft(leaf(1), target)
    want = (tfs(Tree(B, (Tree(C), leaf(1))))
            + tfs(Tree(B, (Tree(C, (leaf(1),)),))))
    assert got == want


def test_graft_coefficients_count_vertices():
    for t in trees_up_to(TWO_LABELS, 4):
        total = sum(graft(leaf(1), t).terms.values())
        assert total == t.vertices


# ------------------------------------------------------- forest composition

def test_circ_unit_laws():
    g = ForestSum.term(Forest((leaf(1), Tree(B, (leaf(1),))))).scale(3)
    assert circ(ForestSum.one(), g) == g
    # the empty forest absorbs everything else through the counit
    assert circ(g, ForestSum.one()) == ForestSum.zero()
    assert circ(ForestSum.one(), ForestSum.one()) == ForestSum.one()


def test_circ_pair_of_leaves_onto_a_leaf():
    f = ForestSum.term(Forest((leaf(1), leaf(1))))
    assert circ(f, tfs(Tree(B))) == tfs(Tree(B, (leaf(1), leaf(1))))


def test_circ_closed_equals_recursive():
    pool = forests_up_to(TWO_LABELS, 3)
    for fa in pool:
        for fb in pool:
            if 0 < fa.degree + fb.degree <= 5 and fb.degree:
                x, y = ForestSum.term(fa), ForestSum.term(fb)
                assert circ(x, y) == circ_recursive(x, y)


def test_trees_form_a_left_prelie_algebra():
    """Associator symmetric in the two left arguments, trees of degree <= 5."""
    def assoc(x, y, z):
        return circ(circ(x, y), z) - circ(x, circ(y, z))

    trees = trees_up_to(TWO_LABELS, 3)
    for t1, t2, t3 in itertools.product(trees, repeat=3):
        if t1.degree + t2.degree + t3.degree > 5:
            continue
        x, y, z = tfs(t1), tfs(t2), tfs(t3)
        assert assoc(x, y, z) == assoc(y, x, z)


# -------------------------------------------------------- composition star

def test_star_units():
    f = ForestSum.term(Forest((leaf(1), leaf(2))))
    assert star(ForestSum.one(), f) == f
    assert star(f, ForestSum.one()) == f


def test_star_two_leaves():
    got = star(tfs(leaf(1)), tfs(Tree(B)))
    want = ForestSum.term(Forest((leaf(1), Tree(B)))) + tfs(Tree(B, (leaf(1),)))
    assert got == want


def test_star_associative():
    pool = [f for f in forests_up_to(TWO_LABELS, 2)]
    for fa, fb, fc in itertools.product(pool, repeat=3):
        if fa.degree + fb.degree + fc.degree > 4:
            continue
        x, y, z = (ForestSum.term(f) for f in (fa, fb, fc))
        assert star(star(x, y), z) == star(x, star(y, z))


def test_star_is_dual_to_the_coproduct():
    """<F * G, H> = <F (x) G, Delta H>, exhaustively to degree 4."""
    pool = forests_up_to(TWO_LABELS, 4)
    by_degree = {}
    for f in pool:
        by_degree.setdefault(f.degree, []).append(f)
    deltas = {fh: coproduct(ForestSum.term(fh)) for fh in pool}
    checks = 0
    for fa in pool:
        for fb in pool:
            d = fa.degree + fb.degree
            if d > 4:
                continue
            lhs_vec = star(ForestSum.term(fa), ForestSum.term(fb))
            rhs_vec = TensorSum.of(fa, fb)
            for fh in by_degree.get(d, ()):
                assert (pairing(lhs_vec, ForestSum.term(fh))
                        == tensor_pairing(rhs_vec, deltas[fh]))
                checks += 1
    assert checks == 41_484


def _duality_pool():
    """(F, G, H) with H of degree F + G, H outermost, so that each (F, G)
    comes back once per H and never twice in a row."""
    pool = forests_up_to(TWO_LABELS, 3)
    return [(fa, fb, fh) for d in (2, 3)
            for fh in forests_of_degree(TWO_LABELS, d)
            for fa in pool for fb in pool
            if fa.degree and fb.degree and fa.degree + fb.degree == d]


def test_duality_check_computes_each_product_once(monkeypatch):
    real = suites.star
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return real(x, y)

    monkeypatch.setattr(suites, "star", counted)
    pool = _duality_pool()
    got = suites.composition_coproduct_duality(iter(pool))
    pairs = {(fa, fb) for fa, fb, _ in pool}
    assert len(pool) > 2 * len(pairs)
    assert got == (len(pool), [])
    assert len(calls) == len(pairs)
    assert set(calls) == {(ForestSum.term(fa), ForestSum.term(fb))
                          for fa, fb in pairs}


def test_duality_check_keeps_a_verdict_per_triple(monkeypatch):
    real = suites.star
    pool = _duality_pool()
    bad_f, bad_g, _ = pool[len(pool) // 2]
    bad = (ForestSum.term(bad_f), ForestSum.term(bad_g))
    # off by one in the coefficient of every forest of the product's degree
    shift = ForestSum((fh, 1) for fh in forests_of_degree(
        TWO_LABELS, bad_f.degree + bad_g.degree))

    def wrong_once(x, y):
        return real(x, y) + shift if (x, y) == bad else real(x, y)

    monkeypatch.setattr(suites, "star", wrong_once)
    got = suites.composition_coproduct_duality(pool)
    want = [item for item in pool if item[:2] == (bad_f, bad_g)]
    assert len(want) > 1
    assert got == (len(pool), want)
    # off at a single forest: only that one triple fails
    bad_h = want[-1][2]
    shift = ForestSum.term(bad_h)
    got = suites.composition_coproduct_duality(pool)
    assert got == (len(pool), [(bad_f, bad_g, bad_h)])
    # a pool that is not H-major gets the same verdicts, in its own order
    random.Random(3).shuffle(pool)
    got = suites.composition_coproduct_duality(pool)
    assert got == (len(pool), [(bad_f, bad_g, bad_h)])
    shift = ForestSum((fh, 1) for fh in forests_of_degree(
        TWO_LABELS, bad_f.degree + bad_g.degree))
    got = suites.composition_coproduct_duality(pool)
    assert got == (len(pool),
                   [item for item in pool if item[:2] == (bad_f, bad_g)])


def test_duality_check_fails_a_coefficient_present_on_one_side(monkeypatch):
    pool = _duality_pool()
    sides = {(fa, fb, fh): (fh in star(ForestSum.term(fa),
                                       ForestSum.term(fb)).terms,
                            (fa, fb) in forest_coproduct(fh).terms)
             for fa, fb, fh in pool}
    # most triples read 0 against 0, and they pass
    absent = [item for item in pool if sides[item] == (False, False)]
    present = [item for item in pool if sides[item] == (True, True)]
    assert len(absent) > len(present) > 0
    assert len(absent) + len(present) == len(pool)
    assert suites.composition_coproduct_duality(absent) == (len(absent), [])

    # the product gains a term: present in star only
    fa, fb, fh = absent[len(absent) // 2]
    real_star = suites.star
    monkeypatch.setattr(suites, "star", lambda x, y: (
        real_star(x, y) + ForestSum.term(fh)
        if (x, y) == (ForestSum.term(fa), ForestSum.term(fb))
        else real_star(x, y)))
    assert suites.composition_coproduct_duality(pool) == (len(pool),
                                                          [(fa, fb, fh)])
    monkeypatch.setattr(suites, "star", real_star)

    # the coproduct loses a term: present in star only the other way round
    fa, fb, fh = present[len(present) // 2]
    real_coproduct = suites.forest_coproduct

    def drops_a_term(f):
        delta = real_coproduct(f)
        if f != fh:
            return delta
        return TensorSum({k: c for k, c in delta.terms.items()
                          if k != (fa, fb)})

    monkeypatch.setattr(suites, "forest_coproduct", drops_a_term)
    assert suites.composition_coproduct_duality(pool) == (len(pool),
                                                          [(fa, fb, fh)])


# ------------------------------------------------ the prelie-verify pools

def _cli_pool(name, N=4, seed=0):
    return next(pool for got, _, pool in suites._prelie_verify_pools(N, seed)
                if got == name)


def _all_triples(N):
    """The pre-Lie pool by brute force: every triple of trees filtered by
    total degree.  Trees of degree 5 (in the pool from N = 5 on) cannot
    meet two more trees inside the total of 5, so stopping at 4 keeps
    every item that filter kept, in its order, at a fraction of the cost."""
    trees = [(t, d) for d in range(1, min(N, 4) + 1)
             for t in trees_of_degree(TWO_LABELS, d)]
    return [(a, b, c) for a, da in trees for b, db in trees for c, dc in trees
            if da + db + dc <= min(N + 2, 5)]


@pytest.mark.parametrize("N", range(1, 7))
def test_prelie_verify_pools_keep_their_items_and_order(N):
    everything = _all_triples(N)
    forests = {d: forests_of_degree(TWO_LABELS, d) for d in range(1, 5)}
    duals = {(fa, fb, fh) for d in range(2, min(N, 4) + 1)
             for k in range(1, d) for fa in forests[k]
             for fb in forests[d - k] for fh in forests[d]}
    for seed in (0, 7):
        pools = {name: pool
                 for name, _, pool in suites._prelie_verify_pools(N, seed)}
        assert pools["pre-lie-identity"] == suites._sampled(everything, 600,
                                                            seed)
        # pair-major: the three word parameters of one pair sit together
        assert pools["tree-to-word-morphism"] == [
            (lam, mu, fa, fb) for fa, fb in pools["grafting-closed-vs-recursive"]
            for lam, mu in suites._WORD_PARAMETERS]
        # H-major: the triples of one H sit together, every split of its
        # degree included
        pool = list(pools["composition-coproduct-duality"])
        assert len(pool) == len(duals) and set(pool) == duals
        seen, last = set(), None
        for _, _, fh in pool:
            if fh != last:
                last = fh
                assert fh not in seen
                seen.add(fh)


def _counting(monkeypatch, name):
    real = getattr(suites, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(suites, name, counted)
    return calls


def _basis_keys(calls):
    """The arguments of each call, every linear combination among them
    replaced by its key: each must be one basis element with coefficient 1.
    """
    out = []
    for args in calls:
        keys = []
        for arg in args:
            if isinstance(arg, LinComb):
                (arg, c), = arg.terms.items()
                assert c == 1
            keys.append(arg)
        out.append(tuple(keys))
    return out


def _wrong_at(real, bad, shift):
    """The bilinear product that is real on every basis pair but bad, where
    it is off by shift."""
    def product(x, y):
        out = ForestSum()
        for fa, ca in x.terms.items():
            for fb, cb in y.terms.items():
                got = real(ForestSum.term(fa), ForestSum.term(fb))
                out.add_scaled(got + shift if (fa, fb) == bad else got, ca * cb)
        return out
    return product


def test_pre_lie_identity_computes_each_product_once(monkeypatch):
    calls = _counting(monkeypatch, "circ")
    pool = _cli_pool("pre-lie-identity")
    got = suites.pre_lie_identity(iter(pool))
    pairs = _basis_keys(calls)
    assert got == (len(pool), [])
    # 3,264 basis-pair products over the 320 triples, 412 of them distinct
    assert len(pairs) == len(set(pairs)) == 412
    assert set(pairs) >= {(Forest((a,)), Forest((b,)))
                          for a, b, c in pool}


def test_pre_lie_identity_keeps_a_verdict_per_triple(monkeypatch):
    pool = _cli_pool("pre-lie-identity")
    a, b, c = pool[len(pool) // 2]
    # a grafted tree met again as the left factor of an outer product
    inner = sorted(circ(tfs(a), tfs(b)).terms)[0]
    bad = (inner, Forest((c,)))
    wrong = _wrong_at(suites.circ, bad, ForestSum.term(Forest((a, c))))

    def holds(a, b, c):
        # the per-item formula, the route the check had before it shared
        x, y, z = tfs(a), tfs(b), tfs(c)
        return (wrong(wrong(x, y), z) - wrong(x, wrong(y, z))
                == wrong(wrong(y, x), z) - wrong(y, wrong(x, z)))

    want = [item for item in pool if not holds(*item)]
    assert 1 < len(want) < len(pool)
    monkeypatch.setattr(suites, "circ", wrong)
    assert suites.pre_lie_identity(pool) == (len(pool), want)


def test_tree_to_word_check_computes_each_product_once(monkeypatch):
    calls = _counting(monkeypatch, "circ")
    pool = _cli_pool("tree-to-word-morphism")
    got = suites.tree_to_word_morphism(iter(pool))
    pairs = {(fa, fb) for _, _, fa, fb in pool}
    assert got == (len(pool), [])
    assert len(pool) == 3 * len(pairs)
    assert sorted(_basis_keys(calls)) == sorted(pairs)


def test_tree_to_word_check_keeps_a_verdict_per_item(monkeypatch):
    pool = _cli_pool("tree-to-word-morphism")
    _, _, bad_f, bad_g = pool[len(pool) // 2]
    # a forest of leaves weighs 1 for every (lam, mu): its image is never 0
    leaves = Forest((leaf(1),) * (bad_f.degree + bad_g.degree))
    monkeypatch.setattr(suites, "circ", _wrong_at(
        suites.circ, (bad_f, bad_g), ForestSum.term(leaves)))
    want = [item for item in pool if item[2:] == (bad_f, bad_g)]
    assert len(want) == 3
    assert suites.tree_to_word_morphism(pool) == (len(pool), want)


def test_tree_to_word_check_computes_each_basis_value_once(monkeypatch):
    image_calls = _counting(monkeypatch, "fdb_image")
    word_calls = _counting(monkeypatch, "fdb_circ")
    weight_calls = []
    real_weight = prelie.tree_weight

    def weight(*args):
        weight_calls.append(args)
        return real_weight(*args)

    monkeypatch.setattr(prelie, "tree_weight", weight)
    pool = _cli_pool("tree-to-word-morphism")
    assert suites.tree_to_word_morphism(iter(pool)) == (len(pool), [])
    weighed = list(weight_calls)
    images = _basis_keys(image_calls)
    products = _basis_keys(word_calls)
    want_images, want_products = set(), set()
    for lam, mu, fa, fb in pool:
        x, y = ForestSum.term(fa), ForestSum.term(fb)
        want_images.update((lam, mu, fh) for fh in (fa, fb, *circ(x, y).terms))
        want_products.update((lam, mu, w, v)
                             for w in fdb_image(lam, mu, x).terms
                             for v in fdb_image(lam, mu, y).terms)
    # 1,635 basis images and 84 basis word products for the 1,200 items,
    # where three images and one word product per item took 3,600 and 1,200
    assert len(images) == len(set(images)) == 1635
    assert set(images) == want_images
    assert len(products) == len(set(products)) == 84
    assert set(products) == want_products
    # 795 tree weights for the 1,635 images, where weighing each tree of
    # each image took 2,788
    assert len(weighed) == len(set(weighed)) == 795
    assert set(weighed) == {(lam, mu, t) for lam, mu, fh in want_images
                            for t in fh.trees}


def test_tree_to_word_check_keeps_a_verdict_per_item_on_a_wrong_image(
        monkeypatch):
    pool = _cli_pool("tree-to-word-morphism")
    lam, mu, fa, fb = pool[len(pool) // 2]
    # a forest of one product's support, at one word parameter
    bad = (lam, mu, min(circ(ForestSum.term(fa), ForestSum.term(fb)).terms))
    real = suites.fdb_image

    def wrong(lam, mu, x, **kwargs):
        # real on every basis forest but bad, where it is off by a letter
        out = WordSum()
        for fh, c in x.terms.items():
            got = real(lam, mu, ForestSum.term(fh), **kwargs)
            if (lam, mu, fh) == bad:
                got = got + WordSum.gen(fh.degree)
            out.add_scaled(got, c)
        return out

    def holds(lam, mu, fa, fb):
        # the per-item formula, the route the check had before it shared
        x, y = ForestSum.term(fa), ForestSum.term(fb)
        return wrong(lam, mu, circ(x, y)) == fdb_circ(
            lam, mu, wrong(lam, mu, x), wrong(lam, mu, y))

    want = [item for item in pool if not holds(*item)]
    assert 1 < len(want) < len(pool) // 3
    monkeypatch.setattr(suites, "fdb_image", wrong)
    assert suites.tree_to_word_morphism(pool) == (len(pool), want)


# ------------------------------------------------------------- word algebra

def test_falling_product():
    lam, mu = F(5), F(7)
    assert falling_product(lam, mu, 0, 9) == 1
    assert falling_product(lam, mu, 1, 3) == 3 * lam - mu
    assert falling_product(lam, mu, 2, 3) == (3 * lam - mu) * (3 * lam)
    assert falling_product(lam, mu, 4, 1) == (lam - mu) * lam * (lam + mu) * (lam + 2 * mu)


@pytest.mark.parametrize("lam, mu", [(2, -3), (0, 1), (1, 0), (-1, -1)])
def test_int_and_fraction_parameters_agree(lam, mu):
    fl, fm = F(lam), F(mu)
    for m, j in ((0, 3), (1, 2), (2, 1), (4, 3)):
        got = falling_product(lam, mu, m, j)
        assert type(got) is Fraction
        assert got == falling_product(fl, fm, m, j)
    for t in trees_up_to(TWO_LABELS, 4):
        got = tree_weight(lam, mu, t)
        assert type(got) is Fraction and got == tree_weight(fl, fm, t)
    a, b = WordSum.term((1, 2)), WordSum.term((1, 1, 3))
    got = fdb_circ(lam, mu, a, b)
    assert all(type(c) is Fraction for c in got.terms.values())
    assert got == fdb_circ(fl, fm, a, b)


def test_fdb_circ_generators():
    lam, mu = F(2), F(5)
    for i, j in itertools.product(range(1, 4), repeat=2):
        assert fdb_circ(lam, mu, WordSum.gen(i), WordSum.gen(j)) == \
            WordSum.term((i + j,), lam * j - mu)


def test_fdb_circ_two_letter_word():
    lam, mu = F(2), F(5)
    w = WordSum.term((1, 2))
    got = fdb_circ(lam, mu, w, WordSum.gen(3))
    assert got == WordSum.term((6,), (3 * lam - mu) * (3 * lam))


def test_fdb_circ_vanishing_factor():
    # (lam - mu)(lam)(lam + mu) with lam=1, mu=-1 hits the zero factor
    w = WordSum.term((1, 1, 1))
    assert fdb_circ(1, -1, w, WordSum.gen(1)) == WordSum.zero()


def words_up_to(bound):
    out = []
    def rec(prefix, smallest, left):
        if prefix:
            out.append(tuple(prefix))
        for j in range(smallest, left + 1):
            prefix.append(j)
            rec(prefix, j, left - j)
            prefix.pop()
    rec([], 1, bound)
    return out


@pytest.mark.parametrize("lam,mu", [(1, -1), (0, 2), (3, 3)])
def test_fdb_closed_equals_recursive(lam, mu):
    ws = words_up_to(5)
    for wa in ws:
        for wb in ws:
            if sum(wa) + sum(wb) > 6:
                continue
            a, b = WordSum.term(wa), WordSum.term(wb)
            assert fdb_circ(lam, mu, a, b) == fdb_circ_recursive(lam, mu, a, b)


@given(st.fractions(max_denominator=6), st.fractions(max_denominator=6),
       st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_fdb_prelie_identity_on_generators(lam, mu, i, j, k):
    x, y, z = WordSum.gen(i), WordSum.gen(j), WordSum.gen(k)

    def assoc(a, b, c):
        return (fdb_circ(lam, mu, fdb_circ(lam, mu, a, b), c)
                - fdb_circ(lam, mu, a, fdb_circ(lam, mu, b, c)))

    assert assoc(x, y, z) == assoc(y, x, z)


def test_fdb_lie_bracket_drops_mu():
    for lam, mu in ((F(2), F(7)), (F(1), F(0))):
        for i, j in itertools.product(range(1, 5), repeat=2):
            bracket = (fdb_circ(lam, mu, WordSum.gen(i), WordSum.gen(j))
                       - fdb_circ(lam, mu, WordSum.gen(j), WordSum.gen(i)))
            assert bracket == WordSum.term((i + j,), lam * (j - i))


# --------------------------------------------------------- trees to words

def test_tree_weight_examples():
    assert tree_weight(F(9), F(4), leaf(1)) == 1
    t = Tree(A, (leaf(1),))
    assert tree_weight(1, -1, t) == 2        # one child of degree 1: lam - mu
    assert tree_weight(0, 0, t) == 0
    for u in trees_up_to((A,), 4):
        if u.vertices >= 2:
            assert tree_weight(0, 0, u) == 0


def test_deep_ladder_weight_stays_clear_of_the_recursion_limit():
    # every inner vertex of a ladder has one child of degree 1: lam - mu
    t = ladder(*[(1, 1)] * 1500)
    assert tree_weight(F(2), F(1), t) == 1
    assert tree_weight(F(3), F(1), t) == 2 ** 1499
    assert tree_weight(F(1), F(1), t) == 0


def test_products_on_a_deep_ladder_stay_clear_of_the_recursion_limit():
    n = 600
    t = ladder(*[A] * n)
    got = graft(leaf(1), t)
    assert len(got.terms) == n and set(got.terms.values()) == {1}
    assert single(ladder(*[A] * (n + 1))) in got.terms
    assert single(Tree(A, (t.children[0], leaf(1)))) in got.terms
    assert circ(leaf(1), t) == got
    assert star(leaf(1), t) == got + ForestSum.term(Forest((leaf(1), t)))


def _vertex_factors(lam, mu, t):
    """falling_product(m, j) of every vertex, leaves included."""
    todo, out = [t], F(1)
    while todo:
        v = todo.pop()
        todo.extend(v.children)
        out *= falling_product(lam, mu, len(v.children), v.decoration.degree)
    return out


WEIGHT_TREES = (trees_up_to((A, Decoration(1, 2), Decoration(2, 3)), 6)
                + [Tree(A, [leaf(1)] * 1000),
                   Tree(A, [Tree(A, (leaf(1), leaf(1, 2)))] * 1000),
                   ladder(*[(1, 1 + k % 2) for k in range(1500)])])


@given(st.sampled_from(WEIGHT_TREES), st.fractions(-3, 3, max_denominator=4),
       st.fractions(-3, 3, max_denominator=4))
@example(WEIGHT_TREES[-3], F(3, 2), F(-1, 4))  # the 1000-leaf corolla
@example(WEIGHT_TREES[-2], F(-2, 3), F(1, 2))
def test_tree_weight_is_the_product_over_vertices(t, lam, mu):
    assert tree_weight(lam, mu, t) == _vertex_factors(lam, mu, t)


def test_tree_weight_on_the_deep_ladder():
    t = WEIGHT_TREES[-1]
    assert t.vertices == 1500
    lam, mu = F(1, 2), F(-1, 3)
    assert tree_weight(lam, mu, t) == _vertex_factors(lam, mu, t) == math.prod(
        falling_product(lam, mu, 1, 1 + k % 2) for k in range(1499))


def test_image_is_a_prelie_morphism():
    """Mapping trees to words commutes with the two products, degree <= 5."""
    decs = (Decoration(1, 1), Decoration(1, 2))
    lam, mu = F(2), F(-3)
    trees = trees_up_to(decs, 4)
    for t, u in itertools.product(trees, repeat=2):
        if t.degree + u.degree > 5:
            continue
        lhs = fdb_image(lam, mu, circ(tfs(t), tfs(u)))
        rhs = fdb_circ(lam, mu, fdb_image(lam, mu, tfs(t)),
                       fdb_image(lam, mu, tfs(u)))
        assert lhs == rhs


def test_image_multiplies_over_forests():
    lam, mu = F(1), F(-1)
    t = Tree(Decoration(1, 1))
    f = ForestSum.term(Forest((t, t)))
    assert fdb_image(lam, mu, f) == WordSum.term((1, 1))


# ----------------------------------------------------- solution comparisons

def test_fdb_solution_small_values():
    assert fdb_solution(1, -1, {1}, 1) == tfs(leaf(1))
    assert fdb_solution(1, -1, {1}, 2) == tfs(Tree(A, (leaf(1),)), 2)


@pytest.mark.parametrize("lam,mu", [(F(1), F(-1)), (F(2), F(3))])
def test_fdb_solution_routes_agree(lam, mu):
    for n in range(1, 6):
        assert fdb_solution(lam, mu, {1}, n) == \
            fdb_solution_recursive(lam, mu, {1}, n)
    # a two-degree label set as well
    for n in range(1, 5):
        assert fdb_solution(lam, mu, {1, 2}, n) == \
            fdb_solution_recursive(lam, mu, {1, 2}, n)


@pytest.mark.parametrize("lam,mu", [(F(1), F(-1)), (F(2), F(3))])
def test_fdb_solution_matches_the_solver(lam, mu):
    S = build_case1({1}, lam, mu)
    sol = solve(S, 5)
    for n in range(1, 6):
        assert fdb_solution(lam, mu, {1}, n) == sol.component(1, n)


def test_fdb_surjective_cases():
    assert fdb_surjective({1}, 1, -1)
    assert not fdb_surjective({1}, 1, 1)
    assert fdb_surjective({1, 2}, 1, 1)
    assert not fdb_surjective({1, 2, 3}, 0, 0)
    assert fdb_surjective({1, 2, 3}, 0, 0, all_degrees=True)
    assert fdb_surjective({1}, 0, 5)
    assert not fdb_surjective({2}, 0, 5)


# --------------------------------------------------------- the gated product

def test_affine_circ_table():
    assert affine_circ(2, 1, WordSum.gen(1), WordSum.gen(2)) == WordSum.gen(3)
    assert affine_circ(2, 1, WordSum.gen(2), WordSum.gen(1)) == WordSum.zero()
    assert affine_circ(3, F(5), WordSum.gen(1), WordSum.gen(3)) == \
        WordSum.term((4,), F(5))


def test_affine_circ_letters_only():
    with pytest.raises(ValueError):
        affine_circ(2, 1, WordSum.term((1, 1)), WordSum.gen(2))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_affine_circ_associative(m):
    alpha = F(-2, 3)
    for i in range(1, 11):
        for j in range(1, 11 - i):
            for k in range(1, 13 - i - j):
                x, y, z = WordSum.gen(i), WordSum.gen(j), WordSum.gen(k)
                lhs = affine_circ(m, alpha, affine_circ(m, alpha, x, y), z)
                rhs = affine_circ(m, alpha, x, affine_circ(m, alpha, y, z))
                assert lhs == rhs


def test_reachable_degrees():
    # multiples of 2 chain freely; odd degrees need the one ungated step
    assert reachable_degrees({1, 2}, 2, 7) == [1, 2, 3, 4, 5, 6, 7]
    assert reachable_degrees({2}, 2, 8) == [2, 4, 6, 8]
    assert reachable_degrees({1}, 2, 6) == [1]
    assert reachable_degrees({1}, 1, 4) == [1, 2, 3, 4]


# ------------------------------------------- every product on mixed sums

MIXED = (F(1, 3), F(-5, 2), F(6))
WORD_LAMBDA_MU = ((F(3, 2), F(-1, 4)), (F(1, 3), F(1, 2)))


def _expansion(product, x, y):
    """product(x, y) expanded over basis pairs through scale and add_scaled."""
    cls = type(x)
    out = cls()
    for kx, cx in x.terms.items():
        for ky, cy in y.terms.items():
            out.add_scaled(product(cls.term(kx), cls.term(ky)).scale(cx), cy)
    return out


def _exact(x):
    """x, once every coefficient is a nonzero Fraction."""
    assert all(type(c) is Fraction and c for c in x.terms.values())
    return x


def _cancelling(product, cls, keys):
    """Sums x = c1 k1 + c2 k2 and y = d1 l1 + d2 l2 whose product has a
    term K that cancels: K lies in product(k1, l1) and product(k2, l2) but
    in neither cross product, and d2 is chosen to cancel it."""
    def basis(k, l):
        return product(cls.term(k), cls.term(l)).terms

    for k1, l1, k2, l2 in itertools.product(keys, repeat=4):
        if k1 == k2 or l1 == l2:
            continue
        p11, p22 = basis(k1, l1), basis(k2, l2)
        cross = basis(k1, l2).keys() | basis(k2, l1).keys()
        for K in p11:
            if K in p22 and K not in cross:
                c1, c2, d1 = MIXED
                d2 = -c1 * d1 * p11[K] / (c2 * p22[K])
                return cls({k1: c1, k2: c2}), cls({l1: d1, l2: d2}), K
    raise AssertionError("no cancelling pair among the keys")


def _check_on_mixed_sums(product, cls, left, right, keys):
    x, y = cls(zip(left, MIXED)), cls(zip(right, MIXED))
    assert _exact(product(x, y)) == _expansion(product, x, y)
    assert product(cls(), y) == cls() == product(x, cls())
    x, y, K = _cancelling(product, cls, keys)
    got = _exact(product(x, y))
    assert K not in got.terms
    assert got == _expansion(product, x, y)


@pytest.mark.parametrize("product", [circ, circ_recursive, star])
def test_forest_products_on_mixed_sums(product):
    a, b = leaf(1), Tree(B)
    left = [Forest((a,)), Forest((Tree(A, (b,)),)), Forest((a, b))]
    right = [Forest(()), Forest((Tree(B, (a,)),)), Forest((a, Tree(A, (a,))))]
    keys = [f for f in forests_up_to(TWO_LABELS, 2) if f.trees]
    _check_on_mixed_sums(product, ForestSum, left, right, keys)


def test_graft_on_trees_is_circ_with_exact_counts():
    trees = trees_up_to(TWO_LABELS, 3)
    for t, u in itertools.product(trees, repeat=2):
        assert _exact(graft(t, u)) == circ(tfs(t), tfs(u))


@pytest.mark.parametrize("lam, mu", WORD_LAMBDA_MU)
@pytest.mark.parametrize("product", [fdb_circ, fdb_circ_recursive])
def test_word_products_on_mixed_sums(product, lam, mu):
    def at(x, y):
        return product(lam, mu, x, y)

    left = [(), (1, 2), (2, 2)]
    right = [(1,), (3,), (1, 1)]
    keys = [(1,), (2,), (1, 1), (1, 2)]
    _check_on_mixed_sums(at, WordSum, left, right, keys)


@pytest.mark.parametrize("modulus", [1, 2])
def test_gated_product_on_mixed_sums(modulus):
    def at(x, y):
        return affine_circ(modulus, F(-2, 3), x, y)

    letters = [(1,), (2,), (3,), (4,)]
    _check_on_mixed_sums(at, WordSum, letters[:3], letters[1:], letters)


def test_products_make_one_fraction_per_output_term(monkeypatch):
    """On basis arguments circ, star and fdb_circ count in ints: the only
    Fractions made are the result's coefficients, one per term, and the
    only linear combination built is the result."""
    made, built = [], []

    class Counted(Fraction):
        def __new__(cls, *args):
            made.append(args)
            return Fraction(*args)

    real_like, real_init = LinComb._like.__func__, LinComb.__init__

    def like(cls, terms):
        built.append(cls)
        return real_like(cls, terms)

    def init(self, terms=None):
        built.append(type(self))
        real_init(self, terms)

    x = ForestSum.term(Forest((leaf(1), Tree(B, (leaf(1),)))))
    y = ForestSum.term(Forest((Tree(A, (leaf(1), Tree(B))), leaf(2))))
    w, v = WordSum.term((1, 1, 2)), WordSum.term((1, 2, 3))
    lam, mu = F(3, 2), F(-1, 4)
    cases = [(circ, x, y), (star, x, y),
             (lambda a, b: fdb_circ(lam, mu, a, b), w, v)]
    for module in (prelie, linear):
        monkeypatch.setattr(module, "Fraction", Counted)
    monkeypatch.setattr(LinComb, "_like", classmethod(like))
    monkeypatch.setattr(LinComb, "__init__", init)
    for product, a, b in cases:
        del made[:], built[:]
        got = product(a, b)
        assert len(got.terms) > 4
        assert len(made) == len(got.terms)
        assert built == [type(a)]
        assert all(type(c) is Fraction and c for c in got.terms.values())
