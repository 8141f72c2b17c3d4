"""Coproduct, pairing, grafting: checked against cut enumeration."""

import random
from fractions import Fraction

from cdse import (
    Decoration,
    Forest,
    ForestSum,
    TensorSum,
    coproduct,
    counit,
    forest_symmetry,
    graft_operator,
    pairing,
    reduced_coproduct,
    tensor,
    tensor_pairing,
    tree_coproduct,
    Tree,
    ladder,
    leaf,
    single,
    forests_of_degree,
    parse_system_text,
    slice_coordinates,
    solve,
)
from cdse.families import parse_family_text
from cdse.hopf import forest_coproduct
from cdse.linear import LinComb
from cdse.suites import (cocycle_identity, coassociativity, counit_axiom,
                         coproduct_grading, coproduct_multiplicativity)
from cdse.trees import EMPTY_FOREST

from helpers import TWO_LABELS, cut_coproduct, forests_up_to

A, B, C = Decoration(1, 1), Decoration(2, 1), Decoration(3, 1)
ONE = EMPTY_FOREST


def fs(*trees):
    out = ForestSum.one()
    for t in trees:
        out = out * ForestSum.of_tree(t)
    return out


def test_coproduct_of_a_leaf():
    t = leaf(1)
    assert tree_coproduct(t) == (TensorSum.of(single(t), ONE)
                                 + TensorSum.of(ONE, single(t)))


def test_coproduct_of_a_deep_ladder():
    """The subtrees' coproducts are filled in children first with a stack,
    so a 600-level ladder stays clear of the recursion limit: one cut above
    each non-root vertex and the two end terms, each counted once."""
    t = ladder(*[A] * 600)
    for delta in (tree_coproduct(t), coproduct(ForestSum.of_tree(t))):
        assert len(delta.terms) == 601
        assert set(delta.terms.values()) == {1}
        assert delta.terms[single(leaf(1)), single(ladder(*[A] * 599))] == 1


def test_coproduct_two_distinct_children_has_five_terms():
    t = Tree(A, (Tree(B), Tree(C)))
    got = tree_coproduct(t)
    want = (TensorSum.of(single(t), ONE)
            + TensorSum.of(ONE, single(t))
            + TensorSum.of(single(Tree(B)), single(Tree(A, (Tree(C),))))
            + TensorSum.of(single(Tree(C)), single(Tree(A, (Tree(B),))))
            + TensorSum.of(Forest((Tree(B), Tree(C))), single(Tree(A))))
    assert got == want
    assert len(got.terms) == 5


def test_coproduct_repeated_children_counts_cuts():
    # both edges to the identical children are distinct cuts
    t = Tree(A, (leaf(2), leaf(2)))
    got = tree_coproduct(t)
    assert got.terms[(single(leaf(2)), single(Tree(A, (leaf(2),))))] == 2


def test_coproduct_matches_cut_enumeration_exhaustively():
    for f in forests_up_to(TWO_LABELS, 4):
        assert coproduct(ForestSum.term(f)) == cut_coproduct(f)


def test_coproduct_matches_cut_enumeration_sampled_degree_5():
    pool = list(forests_of_degree(TWO_LABELS, 5))
    rng = random.Random(7)
    for f in rng.sample(pool, 25):
        assert coproduct(ForestSum.term(f)) == cut_coproduct(f)


def test_cut_counts_are_ints_and_coproducts_are_fractions():
    """tree_coproduct and forest_coproduct count cuts in ints; coproduct and
    reduced_coproduct, linear in a forest sum, give Fractions, coefficient
    1 included, and so do slice coordinates."""
    pool = forests_up_to(TWO_LABELS, 4)
    for f in pool:
        assert forest_coproduct(f) == cut_coproduct(f)
        deltas = [forest_coproduct(f)] + [tree_coproduct(t) for t in f.trees]
        assert all(type(c) is int for d in deltas for c in d.terms.values())
    third = Fraction(1, 3)
    rng = random.Random(11)
    sums = [ForestSum.term(pool[5]), ForestSum.term(pool[-1])]
    sums += [ForestSum(zip(rng.sample(pool, 4), (1, third, Fraction(-5, 2), 6)))
             for _ in range(10)]
    for x in sums:
        want = TensorSum.zero()
        for f, c in x.terms.items():
            want.add_scaled(cut_coproduct(f), c)
        got = coproduct(x)
        assert got == want
        reduced = reduced_coproduct(x)
        for delta in (got, reduced):
            assert delta.terms
            assert all(type(c) is Fraction for c in delta.terms.values())
    # the a (x) b terms of ab and of B_b(a) cancel: no zero is kept
    a, b = leaf(1), leaf(2)
    x = fs(a, b) - ForestSum.of_tree(Tree(b.decoration, (a,)))
    assert (single(a), single(b)) not in coproduct(x).terms
    assert coproduct(x) == cut_coproduct(Forest((a, b))) - cut_coproduct(
        single(Tree(b.decoration, (a,))))
    sol = solve(parse_system_text("vars 1\neq 1\n  op 1 : (1 + h1)^2\n"), 4)
    coords = slice_coordinates(sol, 1, 4, 2)
    assert coords and all(type(c) is Fraction for c in coords.values())


INTRO = """family fundamental
vertex 1 kind damped beta -1/3 degrees 1..
vertex 2 kind reduced degrees 1
vertex 3 kind damped beta 1 degrees 1
rescale 1 3
"""


def test_shared_children_are_multiplied_once(monkeypatch):
    """One coproduct call multiplies the coproducts of a children tuple
    once, however many root decorations share it: on the solution of INTRO
    at N=5, k - 1 products per distinct tuple of k >= 2 children (965 when
    each tree formed its own).  The result still matches cut enumeration."""
    sol = solve(parse_family_text(INTRO), 5)
    x = ForestSum.zero()
    for comp in sol.components.values():
        x.add_scaled(comp)
    products = []
    mul = LinComb.__mul__
    monkeypatch.setattr(LinComb, "__mul__",
                        lambda a, b: products.append(1) or mul(a, b))
    got = coproduct(x)
    monkeypatch.undo()
    subtrees, todo = set(), [f.trees[0] for f in x.terms]
    while todo:
        t = todo.pop()
        if t not in subtrees:
            subtrees.add(t)
            todo += t.children
    shared = {t.children for t in subtrees if len(t.children) > 1}
    assert len(products) == sum(len(kids) - 1 for kids in shared) == 380
    want = TensorSum.zero()
    for f, c in x.terms.items():
        want.add_scaled(cut_coproduct(f), c)
    assert got == want


def test_coproduct_of_unit():
    assert coproduct(ForestSum.one()) == TensorSum.of(ONE, ONE)
    assert coproduct(ForestSum.zero()) == TensorSum.zero()


def test_coassociativity_exhaustive_degree_4():
    pool = [(f,) for f in forests_up_to(TWO_LABELS, 4)]
    assert coassociativity(pool).failures == []


def test_coassociativity_sampled_degree_5():
    pool = list(forests_of_degree(TWO_LABELS, 5))
    rng = random.Random(11)
    assert coassociativity([(f,) for f in rng.sample(pool, 20)]).failures == []


def test_counit_axiom():
    pool = [(f,) for f in forests_up_to(TWO_LABELS, 4)]
    assert counit_axiom(pool).failures == []


def test_counit_values():
    assert counit(ForestSum.one()) == 1
    assert counit(ForestSum.of_tree(leaf(1))) == 0
    assert counit(ForestSum.one().scale(3) + ForestSum.of_tree(leaf(1))) == 3


def test_multiplicativity():
    pool = forests_up_to(TWO_LABELS, 3)
    pairs = [(f, g) for f in pool for g in pool if f.degree + g.degree <= 4]
    assert coproduct_multiplicativity(pairs).failures == []


def test_cocycle_identity():
    # the graft operator B satisfies delta(B(x)) = B(x) (x) 1 + (id (x) B) delta(x)
    pool = [(d, f) for d in (A, Decoration(1, 2))
            for f in forests_up_to(TWO_LABELS, 4)]
    assert cocycle_identity(pool).failures == []


def test_grading():
    pool = [(f,) for f in forests_up_to(TWO_LABELS + (Decoration(1, 2),), 4)]
    assert coproduct_grading(pool).failures == []


def test_bidegree_selector():
    t = Tree(A, (Tree(B), Tree(C)))
    d = tree_coproduct(t)
    assert d.bidegree(1, 2).terms == {
        (single(Tree(B)), single(Tree(A, (Tree(C),)))): Fraction(1),
        (single(Tree(C)), single(Tree(A, (Tree(B),)))): Fraction(1),
    }
    assert sum(len(d.bidegree(k, 3 - k).terms) for k in range(4)) == 5


def test_reduced_coproduct():
    t = leaf(1)
    assert reduced_coproduct(ForestSum.of_tree(t)) == TensorSum.zero()
    u = Tree(A, (t,))
    assert reduced_coproduct(ForestSum.of_tree(u)) == TensorSum.of(
        single(t), single(t))
    # literal subtraction, so the unit picks up -(1 (x) 1); callers only
    # feed it augmentation-ideal elements
    assert reduced_coproduct(ForestSum.one()) == TensorSum.of(ONE, ONE, -1)


def test_graft_operator():
    assert graft_operator(A, ForestSum.one()) == ForestSum.of_tree(leaf(1))
    f = Forest((leaf(2), leaf(3)))
    assert graft_operator(A, ForestSum.term(f)) == ForestSum.of_tree(
        Tree(A, (leaf(2), leaf(3))))
    # linearity
    x = ForestSum.one().scale(2) + ForestSum.of_tree(leaf(2)).scale(-3)
    assert graft_operator(A, x) == (ForestSum.of_tree(leaf(1)).scale(2)
                                    + ForestSum.of_tree(Tree(A, (leaf(2),))).scale(-3))


def test_pairing_examples():
    one = ForestSum.one()
    assert pairing(one, one) == 1
    a = ForestSum.of_tree(leaf(1))
    assert pairing(a, a) == 1
    aa = ForestSum.term(Forest((leaf(1), leaf(1))))
    assert pairing(aa, aa) == 2
    assert pairing(a, aa) == 0
    assert pairing(one, a) == 0


def test_pairing_is_the_symmetry_diagonal():
    pool = forests_up_to(TWO_LABELS, 4)
    for f in pool:
        for g in pool:
            want = Fraction(forest_symmetry(f)) if f == g else Fraction(0)
            assert pairing(ForestSum.term(f), ForestSum.term(g)) == want


def test_pairing_bilinearity():
    f = ForestSum.of_tree(leaf(1)).scale(2) + ForestSum.one().scale(5)
    g = ForestSum.of_tree(leaf(1)).scale(Fraction(1, 3)) + ForestSum.one()
    assert pairing(f, g) == Fraction(2, 3) + 5


def test_tensor_pairing_factorizes():
    a = ForestSum.of_tree(leaf(1))
    b = ForestSum.term(Forest((leaf(1), leaf(1))))
    lhs = tensor_pairing(tensor(a, b), tensor(a, b))
    assert lhs == pairing(a, a) * pairing(b, b) == 2


# ------------------------------------------------- the accumulation kernel

def test_zero_coefficients_leave_no_key():
    f = single(leaf(1))
    assert ForestSum({f: 0}).terms == {}
    assert ForestSum([(f, 1), (f, -1)]).terms == {}
    assert ForestSum.zero().add_scaled(ForestSum.term(f), 0).terms == {}


def test_constructor_keeps_coefficients_rational():
    f = single(leaf(1))
    got = ForestSum({f: 0.5}).terms[f]
    assert type(got) is Fraction and got == Fraction(1, 2)


def test_coefficients_come_out_as_fractions():
    f, g = single(leaf(1)), single(leaf(2))
    half = Fraction(1, 2)
    x = ForestSum([(g, 0), (f, 3), (g, half), (f, -3)])
    assert x.terms == {g: half}
    assert x.terms[g] is half  # a Fraction is kept, not copied
    y = ForestSum({f: 2, g: 0})
    assert y.terms == {f: 2} and type(y.terms[f]) is Fraction
    assert type(ForestSum.term(f).terms[f]) is Fraction
    assert y.coeff(g) == 0 and type(y.coeff(g)) is Fraction


def test_add_scaled_is_in_place():
    x = ForestSum.of_tree(leaf(1))
    y = ForestSum.of_tree(leaf(2))
    assert x.add_scaled(y, Fraction(1, 2)) is x
    assert x == ForestSum.of_tree(leaf(1)) + ForestSum.of_tree(leaf(2), Fraction(1, 2))
    assert x.add_scaled(y, -Fraction(1, 2)) == ForestSum.of_tree(leaf(1))
