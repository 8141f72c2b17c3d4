"""Coproduct, grafting, counit, and the symmetry pairing.

The coproduct is computed through the grafting recursion rather than by
enumerating edge cuts: splitting off the root of t = B_d(t_1 ... t_k)
gives

    split(t) = t (x) 1 + (id (x) B_d)(split(t_1) ... split(t_k))

which agrees with the sum over admissible cuts (the cut enumeration lives in
the test suite as an independent oracle).  The coefficients of
tree_coproduct and forest_coproduct count cuts, so they are ints;
coproduct and reduced_coproduct, linear in a forest sum, return Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .linear import ForestSum, TensorSum
from .trees import (EMPTY_FOREST, Decoration, Forest, Tree, forest_symmetry,
                    single)


@lru_cache(maxsize=None)
def tree_coproduct(t: Tree) -> TensorSum:
    """Delta t, with int coefficients (cut counts).

    Grafting under the root is injective, so each term of the children's
    coproduct gives its own term and nothing needs accumulating.
    """
    d = t.decoration
    terms = {(single(t), EMPTY_FOREST): 1}
    for (left, right), c in forest_coproduct(Forest(t.children)).terms.items():
        terms[left, single(Tree(d, right.trees))] = c
    return TensorSum._like(terms)


@lru_cache(maxsize=None)
def forest_coproduct(f: Forest) -> TensorSum:
    """Delta f, the product of its trees' coproducts; int coefficients."""
    if not f.trees:
        return TensorSum._like({(EMPTY_FOREST, EMPTY_FOREST): 1})
    out = tree_coproduct(f.trees[0])
    for t in f.trees[1:]:
        out = out * tree_coproduct(t)
    return out


def coproduct(x: ForestSum) -> TensorSum:
    """Delta x, with Fraction coefficients.

    The cut counts are summed as ints over the common denominator of x's
    coefficients, so each term of the result costs one Fraction.
    """
    den = math.lcm(*(c.denominator for c in x.terms.values()))
    acc = {}
    for f, c in x.terms.items():
        m = c.numerator * (den // c.denominator)
        for key, n in forest_coproduct(f).terms.items():
            acc[key] = acc.get(key, 0) + m * n
    return TensorSum._like({key: Fraction(v, den) for key, v in acc.items() if v})


def reduced_coproduct(x: ForestSum) -> TensorSum:
    """Coproduct minus the two primitive-like end terms x(x)1 and 1(x)x."""
    out = coproduct(x)
    for f, c in x.terms.items():
        out.add_scaled(TensorSum.of(f, EMPTY_FOREST), -c)
        out.add_scaled(TensorSum.of(EMPTY_FOREST, f), -c)
    return out


def graft_operator(decoration, x: ForestSum) -> ForestSum:
    """Linear map sending each forest to the tree it spans under a new root."""
    if not isinstance(decoration, Decoration):
        decoration = Decoration(*decoration)
    return x.map_keys(lambda f: single(Tree(decoration, f.trees)))


def counit(x: ForestSum) -> Fraction:
    return x.coeff(EMPTY_FOREST)


def pairing(a: ForestSum, b: ForestSum) -> Fraction:
    """Diagonal pairing <F, G> = symmetry(F) [F = G], extended bilinearly."""
    total = Fraction(0)
    small, large = (a, b) if len(a.terms) <= len(b.terms) else (b, a)
    for f, c in small.terms.items():
        d = large.terms.get(f)
        if d is not None:
            total += forest_symmetry(f) * c * d
    return total


def tensor_pairing(a: TensorSum, b: TensorSum) -> Fraction:
    total = Fraction(0)
    small, large = (a, b) if len(a.terms) <= len(b.terms) else (b, a)
    for (f, g), c in small.terms.items():
        d = large.terms.get((f, g))
        if d is not None:
            total += forest_symmetry(f) * forest_symmetry(g) * c * d
    return total
