"""Coproduct, grafting, counit, and the symmetry pairing.

The coproduct is computed through the grafting recursion rather than by
enumerating edge cuts: splitting off the root of t = B_d(t_1 ... t_k)
gives

    split(t) = t (x) 1 + (id (x) B_d)(split(t_1) ... split(t_k))

which agrees with the sum over admissible cuts (the cut enumeration lives in
the test suite as an independent oracle).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .linear import ForestSum, TensorSum
from .trees import (EMPTY_FOREST, Decoration, Forest, Tree, forest_symmetry,
                    single)


@lru_cache(maxsize=None)
def tree_coproduct(t: Tree) -> TensorSum:
    inner = forest_coproduct(Forest(t.children))
    d = t.decoration
    out = TensorSum.of(single(t), EMPTY_FOREST)
    return out.add_scaled(inner.map_keys(
        lambda lr: (lr[0], single(Tree(d, lr[1].trees)))))


@lru_cache(maxsize=None)
def forest_coproduct(f: Forest) -> TensorSum:
    out = TensorSum.of(EMPTY_FOREST, EMPTY_FOREST)
    for t in f.trees:
        out = out * tree_coproduct(t)
    return out


def coproduct(x: ForestSum) -> TensorSum:
    out = TensorSum.zero()
    for f, c in x.terms.items():
        out.add_scaled(forest_coproduct(f), c)
    return out


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
