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

from fractions import Fraction

from .linear import ForestSum, TensorSum
from .trees import (EMPTY_FOREST, Decoration, Forest, Tree, _fill_tables,
                    forest_symmetry, single)


def _tree_cuts(t: Tree, tables: dict) -> TensorSum:
    """Delta t from its children's entries in tables.  Grafting under the
    root is injective, so each term of the children's coproduct gives its
    own term and nothing needs accumulating."""
    d = t.decoration
    terms = {(single(t), EMPTY_FOREST): 1}
    for (left, right), c in _forest_cuts(t.children, tables).terms.items():
        terms[left, single(Tree(d, right.trees))] = c
    return TensorSum._like(terms)


def _forest_cuts(trees: tuple, tables: dict) -> TensorSum:
    """The product of the trees' coproducts, read from tables, where it is
    also kept under the tuple trees: trees that share their children under
    different root decorations, or a forest with a tree's children, take
    the product once."""
    if len(trees) == 1:
        return tables[trees[0]]
    out = tables.get(trees)
    if out is None:
        if trees:
            out = tables[trees[0]]
            for t in trees[1:]:
                out = out * tables[t]
        else:
            out = TensorSum._like({(EMPTY_FOREST, EMPTY_FOREST): 1})
        tables[trees] = out
    return out


def tree_coproduct(t: Tree) -> TensorSum:
    """Delta t, with int coefficients (cut counts)."""
    return forest_coproduct(single(t))


def forest_coproduct(f: Forest) -> TensorSum:
    """Delta f, the product of its trees' coproducts; int coefficients."""
    return _forest_cuts(f.trees, _fill_tables({}, f.trees, _tree_cuts))


def coproduct(x: ForestSum) -> TensorSum:
    """Delta x, with Fraction coefficients.

    The coproduct of each distinct subtree is built once, for this call.
    x is read once as int counts over one den (x._counts()), the cut counts
    are summed as ints over it (TensorSum._from_counts), and each term of
    the result costs one Fraction: a sum that holds counts makes no other.
    """
    den, counts = x._counts()
    tables = _fill_tables({}, (t for f in counts for t in f.trees), _tree_cuts)
    return TensorSum._from_counts(
        (n, den, _forest_cuts(f.trees, tables).terms)
        for f, n in counts.items())


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
    small, large = sorted((a.terms, b.terms), key=len)
    for f, c in small.items():
        d = large.get(f)
        if d is not None:
            total += forest_symmetry(f) * c * d
    return total


def tensor_pairing(a: TensorSum, b: TensorSum) -> Fraction:
    total = Fraction(0)
    small, large = sorted((a.terms, b.terms), key=len)
    for (f, g), c in small.items():
        d = large.get((f, g))
        if d is not None:
            total += forest_symmetry(f) * forest_symmetry(g) * c * d
    return total
