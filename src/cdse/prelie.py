"""Grafting pre-Lie products on forests and their word-side shadows.

Two products live here.  On decorated forests: circ, the extension of
single-vertex grafting to the symmetric algebra, and star, the associative
composition product built from it.  On words in commuting letters e_1, e_2,
...: the two-parameter family e_i circ e_j = (lam*j - mu) e_{i+j} and its
extension, plus the degenerate letter product with a divisibility gate.

Most products come in two independently coded routes, a closed combinatorial
sum and a structural recursion; the test suite plays them against each other.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction

from .linear import ONE, ForestSum, WordSum
from .trees import (Decoration, Forest, Tree, _fill_tables, single,
                    tree_symmetry, trees_of_degree)


def _as_forest_sum(a) -> ForestSum:
    if isinstance(a, ForestSum):
        return a
    if isinstance(a, Tree):
        return ForestSum.of_tree(a)
    if isinstance(a, Forest):
        return ForestSum.term(a)
    raise TypeError(f"expected a forest-like value, got {type(a).__name__}")


def _bilinear(fn, a, b):
    """Bilinear extension of fn, a map from two basis keys to a sum."""
    out = type(a)()
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            out.add_scaled(fn(ka, kb), ca * cb)
    return out


def _attach(base: Forest, assignment) -> Forest:
    """Rebuild base with assignment[v] grafted below vertex v.

    Vertices are numbered in preorder: tree by tree, root before children,
    children in stored order, so the subtree rooted at vertex r spans the
    numbers [r, r + vertices).  Only the paths down to assigned vertices are
    rebuilt, with an explicit stack, so deep ladders need no recursion; a
    subtree holding no assigned vertex is reused, as trees are interned.
    """
    marks = sorted(assignment)
    # frames: [children, decoration, vertex number, rebuilt children, number
    # of the next child]; the bottom frame stands for the forest itself
    stack = [[base.trees, None, None, [], 0]]
    while True:
        frame = stack[-1]
        children, dec, r, kids, nxt = frame
        if len(kids) < len(children):
            c = children[len(kids)]
            frame[4] = end = nxt + c.vertices
            k = bisect.bisect_left(marks, nxt)
            if k < len(marks) and marks[k] < end:
                stack.append([c.children, c.decoration, nxt, [], nxt + 1])
            else:
                kids.append(c)
            continue
        stack.pop()
        if not stack:
            return Forest(kids)
        kids.extend(assignment.get(r, ()))
        stack[-1][3].append(Tree(dec, kids))


def _vertex_count(f: Forest) -> int:
    return sum(t.vertices for t in f.trees)


def _graft_all(t: Tree, target: Forest) -> ForestSum:
    """Sum over vertices of target of attaching t below that vertex."""
    return ForestSum((_attach(target, {v: (t,)}), ONE)
                     for v in range(_vertex_count(target)))


def graft(t: Tree, target: Tree) -> ForestSum:
    """Pre-Lie product of single trees: t grafted at each vertex of target."""
    return _graft_all(t, single(target))


def _circ_closed(F: Forest, G: Forest) -> ForestSum:
    # every map from the trees of F (as positions) to the vertices of G
    # contributes one simultaneous grafting
    nv = _vertex_count(G)
    k = len(F.trees)
    if k == 0:
        return ForestSum.term(G)
    if nv == 0:
        return ForestSum.zero()
    grafts = []
    for targets in itertools.product(range(nv), repeat=k):
        assignment = {}
        for t, v in zip(F.trees, targets):
            assignment.setdefault(v, []).append(t)
        grafts.append((_attach(G, assignment), ONE))
    return ForestSum(grafts)


def circ(a, b) -> ForestSum:
    """Extended grafting product, as the closed sum over vertex assignments."""
    return _bilinear(_circ_closed, _as_forest_sum(a), _as_forest_sum(b))


def _circ_rec(F: Forest, G: Forest) -> ForestSum:
    # peel one tree x off F:  (x F') circ G = x circ (F' circ G)
    #                                        - (x circ F') circ G
    if not F.trees:
        return ForestSum.term(G)
    x = F.trees[0]
    rest = Forest(F.trees[1:])
    out = ForestSum()
    for H, c in _circ_rec(rest, G).terms.items():
        out.add_scaled(_graft_all(x, H), c)
    for K, c in _graft_all(x, rest).terms.items():
        out.add_scaled(_circ_rec(K, G), -c)
    return out


def circ_recursive(a, b) -> ForestSum:
    """Same product as circ, computed by the peeling recursion instead."""
    return _bilinear(_circ_rec, _as_forest_sum(a), _as_forest_sum(b))


def _splits(F: Forest):
    """Unshuffles of a forest: (left, right, multiplicity) triples."""
    groups = F.grouped()
    out = []
    for choice in itertools.product(*(range(m + 1) for _, m in groups)):
        mult = 1
        left = []
        right = []
        for c, (t, m) in zip(choice, groups):
            mult *= math.comb(m, c)
            left.extend([t] * c)
            right.extend([t] * (m - c))
        out.append((Forest(tuple(left)), Forest(tuple(right)), mult))
    return out


def _star_forests(F: Forest, G: Forest) -> ForestSum:
    out = ForestSum()
    for left, right, mult in _splits(F):
        out.add_scaled(ForestSum.term(left) * _circ_closed(right, G), mult)
    return out


def star(a, b) -> ForestSum:
    """Composition product: split a, graft one part into b, keep the rest.

    Associative, with the empty forest as unit; dual to the coproduct under
    the symmetry pairing.
    """
    return _bilinear(_star_forests, _as_forest_sum(a), _as_forest_sum(b))


# ------------------------------------------------------------- word algebra

def _check_word_sum(a) -> WordSum:
    if not isinstance(a, WordSum):
        raise TypeError(f"expected WordSum, got {type(a).__name__}")
    return a


def falling_product(lam, mu, m: int, j: int) -> Fraction:
    """Coefficient picked up when an m-letter word grafts onto e_j:

    (lam j - mu) (lam j) (lam j + mu) ... (lam j + (m-2) mu),  m factors.
    """
    if m == 0:
        return ONE
    if not isinstance(lam, Fraction):
        lam = Fraction(lam)
    if not isinstance(mu, Fraction):
        mu = Fraction(mu)
    out = lam * j - mu
    for k in range(m - 1):
        out *= lam * j + k * mu
    return out


def _word_on_letters_closed(lam, mu, w, v) -> WordSum:
    # distribute the letters of w over the positions of v; each block of
    # size m landing on e_j contributes falling_product(m, j) and advances
    # that letter by the block sum
    n = len(v)
    if n == 0:
        return WordSum.one() if not w else WordSum.zero()
    grafts = []
    for targets in itertools.product(range(n), repeat=len(w)):
        sums = [0] * n
        sizes = [0] * n
        for letter, pos in zip(w, targets):
            sums[pos] += letter
            sizes[pos] += 1
        coeff = ONE
        for pos in range(n):
            coeff *= falling_product(lam, mu, sizes[pos], v[pos])
            if not coeff:
                break
        if coeff:
            grafts.append((tuple(sorted(v[pos] + sums[pos]
                                        for pos in range(n))), coeff))
    return WordSum(grafts)


def fdb_circ(lam, mu, a, b) -> WordSum:
    """Extended product for e_i circ e_j = (lam j - mu) e_{i+j}, closed form."""
    return _bilinear(lambda w, v: _word_on_letters_closed(lam, mu, w, v),
                     _check_word_sum(a), _check_word_sum(b))


def _letter_on_word(lam, mu, i: int, u) -> WordSum:
    # single letter acts as a derivation over the word u; fdb_circ_recursive
    # hands lam and mu over as Fractions
    return WordSum((tuple(sorted(u[:pos] + (u[pos] + i,) + u[pos + 1:])),
                    lam * u[pos] - mu)
                   for pos in range(len(u)))


def _word_circ_rec(lam, mu, w, v) -> WordSum:
    if not w:
        return WordSum.term(v)
    if not v:
        return WordSum.zero()
    x, rest = w[0], w[1:]
    out = WordSum()
    for u, c in _word_circ_rec(lam, mu, rest, v).terms.items():
        out.add_scaled(_letter_on_word(lam, mu, x, u), c)
    for u, c in _letter_on_word(lam, mu, x, rest).terms.items():
        out.add_scaled(_word_circ_rec(lam, mu, u, v), -c)
    return out


def fdb_circ_recursive(lam, mu, a, b) -> WordSum:
    """Same word product, by peeling letters instead of the closed sum."""
    lam, mu = Fraction(lam), Fraction(mu)
    return _bilinear(lambda w, v: _word_circ_rec(lam, mu, w, v),
                     _check_word_sum(a), _check_word_sum(b))


# ------------------------------------------------- trees to words and back

def tree_weight(lam, mu, t: Tree) -> Fraction:
    """Multiplier sending a tree to a letter: leaves weigh 1, an inner
    vertex of degree j with m children contributes falling_product(m, j).
    Filled in per subtree by _fill_tables, which needs no recursion."""
    def build(node, table):
        out = falling_product(lam, mu, len(node.children),
                              node.decoration.degree)
        for child, run in itertools.groupby(node.children):
            out *= table[child] ** len(tuple(run))
        return out

    return _fill_tables({}, (t,), build)[t]


def fdb_image(lam, mu, x, *, weights=None) -> WordSum:
    """Algebra map to words: a tree of degree n goes to tree_weight * e_n.

    Each tree is weighed once, into weights: a dict from tree to its
    tree_weight at this (lam, mu), which calls may share.
    """
    if weights is None:
        weights = {}

    def weight(t: Tree) -> Fraction:
        got = weights.get(t)
        if got is None:
            got = weights[t] = tree_weight(lam, mu, t)
        return got

    return WordSum((tuple(sorted(t.degree for t in f.trees)),
                    c * math.prod(weight(t) for t in f.trees))
                   for f, c in _as_forest_sum(x).terms.items())


def _decorations(J) -> tuple:
    return tuple(Decoration(1, j) for j in sorted(J))


def fdb_solution(lam, mu, J, n: int) -> ForestSum:
    """Degree-n slice of the tree series with weights tree_weight / symmetry.

    For the one-equation systems whose structure constants are affine with
    slope lam and intercept -mu this reproduces the solution components.
    """
    return ForestSum((single(t), tree_weight(lam, mu, t) / tree_symmetry(t))
                     for t in trees_of_degree(_decorations(J), n))


def fdb_solution_recursive(lam, mu, J, n: int) -> ForestSum:
    """Same series through the direct coefficient recursion on trees."""
    def nu(t: Tree, memo: dict) -> Fraction:
        val = falling_product(lam, mu, len(t.children), t.decoration.degree)
        for sub, mult in Forest(t.children).grouped():
            val *= memo[sub] ** mult / math.factorial(mult)
        return val

    trees = trees_of_degree(_decorations(J), n)
    memo = _fill_tables({}, trees, nu)
    return ForestSum((single(t), memo[t]) for t in trees)


def fdb_surjective(J, lam, mu, all_degrees: bool = False) -> bool:
    """Whether fdb_image maps the span of trees over J onto all letters.

    all_degrees says J stands for every positive integer, not just the
    listed finite part.
    """
    lam, mu = Fraction(lam), Fraction(mu)
    if lam != 0:
        return 1 in J and (2 in J or mu != lam)
    return (mu != 0 and 1 in J) or all_degrees


# ------------------------------------------------ gated letter product

def affine_circ(modulus: int, alpha, a, b) -> WordSum:
    """Letter product e_i e_j -> alpha [modulus divides j] e_{i+j}.

    Defined on single letters only; unlike the two-parameter family it is
    associative on the nose.
    """
    alpha = Fraction(alpha)

    def letters(wa, wb):
        if len(wa) != 1 or len(wb) != 1:
            raise ValueError("gated product is defined on letters only")
        return WordSum() if wb[0] % modulus else WordSum.gen(wa[0] + wb[0], alpha)

    return _bilinear(letters, _check_word_sum(a), _check_word_sum(b))


def reachable_degrees(J, modulus: int, bound: int):
    """Degrees where a gated system can have nonzero components, up to bound.

    Closure of the multiples of modulus inside J under addition, plus one
    optional final step by any element of J.
    """
    J = sorted(set(J))
    base = [j for j in J if j % modulus == 0]
    semigroup = set()
    frontier = set(base)
    while frontier:
        semigroup |= frontier
        frontier = {s + b for s in frontier for b in base
                    if s + b <= bound} - semigroup
    out = set(semigroup)
    for s in semigroup | {0}:
        for j in J:
            if s + j <= bound:
                out.add(s + j)
    return sorted(x for x in out if 1 <= x <= bound)
