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
from collections import Counter
from fractions import Fraction
from numbers import Rational

from .linear import ForestSum, WordSum, _accumulate, _scaled
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


def _products(kernel, a, b):
    """The parts (n, d, counts) of the bilinear extension of kernel over
    the (den, counts) pairs a and b, as linear._merge reads them.

    kernel(ka, kb), the product of two basis keys, returns (den, counts):
    a dict of int counts over the int den, which in this module depends on
    ka only (a LinComb's _counts() has that form too).
    """
    da, ca = a
    db, cb = b
    d = da * db
    for ka, na in ca.items():
        for kb, nb in cb.items():
            den, counts = kernel(ka, kb)
            yield na * nb, d * den, counts


def _bilinear(kernel, a, b):
    """Bilinear extension of kernel to the linear combinations a and b.

    Both are read as int counts (LinComb._counts), so a product of products
    stays in ints, and the result makes no Fraction before its terms are
    read (LinComb._from_counts).
    """
    return type(a)._from_counts(_products(kernel, a._counts(), b._counts()))


def _add(acc: dict, counts: dict, c: int) -> None:
    """acc += c * counts, dropping keys that reach zero."""
    _accumulate(acc, ((key, c * n) for key, n in counts.items()))


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


# The grafting kernels count: each returns {forest: int}, the forests of
# one basis product with their multiplicities, and builds no ForestSum.

def _graft_all(t: Tree, target: Forest) -> dict:
    """Attaching t below each vertex of target, counted.

    The vertices are walked once on an explicit stack, each with its way
    up: (the parent's way up, its siblings, its index among them, the
    parent's decoration, or None at a root).  Only the path from a vertex
    to its root is rebuilt."""
    out = Counter()
    todo = [(root, (None, target.trees, i, None))
            for i, root in enumerate(target.trees)]
    while todo:
        node, where = todo.pop()
        todo.extend((c, (where, node.children, i, node.decoration))
                    for i, c in enumerate(node.children))
        new = Tree(node.decoration, node.children + (t,))
        up, siblings, i, dec = where
        while dec is not None:
            new = Tree(dec, siblings[:i] + (new,) + siblings[i + 1:])
            up, siblings, i, dec = up
        out[Forest(siblings[:i] + (new,) + siblings[i + 1:])] += 1
    return out


def graft(t: Tree, target: Tree) -> ForestSum:
    """Pre-Lie product of single trees: t grafted at each vertex of target."""
    return ForestSum._from_counts(((1, 1, _graft_all(t, single(target))),))


def _circ_closed(F: Forest, G: Forest) -> dict:
    # every map from the trees of F (as positions) to the vertices of G
    # contributes one simultaneous grafting
    nv = _vertex_count(G)
    k = len(F.trees)
    if k == 0:
        return {G: 1}
    grafts = Counter()
    for targets in itertools.product(range(nv), repeat=k):
        assignment = {}
        for t, v in zip(F.trees, targets):
            assignment.setdefault(v, []).append(t)
        grafts[_attach(G, assignment)] += 1
    return grafts


def circ(a, b) -> ForestSum:
    """Extended grafting product, as the closed sum over vertex assignments."""
    return _bilinear(lambda F, G: (1, _circ_closed(F, G)),
                     _as_forest_sum(a), _as_forest_sum(b))


def _circ_rec(F: Forest, G: Forest) -> dict:
    # peel one tree x off F:  (x F') circ G = x circ (F' circ G)
    #                                        - (x circ F') circ G
    if not F.trees:
        return {G: 1}
    x = F.trees[0]
    rest = Forest(F.trees[1:])
    out = {}
    for H, c in _circ_rec(rest, G).items():
        _add(out, _graft_all(x, H), c)
    for K, c in _graft_all(x, rest).items():
        _add(out, _circ_rec(K, G), -c)
    return out


def circ_recursive(a, b) -> ForestSum:
    """Same product as circ, computed by the peeling recursion instead."""
    return _bilinear(lambda F, G: (1, _circ_rec(F, G)),
                     _as_forest_sum(a), _as_forest_sum(b))


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


def _star_forests(F: Forest, G: Forest) -> dict:
    out = {}
    for left, right, mult in _splits(F):
        _accumulate(out, ((left * H, mult * n)
                          for H, n in _circ_closed(right, G).items()))
    return out


def star(a, b) -> ForestSum:
    """Composition product: split a, graft one part into b, keep the rest.

    Associative, with the empty forest as unit; dual to the coproduct under
    the symmetry pairing.
    """
    return _bilinear(lambda F, G: (1, _star_forests(F, G)),
                     _as_forest_sum(a), _as_forest_sum(b))


# ------------------------------------------------------------- word algebra

def _check_word_sum(a) -> WordSum:
    if not isinstance(a, WordSum):
        raise TypeError(f"expected WordSum, got {type(a).__name__}")
    return a


def _numerators(lam, mu):
    """(d, [p, r]) with lam = p/d and mu = r/d, d the lcm of the two
    denominators."""
    # the class check is the common case, and cheaper than the ABC's
    if not (type(lam) in (int, Fraction) and type(mu) in (int, Fraction)):
        lam, mu = (x if isinstance(x, Rational) else Fraction(x)
                   for x in (lam, mu))
    return _scaled((lam, mu))


def _falling(p: int, r: int, m: int, j: int) -> int:
    """d^m falling_product(p/d, r/d, m, j): each factor lam j + k mu is
    (p j + k r)/d, so the product of m factors is an int over d^m."""
    out = 1
    for k in range(-1, m - 1):
        out *= p * j + k * r
    return out


def falling_product(lam, mu, m: int, j: int) -> Fraction:
    """Coefficient picked up when an m-letter word grafts onto e_j:

    (lam j - mu) (lam j) (lam j + mu) ... (lam j + (m-2) mu),  m factors,

    computed as the int _falling over d^m, lam = p/d and mu = r/d.
    """
    d, (p, r) = _numerators(lam, mu)
    return Fraction(_falling(p, r, m, j), d ** m)


# The word kernels count as well: with lam = p/d and mu = r/d, the product
# of a word w with a word v is {word: int} over d^len(w), since every
# letter of w brings one factor over d.

def _word_on_letters_closed(p: int, r: int, w, v) -> dict:
    # distribute the letters of w over the positions of v; each block of
    # size m landing on e_j contributes _falling(m, j) and advances that
    # letter by the block sum
    n = len(v)
    if n == 0:
        return {} if w else {(): 1}
    grafts = {}
    for targets in itertools.product(range(n), repeat=len(w)):
        sums = [0] * n
        sizes = [0] * n
        for letter, pos in zip(w, targets):
            sums[pos] += letter
            sizes[pos] += 1
        coeff = 1
        for pos in range(n):
            coeff *= _falling(p, r, sizes[pos], v[pos])
            if not coeff:
                break
        if coeff:
            key = tuple(sorted(v[pos] + sums[pos] for pos in range(n)))
            grafts[key] = grafts.get(key, 0) + coeff
    return grafts


def fdb_circ(lam, mu, a, b) -> WordSum:
    """Extended product for e_i circ e_j = (lam j - mu) e_{i+j}, closed form.

    Each basis pair (w, v) is counted in ints over d^len(w), d the common
    denominator of lam and mu, and _bilinear makes one Fraction per term.
    """
    a, b = _check_word_sum(a), _check_word_sum(b)
    d, (p, r) = _numerators(lam, mu)
    return _bilinear(lambda w, v: (d ** len(w),
                                   _word_on_letters_closed(p, r, w, v)), a, b)


def _letter_on_word(p: int, r: int, i: int, u) -> dict:
    # single letter acts as a derivation over the word u; ints over d
    return _accumulate({}, (
        (tuple(sorted(u[:pos] + (u[pos] + i,) + u[pos + 1:])), p * u[pos] - r)
        for pos in range(len(u))))


def _word_circ_rec(p: int, r: int, w, v) -> dict:
    if not w:
        return {v: 1}
    if not v:
        return {}
    x, rest = w[0], w[1:]
    out = {}
    for u, c in _word_circ_rec(p, r, rest, v).items():
        _add(out, _letter_on_word(p, r, x, u), c)
    for u, c in _letter_on_word(p, r, x, rest).items():
        _add(out, _word_circ_rec(p, r, u, v), -c)
    return out


def fdb_circ_recursive(lam, mu, a, b) -> WordSum:
    """Same word product, by peeling letters instead of the closed sum."""
    a, b = _check_word_sum(a), _check_word_sum(b)
    d, (p, r) = _numerators(lam, mu)
    return _bilinear(lambda w, v: (d ** len(w), _word_circ_rec(p, r, w, v)),
                     a, b)


# ------------------------------------------------- trees to words and back

def tree_weight(lam, mu, t: Tree) -> Fraction:
    """Multiplier sending a tree to a letter: leaves weigh 1, an inner
    vertex of degree j with m children contributes falling_product(m, j).

    The children of all vertices number vertices - 1, so the weight is an
    int over d^(vertices - 1), d the common denominator of lam and mu.  That
    int is filled in per subtree by _fill_tables, which needs no recursion,
    and the one Fraction is made at the end.
    """
    d, (p, r) = _numerators(lam, mu)

    def build(node, table):
        out = _falling(p, r, len(node.children), node.decoration.degree)
        for child in node.children:
            out *= table[child]
        return out

    return Fraction(_fill_tables({}, (t,), build)[t], d ** (t.vertices - 1))


def fdb_image(lam, mu, x, *, weights=None) -> WordSum:
    """Algebra map to words: a tree of degree n goes to tree_weight * e_n.

    Each tree is weighed once, into weights: a dict from tree to its
    tree_weight at this (lam, mu), which calls may share.  The products of
    coefficients and weights are summed as ints, one Fraction per word.
    """
    if weights is None:
        weights = {}

    def weight(t: Tree) -> Fraction:
        got = weights.get(t)
        if got is None:
            got = weights[t] = tree_weight(lam, mu, t)
        return got

    def part(f, n):
        d, nums = _scaled([weight(t) for t in f.trees])
        return (n * math.prod(nums), den * d ** len(nums),
                {tuple(sorted(t.degree for t in f.trees)): 1})

    den, counts = _as_forest_sum(x)._counts()
    return WordSum._from_counts(part(f, n) for f, n in counts.items())


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
    den, (num,) = _scaled((Fraction(alpha),))

    def letters(wa, wb):
        if len(wa) != 1 or len(wb) != 1:
            raise ValueError("gated product is defined on letters only")
        return den, {} if wb[0] % modulus else {(wa[0] + wb[0],): num}

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
