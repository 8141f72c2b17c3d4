"""Brute-force recomputation routes shared by the tests.

Each oracle here reaches a quantity by a path disjoint from the library's
own: automorphism groups by explicit permutation search, the coproduct by
enumerating admissible edge subsets, structure constants by leaf surgery
and by reading the full coproduct, and the Hopf test and slice coordinates
by dense elimination over the whole span of monomial tensors.  The tests
compare, never reuse, the production code paths.
"""

import itertools
from fractions import Fraction

from cdse import (
    Decoration,
    Forest,
    ForestSum,
    TensorSum,
    Tree,
    coproduct,
    forests_of_degree,
    single,
    solve,
    tensor,
    trees_of_degree,
)
from cdse.solver import INCONSISTENT, VACUOUS
from cdse.trees import EMPTY_FOREST

TWO_LABELS = (Decoration(1, 1), Decoration(2, 1))


# ------------------------------------------------------------ automorphisms

def _flatten(t: Tree):
    decs, parent, depth = [], [], []

    def walk(node, par, dep):
        idx = len(decs)
        decs.append(node.decoration)
        parent.append(par)
        depth.append(dep)
        for c in node.children:
            walk(c, idx, dep + 1)

    walk(t, -1, 0)
    return decs, parent, depth


def automorphism_count(t: Tree) -> int:
    """Order of the root-fixing automorphism group, by explicit search.

    An automorphism preserves distance from the root, so only
    depth-preserving vertex bijections are searched; within that restriction
    the search is exhaustive.
    """
    decs, parent, depth = _flatten(t)
    levels = {}
    for v in range(len(decs)):
        levels.setdefault(depth[v], []).append(v)
    blocks = [levels[d] for d in sorted(levels)]
    count = 0
    for images in itertools.product(*(itertools.permutations(b) for b in blocks)):
        sigma = {}
        for block, img in zip(blocks, images):
            for v, w in zip(block, img):
                sigma[v] = w
        ok = all(decs[sigma[v]] == decs[v] for v in sigma)
        ok = ok and all(
            (sigma[parent[v]] if parent[v] >= 0 else -1) == parent[sigma[v]]
            for v in sigma)
        if ok:
            count += 1
    return count


def forest_automorphism_count(f: Forest) -> int:
    # hanging the forest under one fresh root turns its symmetries into
    # root-fixing tree automorphisms, and adds nothing else
    return automorphism_count(Tree(Decoration(0, 1), f.trees))


# ----------------------------------------------------------- cut coproduct

def _tree_cuts(t: Tree) -> TensorSum:
    """All admissible cuts of one tree, as pruned-part (x) root-part.

    A cut keeps or severs each edge; admissibility means no severed edge
    sits above another.  The recursion enumerates exactly those subsets:
    per child, either sever its edge (the whole subtree moves left) or
    recurse into it.  The cut above the root is appended separately.
    """

    def options(node):
        per_child = []
        for c in node.children:
            choices = [((c,), None)]
            choices.extend(options(c))
            per_child.append(choices)
        out = []
        for combo in itertools.product(*per_child):
            pruned = tuple(itertools.chain.from_iterable(p for p, _ in combo))
            kept = tuple(k for _, k in combo if k is not None)
            out.append((pruned, Tree(node.decoration, kept)))
        return out

    acc = TensorSum.of(single(t), EMPTY_FOREST)
    for pruned, kept in options(t):
        acc = acc + TensorSum.of(Forest(pruned), single(kept))
    return acc


def cut_coproduct(f: Forest) -> TensorSum:
    """Coproduct by brute enumeration, extended multiplicatively."""
    acc = TensorSum.of(EMPTY_FOREST, EMPTY_FOREST)
    for t in f.trees:
        acc = acc * _tree_cuts(t)
    return acc


# ------------------------------------------------------- structure constants

def graft_candidates(t: Tree, dec: Decoration):
    """Distinct trees obtained by hanging a fresh dec leaf on some vertex."""
    new_leaf = Tree(dec)

    def attach(node):
        res = [Tree(node.decoration, node.children + (new_leaf,))]
        for idx, c in enumerate(node.children):
            for sub in attach(c):
                kids = node.children[:idx] + (sub,) + node.children[idx + 1:]
                res.append(Tree(node.decoration, kids))
        return res

    return set(attach(t))


def leaf_removals(t2: Tree, dec: Decoration):
    """Trees left by deleting one dec-decorated leaf, one per leaf position."""
    def strip(node):
        res = []
        for idx, c in enumerate(node.children):
            rest = node.children[:idx] + node.children[idx + 1:]
            if not c.children and c.decoration == dec:
                res.append(Tree(node.decoration, rest))
            for sub in strip(c):
                res.append(Tree(node.decoration,
                                node.children[:idx] + (sub,) + node.children[idx + 1:]))
        return res

    if not t2.children:
        return []
    return strip(t2)


def lambda_by_surgery(sol, i: int, ip: int, q: int, n: int):
    """Structure constant recomputed without the coproduct.

    For each tree t of x_i(n), graft a fresh (ip, q) leaf onto every vertex,
    deduplicate, weight each candidate by how many of its (ip, q) leaves cut
    back to t, and sum the candidate coefficients of x_i(n+q) with those
    weights.  The ratio against a_t must agree across the component; the
    markers mirror the production table.
    """
    comp = sol.component(i, n)
    upper = sol.component(i, n + q)
    dec = Decoration(ip, q)
    if not comp:
        return "vacuous"
    ratios = set()
    for f, a_t in comp.terms.items():
        t = f.trees[0]
        total = Fraction(0)
        for t2 in graft_candidates(t, dec):
            hits = sum(1 for r in leaf_removals(t2, dec) if r == t)
            if hits:
                total += hits * upper.coeff(single(t2))
        ratios.add(total / a_t)
    return ratios.pop() if len(ratios) == 1 else "inconsistent"


def lambda_by_coproduct(S, sol, N):
    """Structure-constant entries read off the full coproduct.

    The coefficient of (single vertex (ip, q)) (x) t in the coproduct of
    x_i(n+q), divided by a_t, must agree over the trees t of x_i(n).
    """
    entries = {}
    deltas = {(i, m): coproduct(sol.component(i, m))
              for i in range(1, S.nvars + 1) for m in range(1, N + 1)}
    cut_decs = sorted({(d.eq, d.degree) for d in S.decorations(N)})
    for i in range(1, S.nvars + 1):
        for (ip, q) in cut_decs:
            leaf_forest = single(Tree(Decoration(ip, q)))
            for n in range(1, N - q + 1):
                support = sol.component(i, n)
                if not support:
                    entries[(i, (ip, q), n)] = VACUOUS
                    continue
                delta = deltas[(i, n + q)]
                ratios = {delta.terms.get((leaf_forest, f), Fraction(0)) / a_t
                          for f, a_t in support.terms.items()}
                entries[(i, (ip, q), n)] = (ratios.pop() if len(ratios) == 1
                                            else INCONSISTENT)
    return entries


# ---------------------------------------------------------- dense Hopf test

def component_monomials(sol, degree: int):
    """All products of solution components with total degree as given.

    The generating set is every nonzero x_j(m), m <= degree; monomials are
    multisets of generators.  Returns (label, product) pairs where the label
    is the sorted multiset of component keys (j, m), in label order.
    """
    gens = [(key, fs) for key, fs in sol.generators() if key[1] <= degree]
    out = []

    def extend(start, remaining, label, acc):
        if remaining == 0:
            out.append((tuple(label), acc))
            return
        for idx in range(start, len(gens)):
            key, fs = gens[idx]
            if key[1] <= remaining:
                extend(idx, remaining - key[1], label + [key], acc * fs)

    extend(0, degree, [], ForestSum.one())
    return out


def dense_rref(rows):
    """Reduced row echelon form of dense Fraction rows, with pivot columns."""
    m = [list(row) for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        scale = m[r][c]
        m[r] = [x / scale if x else x for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b if b else a for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def _cut_delta(x: ForestSum) -> TensorSum:
    """The coproduct of a forest sum, by cut enumeration."""
    delta = TensorSum.zero()
    for f, c in x.terms.items():
        delta.add_scaled(cut_coproduct(f), c)
    return delta


def dense_hopf_failures(S, N):
    """The Hopf test without factoring: each bidegree (k, n-k) slice of the
    cut coproduct of x_i(n) is reduced against a dense echelon form of all
    monomial tensors u (x) v.  Returns (checks, failing (eq, degree, left)
    triples in order)."""
    sol = solve(S, N)
    monomials = {d: [u for _, u in component_monomials(sol, d)]
                 for d in range(1, N)}
    checks = 0
    failing = []
    for i in range(1, S.nvars + 1):
        for n in range(2, N + 1):
            comp = sol.component(i, n)
            if not comp:
                continue
            delta = _cut_delta(comp)
            for k in range(1, n):
                checks += 1
                span = [tensor(u, v) for u in monomials[k] for v in monomials[n - k]]
                target = delta.bidegree(k, n - k)
                coords = sorted({fg for vec in span + [target] for fg in vec.terms},
                                key=lambda fg: (fg[0].key, fg[1].key))
                echelon, pivots = dense_rref(
                    [[vec.coeff(fg) for fg in coords] for vec in span])
                residual = [target.coeff(fg) for fg in coords]
                for row, p in zip(echelon, pivots):
                    f = residual[p]
                    if f:
                        residual = [a - f * b if b else a
                                    for a, b in zip(residual, row)]
                if any(residual):
                    failing.append((i, n, k))
    return checks, failing


def dense_slice_coordinates(sol, i: int, n: int, k: int):
    """slice_coordinates over every monomial tensor u (x) v of the bidegree,
    by dense elimination of [tensor columns | slice column]: a dict keyed by
    (left label, right label), or None when the tensors are dependent or
    the slice lies outside their span."""
    target = _cut_delta(sol.component(i, n)).bidegree(k, n - k)
    span = [((la, lb), tensor(u, v))
            for la, u in component_monomials(sol, k)
            for lb, v in component_monomials(sol, n - k)]
    vecs = [vec for _, vec in span] + [target]
    coords = sorted({fg for vec in vecs for fg in vec.terms},
                    key=lambda fg: (fg[0].key, fg[1].key))
    echelon, pivots = dense_rref([[vec.coeff(fg) for vec in vecs]
                                  for fg in coords])
    last = len(span)
    if pivots != list(range(last)):
        return None
    return {label: row[last] for (label, _), row in zip(span, echelon)
            if row[last]}


# ------------------------------------------------------------ tree shapes

def shape_key(shape) -> tuple:
    """Sort key of a tree shape (decoration, child shapes), read off the
    shape itself and never off a built tree: (degree, decoration, child keys
    in ascending order), the total order trees are meant to sort by."""
    (eq, deg), kids = shape
    keys = tuple(sorted(shape_key(k) for k in kids))
    return (deg + sum(k[0] for k in keys), (eq, deg), keys)


def forest_shape_key(shapes) -> tuple:
    """Sort key of a forest given as tree shapes: (degree, tree keys in
    ascending order)."""
    keys = tuple(sorted(shape_key(s) for s in shapes))
    return (sum(k[0] for k in keys), keys)


# ------------------------------------------------------------- enumeration

def forests_up_to(decorations, bound: int):
    out = [EMPTY_FOREST]
    for n in range(1, bound + 1):
        out.extend(forests_of_degree(decorations, n))
    return out


def trees_up_to(decorations, bound: int):
    out = []
    for n in range(1, bound + 1):
        out.extend(trees_of_degree(decorations, n))
    return out
