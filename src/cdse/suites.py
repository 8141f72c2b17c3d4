"""Named property checks over explicit pools.

These are the suites behind `cdse prelie-verify` and `cdse selftest`; the
tests call the same checks over pools of their own.  A check takes a pool,
an iterable of argument tuples, and returns an Outcome: how many checks ran
and which ones failed.  A check may share work across its pool, and it
still gives one verdict per item: a value it reuses is held by
functools.cache on a function defined inside the call, so it is computed
once per distinct argument on any pool order and dropped when the call
returns.  The one exception is tree_to_word_morphism's circ(F, G), held
for the last pair only (the command's pool is pair-major).
SUITES[command](N, seed) lists a command's (name, check, pool) triples in
report order.
"""

import itertools
import random
from fractions import Fraction
from functools import cache, partial, wraps
from typing import NamedTuple

from .hopf import coproduct, forest_coproduct, graft_operator
from .linear import ForestSum, LinComb, WordSum, tensor
from .prelie import (_bilinear, circ, circ_recursive, fdb_circ,
                     fdb_circ_recursive, fdb_image, fdb_solution,
                     fdb_solution_recursive, star)
from .solver import check_hopf, parse_system_text, solve, solve_oracle
from .trees import (Decoration, forest_symmetry, forests_of_degree,
                    trees_of_degree)


class Outcome(NamedTuple):
    checks: int
    failures: list


def _each(holds):
    """A check that tests holds(*item) for every item of its pool."""
    @wraps(holds)
    def check(pool) -> Outcome:
        checks, failures = 0, []
        for item in pool:
            checks += 1
            if not holds(*item):
                failures.append(item)
        return Outcome(checks, failures)
    return check


# ------------------------------------------------------ grafting and words

def pre_lie_identity(pool) -> Outcome:
    """Trees a, b, c: the associator of circ is symmetric in a and b.

    Every circ is expanded bilinearly over basis pairs of forests, each
    computed once per call; each triple is still one check.
    """
    product = partial(_bilinear, cache(lambda F, G: circ(ForestSum.term(F),
                                                         ForestSum.term(G))))
    checks, failures = 0, []
    for a, b, c in pool:
        checks += 1
        x, y, z = (ForestSum.of_tree(t) for t in (a, b, c))
        if (product(product(x, y), z) - product(x, product(y, z))
                != product(product(y, x), z) - product(y, product(x, z))):
            failures.append((a, b, c))
    return Outcome(checks, failures)


@_each
def grafting_closed_vs_recursive(F, G):
    """Forests F, G: circ and circ_recursive agree."""
    x, y = ForestSum.term(F), ForestSum.term(G)
    return circ(x, y) == circ_recursive(x, y)


def composition_coproduct_duality(pool) -> Outcome:
    """Forests F, G, H: <F star G, H> is <F (x) G, Delta H>.

    Both pairings are read off one coefficient each: symmetry(H) times the
    coefficient of H in F star G, against symmetry(F) symmetry(G) times the
    coefficient of F (x) G in Delta H.  Each (F, G) side and each H side is
    computed once per call; each triple is still one check.
    """
    star_side = cache(lambda F, G: (
        star(ForestSum.term(F), ForestSum.term(G)).terms,
        forest_symmetry(F) * forest_symmetry(G)))
    coproduct_side = cache(lambda H: (forest_symmetry(H),
                                      forest_coproduct(H).terms))
    checks, failures = 0, []
    for F, G, H in pool:
        checks += 1
        product, symmetry = star_side(F, G)
        h_symmetry, delta = coproduct_side(H)
        # an absent key reads as the int 0: most triples are 0 against 0
        if h_symmetry * product.get(H, 0) != symmetry * delta.get((F, G), 0):
            failures.append((F, G, H))
    return Outcome(checks, failures)


def _word_side(lam, mu):
    """fdb_image at one (lam, mu), extended linearly over the image of each
    basis forest, and fdb_circ on basis word pairs, each computed once.
    The images share one dict of tree weights."""
    weights = {}
    basis_image = cache(lambda H: fdb_image(lam, mu, ForestSum.term(H),
                                            weights=weights))

    def image(x):
        out = WordSum()
        for H, c in x.terms.items():
            out.add_scaled(basis_image(H), c)
        return out

    return image, cache(lambda w, v: fdb_circ(lam, mu, WordSum.term(w),
                                              WordSum.term(v)))


def tree_to_word_morphism(pool) -> Outcome:
    """Items (lam, mu, F, G): fdb_image carries F circ G to the word product
    of the images.

    fdb_image is linear and fdb_circ bilinear, so both sides are expanded
    over basis elements, each computed once per (lam, mu) and shared by
    every item.  circ(F, G) is held for the last (F, G) only: the pool is
    pair-major, and holding every product would raise peak memory.  Each
    item is still one check.
    """
    sides = cache(_word_side)
    last = None
    checks, failures = 0, []
    for lam, mu, F, G in pool:
        checks += 1
        x, y = ForestSum.term(F), ForestSum.term(G)
        if (F, G) != last:
            last, product = (F, G), circ(x, y)
        image, basis_circ = sides(lam, mu)
        if image(product) != _bilinear(basis_circ, image(x), image(y)):
            failures.append((lam, mu, F, G))
    return Outcome(checks, failures)


@_each
def word_closed_vs_recursive(lam, mu, wa, wb):
    """Words wa, wb: fdb_circ and fdb_circ_recursive agree."""
    a, b = WordSum.term(wa), WordSum.term(wb)
    return fdb_circ(lam, mu, a, b) == fdb_circ_recursive(lam, mu, a, b)


@_each
def weighted_solution_two_routes(lam, mu, J, n):
    """fdb_solution and fdb_solution_recursive agree in degree n."""
    return fdb_solution(lam, mu, J, n) == fdb_solution_recursive(lam, mu, J, n)


# ---------------------------------------------------------- comultiplication

def _each_with_coproduct(holds):
    """_each for holds(delta, *item), delta being forest_coproduct computed
    once per forest of the check's pool."""
    @wraps(holds)
    def check(pool) -> Outcome:
        return _each(partial(holds, cache(forest_coproduct)))(pool)
    return check


@_each_with_coproduct
def coassociativity(delta, f):
    """(Delta (x) id) Delta f equals (id (x) Delta) Delta f."""
    terms = delta(f).terms.items()
    left = LinComb(((u, v, b), c * d) for (a, b), c in terms
                   for (u, v), d in delta(a).terms.items())
    right = LinComb(((a, u, v), c * d) for (a, b), c in terms
                    for (u, v), d in delta(b).terms.items())
    return left == right


@_each
def counit_axiom(f):
    """Applying the counit on either side of Delta f gives f back."""
    delta = forest_coproduct(f).terms.items()
    left = ForestSum((b, c) for (a, b), c in delta if not a.trees)
    right = ForestSum((a, c) for (a, b), c in delta if not b.trees)
    return left == right == ForestSum.term(f)


@_each_with_coproduct
def coproduct_multiplicativity(delta, f, g):
    """Delta(f g) equals Delta f times Delta g."""
    return delta(f * g) == delta(f) * delta(g)


@_each
def cocycle_identity(d, f):
    """Delta B_d(f) = B_d(f) (x) 1 + (id (x) B_d) Delta f."""
    x = ForestSum.term(f)
    lifted = graft_operator(d, x)
    rhs = tensor(lifted, ForestSum.one())
    for (a, b), c in coproduct(x).terms.items():
        rhs.add_scaled(tensor(ForestSum.term(a),
                              graft_operator(d, ForestSum.term(b))), c)
    return coproduct(lifted) == rhs


@_each
def coproduct_grading(f):
    """Every term a (x) b of Delta f has degree a + degree b = degree f."""
    return all(a.degree + b.degree == f.degree
               for a, b in forest_coproduct(f).terms)


# ------------------------------------------------------------------ solver

def solver_two_routes(pool) -> Outcome:
    """Systems (S, N): solve and solve_oracle agree on every component."""
    checks, failures = 0, []
    for S, N in pool:
        sol, oracle = solve(S, N), solve_oracle(S, N)
        for i in range(1, S.nvars + 1):
            for n in range(1, N + 1):
                checks += 1
                if sol.component(i, n) != oracle.component(i, n):
                    failures.append((S, N, i, n))
    return Outcome(checks, failures)


def hopf_smoke(pool) -> Outcome:
    """Systems (S, N) that must pass check_hopf; one check per slice."""
    reports = [check_hopf(S, N) for S, N in pool]
    return Outcome(sum(rep.checks for rep in reports),
                   [fail for rep in reports for fail in rep.failures])


# ------------------------------------------------------------------- pools

_LABELS = (Decoration(1, 1), Decoration(2, 1))
_WORD_PARAMETERS = ((Fraction(1), Fraction(-1)), (Fraction(0), Fraction(2)),
                    (Fraction(3), Fraction(3)))
_SQUARE = "vars 1\neq 1\n  op 1 : (1 + h1)^2\n"


def _sampled(items, cap, seed):
    items = list(items)
    if len(items) <= cap:
        return items
    return random.Random(seed).sample(items, cap)


def _prelie_verify_pools(N, seed):
    # three trees of total degree <= top: each has degree <= top - 2
    top = min(N + 2, 5)
    trees = [(t, d) for d in range(1, top - 1)
             for t in trees_of_degree(_LABELS, d)]
    triples = _sampled([(a, b, c) for a, da in trees
                        for b, db in trees if da + db < top
                        for c, dc in trees if da + db + dc <= top], 600, seed)
    forests = {d: forests_of_degree(_LABELS, d) for d in range(1, min(N, 4) + 1)}
    pairs = _sampled([(F, G) for d in range(2, min(N + 1, 5) + 1)
                      for k in range(1, d)
                      for F in forests[k] for G in forests[d - k]], 400, seed)
    # a generator, read once by its check: a list of the 17,127 triples
    # at N >= 4 would raise peak memory
    duals = ((F, G, H) for d in range(2, min(N, 4) + 1) for H in forests[d]
             for k in range(1, d) for F in forests[k] for G in forests[d - k])
    images = [(lam, mu, F, G) for F, G in pairs for lam, mu in _WORD_PARAMETERS]
    bound = min(N + 2, 6)
    words = [w for total in range(1, bound + 1) for k in range(1, total + 1)
             for w in itertools.combinations_with_replacement(
                 range(1, total + 1), k)
             if sum(w) == total]
    word_pairs = [(lam, mu, wa, wb) for lam, mu in _WORD_PARAMETERS
                  for wa in words for wb in words
                  if sum(wa) + sum(wb) <= bound]
    degrees = [(lam, mu, {1}, n)
               for lam, mu in ((Fraction(1), Fraction(-1)),
                               (Fraction(2), Fraction(3)))
               for n in range(1, min(N + 1, 5) + 1)]
    return [
        ("pre-lie-identity", pre_lie_identity, triples),
        ("grafting-closed-vs-recursive", grafting_closed_vs_recursive, pairs),
        ("composition-coproduct-duality", composition_coproduct_duality, duals),
        ("tree-to-word-morphism", tree_to_word_morphism, images),
        ("word-closed-vs-recursive", word_closed_vs_recursive, word_pairs),
        ("weighted-solution-two-routes", weighted_solution_two_routes, degrees),
    ]


def _selftest_pools(N, seed):
    top = min(N, 3)
    forests = [f for d in range(1, top + 1)
               for f in forests_of_degree(_LABELS, d)]
    extra = _sampled(forests_of_degree(_LABELS, top + 1), 12, seed)
    pool = [(f,) for f in forests + extra]
    products = [(f, g) for f in forests for g in forests
                if f.degree + g.degree <= top + 1]
    lifts = [(Decoration(1, 1), f) for (f,) in pool]
    square = [(parse_system_text(_SQUARE), 4)]
    return [
        ("coassociativity", coassociativity, pool),
        ("counit", counit_axiom, pool),
        ("coproduct-multiplicativity", coproduct_multiplicativity, products),
        ("cocycle-identity", cocycle_identity, lifts),
        ("coproduct-grading", coproduct_grading, pool),
        ("solver-two-routes", solver_two_routes, square),
        ("hopf-smoke", hopf_smoke, square),
    ]


SUITES = {"prelie-verify": _prelie_verify_pools, "selftest": _selftest_pools}
