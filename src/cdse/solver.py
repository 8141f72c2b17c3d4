"""Dyson-Schwinger systems: build, normalize, solve, certify.

A system is one equation per index i,

    x_i = sum over q in J_i of  B_(i,q)( f_iq(x_1, ..., x_N) ),

where B_(i,q) grafts a forest under a new root decorated (i, q) and f_iq is a
power series stored as an expression.  J_i is a finite degree set, optionally
extended by one parametric family "all q >= q0" sharing a template in q.

Solving is exact and order by order.  The Hopf test asks, degree by degree
and bidegree by bidegree, whether the coproduct of each solution component
stays inside the span of monomial tensors built from solution components,
and returns a separating functional when it does not.  It is decided on
component labels from the operator series alone; trees are built only for
the witnesses of a failing degree.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache, cached_property

from . import linalg
from .hopf import coproduct, graft_operator
from .linear import ForestSum, _accumulate, _merge, _ratios
from .record import Record
from .series import (Add, EvaluationError, Mul, Num, ParseError, Pow,
                     expr_at_zero, expr_const, expr_degree_bound,
                     expr_instantiate, expr_rescale_var, expr_series,
                     expr_text, expr_uses_param, parse_expr, substitute)
from .trees import Decoration, Tree, _fill_tables, single

# depth used when comparing operator series for identity or zeroness; a
# polynomial is compared at its exact degree bound when that is higher, and
# other closed forms are taken to agree when they agree to this depth
INSPECT_DEPTH = 8

INCONSISTENT = "inconsistent"
VACUOUS = "vacuous"


class SystemFormatError(ValueError):
    pass


class NotHopfCompatible(ValueError):
    """Strict-mode rejection: the input violates a necessary Hopf condition."""


def _series_at(expr, nvars, trunc, where, q=None):
    try:
        return expr_series(expr, nvars, trunc, q)
    except EvaluationError as exc:
        raise SystemFormatError(f"{where}: {exc}") from exc


def _inspect_depth(*exprs) -> int:
    """INSPECT_DEPTH, raised to the degree bound of any polynomial in exprs."""
    bounds = (expr_degree_bound(e) for e in exprs)
    return max([INSPECT_DEPTH, *(b for b in bounds if b is not None)])


def _exprs_equal(a, b, nvars, where) -> bool:
    depth = _inspect_depth(a, b)
    return _series_at(a, nvars, depth, where) == _series_at(b, nvars, depth, where)


class SDSE:
    """System data: explicit operators plus at most one family per equation."""

    def __init__(self, nvars: int, ops=None, families=None, notes=()):
        if nvars < 1:
            raise SystemFormatError("a system needs at least one equation")
        self.nvars = nvars
        self.ops = {}
        self.families = {}
        self.notes = list(notes)
        for (i, q), expr in (ops or {}).items():
            self._check_index(i, q)
            if expr_uses_param(expr):
                raise SystemFormatError(f"operator ({i},{q}): q outside a family template")
            self.ops[(i, q)] = expr
        for i, (q0, template) in (families or {}).items():
            self._check_index(i, q0)
            self.families[i] = (q0, template)
        for (i, q) in self.ops:
            q0t = self.families.get(i)
            if q0t and q >= q0t[0]:
                raise SystemFormatError(
                    f"operator ({i},{q}) collides with the family q >= {q0t[0]}")

    def _check_index(self, i, q):
        if not 1 <= i <= self.nvars:
            raise SystemFormatError(f"equation index {i} out of range 1..{self.nvars}")
        if q < 1:
            raise SystemFormatError(f"operator degree {q} must be positive")

    @classmethod
    def from_op_list(cls, nvars, triples, families=(), strict=True):
        """Build from (i, q, expr) triples, merging duplicate (i, q) entries.

        Equal duplicate series collapse silently.  Different series for one
        decoration are rejected outright in strict mode; in permissive mode
        the operators are summed (grafting under one decoration is linear, so
        B(f) + B(g) = B(f+g) exactly).
        """
        notes = []
        ops = {}
        for i, q, expr in triples:
            key = (i, q)
            if key not in ops:
                ops[key] = expr
            elif _exprs_equal(ops[key], expr, nvars, f"operator ({i},{q})"):
                notes.append(f"merged duplicate operator ({i},{q})")
            elif strict:
                raise NotHopfCompatible(
                    f"two degree-{q} operators in equation {i} with different "
                    f"series: cannot be Hopf")
            else:
                ops[key] = Add(ops[key], expr)
                notes.append(f"summed duplicate operators ({i},{q})")
        fams = {}
        for i, q0, template in families:
            if i in fams:
                raise SystemFormatError(f"equation {i} has two operator families")
            fams[i] = (q0, template)
        # explicit operator inside a family's range: identical series are
        # redundant and dropped; anything else is ambiguous
        for (i, q) in list(ops):
            fam = fams.get(i)
            if fam and q >= fam[0]:
                if _exprs_equal(ops[(i, q)], expr_instantiate(fam[1], q), nvars,
                                f"operator ({i},{q})"):
                    del ops[(i, q)]
                    notes.append(f"dropped operator ({i},{q}) covered by the family")
                else:
                    raise SystemFormatError(
                        f"operator ({i},{q}) contradicts the family template")
        return cls(nvars, ops, fams, notes)

    def __eq__(self, other):
        return (isinstance(other, SDSE) and self.nvars == other.nvars
                and self.ops == other.ops and self.families == other.families)

    def degrees(self, i: int, bound: int):
        """Operator degrees q <= bound for equation i, ascending."""
        out = {q for (j, q) in self.ops if j == i and q <= bound}
        fam = self.families.get(i)
        if fam:
            out.update(range(fam[0], bound + 1))
        return sorted(out)

    def op_expr(self, i: int, q: int):
        """Expression for B_(i,q)'s argument, instantiated; None if absent."""
        expr = self.ops.get((i, q))
        if expr is not None:
            return expr
        fam = self.families.get(i)
        if fam and q >= fam[0]:
            return expr_instantiate(fam[1], q)
        return None

    def op_series(self, i: int, q: int, trunc: int):
        expr = self.op_expr(i, q)
        return None if expr is None else _series_at(expr, self.nvars, trunc,
                                                    f"operator ({i},{q})")

    def decorations(self, bound: int):
        return tuple(Decoration(i, q)
                     for i in range(1, self.nvars + 1)
                     for q in self.degrees(i, bound))


def normalize(raw: SDSE, strict: bool = True) -> SDSE:
    """Normal form: zero operators dropped, constant terms scaled to 1.

    A nonzero series with constant term 0 can never feed a Hopf solution, so
    strict mode rejects it; permissive mode keeps it for check_hopf to judge.
    """
    notes = list(raw.notes)
    ops = {}
    for (i, q), expr in raw.ops.items():
        s = raw.op_series(i, q, _inspect_depth(expr))
        if not s:
            notes.append(f"dropped zero operator ({i},{q})")
            continue
        c = s.constant_term()
        if c == 0:
            if strict:
                raise NotHopfCompatible(
                    f"operator ({i},{q}): constant term 0 with a nonzero series")
            notes.append(f"kept non-normalizable operator ({i},{q})")
        elif c != 1:
            expr = Mul(Num(Fraction(1, 1) / c), expr)
            notes.append(f"rescaled operator ({i},{q}) by {Fraction(1, 1) / c}")
        ops[(i, q)] = expr
    families = {}
    for i, (q0, template) in raw.families.items():
        sample = range(q0, q0 + INSPECT_DEPTH)
        if not any(_series_at(template, raw.nvars, INSPECT_DEPTH,
                              f"family (eq {i}) at q = {q}", q)
                   for q in sample):
            notes.append(f"dropped zero operator family (eq {i}, q >= {q0})")
            continue
        consts, at_zero = {}, expr_at_zero(template)
        for q in sample:
            try:
                consts[q] = expr_const(at_zero, q)
            except EvaluationError as exc:
                raise SystemFormatError(
                    f"family (eq {i}) at q = {q}: {exc}") from exc
        if any(c == 0 for c in consts.values()):
            if strict:
                raise NotHopfCompatible(
                    f"family (eq {i}): constant term 0 at q = "
                    f"{min(q for q, c in consts.items() if c == 0)}")
            notes.append(f"kept non-normalizable family (eq {i})")
        elif any(c != 1 for c in consts.values()):
            template = Mul(Pow(expr_at_zero(template), Num(Fraction(-1))), template)
            notes.append(f"rescaled family (eq {i}) by its constant term")
        families[i] = (q0, template)
    return SDSE(raw.nvars, ops, families, notes)


# ----------------------------------------------------------------- solving

class Solution:
    """Homogeneous solution components x_i(n) for n <= order.

    Made without components, a solution grows them with solve the first
    time they are read, so a verdict that needs no tree builds none.
    """

    def __init__(self, system: SDSE, order: int, components=None):
        self.system = system
        self.order = order
        self._components = components

    @property
    def components(self) -> dict:
        """(i, n) -> ForestSum."""
        if self._components is None:
            self._components = solve(self.system, self.order).components
        return self._components

    def component(self, i: int, n: int) -> ForestSum:
        """x_i(n); a degree or equation the solution does not hold is
        refused (_within), not read as zero."""
        _within(self, n, i)
        return self.components.get((i, n), ForestSum.zero())

    def coefficient(self, t: Tree) -> Fraction:
        return self.component(t.decoration.eq, t.degree).coeff(single(t))

    def generators(self):
        """Nonzero components, as ((i, n), ForestSum), ordered."""
        return [((i, n), self.components[(i, n)])
                for (i, n) in sorted(self.components)
                if self.components[(i, n)]]


def _graft_search(support, caps, kept, counts, picked,
                  rest, low, start, slots, num, den, run):
    """Child multisets of total degree rest for one operator, as
    (children, num, den), num / den the coefficient of their tree.

    Children come from kept (degree -> [(tree, den, count, eq)], in
    canonical order; count / den is the tree's coefficient, den the one
    its component holds) one at a time, none smaller than the last, so picks
    follow the canonical tree order and the multisets come out in
    lexicographic order: the canonical order of their trees.  The exponent
    vector p must lie in support, the series as ints over the first den;
    caps[j] bounds p_j and slots |p|, so work follows the nonzero solution.
    A pick multiplies num and den by the child's coefficient count and den,
    and den by the run of equal children it extends: a run of mult, by mult!.
    """
    # a module-level function rather than a closure that calls itself, so no
    # reference cycle keeps kept alive after solve returns
    if rest == 0:
        c = support.get(tuple(counts))
        if c is not None:
            yield picked, c * num, den
        return
    if slots == 0:
        return
    # children come in nondecreasing degree, so a next degree e leaves
    # either nothing or at least e behind: e <= rest // 2 or e == rest
    degrees = [rest] if slots == 1 else [*range(low, rest // 2 + 1), rest]
    for e in degrees:
        if e < low:
            continue
        row = kept.get(e, ())
        for k in range(start if e == low else 0, len(row)):
            t, d, a, j = row[k]
            if counts[j] == caps[j]:
                continue
            more = run + 1 if e == low and k == start and picked else 1
            picked.append(t)
            counts[j] += 1
            yield from _graft_search(support, caps, kept, counts, picked,
                                     rest - e, e, k, slots - 1, num * a,
                                     den * d * more, more)
            picked.pop()
            counts[j] -= 1


def _operator_series(S: SDSE, N: int) -> list:
    """[(i, q, f_iq to degree N - q)] for the nonzero operator series, in
    equation and degree order: what solve and the label route read, so a
    bad operator fails alike on both."""
    if N < 1:
        raise SystemFormatError("degree bound must be >= 1")
    ops = []
    for i in range(1, S.nvars + 1):
        for q in S.degrees(i, N):
            series = S.op_series(i, q, N - q)
            if series:
                ops.append((i, q, series))
    return ops


def solve(S: SDSE, N: int) -> Solution:
    """Coefficient recursion, generated from the support of each operator.

    a at a single root (i,q) is the constant term of f_iq; grafting children
    multiplies by the matching series coefficient f_iq[p] (p counts the
    children per equation), by a(sub)^mult for each distinct child, and by
    prod p_j! / prod mult!, an int because it is a product of multinomials.
    A tree has a nonzero coefficient exactly when its children do and p
    lies in the support of f_iq, so each degree is built only from the
    nonzero trees of lower degree.  The search multiplies ints, f_iq[p] prod
    p_j! over D = lcm of f_iq's denominators and the children's counts and
    dens.  No Fraction is made: each component holds its trees, in
    canonical order, as ints over one den (ForestSum._from_ratios reduces
    each num / den and puts them over the lcm), and that (den, counts) pair
    is what the next degrees, check_hopf and extract_lambda read.
    """
    ops = []
    for i, q, D, support in _operator_ints(S, N):
        caps = [max(p[j] for p in support) for j in range(S.nvars)]
        ints = {p: c * math.prod(map(math.factorial, p))
                for p, c in support.items()}
        ops.append((Decoration(i, q), ints, caps, max(map(sum, support)), D))
    kept = {}
    components = {}
    for n in range(1, N + 1):
        per_eq = {i: [] for i in range(1, S.nvars + 1)}
        for dec, ints, caps, slots, D in ops:
            if dec.degree > n:
                continue
            grafts = _graft_search(ints, caps, kept, [0] * S.nvars, [],
                                   n - dec.degree, 1, 0, slots, 1, D, 0)
            per_eq[dec.eq] += ((single(Tree(dec, kids)), num, den)
                               for kids, num, den in grafts)
        kept[n] = []
        for i, grown in per_eq.items():
            components[(i, n)] = ForestSum._from_ratios(grown)
            den, counts = components[(i, n)]._counts()
            kept[n] += ((f.trees[0], den, c, i - 1) for f, c in counts.items())
    return Solution(S, N, components)


def solve_oracle(S: SDSE, N: int) -> Solution:
    """Independent route: iterate x <- RHS(x) until stable to degree N."""
    xs = {i: ForestSum.zero() for i in range(1, S.nvars + 1)}
    for _ in range(N + 1):
        new = {}
        for i in range(1, S.nvars + 1):
            acc = ForestSum.zero()
            for q in S.degrees(i, N):
                arg = substitute(S.op_series(i, q, N - q),
                                 {j: xs[j] for j in xs}, N - q)
                acc.add_scaled(graft_operator((i, q), arg))
            new[i] = acc.truncate(N)
        if new == xs:
            break
        xs = new
    components = {}
    for i in range(1, S.nvars + 1):
        for n in range(1, N + 1):
            components[(i, n)] = xs[i].homogeneous(n)
    return Solution(S, N, components)


# --------------------------------------------------------------- Hopf test

class HopfFailure(Record):
    """The bidegree (k, n-k) slice of Delta x_eq(n) escapes U_k (x) U_(n-k).

    The witness is delta_F (x) psi for the first failing row F: psi lives
    on trees rooted at eq and kills x_eq(n-k), so it kills U_(n-k) and the
    witness every monomial tensor; it pairs with the slice to the pairing.
    """
    eq: int
    degree: int
    left_degree: int
    # (Forest, Forest) -> Fraction, the functional, in ascending key order:
    # the one left forest F, then psi's forests in the order separate lists
    witness: dict
    pairing: Fraction      # witness applied to the offending component

    def describe(self) -> str:
        return (f"equation {self.eq}, degree {self.degree}, bidegree "
                f"({self.left_degree},{self.degree - self.left_degree}): "
                f"coproduct component escapes the solution span "
                f"(witness pairing {self.pairing})")


class HopfReport(Record):
    order: int
    checks: int
    failures: list
    solution: Solution

    @property
    def is_hopf(self) -> bool:
        return not self.failures


class _Span:
    """Sparse echelon basis of a span of forest sums, read as int counts
    (_counts()): scaling a vector does not change the span, and rref scales
    each row at its pivot.  Sums with disjoint supports, as components are,
    stay apart: each echelon row is one of them over its pivot entry.
    """

    def __init__(self, vecs):
        counts = [vec._counts()[1] for vec in vecs]
        self.forests = sorted({f for vec in counts for f in vec})
        self.index = index = {f: col for col, f in enumerate(self.forests)}
        echelon, pivots = linalg.rref(
            [{index[f]: c for f, c in vec.items()} for vec in counts])
        self.rows = dict(zip(pivots, echelon))  # pivot -> echelon row

    def separate(self, vec):
        """A functional phi that kills the span but not vec, as (dict
        Forest -> Fraction, phi(vec)); None when vec lies in the span.
        vec maps forests to rationals, ints or Fractions.

        A forest outside the span's support is its own phi.  Otherwise
        reducing vec by the echelon rows leaves t with no entry at a pivot;
        its first nonzero entry c gives phi = e_c - sum_r R_r[c] e_(pivot r),
        and phi(vec) = t_c.  phi lists its forests in ascending order: the
        pivots in echelon order, each before c, since R_r[c] != 0, then c.
        """
        outside = [f for f in vec if f not in self.index]
        if outside:
            f = min(outside)
            return {f: Fraction(1)}, vec[f]
        t = {self.index[f]: c for f, c in vec.items()}
        for p in [col for col in t if col in self.rows]:
            f = t[p]
            _accumulate(t, ((col, -f * x) for col, x in self.rows[p].items()))
        if not t:
            return None
        c = min(t)
        # rows reduced from int counts hold ints wherever no pivot divided
        phi = {self.forests[p]: -Fraction(row[c])
               for p, row in self.rows.items() if c in row}
        phi[self.forests[c]] = Fraction(1)
        return phi, t[c]


def _slices(sol: Solution):
    """(D, slices): slices maps (i, n, k) -> F -> G -> D times the
    coefficient of F (x) G in Delta x_i(n), an int, for 0 < k < n.  They are
    read off one coproduct of the sum of all components (disjoint supports),
    summed in ints over D, the lcm of the components' dens.  A cut keeps the
    root in the trunk G, one tree, so i is the root equation of G and
    n = deg F + deg G."""
    total = ForestSum._from_counts((1, *comp._counts())
                                   for comp in sol.components.values())
    D, counts = coproduct(total)._counts()
    slices = {}
    for (f, g), c in counts.items():
        if f.degree and g.degree:
            key = (g.trees[0].decoration.eq, f.degree + g.degree, f.degree)
            slices.setdefault(key, {}).setdefault(f, {})[g] = c
    return D, slices


def _union(a, b):
    """The multiset sum of a and b, each a tuple of (label, count) pairs in
    ascending label order, so a long run of one label stays one pair."""
    if not a:
        return b
    if not b:
        return a
    if a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    merged = dict(a)
    for label, c in b:
        merged[label] = merged.get(label, 0) + c
    return tuple(sorted(merged.items()))


def _times(x, y):
    """The product of two (den, counts) pairs keyed by label pairs (a, s),
    x^a (x) x^s: the left and the right multisets each add up."""
    (dx, cx), (dy, cy) = x, y
    out = {}
    for (a, s), u in cx.items():
        for (b, t), v in cy.items():
            key = _union(a, b), _union(s, t)
            out[key] = out.get(key, 0) + u * v
    return dx * dy, {key: c for key, c in out.items() if c}


_UNIT = (1, {((), ()): 1})  # 1 (x) 1


def _proportion(row, den, ref):
    """(num, d) with row / den = num / d times the vector of ref, a (den,
    counts) pair; None when ref is None or row is no multiple of it.  The
    one ratio test of the label route, slice_coordinates and the leaf cuts."""
    if ref is None or row.keys() != ref[1].keys():
        return None
    rden, rc = ref
    key = next(iter(rc))
    a, b = row[key], rc[key]
    if any(v * b != a * rc[k] for k, v in row.items()):
        return None
    num, d = a * rden, den * b
    return (num, d) if d > 0 else (-num, -d)


def _operator_ints(S: SDSE, N: int):
    """[(i, q, den, {p: int})]: each nonzero operator series to degree
    N - q, as ints over den: the one reading solve and the label route use."""
    return [(i, q, *series._counts()) for i, q, series in _operator_series(S, N)]


def _label_route(S: SDSE, N: int, ops):
    """The Hopf test on component labels: no tree, no coproduct, no
    elimination.  A generator over the degrees n = 1..N.

    A label (j, m) names the component x_j(m), and a multiset a of labels
    the monomial x^a, of degree |a|.  While the test passes below degree
    n, each Delta x_j(m) is sum_a c_(j,m)[a] x^a (x) x_j(m - |a|), with
    x_j(0) = 1.  The 1-cocycle property gives

        Delta x_i(n) - x_i(n) (x) 1 = sum_q (id (x) B_(i,q)) [f_iq(Delta h)]_(n-q),

    h_j = sum_m x_j(m).  Expanded over label pairs x^a (x) x^s, the trees
    B_(i,q)(x^s) for distinct (q, s) have disjoint supports, so each left
    label a gives a vector alpha_a over the keys (q, s).  a = () gives
    x_i(n) itself, beta_(i,n).  The slice (i, n, |a|) stays in the span
    exactly when alpha_a = r_a beta_(i, n - |a|) (_tree_hopf's docstring
    says why), and then c_(i,n)[a] = r_a.  Everything is (den, int counts)
    pairs.

    The products (Delta h)^p live in one table, mono[p][d] the degree-d
    part, for each exponent p of an operator term and each p on its chain
    down to one variable: (Delta h)^p = Delta h_j (Delta h)^(p - e_j), j
    the last variable of p, and (Delta h)^(e_j) is Delta h_j, the deltas
    of the degrees passed.  Each degree builds mono[p] once, up to the last
    degree a reader needs, and an entry is dropped once its last reader has
    passed: an operator term reads degree d at d + q, and a product built
    from it reads it up to that product's last degree.

    Yields (deltas, failing) per degree: deltas maps each i with x_i(n) !=
    0 to Delta x_i(n) as a (den, counts) pair keyed by label pairs (a, s),
    x^a (x) x^s, each a multiset of ((j, m), count) pairs in label order;
    failing lists the (i, n, k) whose slice escapes, and the first degree
    that has any is the last one yielded.
    """
    units = [tuple(int(j == k) for k in range(S.nvars)) for j in range(S.nvars)]
    # top[p]: the last degree of (Delta h)^p read; lag[p]: the largest q of
    # an operator term x^p; held[p]: the last degree of a product built
    # from (Delta h)^p, which reads it up to there
    top, lag, held = {}, {}, {}
    for _, q, _, ints in ops:
        for p in ints:
            top[p] = max(top.get(p, 0), N - q)
            lag[p] = max(lag.get(p, 0), q)
    # chain[p]: (e_j, p - e_j) for |p| >= 2; degree d of (Delta h)^p sums
    # e_j's degree m times p - e_j's degree d - m, m = 1..d - |p| + 1
    chain = {}
    for size in range(max(map(sum, top), default=0), 1, -1):
        for p in [p for p in top if sum(p) == size]:
            j = max(j for j, e in enumerate(p) if e)
            chain[p] = units[j], tuple(e - (k == j) for k, e in enumerate(p))
            for r, upto in zip(chain[p], (top[p] - size + 1, top[p] - 1)):
                top[r] = max(top.get(r, 0), upto)
                held[r] = max(held.get(r, 0), top[p])
    mono = {p: {} for p in top}
    mono[(0,) * S.nvars] = {0: _UNIT}
    ends = {}     # degree -> the entries (p, d) whose last reader it is
    betas = {}    # (i, n) -> beta_(i,n) as (den, {(q, s): count}), nonzero
    rights = {}   # (i, m) -> the multiset of the one label (i, m)
    for n in range(1, N + 1):
        rows = {}  # i -> [(q, den, counts)]: [f_iq(Delta h)]_(n-q)
        for i, q, den, ints in ops:
            if q > n:
                continue
            parts = []
            for p, c in ints.items():
                part = mono[p].get(n - q)
                if part:
                    parts.append((c, den * part[0], part[1]))
            den, counts = _merge(parts)
            if counts:
                rows.setdefault(i, []).append((q, den, counts))
        deltas, failing = {}, set()
        for i, per_q in rows.items():
            den = math.lcm(*(d for _, d, _ in per_q))
            alpha = {}
            for q, d, counts in per_q:
                scale = den // d
                for (a, s), c in counts.items():
                    alpha.setdefault(a, {})[q, s] = c * scale
            beta = alpha.pop((), None)
            if beta is None:
                continue
            betas[(i, n)] = (den, beta)
            own = rights[(i, n)] = (((i, n), 1),)
            items = [(((), own), 1, 1), ((own, ()), 1, 1)]
            for a, row in alpha.items():
                k = sum(m * c for (_, m), c in a)
                r = _proportion(row, den, betas.get((i, n - k)))
                if r is None:
                    failing.add((i, n, k))
                else:
                    items.append(((a, rights[(i, n - k)]), *r))
            deltas[i] = _ratios(items)
        yield deltas, sorted(failing)
        if failing:
            return
        built = {units[i - 1]: pair for i, pair in deltas.items()}
        for p, (e, rest) in chain.items():
            if sum(p) <= n <= top[p]:
                built[p] = _merge((1, *_times(mono[e][m], mono[rest][n - m]))
                                  for m in range(1, n - sum(p) + 2)
                                  if m in mono[e] and n - m in mono[rest])
        for p, pair in built.items():
            if pair[1] and n <= top.get(p, 0):
                mono[p][n] = pair
                ends.setdefault(max(n + lag.get(p, 0), held.get(p, 0)),
                                []).append((p, n))
        for p, d in ends.pop(n, ()):
            del mono[p][d]


def check_hopf(S: SDSE, N: int) -> HopfReport:
    """Degree-by-degree Hopf test on the subalgebra of solution components.

    The label route (_label_route) decides from the operator series alone.
    When it passes to N, the report holds no failure, its checks count the
    slices of every nonzero x_i(n), n >= 2, and its solution is grown only
    when read.  When a degree fails, the tree route (_tree_hopf) reruns the
    test from degree 1 and builds the failures and their witnesses.
    """
    checks = 0
    for n, (deltas, failing) in enumerate(
            _label_route(S, N, _operator_ints(S, N)), start=1):
        if failing:
            return _tree_hopf(S, N)
        checks += (n - 1) * len(deltas)
    return HopfReport(N, checks, [], Solution(S, N))


def _tree_hopf(S: SDSE, N: int) -> HopfReport:
    """The Hopf test on the solution's trees, with witnesses.

    Every bidegree (k, n-k) slice of Delta x_i(n) must lie in U_k (x)
    U_(n-k), U_d the span of the degree-d monomials x^a in the components.
    That is every column in U_k and every row (one per left forest F) in
    U_(n-k), and the columns always are: each B_(i,q) is a 1-cocycle, so
    by induction Delta x_i(n) lies in A_X (x) H, A_X the algebra the
    components generate.  A row is a sum of trees rooted at i.  A forest
    of x^a has tree type a (_tree_type), so U_d is the direct sum of the
    lines Q x^a, and on those trees the only part of U_(n-k) is Q x_i(n-k).
    So each row is reduced against the degree-(n-k) components alone,
    eliminated once for all equations; a failing row F gives the witness
    delta_F (x) psi.  All of it is int counts over one den (cdse.linear's
    (den, counts) pair); the pairing is the reduced row's entry over D.
    """
    sol = solve(S, N)
    span = cache(lambda d: _Span([x for (_, m), x in sol.generators()
                                  if m == d]))
    D, slices = _slices(sol)
    checks = 0
    failures = []
    for i in range(1, S.nvars + 1):
        for n in range(2, N + 1):
            if not sol.component(i, n):
                continue
            checks += n - 1
            for k in range(1, n):
                rows = slices.get((i, n, k), {})
                for f in sorted(rows):
                    found = span(n - k).separate(rows[f])
                    if found is not None:
                        psi, pairing = found
                        failures.append(HopfFailure(
                            i, n, k, {(f, g): x for g, x in psi.items()},
                            Fraction(pairing, D)))
                        break
    return HopfReport(N, checks, failures, sol)


def _within(sol: Solution, n: int, i: int = 1):
    """Refuse a degree outside 1..sol.order or an equation outside
    1..nvars: the solution holds no component there, and reading one as
    zero would give a wrong answer rather than none."""
    if n < 1:
        raise ValueError(f"degree {n} is below 1")
    if n > sol.order:
        raise ValueError(f"degree {n} is above the solution's order {sol.order}")
    if not 1 <= i <= sol.system.nvars:
        raise ValueError(f"equation {i} out of range 1..{sol.system.nvars}")


def _tree_type(f) -> tuple:
    """The sorted (root eq, degree) of f's trees: the label of the only
    monomial in the components whose support can hold f."""
    return tuple(sorted((t.decoration.eq, t.degree) for t in f.trees))


def _monomial(sol: Solution, label) -> ForestSum:
    """x^label, the product of the components x_j(m) named in label."""
    return math.prod((sol.component(j, m) for j, m in label),
                     start=ForestSum.one())


def slice_coordinates(sol: Solution, i: int, n: int, k: int):
    """Bidegree (k, n-k) slice of the coproduct of x_i(n), written in the
    basis of monomial tensors x^a (x) x^b.

    Returns a dict keyed by (a, b), sorted tuples of component keys (j, m),
    with rational values, or None when the slice falls outside their span.
    A term F (x) G can lie only in the tensor of the tree types of F and G,
    and tensors of different labels have disjoint supports, so the slice's
    terms of each label must be one multiple of that label's tensor
    (_proportion), and the multiple is its coordinate.
    """
    _within(sol, n, i)
    den, counts = coproduct(sol.component(i, n))._counts()
    blocks = {}
    for (f, g), c in counts.items():
        if f.degree == k:
            blocks.setdefault((_tree_type(f), _tree_type(g)), {})[f, g] = c
    coords = {}
    for a, b in sorted(blocks):
        (da, ca), (db, cb) = (_monomial(sol, x)._counts() for x in (a, b))
        r = _proportion(blocks[a, b], den, (da * db, {
            (f, g): u * v for f, u in ca.items() for g, v in cb.items()}))
        if r is None:
            return None
        coords[a, b] = Fraction(*r)
    return coords


# ----------------------------------------------------------- lambda tables

class LambdaTable:
    """Structure constants lambda_n keyed (i, (i', q), n).

    Values are rationals, or the markers 'inconsistent' (witness trees
    disagree) and 'vacuous' (no witness tree of that degree).
    """

    def __init__(self, entries, order):
        self.entries = entries
        self.order = order

    @cached_property
    def _lines(self):
        """(i, (i', q)) -> {n: rational}: the entries grouped by line, in
        one pass on first read, markers skipped."""
        lines = {}
        for (i, key, n), v in self.entries.items():
            if isinstance(v, Fraction):
                lines.setdefault((i, key), {})[n] = v
        return lines

    def value(self, i, ip, q, n):
        return self.entries.get((i, (ip, q), n))

    def items(self):
        return sorted(self.entries.items(),
                      key=lambda kv: (kv[0][0], kv[0][1], kv[0][2]))

    def numeric(self, i, ip, q):
        """n -> rational entries for one (i, (i', q)) line, skipping markers."""
        return dict(self._lines.get((i, (ip, q)), {}))

    def affine_fit(self, i, ip, q):
        """Fit A + B(n-1) through the numeric entries; None if they refuse."""
        vals = self._lines.get((i, (ip, q)), {})
        if len(vals) < 2:
            return None
        ns = sorted(vals)
        n0, n1 = ns[0], ns[1]
        B = (vals[n1] - vals[n0]) / (n1 - n0)
        A = vals[n0] - B * (n0 - 1)
        if all(vals[n] == A + B * (n - 1) for n in ns):
            return (A, B)
        return None

    def q_independence(self):
        """Observed check of the side remark that lambda ignores q.

        Returns (holds, exceptions) where exceptions list (i, i', n) triples
        whose numeric values differ across q.
        """
        grouped = {}
        for (i, (ip, q)), line in self._lines.items():
            for n, v in line.items():
                grouped.setdefault((i, ip, n), {})[q] = v
        bad = [key for key, per_q in grouped.items()
               if len(set(per_q.values())) > 1]
        return (not bad, sorted(bad))


def _leaf_cut_table(t: Tree, tables: dict) -> dict:
    """{(d, t minus one leaf decorated d): count} over the non-root leaves
    of t, from its children's tables in tables (a leaf's is empty).

    A cut below child c of t = B(c, others) is c itself when c is a leaf,
    or a cut of c's own table regrafted beside the others; equal children
    are visited once and multiply the count.
    """
    table = {}
    pos = 0
    for child, group in itertools.groupby(t.children):
        mult = len(list(group))
        others = t.children[:pos] + t.children[pos + 1:]
        pos += mult
        if not child.children:
            key = (child.decoration, Tree(t.decoration, others))
            table[key] = table.get(key, 0) + mult
            continue
        for (dec, rest), count in tables[child].items():
            key = (dec, Tree(t.decoration, others + (rest,)))
            table[key] = table.get(key, 0) + mult * count
    return table


def extract_lambda(S: SDSE, sol: Solution, N: int) -> LambdaTable:
    """The structure constants lambda_n for (i, (i', q)), n + q <= N.

    lambda_n is the ratio (coefficient of the single vertex (i', q) tensor
    t in the coproduct of x_i(n+q)) / a_t, which must agree over every tree
    t of degree n with a_t != 0; disagreement and absence get their
    markers.

    A solution that holds its components (solve's) is read off their leaf
    cuts (_leaf_cut_lambda): its trees are paid for, and the cuts cost about
    one tree per vertex, where the labels can cost far more (a ladder has
    one tree but n + 1 label pairs in Delta x(n)).  A solution made without
    components (Solution(S, N)) is read off the label route instead, which
    grows no tree.  When it passes to N, Delta x_i(n+q) holds
    c x_i'(q) (x) x_i(n) for the label a = ((i', q)), and the vertex has
    coefficient f_i'q[0] in x_i'(q), so lambda_n = c f_i'q[0]: 0 where the
    label is absent, and 'vacuous' where x_i(n) = 0.  When a degree fails,
    the leaf cuts are read, and reading them grows the solution.
    """
    _within(sol, N)
    if sol._components is not None:
        return _leaf_cut_lambda(S, sol, N)
    ops = _operator_ints(S, N)
    vertex = {(i, q): Fraction(ints.get((0,) * S.nvars, 0), den)
              for i, q, den, ints in ops}
    found = {}   # (i, (i', q), n) -> lambda_n
    nonzero = set()
    for m, (deltas, failing) in enumerate(_label_route(S, N, ops), start=1):
        if failing:
            return _leaf_cut_lambda(S, sol, N)
        for i, (den, counts) in deltas.items():
            nonzero.add((i, m))
            for (ip, q), v in vertex.items():
                c = counts.get(((((ip, q), 1),), (((i, m - q), 1),)))
                if c:
                    found[(i, (ip, q), m - q)] = Fraction(c, den) * v
    return _lambda_table(S, N, nonzero,
                         lambda i, dec, n: found.get((i, dec, n), Fraction(0)))


def _lambda_table(S: SDSE, N: int, nonzero, value) -> LambdaTable:
    """The table over every (i, (i', q), n) with n + q <= N, (i', q) a
    decoration of S: 'vacuous' where x_i(n) = 0, (i, n) not in nonzero,
    and value(i, (i', q), n) elsewhere."""
    decs = sorted({(d.eq, d.degree) for d in S.decorations(N)})
    return LambdaTable({(i, dec, n): value(i, dec, n) if (i, n) in nonzero
                        else VACUOUS
                        for i in range(1, S.nvars + 1)
                        for dec in decs
                        for n in range(1, N - dec[1] + 1)}, N)


def _leaf_cut_lambda(S: SDSE, sol: Solution, N: int) -> LambdaTable:
    """Read the structure constants off the leaf cuts of the solution.

    lambda_n for (i, (i', q)) is the ratio (coefficient of the single vertex
    (i', q) tensor t in the coproduct of x_i(n+q)) / a_t, which must agree
    over every tree t of degree n with a_t != 0; disagreement and absence get
    their markers.  An admissible cut prunes a single vertex only by cutting
    the edge above a leaf, so that coefficient is the sum over trees s of
    x_i(n+q) of a_s times the number of (i', q)-leaves of s whose removal
    leaves t.  The table is read off those leaf cuts; no coproduct is formed.

    Each distinct subtree gets one int table of its leaf cuts, built from
    its children's tables, so a cut costs one tree per vertex where it
    applies rather than a rebuild of the whole path above the leaf.  The
    children of solution trees are lower-degree solution trees, so the
    components are visited by degree; a tree of degree N is a subtree of
    no tree of degree <= N, and its table is dropped once read.  The sums
    are ints: a cut (d, t) is fed only by x_i(deg t + q), i the root of t,
    so it sums that component's int counts (_counts()) over its den, and
    each entry is one ratio test (_proportion) against x_i(n)'s counts.
    """
    _within(sol, N)
    tables = {}  # subtree -> its leaf-cut table, for this call only
    cuts = {}    # (leaf decoration, remaining tree) -> count over its den
    pairs = {}   # (i, m) -> x_i(m)._counts(), (den, {forest: count}), nonzero
    for (i, m), comp in sorted(sol.components.items(), key=lambda kv: kv[0][1]):
        if m > N or not comp:
            continue
        pairs[(i, m)] = comp._counts()
        for f, w in pairs[(i, m)][1].items():
            t = f.trees[0]
            table = _fill_tables(tables, (t,), _leaf_cut_table)[t]
            if t.degree >= N:
                del tables[t]
            for key, count in table.items():
                cuts[key] = cuts.get(key, 0) + w * count

    def value(i, dec, n):
        # the cuts at the trees of x_i(n), over x_i(n+q)'s den, against x_i(n)
        cut = Decoration(*dec)
        ref = pairs[(i, n)]
        row = {f: cuts.get((cut, f.trees[0]), 0) for f in ref[1]}
        r = _proportion(row, pairs.get((i, n + dec[1]), (1,))[0], ref)
        return INCONSISTENT if r is None else Fraction(*r)

    return _lambda_table(S, N, pairs, value)


# ------------------------------------------------------- coefficient ladder

class LadderReport(Record):
    applicable: bool
    reason: str
    checks: int
    violations: list


def verify_coefficient_ladder(S: SDSE, sol: Solution, N: int) -> LadderReport:
    """One-step recursion tying series coefficients to the lambda table.

    Requires a degree-1 operator in every equation that has operators at all.
    For every operator series f with coefficient a_p != 0,

        (p_j + 1) a_{p+e_j} = (lambda_{|p|+q} for (i,(j,1)) - sum_l p_l d_l) a_p,

    where d_l is the h_j-coefficient of equation l's degree-1 series.  When
    a_p = 0, every higher coefficient above it must vanish too, and that is
    what gets checked instead.
    """
    _within(sol, N)
    active = [i for i in range(1, S.nvars + 1) if S.degrees(i, N)]
    inactive = [i for i in range(1, S.nvars + 1) if i not in active]
    for i in active:
        if 1 not in S.degrees(i, 1):
            return LadderReport(False, f"equation {i} has no degree-1 operator",
                                0, [])
    table = extract_lambda(S, sol, N)
    first_series = {l: S.op_series(l, 1, 1) for l in active}
    checks = 0
    violations = []
    for i in active:
        for q in S.degrees(i, N - 1):
            fs = S.op_series(i, q, N - q)
            for p in itertools.product(range(N - q), repeat=S.nvars):
                if sum(p) > N - q - 1:
                    continue
                if any(p[l - 1] for l in inactive):
                    continue
                a_p = fs.coeff(p)
                for j in range(1, S.nvars + 1):
                    if j not in active:
                        continue
                    p_up = tuple(e + 1 if l == j - 1 else e
                                 for l, e in enumerate(p))
                    a_up = fs.coeff(p_up)
                    checks += 1
                    if a_p == 0:
                        if a_up != 0:
                            violations.append((i, q, p, j, "zero did not propagate"))
                        continue
                    lam = table.value(i, j, 1, sum(p) + q)
                    if not isinstance(lam, Fraction):
                        violations.append((i, q, p, j, f"lambda marker {lam}"))
                        continue
                    drift = sum((p[l - 1] * first_series[l].coeff(
                        tuple(1 if r == j - 1 else 0 for r in range(S.nvars))))
                        for l in active)
                    if (p[j - 1] + 1) * a_up != (lam - drift) * a_p:
                        violations.append((i, q, p, j, "recursion mismatch"))
    return LadderReport(True, "", checks, violations)


def truncate_at_1(S: SDSE) -> SDSE:
    """Keep only the degree-1 operator of every equation."""
    ops = {}
    for i in range(1, S.nvars + 1):
        if not any(j == i for (j, _) in S.ops) and i not in S.families:
            continue
        expr = S.op_expr(i, 1)
        if expr is None:
            raise SystemFormatError(f"equation {i} has no degree-1 operator")
        ops[(i, 1)] = expr
    return SDSE(S.nvars, ops, {}, S.notes)


def rescale_variable(S: SDSE, j: int, factor) -> SDSE:
    """Substitute h_j -> factor * h_j in every operator series.

    Rescaling one variable rescales each solution coefficient by a power of
    the factor counting the non-root vertices of equation j, which is a Hopf
    algebra automorphism on trees; the generated subalgebra moves along with
    it, so Hopf compatibility is unchanged.  A zero factor erases h_j and
    is no automorphism, so it is rejected.
    """
    if not 1 <= j <= S.nvars:
        raise SystemFormatError(f"variable index {j} out of range 1..{S.nvars}")
    if factor == 0:
        raise SystemFormatError(f"variable {j}: rescaling factor must be "
                                f"nonzero")
    ops = {key: expr_rescale_var(expr, j, factor) for key, expr in S.ops.items()}
    fams = {i: (q0, expr_rescale_var(t, j, factor))
            for i, (q0, t) in S.families.items()}
    return SDSE(S.nvars, ops, fams, S.notes)


# ------------------------------------------------------------- file format

def _lines(text: str):
    """(lineno, line) for each line left nonblank by cutting its '#' comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _read(cast, text: str, where: str, what: str):
    """cast(text), or a format error reporting 'bad <what>'."""
    try:
        return cast(text)
    except (ValueError, ZeroDivisionError):
        raise SystemFormatError(f"{where}: bad {what}") from None


def _natural(text: str) -> int:
    """A plain decimal numeral: no sign, blank, underscore or superscript."""
    if not text.isdecimal():
        raise ValueError(text)
    return int(text)


def parse_system_text(text: str, strict: bool = True) -> SDSE:
    """Read the line-oriented system format.

    vars N            number of equations, first
    eq i              opens equation i
    op q : expr       one operator
    ops q0.. : expr   a parametric family, template may use q
    '#' starts a comment; blank lines are free.
    """
    nvars = None
    current = None
    triples = []
    families = []
    for lineno, line in _lines(text):
        def fail(msg):
            raise SystemFormatError(f"line {lineno}: {msg}")

        def number(token, what, least=0):
            n = _read(_natural, token, f"line {lineno}", what)
            if n < least:
                fail(f"bad {what}")
            return n

        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "vars":
            if nvars is not None:
                fail("repeated vars line")
            nvars = number(rest, f"equation count {rest!r}", 1)
        elif head == "eq":
            if nvars is None:
                fail("eq before vars")
            current = number(rest, f"equation index {rest!r}")
            if not 1 <= current <= nvars:
                fail(f"equation index {current} out of range")
        elif head in ("op", "ops"):
            if current is None:
                fail("operator line outside any equation")
            spec, colon, body = rest.partition(":")
            if not colon:
                fail("missing ':' in operator line")
            spec = spec.strip()
            try:
                expr = parse_expr(body.strip())
            except ParseError as exc:
                fail(str(exc))
            if head == "op":
                q = number(spec, f"operator degree {spec!r}", 1)
                if expr_uses_param(expr):
                    fail("q is only legal inside an 'ops' family template")
                triples.append((current, q, expr))
            else:
                what = f"family range {spec!r} (want 'q0..')"
                if not spec.endswith(".."):
                    fail(f"bad {what}")
                families.append((current, number(spec[:-2], what), expr))
        else:
            fail(f"unknown directive {head!r}")
    if nvars is None:
        raise SystemFormatError("missing vars line")
    try:
        return normalize(SDSE.from_op_list(nvars, triples, families, strict),
                         strict)
    except (SystemFormatError, NotHopfCompatible):
        raise
    except EvaluationError as exc:
        raise SystemFormatError(str(exc)) from exc


def system_text(S: SDSE) -> str:
    lines = [f"vars {S.nvars}"]
    for i in range(1, S.nvars + 1):
        explicit = sorted(q for (j, q) in S.ops if j == i)
        fam = S.families.get(i)
        if not explicit and not fam:
            continue
        lines.append(f"eq {i}")
        for q in explicit:
            lines.append(f"  op {q} : {expr_text(S.ops[(i, q)])}")
        if fam:
            lines.append(f"  ops {fam[0]}.. : {expr_text(fam[1])}")
    return "\n".join(lines) + "\n"
