"""Dyson-Schwinger systems: build, normalize, solve, certify.

A system is one equation per index i,

    x_i = sum over q in J_i of  B_(i,q)( f_iq(x_1, ..., x_N) ),

where B_(i,q) grafts a forest under a new root decorated (i, q) and f_iq is a
power series stored as an expression.  J_i is a finite degree set, optionally
extended by one parametric family "all q >= q0" sharing a template in q.

Solving is exact and order by order.  The Hopf test asks, degree by degree
and bidegree by bidegree, whether the coproduct of each solution component
stays inside the span of monomial tensors built from solution components,
and returns a separating functional when it does not.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache

from . import linalg
from .hopf import coproduct, graft_operator
from .linear import ONE, ForestSum, _accumulate, tensor
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


def _series_at(expr, nvars, trunc, q=None):
    try:
        return expr_series(expr, nvars, trunc, q)
    except EvaluationError as exc:
        raise SystemFormatError(str(exc)) from exc


def _inspect_depth(*exprs) -> int:
    """INSPECT_DEPTH, raised to the degree bound of any polynomial in exprs."""
    bounds = (expr_degree_bound(e) for e in exprs)
    return max([INSPECT_DEPTH, *(b for b in bounds if b is not None)])


def _exprs_equal(a, b, nvars) -> bool:
    depth = _inspect_depth(a, b)
    return _series_at(a, nvars, depth) == _series_at(b, nvars, depth)


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
            elif _exprs_equal(ops[key], expr, nvars):
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
                if _exprs_equal(ops[(i, q)], expr_instantiate(fam[1], q), nvars):
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
        return None if expr is None else _series_at(expr, self.nvars, trunc)

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
        s = _series_at(expr, raw.nvars, _inspect_depth(expr))
        if s.is_zero():
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
        if all(_series_at(template, raw.nvars, INSPECT_DEPTH, q).is_zero()
               for q in sample):
            notes.append(f"dropped zero operator family (eq {i}, q >= {q0})")
            continue
        consts = {q: expr_const(expr_at_zero(template), q) for q in sample}
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
    """Homogeneous solution components x_i(n) for n <= order."""

    def __init__(self, system: SDSE, order: int, components):
        self.system = system
        self.order = order
        self.components = components  # (i, n) -> ForestSum

    def component(self, i: int, n: int) -> ForestSum:
        return self.components.get((i, n), ForestSum.zero())

    def coefficient(self, t: Tree) -> Fraction:
        return self.component(t.decoration.eq, t.degree).coeff(single(t))

    def generators(self):
        """Nonzero components, as ((i, n), ForestSum), ordered."""
        return [((i, n), self.components[(i, n)])
                for (i, n) in sorted(self.components)
                if self.components[(i, n)]]


def _grafts(support, caps, slots, kept, rest):
    """Child multisets of total degree rest for one operator.

    Children are drawn from kept (degree -> [(tree, coefficient, eq)], in
    canonical order) and the exponent vector p of a multiset must lie in
    support, the nonzero coefficients of the operator's series.  caps[j] is
    the largest p_j over the support and slots the largest |p|; the search
    never exceeds them, so its work follows the nonzero solution.
    Yields (children, p, product of a^mult, product of mult!) over the
    distinct children, the last an int.
    """
    return _graft_search(support, caps, kept, [0] * len(caps), [],
                         rest, 1, 0, slots, ONE, 1)


def _graft_search(support, caps, kept, counts, picked,
                  rest, low, start, slots, weight, fact):
    # a module-level function rather than a closure that calls itself, so no
    # reference cycle keeps kept alive after solve returns
    if rest == 0:
        p = tuple(counts)
        if p in support:
            yield picked, p, weight, fact
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
            t, a, j = row[k]
            room = min(caps[j] - counts[j], slots, rest // e)
            power, f = weight, fact
            for mult in range(1, room + 1):
                power = power * a
                f *= mult
                picked.append(t)
                counts[j] += 1
                yield from _graft_search(support, caps, kept, counts, picked,
                                         rest - mult * e, e, k + 1,
                                         slots - mult, power, f)
            del picked[len(picked) - room:]
            counts[j] -= room


def solve(S: SDSE, N: int) -> Solution:
    """Coefficient recursion, generated from the support of each operator.

    a at a single root (i,q) is the constant term of f_iq; grafting children
    multiplies by the matching series coefficient f_iq[p] (p counts the
    children per equation), by a(sub)^mult for each distinct child, and by
    prod p_j! / prod mult!, an int because it is a product of multinomials.
    A tree has a nonzero coefficient exactly when its children do and p
    lies in the support of f_iq, so each degree is built only from the
    nonzero trees of lower degree.
    """
    if N < 1:
        raise SystemFormatError("degree bound must be >= 1")
    ops = []
    for i in range(1, S.nvars + 1):
        for q in S.degrees(i, N):
            support = S.op_series(i, q, N - q).coeffs
            if support:
                caps = [max(p[j] for p in support) for j in range(S.nvars)]
                ops.append((Decoration(i, q), support, caps, max(map(sum, support))))
    kept = {}
    components = {}
    for n in range(1, N + 1):
        per_eq = {i: [] for i in range(1, S.nvars + 1)}
        for dec, support, caps, slots in ops:
            if dec.degree > n:
                continue
            for kids, p, weight, fact in _grafts(support, caps, slots, kept,
                                                 n - dec.degree):
                a = support[p] * weight
                multinomial = math.prod(map(math.factorial, p)) // fact
                if multinomial != 1:
                    a *= multinomial
                per_eq[dec.eq].append((Tree(dec, kids), a))
        kept[n] = []
        for i, grown in per_eq.items():
            grown.sort(key=lambda ta: ta[0].key)
            components[(i, n)] = ForestSum((single(t), a) for t, a in grown)
            kept[n].extend((t, a, i - 1) for t, a in grown)
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


def component_monomials(sol: Solution, degree: int):
    """All products of solution components with total degree as given.

    The generating set is every nonzero x_j(m), m <= degree; monomials are
    multisets of generators.  Returns (label, product) pairs where the label
    is the sorted multiset of component keys (j, m), in deterministic order.
    """
    gens = [(key, fs) for key, fs in sol.generators() if key[1] <= degree]
    out = []
    _monomials(gens, 0, degree, [], ForestSum.one(), out)
    return out


def _monomials(gens, start: int, remaining: int, label, acc: ForestSum, out):
    # module-level, like _graft_search, so that no cycle outlives the call
    if remaining == 0:
        out.append((tuple(label), acc))
        return
    for idx in range(start, len(gens)):
        key, fs = gens[idx]
        if key[1] > remaining:
            continue
        _monomials(gens, idx, remaining - key[1], label + [key], acc * fs, out)


# --------------------------------------------------------------- Hopf test

class HopfFailure(Record):
    """The bidegree (k, n-k) slice of Delta x_eq(n) escapes U_k (x) U_(n-k).

    The witness is delta_F (x) psi for the first failing row F: psi kills
    U_(n-k), so the witness kills every monomial tensor of the bidegree,
    and it pairs with the slice to the nonzero pairing.
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
    """Sparse echelon basis of a span of forest sums, such as U_d."""

    def __init__(self, vecs):
        self.forests = sorted({f for vec in vecs for f in vec.terms})
        self.index = index = {f: col for col, f in enumerate(self.forests)}
        echelon, pivots = linalg.rref(
            [{index[f]: c for f, c in vec.terms.items()} for vec in vecs])
        self.rows = dict(zip(pivots, echelon))  # pivot -> echelon row

    def separate(self, vec):
        """A functional phi that kills the span but not vec, as (dict
        Forest -> Fraction, phi(vec)); None when vec lies in the span.

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
        phi = {self.forests[p]: -row[c] for p, row in self.rows.items() if c in row}
        phi[self.forests[c]] = Fraction(1)
        return phi, t[c]


def _slices(sol: Solution) -> dict:
    """(i, n, k) -> F -> G -> coefficient of F (x) G in Delta x_i(n), for
    0 < k < n, off one coproduct of the sum of all components (disjoint
    supports).  A cut keeps the root in the trunk G, one tree, so i is the
    root equation of G and n = deg F + deg G."""
    total = ForestSum._like({f: c for comp in sol.components.values()
                             for f, c in comp.terms.items()})
    slices = {}
    for (f, g), c in coproduct(total).terms.items():
        if f.degree and g.degree:
            key = (g.trees[0].decoration.eq, f.degree + g.degree, f.degree)
            slices.setdefault(key, {}).setdefault(f, {})[g] = c
    return slices


def check_hopf(S: SDSE, N: int) -> HopfReport:
    """Degree-by-degree Hopf test on the subalgebra of solution components.

    For homogeneous x_i(n), every bidegree (k, n-k) slice of its coproduct
    must lie in U_k (x) U_(n-k), where U_d is the span of the degree-d
    monomials in the components.  Since U_k (x) U_(n-k) = (U_k (x) B) meet
    (A (x) U_(n-k)), that holds exactly when every column of the slice (one
    per right forest) lies in U_k and every row (one per left forest) lies
    in U_(n-k).  The columns always do: each B_(i,q) is a 1-cocycle,
    Delta B(y) = B(y) (x) 1 + (id (x) B) Delta y, so by induction on degree
    Delta x_i(n) = sum_q Delta B_(i,q)(f_iq(x)) lies in A_X (x) H, where A_X
    is the graded algebra the components generate, and the left side of a
    (k, n-k) slice lies in U_k.  So only the rows are reduced, each against
    U_(n-k); each U_d is eliminated once, sparsely, for all equations and
    bidegrees.  Membership is decided exactly; a failing row F comes with
    the separating functional delta_F (x) psi (checkable by pairing it
    against slice and span).
    """
    sol = solve(S, N)
    span = cache(lambda d: _Span([u for _, u in component_monomials(sol, d)]))
    slices = _slices(sol)
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
                            i, n, k, {(f, g): x for g, x in psi.items()}, pairing))
                        break
    return HopfReport(N, checks, failures, sol)


def slice_coordinates(sol: Solution, i: int, n: int, k: int):
    """Bidegree (k, n-k) slice of the coproduct of x_i(n), written in the
    basis of monomial tensors.

    Returns a dict keyed by (left_label, right_label) with rational values,
    or None when the monomial tensors are linearly dependent (no unique
    reading) or the slice falls outside their span.  One elimination of
    [tensor columns | slice column], one sparse row per (F, G) coordinate,
    decides both: the pivots must be exactly the tensor columns, and the
    last column holds the coordinates.
    """
    slice_ = coproduct(sol.component(i, n)).bidegree(k, n - k)
    span = [((la, lb), tensor(u, v))
            for la, u in component_monomials(sol, k)
            for lb, v in component_monomials(sol, n - k)]
    rows = {}
    for col, vec in enumerate([vec for _, vec in span] + [slice_]):
        for fg, c in vec.terms.items():
            rows.setdefault(fg, {})[col] = c
    m, pivots = linalg.rref(list(rows.values()))
    last = len(span)
    if pivots != list(range(last)):
        return None
    return {label: m[r][last] for r, (label, _) in enumerate(span) if last in m[r]}


# ----------------------------------------------------------- lambda tables

class LambdaTable:
    """Structure constants lambda_n keyed (i, (i', q), n).

    Values are rationals, or the markers 'inconsistent' (witness trees
    disagree) and 'vacuous' (no witness tree of that degree).
    """

    def __init__(self, entries, order):
        self.entries = entries
        self.order = order

    def value(self, i, ip, q, n):
        return self.entries.get((i, (ip, q), n))

    def items(self):
        return sorted(self.entries.items(),
                      key=lambda kv: (kv[0][0], kv[0][1], kv[0][2]))

    def numeric(self, i, ip, q):
        """n -> rational entries for one (i, (i', q)) line, skipping markers."""
        out = {}
        for (ii, key, n), v in self.entries.items():
            if ii == i and key == (ip, q) and isinstance(v, Fraction):
                out[n] = v
        return out

    def affine_fit(self, i, ip, q):
        """Fit A + B(n-1) through the numeric entries; None if they refuse."""
        vals = self.numeric(i, ip, q)
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
        for (i, (ip, q), n), v in self.entries.items():
            if isinstance(v, Fraction):
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
    no tree of degree <= N, and its table is dropped once read.
    """
    tables = {}  # subtree -> its leaf-cut table, for this call only
    cuts = {}    # (leaf decoration, remaining tree) -> coefficient
    for (i, m), comp in sorted(sol.components.items(), key=lambda kv: kv[0][1]):
        if m > N:
            continue
        for f, a in comp.terms.items():
            t = f.trees[0]
            table = _fill_tables(tables, (t,), _leaf_cut_table)[t]
            if t.degree >= N:
                del tables[t]
            for key, count in table.items():
                w = a if count == 1 else a * count
                acc = cuts.get(key)
                cuts[key] = w if acc is None else acc + w
    entries = {}
    zero = Fraction(0)
    cut_decs = sorted({(d.eq, d.degree) for d in S.decorations(N)})
    for i in range(1, S.nvars + 1):
        for (ip, q) in cut_decs:
            dec = Decoration(ip, q)
            for n in range(1, N - q + 1):
                support = sol.component(i, n)
                if not support:
                    entries[(i, (ip, q), n)] = VACUOUS
                    continue
                ratio = None
                for f, a_t in support.terms.items():
                    r = cuts.get((dec, f.trees[0]), zero) / a_t
                    if ratio is None:
                        ratio = r
                    elif r != ratio:
                        ratio = INCONSISTENT
                        break
                entries[(i, (ip, q), n)] = ratio
    return LambdaTable(entries, N)


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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        def fail(msg):
            raise SystemFormatError(f"line {lineno}: {msg}")

        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "vars":
            if nvars is not None:
                fail("repeated vars line")
            if not rest.isdigit() or int(rest) < 1:
                fail(f"bad equation count {rest!r}")
            nvars = int(rest)
        elif head == "eq":
            if nvars is None:
                fail("eq before vars")
            if not rest.isdigit():
                fail(f"bad equation index {rest!r}")
            current = int(rest)
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
                if not spec.isdigit() or int(spec) < 1:
                    fail(f"bad operator degree {spec!r}")
                if expr_uses_param(expr):
                    fail("q is only legal inside an 'ops' family template")
                triples.append((current, int(spec), expr))
            else:
                if not spec.endswith("..") or not spec[:-2].isdigit():
                    fail(f"bad family range {spec!r} (want 'q0..')")
                families.append((current, int(spec[:-2]), expr))
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
