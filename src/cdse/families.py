"""Recognition and construction of the solvable system families.

One-equation systems are matched against two closed shapes.  In the power
family a pair of scalars (lam, mu) fixes every operator series at once: the
degree-j series is (1 - mu*h)^(1 - lam*j/mu), read as exp(lam*j*h) when
mu = 0, so its h^n coefficient is (lam*j - mu)(lam*j)(lam*j + mu)...
(lam*j + (n-2)mu)/n!.  In the gated affine family a modulus m and a scalar
alpha put 1 + alpha*h on every degree divisible by m and the constant 1
elsewhere.  classify_single recovers the parameters from series data or
reports why neither shape fits.

Multi-equation systems are described by FundamentalData.  Every equation
carries a structural kind that fixes its operator series in closed form:

  damped     level 0; keeps its own variable behind a factor 1 - beta_i*h_i
  reduced    level 0; its own factor is removed from the shared product
  full       level 0; its series is the shared product itself
  scaled     level 0; free scalar couplings a_j toward the kinds above
  shifted    level 1; free scalar couplings a_j toward damped/reduced/full
  relay      level 1; couples through scaled equations and inherits their
             coupling scalars c_j, plus a linear term in the scaled variables
  extension  level >= 1; affine series 1 + sum a_j*h_j chaining one level
             down per unit of operator degree

Each damped, reduced or full equation j carries two constants, a base b_j
(beta_j, 1 or 0) and a slope s_j (1 + beta_j, 1 or 0), and every coupling
toward j enters through one factor: a scalar c becomes

  factor_j(c) = (1 - b_j*h_j)^(-c/b_j),   read as exp(c*h_j) when b_j = 0.

The shared product is Q = prod over those j of factor_j(s_j), so a full
equation and a damped one with beta_j = -1 contribute the constant 1, and
Q^q carries factor_j(q*s_j).

An equation's level is its depth in the dependence graph; operators of
degree q above the level take the form g_i * Q^q with g_i determined by
the kind.  The factor of g_i * Q toward j carries the drift intercept of i
along j: nu*a_j for a shifted equation, c_j - s_j for a relay.  So for
nu != 0 their degree-1 series is (1/nu) * g_i * Q, plus a relay's linear
terms, plus 1 - 1/nu; with nu = 0 a shifted one is 1 + the logarithms of
its coupling factors.  An extension equation has three regimes: affine
at degree 1, a copy of its chain equation q-1 hops down for
2 <= q <= level (that equation's affine series below the level, its
degree-1 series at it), and g_i * Q^q above the level.  check_closed_forms
verifies every regime on a solved system, together with the affine
structure constants predicted by expected_lambda, which it reads off the
component labels (extract_lambda), or off the solution's leaf cuts when the
labels fail, rather than off a coproduct.

QuasiCyclicData describes systems whose equations sit on a cycle of residue
classes, every dependency pointing one class forward; solutions are
supported on linear trees and check_ladder_sums verifies the exact weighted
expansion plus the Hopf certificate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .linear import ForestSum
from .prelie import falling_product
from .record import FrozenRecord, Record, fresh
from .series import (Add, Exp, Log, Mul, Param, Pow, Sub, TruncatedSeries,
                     Var, ast_product, ast_sum, expr_series, geometric_family,
                     geometric_family_shifted, num)
from .solver import (SDSE, INCONSISTENT, Solution, SystemFormatError,
                     _exprs_equal, _lines, _natural, _read, check_hopf,
                     extract_lambda, rescale_variable)
from .trees import Decoration, ladder, single


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# ------------------------------------------------- single-equation families

class Case1(FrozenRecord):
    """Power family: degree j carries (1 - mu*h)^(1 - lam*j/mu).

    nonconstant/constant split the inspected degree set by whether the
    series moves.  When lam = 0 every nonconstant series is 1 - mu*h, which
    is also a gated affine family; as_case2 then holds its (m, alpha)."""

    lam: Fraction
    mu: Fraction
    nonconstant: frozenset
    constant: frozenset
    as_case2: Optional[tuple] = None


class Case2(FrozenRecord):
    """Gated affine family: 1 + alpha*h on multiples of m, 1 elsewhere."""

    modulus: int
    alpha: Fraction


class Unclassifiable(FrozenRecord):
    reason: str


def case1_coefficient(lam, mu, j: int, n: int) -> Fraction:
    """h^n coefficient of the power-family series at degree j."""
    return falling_product(lam, mu, n, j) / math.factorial(n)


def classify_single(J, series):
    """Match one-variable operator series against the two closed shapes.

    J lists the operator degrees; series maps each to its TruncatedSeries,
    every one normalized (constant term 1) and known at least to degree 3.
    Returns Case1, Case2, or Unclassifiable.  Each series is compared with
    the templates up to its own truncation, so the caller sets the depth by
    how far it expands the series.
    """
    J = sorted(set(J))
    if not J:
        raise ValueError("empty degree set")
    for j in J:
        if j not in series:
            raise ValueError(f"no series supplied for degree {j}")
        f = series[j]
        if f.nvars != 1:
            raise ValueError(f"degree {j}: expected a one-variable series")
        c = f.constant_term()
        if c != 1:
            raise ValueError(f"degree {j}: series not normalized (constant "
                             f"term {c})")
        if f.trunc < 3:
            raise ValueError(
                f"degree {j}: series known only to degree {f.trunc}, "
                f"need 3 to classify")
    nonconstant = [j for j in J
                   if any(series[j].coeff((n,)) for n in range(1, series[j].trunc + 1))]
    constant = [j for j in J if j not in nonconstant]
    if not nonconstant:
        return Case1(Fraction(0), Fraction(0), frozenset(), frozenset(J))

    j0 = min(nonconstant)
    a1 = series[j0].coeff((1,))
    a2 = series[j0].coeff((2,))
    if a1 != 0:
        beta = 2 * a2 / a1 ** 2 - 1
        lam = a1 * (1 + beta) / j0
        mu = a1 * beta
        if all(series[j].coeff((n,)) == case1_coefficient(lam, mu, j, n)
               for j in J
               for n in range(1, series[j].trunc + 1)):
            as_case2 = None
            if lam == 0 and mu != 0:
                as_case2 = (math.gcd(*nonconstant), -mu)
            return Case1(lam, mu, frozenset(nonconstant), frozenset(constant),
                         as_case2)

    alphas = {series[j].coeff((1,)) for j in nonconstant}
    affine = (len(alphas) == 1 and Fraction(0) not in alphas
              and all(series[j].coeff((n,)) == 0
                      for j in nonconstant
                      for n in range(2, series[j].trunc + 1)))
    if affine:
        m = math.gcd(*nonconstant)
        offenders = [j for j in constant if j % m == 0]
        if offenders:
            return Unclassifiable(
                f"degree {offenders[0]} is constant yet divisible by the "
                f"affine modulus {m}")
        return Case2(m, alphas.pop())
    if a1 == 0:
        return Unclassifiable(
            f"degree {j0} has no linear term but is not constant")
    return Unclassifiable("series fit neither the power shape nor the "
                          "gated affine shape")


def case1_expr(lam, mu, j: int):
    """Expression tree for the power-family series at degree j."""
    lam, mu = _frac(lam), _frac(mu)
    if mu != 0:
        return Pow(_one_minus_ast(mu, 1), num(1 - lam * j / mu))
    if lam != 0:
        return Exp(Mul(num(lam * j), Var(1)))
    return num(1)


def build_case1(J, lam, mu) -> SDSE:
    """One-equation system with the power family on the degrees J."""
    J = sorted(set(J))
    if not J or any(j < 1 for j in J):
        raise ValueError("degree set must be positive and nonempty")
    return SDSE.from_op_list(1, [(1, j, case1_expr(lam, mu, j)) for j in J])


def build_case2(J, m: int, alpha) -> SDSE:
    """One-equation system with the gated affine family on the degrees J."""
    J = sorted(set(J))
    if not J or any(j < 1 for j in J):
        raise ValueError("degree set must be positive and nonempty")
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"modulus must be a positive integer, got {m!r}")
    alpha = _frac(alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    affine = Add(num(1), Mul(num(alpha), Var(1)))
    return SDSE.from_op_list(
        1, [(1, j, affine if j % m == 0 else num(1)) for j in J])


# --------------------------------------------------------- fundamental data

DAMPED = "damped"
REDUCED = "reduced"
FULL = "full"
SCALED = "scaled"
SHIFTED = "shifted"
RELAY = "relay"
EXTENSION = "extension"

KINDS = (DAMPED, REDUCED, FULL, SCALED, SHIFTED, RELAY, EXTENSION)
LEVEL_ZERO = frozenset((DAMPED, REDUCED, FULL, SCALED))
# valid targets for scalar couplings from scaled and shifted equations
COUPLING_KINDS = (DAMPED, REDUCED, FULL)


def _vertex_set(vertices) -> tuple:
    """Vertices sorted by index, after the checks every system description
    shares: indices exactly 1..N, positive integer degrees, and a degree-1
    operator (an open family from degree 1 counts)."""
    vs = tuple(sorted(vertices, key=lambda v: v.index))
    for k, v in enumerate(vs, start=1):
        if v.index != k:
            cause = (f"index {k} missing" if v.index > k else
                     f"index {v.index} repeated" if v.index >= 1 else
                     f"index {v.index} out of range")
            raise SystemFormatError(
                f"vertex indices must be exactly 1..N ({cause})")
    for v in vs:
        where = f"vertex {v.index}"
        v.degrees = tuple(sorted(set(v.degrees)))
        start = getattr(v, "all_from", None)
        if any(not isinstance(q, int) or q < 1 for q in v.degrees):
            raise SystemFormatError(f"{where}: operator degrees must be "
                                    f"positive integers")
        if start is not None and (not isinstance(start, int) or start < 1):
            raise SystemFormatError(f"{where}: bad family start {start!r}")
        if 1 not in v.degrees and start != 1:
            raise SystemFormatError(f"{where}: every equation needs a "
                                    f"degree-1 operator")
    return vs


class Vertex(Record):
    """One equation of a fundamental system.

    beta is required exactly for damped equations, nu for shifted and relay
    ones.  a maps dependency indices to coupling scalars: toward
    damped/reduced/full equations for scaled and shifted kinds, toward
    scaled equations for relays, toward the next level down for extensions.
    degrees lists explicit operator degrees; all_from opens a parametric
    family covering every degree from that point on.
    """

    index: int
    kind: str
    beta: Optional[Fraction] = None
    nu: Optional[Fraction] = None
    a: dict = fresh(dict)
    degrees: tuple = (1,)
    all_from: Optional[int] = None


class FundamentalData:
    """Validated description of a fundamental system.

    Checks the kind grammar (parameters present exactly where they belong,
    couplings aimed at legal targets), computes extension levels by fixpoint
    (rejecting mixed-level or circular dependencies), and enforces the
    standing hypotheses: at least one damped or reduced equation, a degree-1
    operator everywhere, scaled couplings differing somewhere from the
    shared product's own scalars, and equal series across the dependencies
    of relay and extension equations.
    """

    def __init__(self, vertices):
        vs = self.vertices = _vertex_set(vertices)
        self._by = {v.index: v for v in vs}
        for v in vs:
            self._check_vertex(v)
        if not (self.of_kind(DAMPED) or self.of_kind(REDUCED)):
            raise SystemFormatError(
                "need at least one damped or reduced equation")
        for v in vs:
            if v.kind == SCALED:
                self._check_disjunction(v)
        self.levels = self._compute_levels()
        for v in vs:
            self._check_family_range(v)
        for v in vs:
            if v.kind == RELAY:
                self._shared_coupling(v)          # raises on disagreement
        self._check_shared_series()

    # --------------------------------------------------------- accessors

    def kind(self, i: int) -> str:
        return self._by[i].kind

    def beta(self, i: int) -> Fraction:
        return self._by[i].beta

    def nu(self, i: int) -> Fraction:
        return self._by[i].nu

    def coupling(self, i: int) -> dict:
        return self._by[i].a

    _deps = coupling

    def level(self, i: int) -> int:
        return self.levels[i]

    def of_kind(self, kind) -> tuple:
        return tuple(v.index for v in self.vertices if v.kind == kind)

    @property
    def nvars(self) -> int:
        return len(self.vertices)

    # -------------------------------------------------------- validation

    def _check_vertex(self, v: Vertex):
        where = f"vertex {v.index}"
        if v.kind not in KINDS:
            raise SystemFormatError(f"{where}: unknown kind {v.kind!r}")
        if (v.beta is not None) != (v.kind == DAMPED):
            raise SystemFormatError(
                f"{where}: beta belongs to damped equations only"
                if v.beta is not None else f"{where}: damped needs beta")
        if (v.nu is not None) != (v.kind in (SHIFTED, RELAY)):
            raise SystemFormatError(
                f"{where}: nu belongs to shifted/relay equations only"
                if v.nu is not None else f"{where}: {v.kind} needs nu")
        if v.kind == DAMPED:
            v.beta = _frac(v.beta)
        if v.kind in (SHIFTED, RELAY):
            v.nu = _frac(v.nu)
            if v.kind == SHIFTED and v.nu == 1:
                raise SystemFormatError(f"{where}: shifted needs nu != 1")
            if v.kind == RELAY and v.nu == 0:
                raise SystemFormatError(f"{where}: relay needs nu != 0")
        v.a = {j: _frac(c) for j, c in dict(v.a).items() if c != 0}
        if v.kind in COUPLING_KINDS and v.a:
            raise SystemFormatError(f"{where}: {v.kind} takes no couplings")
        targets = {SCALED: COUPLING_KINDS, SHIFTED: COUPLING_KINDS,
                   RELAY: (SCALED,)}.get(v.kind)
        for j in v.a:
            if j not in self._by:
                raise SystemFormatError(f"{where}: coupling to unknown "
                                        f"equation {j}")
            if targets and self._by[j].kind not in targets:
                raise SystemFormatError(
                    f"{where}: a {v.kind} equation cannot couple to the "
                    f"{self._by[j].kind} equation {j}")
        if v.kind in (SHIFTED, RELAY, EXTENSION) and not v.a:
            raise SystemFormatError(f"{where}: {v.kind} needs at least one "
                                    f"nonzero coupling")

    def _check_disjunction(self, v: Vertex):
        if all(v.a.get(j, Fraction(0)) == drift_slope(self, j)
               for j in self._by
               if self.kind(j) in COUPLING_KINDS):
            raise SystemFormatError(
                f"vertex {v.index}: scaled couplings all sit at the shared "
                f"product's own scalars; that is a full equation, not a "
                f"scaled one")

    def _compute_levels(self) -> dict:
        levels = {}
        pending = []
        for v in self.vertices:
            if v.kind in LEVEL_ZERO:
                levels[v.index] = 0
            elif v.kind in (SHIFTED, RELAY):
                levels[v.index] = 1
            else:
                pending.append(v)
        moved = True
        while pending and moved:
            moved = False
            for v in pending[:]:
                if all(j in levels for j in v.a):
                    seen = {levels[j] for j in v.a}
                    if len(seen) != 1:
                        raise SystemFormatError(
                            f"vertex {v.index}: dependencies sit at mixed "
                            f"levels {sorted(seen)}")
                    levels[v.index] = seen.pop() + 1
                    pending.remove(v)
                    moved = True
        if pending:
            bad = ", ".join(str(v.index) for v in pending)
            raise SystemFormatError(
                f"circular extension dependencies through vertices {bad}")
        return levels

    def _check_family_range(self, v: Vertex):
        if v.all_from is None:
            return
        where = f"vertex {v.index}"
        if any(q >= v.all_from for q in v.degrees):
            raise SystemFormatError(f"{where}: explicit degree inside "
                                    f"the family range")
        if v.all_from <= self.levels[v.index]:
            raise SystemFormatError(
                f"{where}: a family template only covers degrees above "
                f"the level ({self.levels[v.index]})")

    def _shared_coupling(self, v: Vertex) -> dict:
        """Common coupling family of a relay's scaled dependencies."""
        deps = sorted(v.a)
        base = self.coupling(deps[0])
        for l in deps[1:]:
            if self.coupling(l) != base:
                raise SystemFormatError(
                    f"vertex {v.index}: scaled dependencies {deps[0]} and "
                    f"{l} carry different couplings")
        return base

    def _check_shared_series(self):
        for v in self.vertices:
            if v.kind != EXTENSION:
                continue
            deps = sorted(v.a)
            ref = op_ast(self, deps[0], 1)
            for j in deps[1:]:
                if not _exprs_equal(ref, op_ast(self, j, 1), self.nvars,
                                    f"vertex {v.index}"):
                    raise SystemFormatError(
                        f"vertex {v.index}: dependencies {deps[0]} and {j} "
                        f"carry different series")


# --------------------------------------------- affine structure constants
#
# For a solvable system the coproduct of a solution component splits over
# single-vertex cuts with scalars that are affine in the component degree:
# lambda_n = drift_intercept + drift_slope * (n - 1) once n exceeds the
# equation's level, while n = 1 always reads off the series' linear part.

def drift_slope(data: FundamentalData, j: int) -> Fraction:
    """Per-degree growth s_j of lambda_n along the dependency j, also Q's
    scalar toward j: 1 + beta_j toward a damped equation, 1 toward a
    reduced one, 0 toward any other."""
    k = data.kind(j)
    if k == DAMPED:
        return 1 + data.beta(j)
    return Fraction(1) if k == REDUCED else Fraction(0)


def _base(data: FundamentalData, j: int) -> Fraction:
    """Base b_j of the coupling factor toward j: beta_j toward a damped
    equation, 1 toward a reduced one, 0 toward a full one."""
    k = data.kind(j)
    if k == DAMPED:
        return data.beta(j)
    return Fraction(1) if k == REDUCED else Fraction(0)


def first_constant(data: FundamentalData, j: int, i: int) -> Fraction:
    """lambda_1 for equation i along dependency j: the linear coefficient
    of h_j in the degree-1 operator series of equation i."""
    kj, ki = data.kind(j), data.kind(i)
    if kj in COUPLING_KINDS:
        if ki in COUPLING_KINDS:
            # Q's scalar, with equation i's own factor lowered by b_j
            return drift_slope(data, j) - (_base(data, j) if i == j else 0)
        if ki == RELAY:
            c = _relay_coupling(data, i).get(j, Fraction(0))
            return (c - drift_slope(data, j)) / data.nu(i)
        return data.coupling(i).get(j, Fraction(0))
    if kj == SCALED:
        if ki in (RELAY, EXTENSION):
            return data.coupling(i).get(j, Fraction(0))
        return Fraction(0)
    if ki == EXTENSION:
        return data.coupling(i).get(j, Fraction(0))
    return Fraction(0)


def drift_intercept(data: FundamentalData, j: int, i: int) -> Fraction:
    """Intercept of the affine lambda line for equation i along j."""
    kj, ki = data.kind(j), data.kind(i)
    if kj not in COUPLING_KINDS:
        return Fraction(0)
    if ki in COUPLING_KINDS or ki == SCALED:
        return first_constant(data, j, i)
    if ki == SHIFTED:
        return data.nu(i) * data.coupling(i).get(j, Fraction(0))
    if ki == RELAY:
        c = _relay_coupling(data, i).get(j, Fraction(0))
        return c - drift_slope(data, j)
    # extension: one step down the chain costs one slope unit
    return drift_intercept(data, j, _walk(data, i, 1)) - drift_slope(data, j)


def expected_lambda(data: FundamentalData, i: int, j: int, n: int) -> Fraction:
    """Predicted lambda_n for equation i along dependency j.

    n = 1 reads the affine coefficient table and degrees above the level
    read the drift line.  The range in between (extensions of level >= 2)
    unrolls lambda_n = lambda_(n-1) one dependency hop down until the
    affine table applies; the chain endpoint is unique up to the shared-
    series condition, so any descent gives the same value.
    """
    if n == 1:
        return first_constant(data, j, i)
    if n > data.level(i):
        return drift_intercept(data, j, i) + drift_slope(data, j) * (n - 1)
    return first_constant(data, j, _walk(data, i, n - 1))


def _relay_coupling(data: FundamentalData, i: int) -> dict:
    return data._shared_coupling(data._by[i])


def _walk(data: FundamentalData, i: int, steps: int) -> int:
    """Deterministic descent: follow least-index dependencies."""
    for _ in range(steps):
        i = min(data.coupling(i))
    return i


def dependency_endpoints(data, i: int, steps: int) -> tuple:
    """Every equation reachable from i in exactly `steps` dependency hops:
    couplings of a FundamentalData, children of a QuasiCyclicData."""
    frontier = {i}
    for _ in range(steps):
        frontier = {j for k in frontier for j in data._deps(k)}
    return tuple(sorted(frontier))


# ------------------------------------------------------- closed-form series

def _one_minus_ast(coeff, j: int):
    """1 - coeff*h_j, flipped to an addition for negative coeff."""
    c = _frac(coeff)
    if c == 1:
        return Sub(num(1), Var(j))
    if c == -1:
        return Add(num(1), Var(j))
    if c > 0:
        return Sub(num(1), Mul(num(c), Var(j)))
    return Add(num(1), Mul(num(-c), Var(j)))


def _affine_q_ast(c0: Fraction, c1: Fraction, q: Optional[int]):
    """c0 + c1*q, folded when q is concrete, a template otherwise."""
    if q is not None:
        return num(c0 + c1 * q)
    if c1 == 0:
        return num(c0)
    term = Param() if c1 == 1 else Mul(num(c1), Param())
    return term if c0 == 0 else Add(num(c0), term)


def closed_form_ast(data: FundamentalData, i: int, q: Optional[int]):
    """g_i * Q^q as one expression; q None builds a family template.

    The factor toward each damped, reduced or full equation j carries the
    scalar c = (a_j - s_j) + s_j*q, a_j being the drift intercept toward i."""
    factors = []
    for v in data.vertices:
        j = v.index
        if v.kind not in COUPLING_KINDS:
            continue
        s = drift_slope(data, j)
        c0 = drift_intercept(data, j, i) - s
        if (c0 + s * q == 0) if q is not None else (c0 == 0 == s):
            continue
        b = _base(data, j)
        if b:
            e = _affine_q_ast(-c0 / b, -s / b, q)
            base = _one_minus_ast(b, j)
            factors.append(base if e == num(1) else Pow(base, e))
        else:
            e = _affine_q_ast(c0, s, q)
            factors.append(Exp(Var(j) if e == num(1) else Mul(e, Var(j))))
    return ast_product(factors)


def _level_one_ast(data: FundamentalData, i: int):
    """Degree-1 series of a shifted or relay equation: (1/nu) * g_i * Q plus
    a relay's linear terms plus 1 - 1/nu, or the log form when nu = 0."""
    v = data._by[i]
    if v.kind == SHIFTED and v.nu == 0:
        terms = [num(1)]
        for j in sorted(v.a):
            c, b = v.a[j], _base(data, j)
            terms.append(Mul(num(-c / b), Log(_one_minus_ast(b, j))) if b
                         else Mul(num(c), Var(j)))
        return ast_sum(terms)
    terms = [Mul(num(1 / v.nu), closed_form_ast(data, i, 1))]
    if v.kind == RELAY:
        terms += [Mul(num(c), Var(l)) for l, c in sorted(v.a.items())]
    if v.nu != 1:
        terms.append(num(1 - 1 / v.nu))
    return ast_sum(terms)


def _affine_ast(data: FundamentalData, i: int):
    """1 + sum of first_constant couplings: an extension's low-degree form."""
    terms = [num(1)]
    for v in data.vertices:
        c = first_constant(data, v.index, i)
        if c:
            terms.append(Mul(num(c), Var(v.index)))
    return ast_sum(terms)


def op_ast(data: FundamentalData, i: int, q: int):
    """Operator series of equation i at degree q, as an expression."""
    lvl = data.level(i)
    kind = data.kind(i)
    if q > lvl or lvl == 0:
        return closed_form_ast(data, i, q)
    if kind in (SHIFTED, RELAY):
        return _level_one_ast(data, i)
    # extension at or below its level: the degree-1 series of the chain
    # equation q-1 hops down, which is affine whenever that endpoint is
    # itself an extension (in particular at q = 1)
    if q == 1:
        return _affine_ast(data, i)
    return op_ast(data, _walk(data, i, q - 1), 1)


def build_fundamental(data: FundamentalData) -> SDSE:
    """Assemble the system all closed forms promise.

    Level-0 equations get g_i * Q^q everywhere; shifted and relay equations
    get their special degree-1 series and g_i * Q^q above; extensions walk
    their chain for degrees at or below the level and carry Q^(q-1) above.
    """
    triples = []
    fams = []
    for v in data.vertices:
        for q in v.degrees:
            triples.append((v.index, q, op_ast(data, v.index, q)))
        if v.all_from is not None:
            fams.append((v.index, v.all_from,
                         closed_form_ast(data, v.index, None)))
    return SDSE.from_op_list(data.nvars, triples, fams, strict=True)


# ----------------------------------------------- series routes for checking

def shared_product_series(data: FundamentalData, trunc: int) -> TruncatedSeries:
    """Q, built from rising-factorial factors rather than expressions."""
    n = data.nvars
    out = TruncatedSeries.const(n, trunc, 1)
    for j in data.of_kind(DAMPED):
        out = out * geometric_family_shifted(data.beta(j), n, j, 1, trunc)
    for j in data.of_kind(REDUCED):
        out = out * geometric_family(1, n, j, 1, trunc)
    return out


def _coupling_series(data: FundamentalData, coeffs: dict, trunc: int):
    """The product of factor_j(c_j) over the scalars c_j in coeffs, built
    from rising-factorial factors."""
    n = data.nvars
    out = TruncatedSeries.const(n, trunc, 1)
    for j in sorted(coeffs):
        c = coeffs[j]
        if c:
            out = out * geometric_family(_base(data, j) / c, n, j, c, trunc)
    return out


def item_series(data: FundamentalData, i: int, trunc: int) -> TruncatedSeries:
    """Degree-1 operator series of equation i, by the product route."""
    n = data.nvars
    kind = data.kind(i)
    one = TruncatedSeries.const(n, trunc, 1)
    if kind in COUPLING_KINDS:
        out = one
        for j in data.of_kind(DAMPED):
            if kind == DAMPED and j == i:
                out = out * geometric_family(data.beta(i), n, i, 1, trunc)
            else:
                out = out * geometric_family_shifted(data.beta(j), n, j, 1, trunc)
        for j in data.of_kind(REDUCED):
            if not (kind == REDUCED and j == i):
                out = out * geometric_family(1, n, j, 1, trunc)
        return out
    if kind == SCALED:
        return _coupling_series(data, data.coupling(i), trunc)
    if kind == EXTENSION:
        return expr_series(_affine_ast(data, i), n, trunc)
    nu = data.nu(i)
    if kind == SHIFTED and nu == 0:
        out = one
        for j, c in sorted(data.coupling(i).items()):
            h, b = TruncatedSeries.var(n, trunc, j), _base(data, j)
            out = out + ((one - h.scale(b)).log().scale(-c / b) if b
                         else h.scale(c))
        return out
    coeffs = {j: drift_intercept(data, j, i) for j in data._by}
    out = _coupling_series(data, coeffs, trunc).scale(1 / nu) \
        + one.scale(1 - 1 / nu)
    if kind == RELAY:
        for l, c in sorted(data.coupling(i).items()):
            out = out + TruncatedSeries.var(n, trunc, l).scale(c)
    return out


# ------------------------------------------------------------ verification

def _drift_free(data: FundamentalData, i: int) -> bool:
    """True when every drift intercept toward i vanishes; exactly then the
    closed form above the level collapses to Q^(q-1)."""
    return all(drift_intercept(data, v.index, i) == 0
               for v in data.vertices if v.kind in COUPLING_KINDS)


class ClosedFormReport(Record):
    ok: bool
    series_checks: int
    lambda_checks: int
    gap_entries: int
    q_independent: bool
    failures: list


def check_closed_forms(S: SDSE, data: FundamentalData, N: int) -> ClosedFormReport:
    """Verify the promised closed forms on a solved system.

    Every operator series above its equation's level must equal g_i * Q^q,
    checked through the expression route and, where it applies, through
    rising-factorial series as well.  An extension of level L is affine at
    q = 1; for 2 <= q <= L it copies its chain equation q-1 hops down (the
    affine series below L, the degree-1 series at L), and every reachable
    endpoint must agree; above L, g_i * Q^q is Q^(q-1) exactly when every
    drift intercept toward i vanishes.  Every structure constant
    extract_lambda reads must match expected_lambda.
    """
    failures = []
    Q = shared_product_series(data, N)
    series_checks = 0
    for v in data.vertices:
        i = v.index
        lvl = data.level(i)
        for q in S.degrees(i, N):
            got = S.op_series(i, q, N)
            if q > lvl:
                want = expr_series(closed_form_ast(data, i, q), S.nvars, N)
                series_checks += 1
                if got != want:
                    failures.append(f"equation {i} degree {q}: series is not "
                                    f"g * Q^{q}")
            route2 = None
            if lvl == 0:
                route2 = item_series(data, i, N) * Q.pow_int(q - 1)
            elif q == 1:
                route2 = item_series(data, i, N)
            elif v.kind == EXTENSION and q <= lvl:
                series_checks += 1
                ends = dependency_endpoints(data, i, q - 1)
                wants = [S.op_series(e, 1, N) if q == lvl else
                         expr_series(_affine_ast(data, e), S.nvars, N)
                         for e in ends]
                if any(w is None for w in wants):
                    failures.append(f"equation {i} degree {q}: chain "
                                    f"endpoint lacks a degree-1 operator")
                    continue
                if any(w != wants[0] for w in wants[1:]):
                    failures.append(f"equation {i} degree {q}: chain "
                                    f"endpoints {ends} disagree")
                if got != wants[0]:
                    failures.append(f"equation {i} degree {q}: series does "
                                    f"not match its chain endpoint")
            elif v.kind == EXTENSION and _drift_free(data, i):
                route2 = Q.pow_int(q - 1)
            if route2 is not None:
                series_checks += 1
                if got != route2:
                    failures.append(f"equation {i} degree {q}: series "
                                    f"disagrees with the product route")
    table = extract_lambda(S, Solution(S, N), N)
    lambda_checks = 0
    gap_entries = 0
    for (i, (j, q), n), val in table.items():
        if val == INCONSISTENT:
            failures.append(f"lambda inconsistent at i={i}, cut=({j},{q}), "
                            f"n={n}")
            continue
        if not isinstance(val, Fraction):
            continue                       # vacuous: nothing to compare
        if n != 1 and n <= data.level(i):
            gap_entries += 1
        lambda_checks += 1
        want = expected_lambda(data, i, j, n)
        if val != want:
            failures.append(f"lambda mismatch at i={i}, cut=({j},{q}), "
                            f"n={n}: extracted {val}, expected {want}")
    q_ok, _ = table.q_independence()
    return ClosedFormReport(not failures, series_checks, lambda_checks,
                            gap_entries, q_ok, failures)


# ------------------------------------------------------- quasi-cyclic data

class CycleVertex(Record):
    """One equation of a quasi-cyclic system: residue class, the scalar its
    dependencies carry, the equations one class forward it depends on, and
    its operator degrees (finite, each including 1 per the standing
    hypothesis)."""

    index: int
    residue: int
    weight: Fraction = Fraction(1)
    children: tuple = ()
    degrees: tuple = (1,)


class QuasiCyclicData:
    """Validated description of a quasi-cyclic system.

    Dependencies must point one residue class forward (mod the modulus), and
    the children of any one equation must be interchangeable: same weight,
    same children, same degrees.  That makes the path products b_q well
    defined; a violation is rejected as inconsistent chain scalars.
    """

    def __init__(self, modulus: int, vertices):
        if not isinstance(modulus, int) or modulus < 1:
            raise SystemFormatError(f"bad modulus {modulus!r}")
        self.modulus = modulus
        vs = self.vertices = _vertex_set(vertices)
        self._by = {v.index: v for v in vs}
        for v in vs:
            where = f"vertex {v.index}"
            if not 0 <= v.residue < modulus:
                raise SystemFormatError(f"{where}: residue {v.residue} out "
                                        f"of range mod {modulus}")
            v.weight = _frac(v.weight)
            v.children = tuple(sorted(set(v.children)))
            for c in v.children:
                if c not in self._by:
                    raise SystemFormatError(f"{where}: unknown child {c}")
        for v in vs:
            for c in v.children:
                if self._by[c].residue != (v.residue + 1) % modulus:
                    raise SystemFormatError(
                        f"vertex {v.index}: child {c} is not one residue "
                        f"class forward")
            kids = [self._by[c] for c in v.children]
            for k in kids[1:]:
                if (k.weight, k.children, k.degrees) != \
                        (kids[0].weight, kids[0].children, kids[0].degrees):
                    raise SystemFormatError(
                        f"vertex {v.index}: children {kids[0].index} and "
                        f"{k.index} are not interchangeable, so the chain "
                        f"scalars are inconsistent")

    @property
    def nvars(self) -> int:
        return len(self.vertices)

    def _deps(self, i: int) -> tuple:
        return self._by[i].children

    def path_value(self, i: int, q: int) -> Optional[Fraction]:
        """b_q: the product of weights along any length-q path from i
        (well defined by the interchangeability check); None if no path."""
        out = Fraction(1)
        cur = i
        for _ in range(q):
            kids = self._by[cur].children
            if not kids:
                return None
            out *= self._by[cur].weight
            cur = kids[0]
        return out


def build_quasicyclic(data: QuasiCyclicData) -> SDSE:
    """Assemble the affine system: degree q of equation i carries
    1 + b_q * sum of h_j over the equations q hops forward."""
    triples = []
    for v in data.vertices:
        for q in v.degrees:
            targets = dependency_endpoints(data, v.index, q)
            if not targets:
                triples.append((v.index, q, num(1)))
                continue
            b = data.path_value(v.index, q)
            terms = [num(1)]
            for j in targets:
                terms.append(Var(j) if b == 1 else Mul(num(b), Var(j)))
            triples.append((v.index, q, ast_sum(terms)))
    return SDSE.from_op_list(data.nvars, triples, strict=True)


class LadderSumReport(Record):
    ok: bool
    components: int
    ladder_count: int
    hopf: bool
    failures: list


def _chains(data: QuasiCyclicData, S: SDSE, i: int, n: int):
    """Decoration chains of total degree n rooted at equation i, weighted.

    Yields (decorations, weight): the root takes degree q from equation i's
    operator set, the next vertex sits q dependency hops forward, and the
    weight collects b_q factors for every non-leaf vertex.
    """
    for q in S.degrees(i, n):
        if q == n:
            yield ((Decoration(i, q),), Fraction(1))
            continue
        b = data.path_value(i, q)
        if b is None:
            continue
        for j in dependency_endpoints(data, i, q):
            for decs, w in _chains(data, S, j, n - q):
                yield ((Decoration(i, q),) + decs, b * w)


def check_ladder_sums(S: SDSE, data: QuasiCyclicData, N: int) -> LadderSumReport:
    """Verify that solutions are exactly the weighted linear-tree sums.

    Component (i, n) must equal the sum over qualifying chains of
    b_(n - leaf degree) times the chain, every chain weight must telescope
    to that single path product, and the system must pass the Hopf test
    at order N.
    """
    failures = []
    hopf = check_hopf(S, N)
    sol = hopf.solution
    components = 0
    ladder_count = 0
    for v in data.vertices:
        i = v.index
        for n in range(1, N + 1):
            expected = ForestSum.zero()
            for decs, w in _chains(data, S, i, n):
                ladder_count += 1
                tele = data.path_value(i, n - decs[-1].degree)
                if tele != w:
                    failures.append(
                        f"chain weight at equation {i}, degree {n} does not "
                        f"telescope: {w} vs b_{n - decs[-1].degree} = {tele}")
                expected = expected + ForestSum.term(single(ladder(*decs)), w)
            components += 1
            if sol.component(i, n) != expected:
                failures.append(f"component ({i},{n}) is not the weighted "
                                f"chain sum")
    if not hopf.is_hopf:
        failures.append("Hopf test failed")
    return LadderSumReport(not failures, components, ladder_count,
                           hopf.is_hopf, failures)


# ----------------------------------------------------------- family dialect
#
# A family file opens with 'family <name> [key=value ...]' and, for the
# multi-equation families, continues with one 'vertex' line per equation:
#
#   family case1 lambda=1 mu=-1 J=1,2
#   family case2 m=2 alpha=-1 J=1,2,3
#
#   family fundamental
#   vertex 1 kind damped beta -1/3 degrees 1..
#   vertex 2 kind reduced degrees 1
#   rescale 1 3
#
#   family quasicyclic modulus=3
#   vertex 1 class 0 weight 1 children 2 degrees 1
#
# 'degrees' takes comma-separated integers, the last optionally ending in
# '..' to open a parametric family ('1..', '1,3..').  'a' lists couplings
# as j:value pairs ('a 2:1,3:-1/2').  'rescale j c' substitutes
# h_j -> c*h_j in the finished system.

def is_family_text(text: str) -> bool:
    for _, line in _lines(text):
        return line.split()[0] == "family"
    return False


def _fields(tokens, where: str, owner: str, required, optional=(),
            header=False) -> dict:
    """A line's fields: key=value tokens on a header, alternating key and
    value tokens on a vertex line.  A repeated, unknown or missing key is
    an error; owner names the line in the last case."""
    if header:
        for tok in tokens:
            if "=" not in tok:
                raise SystemFormatError(
                    f"{where}: expected key=value, got {tok!r}")
        pairs = [tok.split("=", 1) for tok in tokens]
    elif len(tokens) % 2:
        raise SystemFormatError(f"{where}: dangling field {tokens[-1]!r}")
    else:
        pairs = zip(tokens[::2], tokens[1::2])
    fields = {}
    for key, value in pairs:
        if key in fields:
            raise SystemFormatError(f"{where}: repeated field {key!r}")
        fields[key] = value
    if any(key not in fields for key in required):
        raise SystemFormatError(
            f"{where}: {owner} needs {' and '.join(required)}")
    unknown = sorted(fields.keys() - {*required, *optional})
    if unknown:
        raise SystemFormatError(f"{where}: unknown field {unknown[0]!r}")
    return fields


def _vertex_line(line: str, where: str, required, optional) -> tuple:
    """(index, fields) of a 'vertex <i> key value ...' line."""
    tokens = line.split()
    if tokens[0] != "vertex" or len(tokens) < 2 or not tokens[1].isdecimal():
        raise SystemFormatError(f"{where}: want 'vertex <i> ...'")
    return int(tokens[1]), _fields(tokens[2:], where, "vertex", required,
                                   optional)


def _parse_degree_spec(spec: str, where: str):
    explicit = []
    all_from = None
    parts = [p for p in spec.split(",") if p]
    for k, part in enumerate(parts):
        if not part.endswith(".."):
            explicit.append(_read(_natural, part, where, f"degree {part!r}"))
        elif k == len(parts) - 1:
            all_from = _read(_natural, part[:-2], where,
                             f"degree range {part!r}")
        else:
            raise SystemFormatError(f"{where}: bad degree range {part!r}")
    if not explicit and all_from is None:
        raise SystemFormatError(f"{where}: empty degree list")
    return tuple(explicit), all_from


def _parse_couplings(spec: str, where: str) -> dict:
    out = {}
    for part in spec.split(","):
        j, colon, val = part.partition(":")
        if not colon or not j.isdecimal():
            raise SystemFormatError(f"{where}: bad coupling {part!r}")
        out[int(j)] = _read(Fraction, val, where, f"coupling value {val!r}")
    return out


def parse_family_text(text: str) -> SDSE:
    """Build a system from its family description (see the format note)."""
    lines = list(_lines(text))
    if not lines:
        raise SystemFormatError("empty family file")
    lineno, header = lines[0]
    tokens = header.split()
    if tokens[0] != "family" or len(tokens) < 2:
        raise SystemFormatError(f"line {lineno}: expected 'family <name>'")
    name, where, body = tokens[1], f"line {lineno}", lines[1:]
    if name in ("case1", "case2"):
        return _parse_case(name, where, tokens[2:], body)
    if name == "fundamental":
        return _parse_fundamental(where, tokens[2:], body)
    if name == "quasicyclic":
        return _parse_quasicyclic(where, tokens[2:], body)
    raise SystemFormatError(f"{where}: unknown family {name!r}")


def _parse_case(name, where, header, body) -> SDSE:
    if body:
        raise SystemFormatError(
            f"line {body[0][0]}: {name} takes no vertex lines")
    first, second = ("lambda", "mu") if name == "case1" else ("m", "alpha")
    f = _fields(header, where, name, (first, second), ("J",), header=True)
    J = [_read(int, p, where, f"degree {p!r}")
         for p in f.get("J", "").split(",") if p]
    a = _read(Fraction if name == "case1" else int, f[first], where,
              f"{first} {f[first]!r}")
    b = _read(Fraction, f[second], where, f"{second} {f[second]!r}")
    try:
        return (build_case1 if name == "case1" else build_case2)(J, a, b)
    except ValueError as exc:
        raise SystemFormatError(f"{where}: {exc}") from None


def _parse_fundamental(where, header, body) -> SDSE:
    if header:
        raise SystemFormatError(f"{where}: fundamental takes no header fields")
    vertices = []
    rescales = []
    for lineno, line in body:
        where = f"line {lineno}"
        tokens = line.split()
        if tokens[0] == "rescale":
            if len(tokens) != 3 or not tokens[1].isdecimal():
                raise SystemFormatError(f"{where}: want 'rescale j factor'")
            rescales.append((int(tokens[1]), _read(
                Fraction, tokens[2], where, f"factor {tokens[2]!r}")))
            continue
        index, f = _vertex_line(line, where, ("kind", "degrees"),
                                ("beta", "nu", "a"))
        explicit, all_from = _parse_degree_spec(f["degrees"], where)
        kw = {key: _read(Fraction, f[key], where, f"{key} value")
              for key in ("beta", "nu") if key in f}
        a = _parse_couplings(f["a"], where) if "a" in f else {}
        vertices.append(Vertex(index, f["kind"], a=a, degrees=explicit,
                               all_from=all_from, **kw))
    S = build_fundamental(FundamentalData(vertices))
    for j, c in rescales:
        S = rescale_variable(S, j, c)
    return S


def _parse_quasicyclic(where, header, body) -> SDSE:
    value = _fields(header, where, "quasicyclic", ("modulus",),
                    header=True)["modulus"]
    modulus = _read(_natural, value, where, f"modulus {value!r}")
    if modulus < 1:
        raise SystemFormatError(f"{where}: bad modulus {value!r}")
    vertices = []
    for lineno, line in body:
        where = f"line {lineno}"
        index, f = _vertex_line(line, where, ("class", "degrees"),
                                ("children", "weight"))
        residue = _read(_natural, f["class"], where, f"class {f['class']!r}")
        explicit, all_from = _parse_degree_spec(f["degrees"], where)
        if all_from is not None:
            raise SystemFormatError(f"{where}: quasi-cyclic degree sets are "
                                    f"finite")
        children = tuple(_read(_natural, p, where, "children list")
                         for p in f["children"].split(",")
                         ) if "children" in f else ()
        weight = _read(Fraction, f.get("weight", "1"), where, "weight")
        vertices.append(CycleVertex(index, residue, weight, children,
                                    explicit))
    return build_quasicyclic(QuasiCyclicData(modulus, vertices))

