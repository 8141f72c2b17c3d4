"""Closed-shape instances: building, classifying, and certifying them."""

import random
import re
from fractions import Fraction as F

import pytest

import cdse.families
import cdse.solver
from cdse import SystemFormatError
from cdse.cli import main
from cdse.families import (Case1, Case2, CycleVertex, FundamentalData,
                           QuasiCyclicData, Unclassifiable, Vertex,
                           build_case1, build_case2, build_fundamental,
                           build_quasicyclic, case1_coefficient, case1_expr,
                           check_closed_forms, check_ladder_sums,
                           classify_single,
                           dependency_endpoints, drift_intercept, drift_slope,
                           expected_lambda, first_constant, is_family_text,
                           item_series, parse_family_text,
                           shared_product_series)
from cdse.series import expr_series, parse_expr
from cdse.solver import (SDSE, check_hopf, extract_lambda,
                         parse_system_text, rescale_variable, solve,
                         system_text)
from cdse.trees import ladder, single


def series_like(text, nvars, trunc):
    return expr_series(parse_expr(text), nvars, trunc)


# one damped vertex feeding two more, the worked three-equation example
INTRO = FundamentalData([
    Vertex(1, "damped", beta=F(-1, 3), degrees=(), all_from=1),
    Vertex(2, "reduced", degrees=(1,)),
    Vertex(3, "damped", beta=F(1), degrees=(1,)),
])
S_INTRO_RAW = build_fundamental(INTRO)
S_INTRO = rescale_variable(S_INTRO_RAW, 1, 3)

DAMPED12 = FundamentalData([Vertex(1, "damped", beta=F(1), degrees=(1, 2))])
S_DAMPED12 = build_fundamental(DAMPED12)

EXT = FundamentalData([
    Vertex(1, "damped", beta=F(1), degrees=(1,)),
    Vertex(2, "scaled", a={1: F(1)}, degrees=(1,)),
    Vertex(3, "extension", a={2: F(1)}, degrees=(1, 2, 3)),
])
S_EXT = build_fundamental(EXT)


# ------------------------------------------------------------ fundamental

def test_intro_build_matches_hand_written_text():
    hand = parse_system_text("""
vars 3
eq 1
  ops 1.. : (1 + h1)^(1 + 2*q) * (1 - h2)^(-q) * (1 - h3)^(-2*q)
eq 2
  op 1 : (1 + h1)^2 * (1 - h3)^-2
eq 3
  op 1 : (1 + h1)^2 * (1 - h2)^-1 * (1 - h3)^-1
""")
    for i in (1, 2, 3):
        assert S_INTRO.degrees(i, 9) == hand.degrees(i, 9)
        for q in S_INTRO.degrees(i, 6):
            assert S_INTRO.op_series(i, q, 6) == hand.op_series(i, q, 6)


def test_intro_ladder_coefficients():
    sol = solve(S_INTRO, 3)
    assert sol.component(1, 2).coeff(single(ladder((1, 1), (1, 1)))) == 3
    assert sol.component(1, 3).coeff(single(ladder((1, 1), (1, 1), (1, 1)))) == 9


def test_intro_certificates():
    rep = check_closed_forms(S_INTRO_RAW, INTRO, 5)
    assert rep.ok, rep.failures
    assert rep.series_checks > 0 and rep.lambda_checks > 0
    assert rep.q_independent
    assert check_hopf(S_INTRO, 4).is_hopf


FULL = FundamentalData([
    Vertex(1, "damped", beta=F(1), degrees=(1,)),
    Vertex(2, "full", degrees=(1,)),
])


def test_full_singleton_series():
    S = build_fundamental(FULL)
    assert S.op_series(2, 1, 6) == series_like("(1 - h1)^-2", 2, 6)
    assert check_closed_forms(S, FULL, 5).ok


def test_damped_two_degrees_series_and_lambda():
    assert S_DAMPED12.op_series(1, 2, 6) == series_like("(1 - h1)^-3", 1, 6)
    tab = extract_lambda(S_DAMPED12, solve(S_DAMPED12, 6), 6)
    seen = 0
    for (i, (j, q), n), val in tab.items():
        if isinstance(val, F):
            assert val == 2 * n - 1
            assert val == expected_lambda(DAMPED12, i, j, n)
            seen += 1
    assert seen > 0
    assert check_closed_forms(S_DAMPED12, DAMPED12, 5).ok


def test_damped_two_degrees_tables():
    assert first_constant(DAMPED12, 1, 1) == 1
    assert drift_slope(DAMPED12, 1) == 2
    assert drift_intercept(DAMPED12, 1, 1) == 1
    assert [expected_lambda(DAMPED12, 1, 1, n) for n in (1, 2, 3, 4)] == \
        [1, 3, 5, 7]


def test_degree_one_product_route():
    assert item_series(DAMPED12, 1, 6) == S_DAMPED12.op_series(1, 1, 6)
    # higher degrees stack one copy of the shared product per step
    Q = shared_product_series(DAMPED12, 6)
    assert Q == series_like("(1 - h1)^-2", 1, 6)
    assert S_DAMPED12.op_series(1, 2, 6) == S_DAMPED12.op_series(1, 1, 6) * Q


MIXED = FundamentalData([
    Vertex(1, "damped", beta=F(1), degrees=(1,)),
    Vertex(2, "reduced", degrees=(1,)),
    Vertex(3, "scaled", a={1: F(1), 2: F(2)}, degrees=(1,)),
    Vertex(4, "shifted", nu=F(2), a={1: F(1)}, degrees=(1, 2)),
    Vertex(5, "relay", nu=F(3), a={3: F(1, 2)}, degrees=(1, 2)),
])


def test_mixed_kinds_certify():
    S = build_fundamental(MIXED)
    rep = check_closed_forms(S, MIXED, 5)
    assert rep.ok, rep.failures
    assert check_hopf(S, 4).is_hopf
    # the relay's degree-1 operator is (1/nu) * g_5 * Q + (1/2)h3 + 1 - 1/nu
    lines = system_text(S).splitlines()
    assert lines[lines.index("eq 5") + 1] == \
        "  op 1 : (((1/3*((1-h1)*((1-h2))^-1))+(1/2*h3))+2/3)"


# partners for one damped equation: each reads its coupling factor, whose
# branches split at beta = 0 (an exp factor) and beta = -1 (the unit factor)
PARTNERS = {
    "full": lambda: [Vertex(2, "full", degrees=(1,))],
    # couplings toward a full equation: its exp factor with a nonzero scalar
    "full-coupled": lambda: [
        Vertex(2, "full", degrees=(1,)),
        Vertex(3, "scaled", a={1: F(1, 2), 2: F(2)}, degrees=(1,)),
        Vertex(4, "shifted", nu=F(2), a={2: F(1)}, degrees=(1, 2)),
    ],
    "reduced-family": lambda: [Vertex(2, "reduced", degrees=(1,),
                                      all_from=2)],
    "scaled": lambda: [Vertex(2, "scaled", a={1: F(1, 2)}, degrees=(1,))],
    "shifted-nu0": lambda: [Vertex(2, "shifted", nu=F(0), a={1: F(1)},
                                   degrees=(1, 2))],
    "shifted-nu2": lambda: [Vertex(2, "shifted", nu=F(2), a={1: F(1)},
                                   degrees=(1, 2))],
    "relay-extension": lambda: [
        Vertex(2, "scaled", a={1: F(1, 2)}, degrees=(1,)),
        Vertex(3, "relay", nu=F(3), a={2: F(1)}, degrees=(1, 2)),
        Vertex(4, "extension", a={3: F(1)}, degrees=(1, 2, 3)),
    ],
}


BETAS = [F(-1), F(0), F(-1, 3), F(1), F(2)]


def damped_with(beta, partner):
    return FundamentalData([Vertex(1, "damped", beta=beta, degrees=(1, 2))]
                           + PARTNERS[partner]())


@pytest.mark.parametrize("partner", sorted(PARTNERS))
@pytest.mark.parametrize("beta", BETAS, ids=str)
def test_damped_beta_grid_certifies(beta, partner):
    data = damped_with(beta, partner)
    S = build_fundamental(data)
    rep = check_closed_forms(S, data, 5)
    assert rep.ok, rep.failures
    assert rep.q_independent
    assert check_hopf(S, 4).is_hopf


SHIFTED_LOG = FundamentalData([
    Vertex(1, "damped", beta=F(1), degrees=(1,)),
    Vertex(2, "shifted", nu=F(0), a={1: F(1)}, degrees=(1, 2)),
])


def test_shifted_log_item():
    S = build_fundamental(SHIFTED_LOG)
    rep = check_closed_forms(S, SHIFTED_LOG, 5)
    assert rep.ok, rep.failures
    assert check_hopf(S, 4).is_hopf


# -------------------------------------------------------------- extensions

def test_extension_series():
    assert EXT.level(3) == 1
    assert S_EXT.op_series(3, 1, 5) == series_like("1 + h2", 3, 5)
    # the intercept walks one coupling step down per extra degree
    assert S_EXT.op_series(3, 2, 5) == series_like("(1 - h1)^-1", 3, 5)
    assert S_EXT.op_series(3, 3, 5) == series_like("(1 - h1)^-3", 3, 5)


def test_extension_certificates():
    assert check_closed_forms(S_EXT, EXT, 5).ok
    assert check_hopf(S_EXT, 4).is_hopf


DRIFTLESS = FundamentalData([
    Vertex(1, "damped", beta=F(1), degrees=(1,)),
    Vertex(2, "full", degrees=(1,)),
    Vertex(3, "extension", a={2: F(2)}, degrees=(1, 2, 3)),
])


def test_driftless_extension_is_a_plain_power():
    S = build_fundamental(DRIFTLESS)
    Q = shared_product_series(DRIFTLESS, 5)
    for q in (2, 3):
        assert S.op_series(3, q, 5) == Q.pow_int(q - 1)
    assert check_closed_forms(S, DRIFTLESS, 5).ok
    assert check_hopf(S, 4).is_hopf


# two extensions feeding a third: equation 5 sits at level 2
STACK = FundamentalData([
    Vertex(1, "damped", beta=F(1), degrees=(1,)),
    Vertex(2, "scaled", a={1: F(1)}, degrees=(1,)),
    Vertex(3, "extension", a={2: F(1)}, degrees=(1, 2)),
    Vertex(4, "extension", a={2: F(1)}, degrees=(1, 2)),
    Vertex(5, "extension", a={3: F(2), 4: F(3)}, degrees=(1, 2, 3)),
])

# a three-level chain, one extension per level: equation 5 sits at level 3
CHAIN = FundamentalData([
    Vertex(1, "damped", beta=F(1), degrees=(1,)),
    Vertex(2, "scaled", a={1: F(1)}, degrees=(1,)),
    Vertex(3, "extension", a={2: F(1)}, degrees=(1, 2, 3, 4)),
    Vertex(4, "extension", a={3: F(1)}, degrees=(1, 2, 3, 4)),
    Vertex(5, "extension", a={4: F(1)}, degrees=(1, 2, 3, 4)),
])


def test_stacked_extensions():
    assert STACK.level(5) == 2
    assert dependency_endpoints(STACK, 5, 1) == (3, 4)
    assert dependency_endpoints(STACK, 5, 2) == (2,)
    S = build_fundamental(STACK)
    assert check_closed_forms(S, STACK, 5).ok
    rep = check_closed_forms(S, STACK, 4)
    assert rep.ok, rep.failures
    # the band between the affine row and the drift line is nonempty here
    assert rep.gap_entries > 0
    assert check_hopf(S, 4).is_hopf


MISMATCH = "equation 5 degree 2: series does not match its chain endpoint"


@pytest.mark.parametrize("data,key,text,chain", [
    # q = level: the series must copy the endpoints' degree-1 series
    (STACK, (5, 2), "1 + 2*h2", [MISMATCH]),
    # q < level: the series must be the endpoint's affine series
    (CHAIN, (5, 2), "1 + 2*h2", [MISMATCH]),
    (STACK, (3, 1), "1 + 2*h2",
     ["equation 5 degree 2: chain endpoints (3, 4) disagree", MISMATCH]),
    (STACK, (3, 1), None,
     ["equation 5 degree 2: chain endpoint lacks a degree-1 operator"]),
], ids=["at-level", "below-level", "endpoints-disagree", "no-degree-1"])
def test_closed_forms_catch_a_broken_extension_chain(data, key, text, chain):
    S = build_fundamental(data)
    assert check_closed_forms(S, data, 5).ok
    ops = dict(S.ops)
    if text is None:
        del ops[key]
    else:
        ops[key] = parse_expr(text)
    rep = check_closed_forms(SDSE(S.nvars, ops, S.families), data, 5)
    assert not rep.ok
    assert [f for f in rep.failures if f.startswith("equation 5")] == chain


# ----------------------------------------------------------- classification

def one_var_series(S, J, depth=6):
    return {q: S.op_series(1, q, depth) for q in J}


@pytest.mark.parametrize("lam,mu",
                         [(F(1), F(-1)), (F(1), F(0)), (F(0), F(1)), (F(2), F(3))])
def test_classify_power_shape(lam, mu):
    S = build_case1({1, 2}, lam, mu)
    got = classify_single({1, 2}, one_var_series(S, (1, 2)))
    assert isinstance(got, Case1)
    assert (got.lam, got.mu) == (lam, mu)
    if lam == 0:
        assert got.as_case2 == (1, -mu)


def test_classify_gated_affine_shape():
    S = build_case2({2, 3}, 2, F(1))
    assert classify_single({2, 3}, one_var_series(S, (2, 3))) == Case2(2, F(1))


def test_classify_rejects_a_cubic():
    S = parse_system_text("vars 1\neq 1\n  op 1 : 1 + h1 + h1^3\n")
    got = classify_single({1}, one_var_series(S, (1,)))
    assert isinstance(got, Unclassifiable)


def test_classify_all_constant():
    series = {1: series_like("1", 1, 6), 2: series_like("1", 1, 6)}
    got = classify_single({1, 2}, series)
    assert got == Case1(F(0), F(0), frozenset(), frozenset({1, 2}))


def test_classify_input_checks():
    with pytest.raises(ValueError):
        classify_single((), {})
    with pytest.raises(ValueError):
        classify_single({1}, {1: series_like("2 + h1", 1, 6)})
    with pytest.raises(ValueError):
        classify_single({1}, {1: series_like("1 + h1", 1, 2)})


# ------------------------------------------------------------- quasi-cyclic

QC3 = QuasiCyclicData(3, [
    CycleVertex(1, 0, F(1), (2,), (1,)),
    CycleVertex(2, 1, F(1), (3,), (1,)),
    CycleVertex(3, 2, F(1), (1,), (1,)),
])
S_QC3 = build_quasicyclic(QC3)


def test_quasicyclic_three_cycle():
    assert S_QC3.op_series(1, 1, 5) == series_like("1 + h2", 3, 5)
    rep = check_ladder_sums(S_QC3, QC3, 5)
    assert rep.ok, rep.failures
    assert rep.hopf
    assert rep.ladder_count > 0


def test_ladder_sums_solve_once(monkeypatch):
    """check_ladder_sums reads the components off the Hopf report."""
    calls = []

    def counted(S, N):
        calls.append(N)
        return solve(S, N)

    monkeypatch.setattr(cdse.solver, "solve", counted)
    assert check_ladder_sums(S_QC3, QC3, 5).ok
    assert calls == [5]
    # families reaches solve only through the report's lazy solution
    assert not hasattr(cdse.families, "solve")


QC_LOOP = QuasiCyclicData(1, [CycleVertex(1, 0, F(2), (1,), (1,))])


def test_quasicyclic_self_loop():
    S = build_quasicyclic(QC_LOOP)
    assert S.op_series(1, 1, 5) == series_like("1 + 2*h1", 1, 5)
    assert check_ladder_sums(S, QC_LOOP, 5).ok
    # single cycle of weight 2: the n-ladder carries 2^(n-1)
    sol = solve(S, 4)
    four = ladder((1, 1), (1, 1), (1, 1), (1, 1))
    assert sol.component(1, 4).coeff(single(four)) == 8


QC_WEIGHTED = QuasiCyclicData(2, [
    CycleVertex(1, 0, F(1), (2,), (1, 2)),
    CycleVertex(2, 1, F(3), (1,), (1,)),
])

# the weighted system with weights that break the Hopf property
QC_BAD_WEIGHTS = QuasiCyclicData(2, [
    CycleVertex(1, 0, F(1, 2), (2,), (1, 2)),
    CycleVertex(2, 1, F(3), (1,), (1,)),
])


def test_quasicyclic_weighted_multidegree():
    assert check_ladder_sums(build_quasicyclic(QC_WEIGHTED), QC_WEIGHTED, 5).ok


def test_quasicyclic_bad_weights_fail_only_hopf():
    rep = check_ladder_sums(build_quasicyclic(QC_BAD_WEIGHTS), QC_BAD_WEIGHTS,
                            5)
    assert not rep.ok
    assert not rep.hopf
    assert rep.failures == ["Hopf test failed"]


# ------------------------------------------------------------ family dialect

def test_family_text_detection():
    assert is_family_text("family case1 lambda=1 mu=-1 J=1,2\n")
    assert not is_family_text("vars 1\neq 1\n  op 1 : 1 + h1\n")


def test_family_text_scalar_shapes():
    assert parse_family_text("family case1 lambda=1 mu=-1 J=1,2\n") == \
        build_case1({1, 2}, 1, -1)
    assert parse_family_text("family case2 m=2 alpha=-1 J=1,2,3\n") == \
        build_case2({1, 2, 3}, 2, -1)


def test_family_text_fundamental_with_rescale():
    S = parse_family_text("""# worked example
family fundamental
vertex 1 kind damped beta -1/3 degrees 1..
vertex 2 kind reduced degrees 1
vertex 3 kind damped beta 1 degrees 1
rescale 1 3
""")
    for i in (1, 2, 3):
        for q in S_INTRO.degrees(i, 6):
            assert S.op_series(i, q, 6) == S_INTRO.op_series(i, q, 6)


def test_family_text_quasicyclic():
    S = parse_family_text("""family quasicyclic modulus=3
vertex 1 class 0 weight 1 children 2 degrees 1
vertex 2 class 1 weight 1 children 3 degrees 1
vertex 3 class 2 weight 1 children 1 degrees 1
""")
    assert S == S_QC3


def test_family_text_couplings():
    S = parse_family_text("""family fundamental
vertex 1 kind damped beta 1 degrees 1
vertex 2 kind scaled a 1:1 degrees 1
vertex 3 kind extension a 2:1 degrees 1,2,3
""")
    assert S == S_EXT


def test_system_text_round_trip():
    assert parse_system_text(system_text(S_EXT)) == S_EXT


def family_text(data, rng) -> str:
    """data written as family text, vertex lines and fields in rng's order."""
    if isinstance(data, QuasiCyclicData):
        head = f"family quasicyclic modulus={data.modulus}"
    else:
        head = "family fundamental"
    lines = []
    for v in data.vertices:
        degrees = [str(q) for q in v.degrees]
        if isinstance(v, CycleVertex):
            fields = {"class": v.residue, "weight": v.weight,
                      "children": ",".join(map(str, v.children))}
        else:
            fields = {"kind": v.kind, "beta": v.beta, "nu": v.nu,
                      "a": ",".join(f"{j}:{c}" for j, c in v.a.items())}
            if v.all_from is not None:
                degrees.append(f"{v.all_from}..")
        fields["degrees"] = ",".join(degrees)
        pairs = [f"{k} {val}" for k, val in fields.items()
                 if val not in (None, "")]
        rng.shuffle(pairs)
        lines.append(" ".join([f"vertex {v.index}"] + pairs))
    rng.shuffle(lines)
    return "\n".join([head] + lines) + "\n"


ROUND_TRIP = {
    "INTRO": INTRO, "DAMPED12": DAMPED12, "EXT": EXT, "FULL": FULL,
    "MIXED": MIXED, "SHIFTED_LOG": SHIFTED_LOG, "DRIFTLESS": DRIFTLESS,
    "STACK": STACK, "CHAIN": CHAIN, "QC3": QC3, "QC_LOOP": QC_LOOP,
    "QC_WEIGHTED": QC_WEIGHTED, "QC_BAD_WEIGHTS": QC_BAD_WEIGHTS,
    **{f"damped-{beta}-{partner}": damped_with(beta, partner)
       for beta in BETAS for partner in PARTNERS},
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ROUND_TRIP)
def test_family_text_round_trip(name, seed):
    data = ROUND_TRIP[name]
    text = family_text(data, random.Random(seed))
    build = (build_quasicyclic if isinstance(data, QuasiCyclicData)
             else build_fundamental)
    assert parse_family_text(text) == build(data)


FUND = "family fundamental\n"
QC = "family quasicyclic modulus=3\n"
D1 = "vertex 1 kind damped beta 1 degrees 1\n"

# every rejection path of the dialect and of the data classes behind it,
# as (id, text, exact message)
REJECTED = [
    ("empty", "", "empty family file"),
    ("comments-only", "# only a comment\n\n", "empty family file"),
    ("no-name", "family\n", "line 1: expected 'family <name>'"),
    ("no-name-late", "# lead\n\nfamily\n",
     "line 3: expected 'family <name>'"),
    ("unknown-family", "family nope\n", "line 1: unknown family 'nope'"),
    ("case1-vertex", "family case1 lambda=1 mu=-1 J=1\nvertex 1 kind damped\n",
     "line 2: case1 takes no vertex lines"),
    ("case2-rescale", "family case2 m=2 alpha=-1 J=1\n\nrescale 1 2\n",
     "line 3: case2 takes no vertex lines"),
    ("case-unknown", "family case1 lambda=1 mu=-1 J=1 foo=2\n",
     "line 1: unknown field 'foo'"),
    ("case-bare-key", "family case1 lambda mu=-1 J=1\n",
     "line 1: expected key=value, got 'lambda'"),
    ("case-empty-J", "family case1 lambda=1 mu=-1 J=\n",
     "line 1: degree set must be positive and nonempty"),
    ("case-zero-degree", "family case1 lambda=1 mu=-1 J=0,1\n",
     "line 1: degree set must be positive and nonempty"),
    ("case-no-J", "family case1 lambda=1 mu=-1\n",
     "line 1: degree set must be positive and nonempty"),
    ("case2-zero-m", "family case2 m=0 alpha=-1 J=1\n",
     "line 1: modulus must be a positive integer, got 0"),
    ("case2-zero-alpha", "family case2 m=2 alpha=0 J=1\n",
     "line 1: alpha must be nonzero"),
    ("case1-no-lambda", "family case1 mu=-1 J=1,2\n",
     "line 1: case1 needs lambda and mu"),
    ("case2-no-alpha", "family case2 m=2 J=1,2\n",
     "line 1: case2 needs m and alpha"),
    ("case1-bad-lambda", "family case1 lambda=1/0 mu=-1 J=1\n",
     "line 1: bad lambda '1/0'"),
    ("case1-bad-mu", "family case1 lambda=1 mu=x J=1\n",
     "line 1: bad mu 'x'"),
    ("case1-bad-J", "family case1 lambda=1 mu=-1 J=1,x\n",
     "line 1: bad degree 'x'"),
    ("case2-bad-m", "family case2 m=x alpha=-1 J=1\n", "line 1: bad m 'x'"),
    ("case1-repeated", "family case1 lambda=1 mu=-1 J=1 lambda=2\n",
     "line 1: repeated field 'lambda'"),
    ("fundamental-header", "family fundamental x=1\n" + D1,
     "line 1: fundamental takes no header fields"),
    ("vertex-bare", FUND + "vertex\n", "line 2: want 'vertex <i> ...'"),
    ("vertex-bad-index", FUND + "vertex x kind damped beta 1 degrees 1\n",
     "line 2: want 'vertex <i> ...'"),
    ("vertex-misspelt", FUND + "vertx 1 kind reduced degrees 1\n",
     "line 2: want 'vertex <i> ...'"),
    ("vertex-dangling", FUND + "vertex 1 kind reduced degrees\n",
     "line 2: dangling field 'degrees'"),
    ("vertex-repeated", FUND + "vertex 1 kind reduced kind reduced degrees 1\n",
     "line 2: repeated field 'kind'"),
    ("vertex-unknown", FUND + "vertex 1 kind reduced degrees 1 colour red\n",
     "line 2: unknown field 'colour'"),
    ("vertex-no-kind", FUND + "vertex 1 degrees 1\n",
     "line 2: vertex needs kind and degrees"),
    ("bad-degree", FUND + "vertex 1 kind reduced degrees 1,x\n",
     "line 2: bad degree 'x'"),
    ("range-not-last", FUND + "vertex 1 kind reduced degrees 1..,3\n",
     "line 2: bad degree range '1..'"),
    ("bad-range", FUND + "vertex 1 kind reduced degrees x..\n",
     "line 2: bad degree range 'x..'"),
    ("empty-degrees", FUND + "vertex 1 kind reduced degrees ,\n",
     "line 2: empty degree list"),
    ("bad-coupling", FUND + D1 + "vertex 2 kind scaled a 1=1 degrees 1\n",
     "line 3: bad coupling '1=1'"),
    ("bad-coupling-value", FUND + D1 + "vertex 2 kind scaled a 1:x degrees 1\n",
     "line 3: bad coupling value 'x'"),
    ("zero-denominator-coupling",
     FUND + D1 + "vertex 2 kind scaled a 1:1/0 degrees 1\n",
     "line 3: bad coupling value '1/0'"),
    ("bad-beta", FUND + "vertex 1 kind damped beta x degrees 1\n",
     "line 2: bad beta value"),
    ("bad-nu", FUND + D1 + "vertex 2 kind shifted nu 1/0 a 1:1 degrees 1\n",
     "line 3: bad nu value"),
    ("rescale-short", FUND + D1 + "rescale 1\n",
     "line 3: want 'rescale j factor'"),
    ("rescale-bad-factor", FUND + D1 + "rescale 1 x\n",
     "line 3: bad factor 'x'"),
    ("rescale-zero", FUND + D1 + "rescale 1 0\n",
     "variable 1: rescaling factor must be nonzero"),
    ("rescale-out-of-range", FUND + D1 + "rescale 2 3\n",
     "variable index 2 out of range 1..1"),
    ("unknown-kind", FUND + "vertex 1 kind weird degrees 1\n",
     "vertex 1: unknown kind 'weird'"),
    ("damped-no-beta", FUND + "vertex 1 kind damped degrees 1\n",
     "vertex 1: damped needs beta"),
    ("stray-beta", FUND + "vertex 1 kind reduced beta 1 degrees 1\n",
     "vertex 1: beta belongs to damped equations only"),
    ("shifted-nu-1", FUND + D1 + "vertex 2 kind shifted nu 1 a 1:1 degrees 1\n",
     "vertex 2: shifted needs nu != 1"),
    ("no-damped-or-reduced", FUND + "vertex 1 kind full degrees 1\n",
     "need at least one damped or reduced equation"),
    ("coupling-to-unknown", FUND + D1 + "vertex 2 kind scaled a 3:1 degrees 1\n",
     "vertex 2: coupling to unknown equation 3"),
    ("duplicate-index", FUND + D1 + "vertex 1 kind reduced degrees 1\n",
     "vertex indices must be exactly 1..N (index 1 repeated)"),
    ("index-gap", FUND + D1 + "vertex 3 kind reduced degrees 1\n",
     "vertex indices must be exactly 1..N (index 2 missing)"),
    ("index-zero", FUND + "vertex 0 kind reduced degrees 1\n",
     "vertex indices must be exactly 1..N (index 0 out of range)"),
    ("no-degree-1", FUND + "vertex 1 kind damped beta 1 degrees 2\n",
     "vertex 1: every equation needs a degree-1 operator"),
    ("degree-0", FUND + "vertex 1 kind damped beta 1 degrees 0,1\n",
     "vertex 1: operator degrees must be positive integers"),
    ("family-start-0", FUND + "vertex 1 kind damped beta 1 degrees 0..\n",
     "vertex 1: bad family start 0"),
    ("degree-in-range", FUND + "vertex 1 kind damped beta 1 degrees 1,3,2..\n",
     "vertex 1: explicit degree inside the family range"),
    ("family-at-level", FUND + D1 + "vertex 2 kind scaled a 1:1 degrees 1\n"
     "vertex 3 kind extension a 2:1 degrees 1..\n",
     "vertex 3: a family template only covers degrees above the level (1)"),
    ("circular", FUND + D1 + "vertex 2 kind extension a 3:1 degrees 1\n"
     "vertex 3 kind extension a 2:1 degrees 1\n",
     "circular extension dependencies through vertices 2, 3"),
    ("qc-no-modulus", "family quasicyclic\n",
     "line 1: quasicyclic needs modulus"),
    ("qc-bad-modulus", "family quasicyclic modulus=x\n",
     "line 1: bad modulus 'x'"),
    ("qc-bare-key", "family quasicyclic modulus\n",
     "line 1: expected key=value, got 'modulus'"),
    ("qc-unknown-header", "family quasicyclic modulus=3 foo=1\n",
     "line 1: unknown field 'foo'"),
    ("qc-repeated-header", "family quasicyclic modulus=2 modulus=3\n"
     "vertex 1 class 0 degrees 1\n", "line 1: repeated field 'modulus'"),
    ("qc-zero-modulus", "family quasicyclic modulus=0\n"
     "vertex 1 class 0 degrees 1\n", "line 1: bad modulus '0'"),
    ("qc-no-class", QC + "vertex 1 degrees 1\n",
     "line 2: vertex needs class and degrees"),
    ("qc-bad-class", QC + "vertex 1 class x degrees 1\n",
     "line 2: bad class 'x'"),
    ("qc-infinite", QC + "vertex 1 class 0 degrees 1..\n",
     "line 2: quasi-cyclic degree sets are finite"),
    ("qc-bad-children", QC + "vertex 1 class 0 children 2,x degrees 1\n",
     "line 2: bad children list"),
    ("qc-bad-weight", QC + "vertex 1 class 0 weight x degrees 1\n",
     "line 2: bad weight"),
    ("qc-residue-range", QC + "vertex 1 class 5 degrees 1\n",
     "vertex 1: residue 5 out of range mod 3"),
    ("qc-unknown-child", QC + "vertex 1 class 0 children 9 degrees 1\n",
     "vertex 1: unknown child 9"),
    ("qc-child-class", QC + "vertex 1 class 0 children 1 degrees 1\n",
     "vertex 1: child 1 is not one residue class forward"),
    ("qc-children-differ", QC + "vertex 1 class 0 children 2,3 degrees 1\n"
     "vertex 2 class 1 weight 1 degrees 1\nvertex 3 class 1 weight 2 degrees 1\n",
     "vertex 1: children 2 and 3 are not interchangeable, so the chain "
     "scalars are inconsistent"),
    ("qc-duplicate-index",
     QC + "vertex 1 class 0 degrees 1\nvertex 1 class 0 degrees 1\n",
     "vertex indices must be exactly 1..N (index 1 repeated)"),
    ("qc-no-degree-1", QC + "vertex 1 class 0 degrees 2\n",
     "vertex 1: every equation needs a degree-1 operator"),
    ("qc-degree-0", QC + "vertex 1 class 0 degrees 0,1\n",
     "vertex 1: operator degrees must be positive integers"),
    ("qc-unknown", QC + "vertex 1 class 0 degrees 1 colour red\n",
     "line 2: unknown field 'colour'"),
    ("qc-dangling", QC + "vertex 1 class 0 degrees\n",
     "line 2: dangling field 'degrees'"),
    ("qc-repeated", QC + "vertex 1 class 0 class 0 degrees 1\n",
     "line 2: repeated field 'class'"),
    # '²' passes str.isdigit but not int(): each of these used to escape
    # as a bare ValueError
    ("superscript-index", FUND + "vertex ² kind damped beta 1 degrees 1\n",
     "line 2: want 'vertex <i> ...'"),
    ("superscript-degree", FUND + "vertex 1 kind damped beta 1 degrees ²\n",
     "line 2: bad degree '²'"),
    ("superscript-rescale", FUND + D1 + "rescale ² 2\n",
     "line 3: want 'rescale j factor'"),
    ("superscript-m", "family case2 m=² alpha=-1 J=1\n", "line 1: bad m '²'"),
    ("superscript-modulus", "family quasicyclic modulus=²\n",
     "line 1: bad modulus '²'"),
    ("superscript-class", QC + "vertex 1 class ² degrees 1\n",
     "line 2: bad class '²'"),
    ("superscript-child", QC + "vertex 1 class 0 children ² degrees 1\n",
     "line 2: bad children list"),
]


@pytest.mark.parametrize("text,message", [r[1:] for r in REJECTED],
                         ids=[r[0] for r in REJECTED])
def test_family_text_rejections(text, message):
    with pytest.raises(SystemFormatError) as exc:
        parse_family_text(text)
    assert str(exc.value) == message


# the first two texts are not family text, so build reads them as systems
@pytest.mark.parametrize("text,message", [r[1:] for r in REJECTED[2:]],
                         ids=[r[0] for r in REJECTED[2:]])
def test_build_rejects_family_text_in_one_line(capsys, text, message):
    assert main(["build", text]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# -------------------------------------------------------------- validation

@pytest.mark.parametrize("indices,cause", [
    ((1, 1), "index 1 repeated"),
    ((1, 2, 2, 3), "index 2 repeated"),
    ((2,), "index 1 missing"),
    ((1, 2, 4), "index 3 missing"),
    ((-1, 1), "index -1 out of range"),
])
def test_vertex_index_message_names_the_cause(indices, cause):
    message = f"vertex indices must be exactly 1..N ({cause})"
    with pytest.raises(SystemFormatError, match=re.escape(message)):
        FundamentalData([Vertex(i, "reduced") for i in indices])
    with pytest.raises(SystemFormatError, match=re.escape(message)):
        QuasiCyclicData(1, [CycleVertex(i, 0) for i in indices])


def V(*vs):
    return FundamentalData(list(vs))


@pytest.mark.parametrize("build", [
    # no damped or reduced vertex anywhere
    lambda: V(Vertex(1, "full", degrees=(1,))),
    # scaled must differ from the canonical scalars
    lambda: V(Vertex(1, "damped", beta=F(1), degrees=(1,)),
              Vertex(2, "scaled", a={1: F(2)}, degrees=(1,))),
    lambda: V(Vertex(1, "damped", beta=F(1), degrees=(1,)),
              Vertex(2, "shifted", nu=F(1), a={1: F(1)}, degrees=(1,))),
    lambda: V(Vertex(1, "damped", beta=F(1), degrees=(1,)),
              Vertex(2, "scaled", a={1: F(1)}, degrees=(1,)),
              Vertex(3, "relay", nu=F(0), a={2: F(1)}, degrees=(1,))),
    # extensions may not depend on each other in a cycle
    lambda: V(Vertex(1, "damped", beta=F(1), degrees=(1,)),
              Vertex(2, "extension", a={3: F(1)}, degrees=(1,)),
              Vertex(3, "extension", a={2: F(1)}, degrees=(1,))),
    # dependencies of one extension must sit at one level
    lambda: V(Vertex(1, "damped", beta=F(1), degrees=(1,)),
              Vertex(2, "scaled", a={1: F(1)}, degrees=(1,)),
              Vertex(3, "extension", a={2: F(1)}, degrees=(1, 2)),
              Vertex(4, "extension", a={2: F(1), 3: F(1)}, degrees=(1,))),
    # and must share their degree-1 series
    lambda: V(Vertex(1, "damped", beta=F(1), degrees=(1,)),
              Vertex(2, "reduced", degrees=(1,)),
              Vertex(3, "extension", a={1: F(1), 2: F(1)}, degrees=(1, 2))),
    lambda: V(Vertex(1, "damped", beta=F(1), degrees=(2,))),
    lambda: V(Vertex(1, "damped", beta=F(1), degrees=(1,)),
              Vertex(2, "scaled", a={1: F(1)}, degrees=(1,)),
              Vertex(3, "scaled", a={1: F(3)}, degrees=(1,)),
              Vertex(4, "relay", nu=F(1), a={2: F(1), 3: F(1)}, degrees=(1,))),
])
def test_fundamental_rejections(build):
    with pytest.raises(SystemFormatError):
        build()


def test_quasicyclic_rejections():
    with pytest.raises(SystemFormatError):
        QuasiCyclicData(2, [CycleVertex(1, 0, F(1), (1,), (1,)),
                            CycleVertex(2, 1, F(1), (1,), (1,))])
    with pytest.raises(SystemFormatError):
        QuasiCyclicData(2, [CycleVertex(1, 0, F(1), (2, 3), (1,)),
                            CycleVertex(2, 1, F(1), (1,), (1,)),
                            CycleVertex(3, 1, F(2), (1,), (1,))])


def test_scalar_builder_rejections():
    with pytest.raises(ValueError):
        build_case1((), 1, 1)
    with pytest.raises(ValueError):
        build_case2({1}, 1, 0)


def test_power_coefficient_formula():
    for lam, mu in ((F(1), F(-1)), (F(2), F(3)), (F(1), F(0)), (F(0), F(0))):
        for j in (1, 2, 3):
            for n in range(7):
                assert expr_series(case1_expr(lam, mu, j), 1, 6).coeff((n,)) == \
                    case1_coefficient(lam, mu, j, n)
