"""Closed-shape instances: building, classifying, and certifying them."""

from fractions import Fraction as F

import pytest

import cdse.families
import cdse.solver
from cdse import SystemFormatError
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


def test_full_singleton_series():
    data = FundamentalData([
        Vertex(1, "damped", beta=F(1), degrees=(1,)),
        Vertex(2, "full", degrees=(1,)),
    ])
    S = build_fundamental(data)
    assert S.op_series(2, 1, 6) == series_like("(1 - h1)^-2", 2, 6)
    assert check_closed_forms(S, data, 5).ok


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


def test_mixed_kinds_certify():
    data = FundamentalData([
        Vertex(1, "damped", beta=F(1), degrees=(1,)),
        Vertex(2, "reduced", degrees=(1,)),
        Vertex(3, "scaled", a={1: F(1), 2: F(2)}, degrees=(1,)),
        Vertex(4, "shifted", nu=F(2), a={1: F(1)}, degrees=(1, 2)),
        Vertex(5, "relay", nu=F(3), a={3: F(1, 2)}, degrees=(1, 2)),
    ])
    S = build_fundamental(data)
    rep = check_closed_forms(S, data, 5)
    assert rep.ok, rep.failures
    assert check_hopf(S, 4).is_hopf


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


@pytest.mark.parametrize("partner", sorted(PARTNERS))
@pytest.mark.parametrize("beta", [F(-1), F(0), F(-1, 3), F(1), F(2)],
                         ids=str)
def test_damped_beta_grid_certifies(beta, partner):
    data = FundamentalData([Vertex(1, "damped", beta=beta, degrees=(1, 2))]
                           + PARTNERS[partner]())
    S = build_fundamental(data)
    rep = check_closed_forms(S, data, 5)
    assert rep.ok, rep.failures
    assert rep.q_independent
    assert check_hopf(S, 4).is_hopf


def test_shifted_log_item():
    data = FundamentalData([
        Vertex(1, "damped", beta=F(1), degrees=(1,)),
        Vertex(2, "shifted", nu=F(0), a={1: F(1)}, degrees=(1, 2)),
    ])
    S = build_fundamental(data)
    rep = check_closed_forms(S, data, 5)
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


def test_driftless_extension_is_a_plain_power():
    data = FundamentalData([
        Vertex(1, "damped", beta=F(1), degrees=(1,)),
        Vertex(2, "full", degrees=(1,)),
        Vertex(3, "extension", a={2: F(2)}, degrees=(1, 2, 3)),
    ])
    S = build_fundamental(data)
    Q = shared_product_series(data, 5)
    for q in (2, 3):
        assert S.op_series(3, q, 5) == Q.pow_int(q - 1)
    assert check_closed_forms(S, data, 5).ok
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

    monkeypatch.setattr(cdse.families, "solve", counted)
    monkeypatch.setattr(cdse.solver, "solve", counted)
    assert check_ladder_sums(S_QC3, QC3, 5).ok
    assert calls == [5]


def test_quasicyclic_self_loop():
    qc = QuasiCyclicData(1, [CycleVertex(1, 0, F(2), (1,), (1,))])
    S = build_quasicyclic(qc)
    assert S.op_series(1, 1, 5) == series_like("1 + 2*h1", 1, 5)
    assert check_ladder_sums(S, qc, 5).ok
    # single cycle of weight 2: the n-ladder carries 2^(n-1)
    sol = solve(S, 4)
    four = ladder((1, 1), (1, 1), (1, 1), (1, 1))
    assert sol.component(1, 4).coeff(single(four)) == 8


def test_quasicyclic_weighted_multidegree():
    qc = QuasiCyclicData(2, [
        CycleVertex(1, 0, F(1), (2,), (1, 2)),
        CycleVertex(2, 1, F(3), (1,), (1,)),
    ])
    assert check_ladder_sums(build_quasicyclic(qc), qc, 5).ok


def test_quasicyclic_bad_weights_fail_only_hopf():
    qc = QuasiCyclicData(2, [
        CycleVertex(1, 0, F(1, 2), (2,), (1, 2)),
        CycleVertex(2, 1, F(3), (1,), (1,)),
    ])
    rep = check_ladder_sums(build_quasicyclic(qc), qc, 5)
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


# -------------------------------------------------------------- validation

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
