"""Truncated multivariate series and the operator expression language."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cdse import (
    EvaluationError,
    ForestSum,
    ParseError,
    TruncatedSeries,
    expr_series,
    expr_text,
    geometric_family,
    geometric_family_shifted,
    leaf,
    parse_expr,
    single,
    substitute,
)
from cdse.series import (
    Add, Mul, Neg, Num, Param, Pow, Var, ast_product, ast_sum,
    expr_const, expr_degree_bound, expr_instantiate, expr_rescale_var,
    expr_uses_param, num,
)

S = TruncatedSeries


def sconst(v, nvars=1, trunc=6):
    return S.const(nvars, trunc, v)


def h(j=1, nvars=1, trunc=6):
    return S.var(nvars, trunc, j)


# -------------------------------------------------------------- arithmetic

def test_ring_basics():
    x = h()
    assert (sconst(1) + x) * (sconst(1) - x) == sconst(1) - x * x
    assert x - x == S.zero(1, 6)
    assert x.scale(Fraction(1, 2)).coeff(1) == Fraction(1, 2)
    assert (x * x * x).coeff(3) == 1


def test_truncation_drops_high_degrees():
    x = h(trunc=2)
    assert not x * x * x
    assert ((sconst(1, trunc=2) + x) * (sconst(1, trunc=2) + x)).coeff(2) == 1


def test_equality_ignores_the_truncation_bound():
    assert sconst(3, trunc=4) == sconst(3, trunc=9)
    assert h(trunc=4) == h(trunc=9)


def test_a_series_never_equals_a_forest_sum():
    # both are linear combinations, and their zeros have equal (empty) terms
    zero = S.zero(1, 6)
    for fs in (ForestSum(), ForestSum.one()):
        assert fs != zero and zero != fs
        assert not fs == zero and not zero == fs
    assert S.zero(1, 6) != S.zero(2, 6)


def test_multivariate_coeffs():
    x = S.var(2, 4, 1)
    y = S.var(2, 4, 2)
    p = (x + y).pow_int(3)
    assert p.coeff((2, 1)) == 3
    assert p.coeff((0, 3)) == 1
    assert p.coeff((0, 0)) == 0


# ------------------------------------------------------------------ powers

def test_pow_int_matches_repeated_multiplication():
    f = sconst(1) + h() + h() * h()
    acc = sconst(1)
    for n in range(1, 5):
        acc = acc * f
        assert f.pow_int(n) == acc


def test_negative_power_inverts():
    f = sconst(1) + h().scale(2)
    assert f.pow_int(-1) * f == sconst(1)
    g = sconst(3) + h()
    assert g.pow_rational(-2) * g * g == sconst(1)


def test_pow_laws():
    f = sconst(1) + h()
    assert f.pow_rational(Fraction(1, 2)).pow_int(2) == f
    assert f.pow_rational(Fraction(2, 3)) * f.pow_rational(Fraction(1, 3)) == f
    # integer exponent through the binomial route agrees with pow_int
    assert f.pow_rational(5) == f.pow_int(5)


def test_fractional_power_needs_unit_constant():
    with pytest.raises(EvaluationError):
        (sconst(2) + h()).pow_rational(Fraction(1, 2))
    with pytest.raises(EvaluationError):
        h().pow_int(-1)


def test_exp_log_inverses():
    u = h() + h() * h()
    assert u.exp().log() == u
    f = sconst(1) + h().scale(3)
    assert f.log().exp() == f
    with pytest.raises(EvaluationError):
        (sconst(1) + h()).exp()
    with pytest.raises(EvaluationError):
        h().log()


# ------------------------------------------------------------ the families

def test_family_beta_2_depth_3():
    f = geometric_family(2, 1, 1, 1, 3)
    assert f == S(1, 3, {(0,): 1, (1,): 1, (2,): Fraction(3, 2),
                         (3,): Fraction(5, 2)})


@pytest.mark.parametrize("beta", [-1, 0, 1, 2])
def test_family_coefficient_formula(beta):
    f = geometric_family(beta, 1, 1, 1, 6)
    for n in range(7):
        want = Fraction(math.prod(1 + k * Fraction(beta) for k in range(n)),
                        math.factorial(n))
        assert f.coeff(n) == want


def test_family_special_points():
    # beta = -1 collapses to the binomial 1 + h; beta = 0 is exp; beta = 1
    # is the plain geometric series
    assert geometric_family(-1, 1, 1, 1, 6) == sconst(1) + h()
    assert geometric_family(0, 1, 1, 1, 6) == h().exp()
    assert all(geometric_family(1, 1, 1, 1, 6).coeff(n) == 1 for n in range(7))


def test_family_scale_and_variable_placement():
    f = geometric_family(1, 3, 2, Fraction(1, 2), 4)
    assert f.coeff((0, 2, 0)) == Fraction(1, 4)
    assert f.coeff((0, 0, 2)) == 0
    g = expr_series(parse_expr("(1 - 1/2*h2)^-1"), 3, 4)
    assert f == g


def test_shifted_family():
    # h^n coefficient (1+b)(1+2b)...(1+nb)/n!
    for beta in (-1, 0, 1, Fraction(1, 2)):
        f = geometric_family_shifted(beta, 1, 1, 1, 6)
        for n in range(7):
            want = Fraction(
                math.prod(1 + k * Fraction(beta) for k in range(1, n + 1)),
                math.factorial(n))
            assert f.coeff(n) == want
    assert geometric_family_shifted(-1, 1, 1, 1, 6) == sconst(1)


def test_shifted_family_is_a_reparametrization():
    # away from beta = -1: shifted(beta) = family(beta/(1+beta)) at
    # argument (1+beta) h
    for beta in (0, 1, 2, Fraction(-1, 2)):
        b = Fraction(beta)
        lhs = geometric_family_shifted(b, 1, 1, 1, 6)
        rhs = geometric_family(b / (1 + b), 1, 1, 1 + b, 6)
        assert lhs == rhs


# ------------------------------------------------------------ substitution

def test_substitute_geometric():
    f = geometric_family(1, 1, 1, 1, 6)  # (1 - h)^-1
    a = ForestSum.of_tree(leaf(1))
    got = substitute(f, [a], 2)
    want = (ForestSum.one() + a
            + ForestSum.term(single(leaf(1)) * single(leaf(1))))
    assert got == want


def test_substitute_mixes_variables():
    f = expr_series(parse_expr("1 + h1*h2"), 2, 4)
    a = ForestSum.of_tree(leaf(1))
    b = ForestSum.of_tree(leaf(2)).scale(2)
    got = substitute(f, {1: a, 2: b}, 4)
    assert got == ForestSum.one() + ForestSum.term(
        single(leaf(1)) * single(leaf(2)), 2)


def test_substitute_truncates_by_tree_degree():
    f = expr_series(parse_expr("(1 - h1)^-1"), 1, 9)
    a = ForestSum.of_tree(leaf(1, 2))  # one vertex of degree 2
    got = substitute(f, [a], 5)
    assert max(k.degree for k in got.terms) == 4


def test_substitute_rejects_bad_arguments():
    f = expr_series(parse_expr("1 + h1"), 1, 3)
    with pytest.raises(EvaluationError):
        substitute(f, [ForestSum.one()], 3)  # constant term present
    with pytest.raises(EvaluationError):
        substitute(f, {2: ForestSum.of_tree(leaf(1))}, 3)  # h1 unsupplied
    with pytest.raises(EvaluationError):
        substitute(f, [], 3)  # arity


# ------------------------------------------------------ expression language

def test_parse_basic_forms():
    assert parse_expr("3/2") == Num(Fraction(3, 2))
    assert parse_expr("-3") == Num(Fraction(-3))
    assert parse_expr("h2") == Var(2)
    assert parse_expr("q") == Param()
    e = parse_expr("(1 + h1)^-2")
    assert isinstance(e, Pow) and e.exponent == Num(Fraction(-2))


def test_parse_precedence():
    assert (expr_series(parse_expr("1 + 2*h1^2"), 1, 4)
            == sconst(1, trunc=4) + (h(trunc=4) * h(trunc=4)).scale(2))
    # the exponent is a single atom: chains need parentheses
    assert expr_const(parse_expr("2^(3^1)")) == 8
    with pytest.raises(ParseError):
        parse_expr("2^3^1")
    # a leading minus folds into the literal before the power applies
    assert expr_const(parse_expr("-2^2")) == 4


def test_parse_functions_and_params():
    e = parse_expr("exp(q*h1)")
    assert expr_series(e, 1, 3, q=2) == h(trunc=3).scale(2).exp()
    e2 = parse_expr("(1 - h1)^(-q)")
    assert expr_series(e2, 1, 4, q=1) == geometric_family(1, 1, 1, 1, 4)


def test_instantiate_replaces_the_parameter():
    e = parse_expr("(1 + h1)^(1 + 2*q)")
    e3 = expr_instantiate(e, 1)
    assert expr_series(e3, 1, 4) == expr_series(parse_expr("(1 + h1)^3"), 1, 4)


@pytest.mark.parametrize("text", [
    "", "1 +", "(1", "hx", "1 2", "^2", "log()", "q q", "1/0 + h1", "2 / 00",
])
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse_expr(text)


def test_variable_range_is_checked_at_evaluation():
    e = parse_expr("1 + h3")   # parses fine, fails for a 2-variable space
    with pytest.raises(EvaluationError):
        expr_series(e, 2, 4)
    with pytest.raises(EvaluationError):
        expr_series(parse_expr("1 + h0"), 2, 4)


def one_variable_series(e):
    return expr_series(e, 1, 3)


# these texts reach users as 'error: ...' lines; the last two pin which
# error wins when both a power's base and its exponent are at fault
@pytest.mark.parametrize("evaluate, text, message", [
    (expr_const, "q", "parameter q left uninstantiated"),
    (one_variable_series, "1 + q", "parameter q left uninstantiated"),
    (expr_const, "1 + h1", "variable inside a constant context"),
    (expr_const, "0^-1", "negative power of zero"),
    (expr_const, "2^(1/2)", "irrational constant 2^1/2"),
    (expr_const, "exp(1)", "irrational constant exp value"),
    (expr_const, "log(2)", "irrational constant log value"),
    (one_variable_series, "h3", "variable h3 out of range (nvars=1)"),
    (expr_const, "(0^-1)^(2^(1/2))", "negative power of zero"),
    (one_variable_series, "h3^q", "parameter q left uninstantiated"),
])
def test_evaluation_error_messages(evaluate, text, message):
    with pytest.raises(EvaluationError) as info:
        evaluate(parse_expr(text))
    assert str(info.value) == message


EXPRS = [
    "1", "-1", "3/4", "h1", "q", "1 + h1", "1 - 2*h2", "(1 + h1)^2",
    "(1 - h1)^(-q)", "(1 + h1)^(1 + 2*q) * (1 - h2)^(-q)",
    "exp(h1) * log(1 + h2)", "2*h1*h2 + 1/6*h1^3", "-(1 + h1)",
]


@pytest.mark.parametrize("text", EXPRS)
def test_text_round_trip(text):
    e = parse_expr(text)
    assert parse_expr(expr_text(e)) == e


@pytest.mark.parametrize("text, bound", [
    ("3/4", 0),
    ("h1", 1),
    ("1 + h1 - h2^2", 2),
    ("h1 * h2^3", 4),
    ("(1 + h1)^2 * h2", 3),
    ("(h1^2)^5", 10),
    ("h1 - h1", 1),            # a bound, not the exact degree
    ("2^3 + exp(0) * h1", 1),  # constant parts weigh nothing
    ("(1 + h1)^(-1)", None),
    ("(1 + h1)^(1/2)", None),
    ("exp(h1)", None),
    ("1 + log(1 + h1)", None),
    ("(1 + h1)^q", None),
])
def test_degree_bound(text, bound):
    assert expr_degree_bound(parse_expr(text)) == bound


@given(st.integers(-4, 4), st.integers(1, 3))
def test_series_round_trip_random_instances(c, j):
    e = Add(Num(Fraction(1)), Mul(Num(Fraction(c)), Pow(Var(j), num(2))))
    back = parse_expr(expr_text(e))
    assert expr_series(back, 3, 5) == expr_series(e, 3, 5)


def test_unary_minus_folds_into_literals():
    assert parse_expr("-2") == Num(Fraction(-2))
    assert parse_expr("-h1") == Neg(Var(1))
    # exponents keep a plain numeric node, so text round-trips structurally
    e = parse_expr("(1 + h1)^-1")
    assert parse_expr(expr_text(e)) == e


# ------------------------------------------------------- long expressions
#
# A flat sum or product of n terms is a chain n nodes deep.  Every walk goes
# through one fold with an explicit stack, so n = 5000 stays clear of the
# recursion limit.  Expressions this deep are compared by value or text:
# record equality itself recurses.

FLAT = 5000
ONE_PLUS_H = Add(num(1), Var(1))


def test_a_flat_sum_of_5000_terms_needs_no_recursion():
    n = FLAT
    e = ast_sum([num(1)] + [Var(1)] * (n - 1))
    assert expr_series(e, 1, 2) == S(1, 2, {(0,): 1, (1,): n - 1})
    assert expr_degree_bound(e) == 1
    assert not expr_uses_param(e)
    assert expr_text(e) == "(" * (n - 1) + "1" + "+h1)" * (n - 1)
    tripled = expr_rescale_var(e, 1, 3)
    assert expr_series(tripled, 1, 2) == S(1, 2, {(0,): 1, (1,): 3 * (n - 1)})
    assert expr_text(tripled) == "(" * (n - 1) + "1" + "+(3*h1))" * (n - 1)
    qs = ast_sum([Param()] * n)
    assert expr_uses_param(qs) and expr_degree_bound(qs) == 0
    assert expr_const(qs, 2) == 2 * n
    assert expr_series(qs, 1, 3, 2) == sconst(2 * n, trunc=3)
    twos = expr_instantiate(qs, 2)
    assert not expr_uses_param(twos)
    assert expr_const(twos) == 2 * n
    assert expr_text(twos) == "(" * (n - 1) + "2" + "+2)" * (n - 1)


def test_a_flat_product_of_5000_factors_needs_no_recursion():
    n = FLAT
    e = ast_product([ONE_PLUS_H] * n)  # (1 + h1)^n
    assert expr_series(e, 1, 2) == S(1, 2, {(0,): 1, (1,): n,
                                            (2,): math.comb(n, 2)})
    assert expr_degree_bound(e) == n
    assert not expr_uses_param(e)
    assert expr_text(e) == "(" * (n - 1) + "(1+h1)" + "*(1+h1))" * (n - 1)
    doubled = expr_rescale_var(e, 1, 2)
    assert expr_series(doubled, 1, 2) == S(1, 2, {(0,): 1, (1,): 2 * n,
                                                  (2,): 4 * math.comb(n, 2)})
    qs = ast_product([Param()] * n)
    assert expr_uses_param(qs) and expr_degree_bound(qs) == 0
    assert expr_const(qs, -1) == (-1) ** n
    signs = expr_instantiate(qs, -1)
    assert not expr_uses_param(signs)
    assert expr_const(signs) == (-1) ** n
    assert expr_text(signs) == "(" * (n - 1) + "-1" + "*-1)" * (n - 1)
    # a long product inside a power is read by a nested fold of the base
    assert expr_degree_bound(Pow(e, num(3))) == 3 * n
    assert expr_series(Pow(e, num(-1)), 1, 1) == S(1, 1, {(0,): 1, (1,): -n})
