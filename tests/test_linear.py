"""Linear combinations held as int counts against the all-Fraction route.

A sum built from counts (LinComb._from_counts, LinComb.term) keeps its
(den, counts) pair until .terms is read; every operation must answer as
the same sum built from Fractions does.
"""

import ast
import importlib
import inspect
import pkgutil
from fractions import Fraction

from hypothesis import given, strategies as st

import cdse
from cdse import (Decoration, Forest, ForestSum, TensorSum, WordSum, coproduct,
                  ladder, leaf)
from cdse.linear import _merge, _same, _scaled

F = Fraction
KEYS = {
    ForestSum: [Forest(()), Forest((leaf(1),)), Forest((leaf(2),)),
                Forest((leaf(1), leaf(1)))],
    WordSum: [(), (1,), (2,), (1, 1), (1, 2)],
}
KEYS[TensorSum] = [(f, g) for f in KEYS[ForestSum][:3]
                   for g in KEYS[ForestSum][:2]]

coefficients = st.fractions(-4, 4, max_denominator=6)


@st.composite
def sums(draw, cls):
    """(value, reference): one sum, built from counts or from Fractions,
    and the same sum built from Fractions."""
    keys = KEYS[cls]
    coeffs = draw(st.lists(st.tuples(st.sampled_from(keys), coefficients),
                           max_size=6))
    reference = cls.zero()
    for key, c in coeffs:
        reference.add_scaled(cls.term(key), c)
    if not draw(st.booleans()):
        return cls(coeffs), reference
    # each coefficient n/d as its own part, plus a part that cancels out,
    # so the common denominator grows past the reduced one
    parts = [(c.numerator, c.denominator, {key: 1}) for key, c in coeffs]
    k = draw(st.integers(1, 5))
    parts.append((k, 7, {keys[0]: 1, keys[-1]: 2}))
    parts.append((-k, 7, {keys[0]: 1, keys[-1]: 2}))
    return cls._from_counts(parts), reference


def _fractions_only(x):
    return all(type(c) is Fraction and c for c in x.terms.values())


@given(st.sampled_from([ForestSum, WordSum]).flatmap(
    lambda cls: st.tuples(sums(cls), sums(cls), coefficients)))
def test_count_form_answers_as_the_fraction_form(args):
    (a, ra), (b, rb), c = args
    assert (a == b) == (ra == rb)
    assert a == ra and ra == a
    assert bool(a) == bool(ra)
    assert hash(a) == hash(ra)
    for got, want in ((a + b, ra + rb), (a - b, ra - rb),
                      (a.scale(c), ra.scale(c)), (a * b, ra * rb)):
        assert got == want
        assert got.terms == want.terms
        assert _fractions_only(got)
    assert a.terms == ra.terms and _fractions_only(a)


@given(st.sampled_from([ForestSum, WordSum]).flatmap(
    lambda cls: st.tuples(sums(cls), sums(cls), coefficients)))
def test_add_scaled_after_a_counts_read_changes_both_forms(args):
    (a, ra), (b, rb), c = args
    before = a._counts()
    held = (before[0], dict(before[1]))
    a.add_scaled(b, c)
    want = ra + rb.scale(c)
    assert _same(a._counts(), want._counts())
    assert a.terms == want.terms and _fractions_only(a)
    # the pair read before is not changed under its holder
    assert before == held


def test_merge_raises_the_denominator_to_the_lcm():
    k, j = "k", "j"
    assert _merge([(1, 2, {k: 1}), (1, 3, {k: 1, j: 2})]) == (6, {k: 5,
                                                                   j: 4})
    assert _merge([(1, 4, {k: 1}), (1, 6, {k: 1})]) == (12, {k: 5})
    # a denominator that divides the common one leaves it as it is
    assert _merge([(1, 6, {k: 1}), (1, 3, {k: 1})]) == (6, {k: 3})
    got = WordSum._from_counts([(1, 4, {(1,): 1}), (1, 6, {(1,): 1})])
    assert got.terms == {(1,): F(5, 12)}


def test_merge_drops_what_cancels():
    k, j = "k", "j"
    assert _merge([(1, 2, {k: 1, j: 1}), (-1, 2, {k: 1})]) == (2, {j: 1})
    den, counts = _merge([(1, 2, {k: 1}), (-2, 4, {k: 1})])
    assert counts == {}
    zero = WordSum._from_counts([(1, 2, {(1,): 1}), (-1, 2, {(1,): 1})])
    assert not zero and zero == WordSum() and zero.terms == {}


def test_the_empty_sum():
    assert _merge([]) == (1, {})
    empty = ForestSum._from_counts([])
    assert not empty and empty == ForestSum() and hash(empty) == hash(
        ForestSum())
    assert empty._counts() == (1, {}) and ForestSum()._counts() == (1, {})


def test_unequal_denominators_compare_equal():
    k = (1,)
    assert _same((2, {k: 1}), (4, {k: 2}))
    assert _same((6, {k: 3, (2,): 2}), (3, {k: 1, (2,): 1})) is False
    assert _same((2, {k: 1}), (4, {k: 2, (2,): 1})) is False
    assert _same((2, {k: 1}), (4, {(2,): 2})) is False
    half = WordSum._from_counts([(2, 4, {k: 1})])
    assert half._counts()[0] == 4
    assert half == WordSum._from_counts([(1, 2, {k: 1})])
    assert half == WordSum.gen(1, F(1, 2)) == WordSum({k: F(1, 2)})
    assert half != WordSum.gen(1, F(1, 4))


def test_terms_replace_the_counts():
    x = WordSum._from_counts([(3, 6, {(1,): 1, (2,): 2})])
    assert x._counts() == (6, {(1,): 3, (2,): 6})
    assert x.terms == {(1,): F(1, 2), (2,): F(1)}
    # read back from the Fractions, over the lcm of their denominators
    assert x._counts() == (2, {(1,): 1, (2,): 2})


def test_scaled_puts_the_values_over_their_lcm_in_order():
    assert _scaled([F(1, 6), 2, F(-3, 4), F(0), -1]) == (12, [2, 24, -9, 0, -12])
    assert _scaled([3, 5]) == (1, [3, 5])
    assert _scaled(()) == (1, [])


def test_only_linear_and_series_read_numerator_or_denominator():
    """cdse.linear owns the integer-over-denominator form (_scaled); series
    reads a rational exponent.  Every other module goes through linear."""
    readers = []
    for info in pkgutil.iter_modules(cdse.__path__, "cdse."):
        if info.name in ("cdse.linear", "cdse.series"):
            continue
        tree = ast.parse(inspect.getsource(importlib.import_module(info.name)))
        readers += [f"{info.name}:{node.lineno} .{node.attr}"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and node.attr in ("numerator", "denominator")]
    assert readers == []


def test_coproduct_reads_a_count_held_sum_as_its_pair():
    a, b = Decoration(1, 1), Decoration(1, 2)
    f, g = Forest((ladder(a, b, a),)), Forest((ladder(b, a), leaf(1)))
    # 1/2 f + 3/2 g over the unreduced denominator 4
    held = ForestSum._from_counts([(2, 4, {f: 1, g: 3})])
    got, want = coproduct(held), coproduct(ForestSum({f: F(1, 2), g: F(3, 2)}))
    assert got == want and got.terms == want.terms
    # the input still holds its pair: no Fraction was made from it
    assert held._counts() == (4, {f: 2, g: 6})


def _product(cls, a: dict, b: dict) -> dict:
    """The product of two {key: coefficient} dicts, term by term."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = cls()._mul_key(ka, kb)
            out[key] = out.get(key, 0) + ca * cb
    return {key: c for key, c in out.items() if c}


def _both_forms(cls, coeffs):
    """The sum of coeffs held as counts over an unreduced den, and built
    from Fractions."""
    parts = [(c.numerator, c.denominator * 3, {key: 3}) for key, c in coeffs]
    return cls._from_counts(parts), cls(coeffs)


@given(st.sampled_from([ForestSum, TensorSum, WordSum]).flatmap(
    lambda cls: st.tuples(st.just(cls), *[st.lists(st.tuples(
        st.sampled_from(KEYS[cls]), coefficients), max_size=4)] * 2)))
def test_products_agree_whichever_operands_hold_counts(args):
    """Both operands held: the counts multiply and the product holds them;
    one or neither held: the Fraction route.  All four give one sum."""
    cls, a, b = args
    want = _product(cls, cls(a).terms, cls(b).terms)
    for x in _both_forms(cls, a):
        for y in _both_forms(cls, b):
            held = x._terms is None and y._terms is None
            got = x * y
            assert (got._terms is None) == held
            assert bool(got) == bool(want) and got == cls(want)
            assert got.terms == want and _fractions_only(got)


def test_held_products_drop_what_cancels():
    for cls in (ForestSum, TensorSum, WordSum):
        k, j = KEYS[cls][1], KEYS[cls][2]
        plus = cls._from_counts([(1, 2, {k: 1, j: 1})])     # (k + j) / 2
        minus = cls._from_counts([(1, 3, {k: 1, j: -1})])   # (k - j) / 3
        got = plus * minus  # the k j terms cancel
        assert got._terms is None and got._counts()[0] == 6
        assert got.terms == {cls()._mul_key(k, k): F(1, 6),
                             cls()._mul_key(j, j): F(-1, 6)}
        zero = cls._from_counts([(1, 2, {k: 1}), (-1, 2, {k: 1})])
        for x, y in ((zero, plus), (plus, zero), (zero, cls({j: 1})),
                     (cls({j: 1}), zero)):
            got = x * y
            assert not got and got == cls() and got.terms == {}
