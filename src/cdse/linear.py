"""Linear combinations with rational coefficients over a hashable basis.

One small class covers forest sums, tensors of forests, and commutative
words; subclasses only say how two basis elements multiply.  Zero
coefficients are dropped eagerly, so equality compares the nonzero terms,
or their int counts cross-multiplied.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .trees import EMPTY_FOREST, Forest, Tree, forest_text, single

_ZERO = Fraction(0)
ONE = Fraction(1)


def _accumulate(data: dict, pairs) -> dict:
    """Add each (key, coeff) pair into data, deleting keys that reach zero.

    The one accumulation loop behind every sum in the package.
    """
    for key, coeff in pairs:
        acc = data.get(key)
        acc = coeff if acc is None else acc + coeff
        if acc:
            data[key] = acc
        elif key in data:
            del data[key]
    return data


def _merge(parts):
    """(den, counts), the sum of n/d times counts over the parts (n, d,
    counts), each counts a dict of int coefficients.  The sum runs in ints
    over a common denominator, raised to the lcm of the d as the parts
    arrive; keys that sum to 0 are dropped, and den need not be in lowest
    terms."""
    den, acc = 1, {}
    for n, d, counts in parts:
        if den % d:
            step = d // math.gcd(den, d)
            den *= step
            for key in acc:
                acc[key] *= step
        m = n * (den // d)
        for key, c in counts.items():
            acc[key] = acc.get(key, 0) + m * c
    return den, {key: v for key, v in acc.items() if v}


def _scaled(values):
    """The rationals in values (read twice) as (den, nums): ints over den, the
    lcm of their denominators, in order; other modules read rationals here."""
    den = math.lcm(*(c.denominator for c in values))
    return den, [c.numerator * (den // c.denominator) for c in values]


def _same(a, b) -> bool:
    """Whether the (den, counts) pairs a and b, with no zero counts, are
    one sum.  Cross-multiplied, so neither den need be in lowest terms."""
    (da, ca), (db, cb) = a, b
    if da == db:
        return ca == cb
    return ca.keys() == cb.keys() and all(v * db == cb[key] * da
                                          for key, v in ca.items())


class LinComb:
    """Finite formal sum c_1 b_1 + ... + c_k b_k, coefficients in Q.

    A sum built from int counts (_from_counts, _from_ratios, term) holds
    them as its (den, counts) pair and makes its Fractions only when .terms
    is first read; it then drops the pair, so one form is stored at a time.
    The product of two sums that hold pairs holds one too.
    """

    __slots__ = ("_terms", "_pair")

    def __init__(self, terms=None):
        if not terms:
            self._terms = {}
            return
        if isinstance(terms, dict):
            terms = terms.items()
        self._terms = _accumulate({}, (
            (key, coeff if isinstance(coeff, Fraction) else Fraction(coeff))
            for key, coeff in terms or ()))

    @property
    def terms(self) -> dict:
        """{key: coefficient}, every coefficient nonzero."""
        terms = self._terms
        if terms is None:
            den, counts = self._pair
            terms = self._terms = {key: Fraction(v, den)
                                   for key, v in counts.items()}
            self._pair = None
        return terms

    @classmethod
    def _like(cls, terms: dict) -> "LinComb":
        """Wrap terms as they are: no conversion, no zero check."""
        res = cls.__new__(cls)
        res._terms = terms
        return res

    @classmethod
    def _held(cls, pair) -> "LinComb":
        """Hold the (den, counts) pair as it is, no zero count in it."""
        res = cls._like(None)
        res._pair = pair
        return res

    @classmethod
    def _from_counts(cls, parts) -> "LinComb":
        """Sum of n/d times counts over the parts (n, d, counts), counts a
        dict of int coefficients, summed by _merge.  No Fraction is made
        until .terms is read, and then one per nonzero term."""
        return cls._held(_merge(parts))

    @classmethod
    def _from_ratios(cls, items) -> "LinComb":
        """Sum of num/den times key over the items (key, num, den), keys
        distinct, nums nonzero and dens positive, held as the pair _counts
        reads off the same Fractions: each ratio is reduced, and den is the
        lcm of the reduced denominators.  No Fraction is made."""
        reduced = []
        for key, num, den in items:
            g = math.gcd(num, den)
            reduced.append((key, num // g, den // g))
        den = math.lcm(*(d for _, _, d in reduced))
        return cls._held((den, {key: n * (den // d) for key, n, d in reduced}))

    def _counts(self):
        """(den, counts): the coefficients as ints over one denominator,
        the one-part form that _from_counts reads.  A sum that holds a pair
        returns it, and the caller must not change it; otherwise den is the
        lcm of the coefficients' denominators."""
        terms = self._terms
        if terms is None:
            return self._pair
        den, nums = _scaled(terms.values())
        return den, dict(zip(terms, nums))

    @classmethod
    def term(cls, key, coeff=ONE):
        """coeff times key, held as counts like a sum from _from_counts."""
        if not isinstance(coeff, Fraction):
            coeff = Fraction(coeff)
        return cls._held((coeff.denominator,
                          {key: coeff.numerator} if coeff else {}))

    @classmethod
    def zero(cls):
        return cls()

    def __bool__(self):
        terms = self._terms
        return bool(self._pair[1] if terms is None else terms)

    def __eq__(self, other):
        # a subclass with an equality of its own (a series) decides alone
        if type(other).__eq__ is not LinComb.__eq__:
            return NotImplemented
        if self._terms is None or other._terms is None:
            return _same(self._counts(), other._counts())
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def add_scaled(self, other: "LinComb", c=1) -> "LinComb":
        """self += c * other, in place; returns self."""
        pairs = other.terms.items()
        if c != 1:
            if not isinstance(c, Fraction):
                c = Fraction(c)
            pairs = [(key, coeff * c) for key, coeff in pairs]
        _accumulate(self.terms, pairs)
        return self

    def __add__(self, other):
        return self._like(_accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + -other

    def scale(self, c) -> "LinComb":
        c = Fraction(c)
        return self._like({k: v * c for k, v in self.terms.items()} if c else {})

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def coeff(self, key) -> Fraction:
        return self.terms.get(key, _ZERO)

    # subclasses define how basis elements multiply
    def _mul_key(self, a, b):
        raise NotImplementedError

    def __mul__(self, other):
        mul = self._mul_key
        if self._terms is None and other._terms is None:
            # both hold pairs: multiply the counts, over the product of dens
            (da, ca), (db, cb) = self._pair, other._pair
            right = cb.items()
            return self._held((da * db, _accumulate({}, (
                (mul(ka, kb), a * b) for ka, a in ca.items() for kb, b in right))))
        right = other.terms.items()
        return self._like(_accumulate({}, (
            (mul(ka, kb), ca * cb)
            for ka, ca in self.terms.items() for kb, cb in right)))

    def map_keys(self, fn) -> "LinComb":
        """Linear extension of a basis map; fn returns a key."""
        return self._like(_accumulate({}, ((fn(key), coeff)
                                           for key, coeff in self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms, key=_sort_key):
            bits.append(f"{self.terms[key]}*{key!r}")
        return " + ".join(bits)


def _sort_key(key):
    if isinstance(key, (Forest, Tree)):
        return (0, key.key)
    if isinstance(key, tuple):
        return (1, tuple(_sort_key(k) for k in key))
    return (2, key)


class ForestSum(LinComb):
    """Element of the polynomial algebra on trees; keys are forests."""

    __slots__ = ()

    def _mul_key(self, a: Forest, b: Forest) -> Forest:
        return a * b

    @classmethod
    def one(cls):
        return cls.term(EMPTY_FOREST)

    @classmethod
    def of_tree(cls, t: Tree, coeff=ONE):
        return cls.term(single(t), coeff)

    def homogeneous(self, n: int) -> "ForestSum":
        return ForestSum({k: v for k, v in self.terms.items() if k.degree == n})

    def truncate(self, n: int) -> "ForestSum":
        return ForestSum({k: v for k, v in self.terms.items() if k.degree <= n})

    def mul_upto(self, other: "ForestSum", n: int) -> "ForestSum":
        """(self * other).truncate(n), without forming the pairs of degree > n."""
        right = other.terms.items()
        return self._like(_accumulate({}, (
            (fa * fb, ca * cb)
            for fa, ca in self.terms.items() if fa.degree <= n
            for fb, cb in right if fa.degree + fb.degree <= n)))


def forest_sum_text(x: ForestSum) -> str:
    """`coeff * forest` terms joined by ` + `, in canonical forest order."""
    terms = x.terms
    if not terms:
        return "0"
    return " + ".join(f"{terms[f]} * {forest_text(f)}"
                      for f in sorted(terms, key=lambda f: f.key))


class TensorSum(LinComb):
    """Two-sided tensors of forests; keys are pairs (left, right)."""

    __slots__ = ()

    def _mul_key(self, a, b):
        return (a[0] * b[0], a[1] * b[1])

    @classmethod
    def of(cls, left: Forest, right: Forest, coeff=ONE):
        return cls.term((left, right), coeff)

    def bidegree(self, m: int, n: int) -> "TensorSum":
        return TensorSum({k: v for k, v in self.terms.items()
                          if k[0].degree == m and k[1].degree == n})


def tensor(a: ForestSum, b: ForestSum) -> TensorSum:
    right = b.terms.items()
    return TensorSum(((ka, kb), ca * cb) for ka, ca in a.terms.items()
                     for kb, cb in right)


class WordSum(LinComb):
    """Commutative words in abstract generators; keys are sorted int tuples."""

    __slots__ = ()

    def _mul_key(self, a, b):
        return tuple(sorted(a + b))

    @classmethod
    def gen(cls, i: int, coeff=ONE):
        return cls.term((i,), coeff)

    @classmethod
    def one(cls):
        return cls.term(())
