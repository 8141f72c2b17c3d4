"""Truncated multivariate power series over Q and a small expression language.

Arguments of grafting operators are stored as expression trees so a whole
family of operators (one per degree q) can share a single template with the
placeholder ``q`` inside exponents and coefficients.  Instantiating ``q`` and
evaluating gives an exact TruncatedSeries; everything is Fraction arithmetic.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from functools import reduce
from typing import Optional

from .linear import ForestSum, LinComb, _accumulate
from .record import FrozenRecord
from .trees import EMPTY_FOREST


class EvaluationError(ValueError):
    pass


class ParseError(ValueError):
    pass


class TruncatedSeries(LinComb):
    """Power series in nvars variables, kept to total degree <= trunc: a
    linear combination of exponent tuples."""

    __slots__ = ("nvars", "trunc")

    def __init__(self, nvars: int, trunc: int, coeffs=None):
        if isinstance(coeffs, dict):
            coeffs = coeffs.items()
        pairs = []
        for p, c in coeffs or ():
            if len(p) != nvars:
                raise EvaluationError(f"exponent {p} has wrong arity")
            if sum(p) <= trunc:
                pairs.append((p, c))
        super().__init__(pairs)
        self.nvars = nvars
        self.trunc = trunc

    # ------------------------------------------------------------ builders

    @classmethod
    def const(cls, nvars, trunc, value):
        return cls(nvars, trunc, {(0,) * nvars: Fraction(value)})

    @classmethod
    def zero(cls, nvars, trunc):
        return cls(nvars, trunc)

    @classmethod
    def var(cls, nvars, trunc, j):
        """The series h_j, 1-based index."""
        if not 1 <= j <= nvars:
            raise EvaluationError(f"variable h{j} out of range (nvars={nvars})")
        e = tuple(1 if k == j - 1 else 0 for k in range(nvars))
        return cls(nvars, trunc, {e: Fraction(1)})

    # ------------------------------------------------------------- queries

    def coeff(self, p) -> Fraction:
        if isinstance(p, int):
            if self.nvars != 1:
                raise EvaluationError("integer exponent only for one variable")
            p = (p,)
        return super().coeff(tuple(p))

    def constant_term(self) -> Fraction:
        return super().coeff((0,) * self.nvars)

    def __eq__(self, other):
        # truncation bounds are bookkeeping, not data: equal maps, equal series
        return (isinstance(other, TruncatedSeries)
                and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "<series 0>"
        bits = [f"{c}*h^{p}" for p, c in sorted(self.terms.items())]
        return "<series " + " + ".join(bits) + f" +O({self.trunc + 1})>"

    # ---------------------------------------------------------- arithmetic

    def _like(self, terms: dict) -> "TruncatedSeries":
        res = TruncatedSeries.__new__(TruncatedSeries)
        res._terms, res.nvars, res.trunc = terms, self.nvars, self.trunc
        return res

    def _compatible(self, other):
        if self.nvars != other.nvars or self.trunc != other.trunc:
            raise EvaluationError("mixed series spaces")

    def __add__(self, other):
        self._compatible(other)
        return super().__add__(other)

    def __mul__(self, other):
        self._compatible(other)
        trunc = self.trunc
        right = other.terms.items()
        return self._like(_accumulate({}, (
            (tuple(a + b for a, b in zip(p, r)), cp * cr)
            for p, cp in self.terms.items()
            for r, cr in right
            if sum(p) + sum(r) <= trunc)))

    def pow_int(self, n: int) -> "TruncatedSeries":
        if n < 0:
            return self.pow_rational(Fraction(n))
        out = TruncatedSeries.const(self.nvars, self.trunc, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def pow_rational(self, r) -> "TruncatedSeries":
        r = Fraction(r)
        c = self.constant_term()
        one = TruncatedSeries.const(self.nvars, self.trunc, 1)
        if c == 1:
            # binomial route even for integer r, so pow_int stays an
            # independent cross-check
            return _binomial(self - one, r)
        if r.denominator == 1:
            if r >= 0:
                return self.pow_int(r.numerator)
            if c == 0:
                raise EvaluationError("negative power needs a nonzero constant term")
            u = self.scale(Fraction(1, 1) / c) - one
            return _binomial(u, r).scale(c ** r.numerator)
        raise EvaluationError("fractional power needs constant term 1")

    def exp(self) -> "TruncatedSeries":
        if self.constant_term() != 0:
            raise EvaluationError("exp needs zero constant term")
        return _compose(self, 1, lambda c, k: c / k)

    def log(self) -> "TruncatedSeries":
        if self.constant_term() != 1:
            raise EvaluationError("log needs constant term 1")
        u = self - TruncatedSeries.const(self.nvars, self.trunc, 1)
        return _compose(u, 0, lambda c, k: Fraction((-1) ** (k + 1), k))


def _compose(u: TruncatedSeries, first, step) -> TruncatedSeries:
    """sum_k c_k u^k with c_0 = first and c_k = step(c_(k-1), k), up to the
    first power of u that vanishes.  u has zero constant term, so u^k starts
    in degree k."""
    out = TruncatedSeries.const(u.nvars, u.trunc, first)
    power = TruncatedSeries.const(u.nvars, u.trunc, 1)
    c = Fraction(first)
    for k in range(1, u.trunc + 1):
        power = power * u
        if not power:
            break
        c = step(c, k)
        if c:
            out = out + power.scale(c)
    return out


def _binomial(u: TruncatedSeries, r: Fraction) -> TruncatedSeries:
    """(1 + u)^r for u with zero constant term."""
    return _compose(u, 1, lambda c, k: c * Fraction(r - (k - 1), k))


def substitute(f: TruncatedSeries, args, bound: int) -> ForestSum:
    """Evaluate f at forest-valued arguments, truncated to tree degree <= bound.

    args maps 1-based variable indices to ForestSums of valuation >= 1 (no
    empty-forest term); a sequence of length num_vars works too.  Variables
    that f never uses may be omitted from a dict.
    """
    if not isinstance(args, dict):
        if len(args) != f.nvars:
            raise EvaluationError("wrong number of substitution arguments")
        args = {j + 1: a for j, a in enumerate(args)}
    for a in args.values():
        if a.coeff(EMPTY_FOREST) != 0:
            raise EvaluationError("substitution needs zero constant terms")

    one = ForestSum.one()
    caches = {j: [one] for j in args}

    def power(j, e):
        cache = caches.get(j)
        if cache is None:
            raise EvaluationError(f"no argument supplied for h{j}")
        while len(cache) <= e:
            cache.append(cache[-1].mul_upto(args[j], bound))
        return cache[e]

    out = ForestSum.zero()
    for p, c in f.terms.items():
        if sum(p) > bound:
            continue
        term = one.scale(c)
        for j, e in enumerate(p, start=1):
            if e:
                term = term.mul_upto(power(j, e), bound)
        out.add_scaled(term)
    return out


def _rising_series(first_step, step, scale, nvars, var, trunc):
    # h_var^n coefficient:
    # first_step (first_step+step) ... (first_step+(n-1)step) / n! * scale^n
    coeffs = {(0,) * nvars: Fraction(1)}
    run = Fraction(1)
    for n in range(1, trunc + 1):
        run *= first_step + (n - 1) * step
        e = [0] * nvars
        e[var - 1] = n
        coeffs[tuple(e)] = run * scale ** n / math.factorial(n)
    return TruncatedSeries(nvars, trunc, coeffs)


def geometric_family(beta, nvars: int, var: int, scale, trunc: int) -> TruncatedSeries:
    """(1 - beta*scale*h_var)^(-1/beta), continued across beta = 0 as exp.

    The h^n coefficient is (1)(1+beta)...(1+(n-1)beta)/n! times scale^n.
    """
    beta = Fraction(beta)
    return _rising_series(Fraction(1), beta, Fraction(scale), nvars, var, trunc)


def geometric_family_shifted(beta, nvars: int, var: int, scale, trunc: int) -> TruncatedSeries:
    """Series with h^n coefficient (1+beta)(1+2beta)...(1+n*beta)/n! scale^n.

    Away from beta = -1 this is geometric_family(beta/(1+beta)) evaluated at
    (1+beta)*scale*h; at beta = -1 every n >= 1 coefficient vanishes and the
    series is the constant 1, which is exactly what the running product gives.
    """
    beta = Fraction(beta)
    return _rising_series(1 + beta, beta, Fraction(scale), nvars, var, trunc)


# ------------------------------------------------------------- expressions

class Num(FrozenRecord):
    value: Fraction


class Var(FrozenRecord):
    index: int  # 1-based


class Param(FrozenRecord):
    pass


class Neg(FrozenRecord):
    arg: object


class Add(FrozenRecord):
    left: object
    right: object


class Sub(FrozenRecord):
    left: object
    right: object


class Mul(FrozenRecord):
    left: object
    right: object


class Pow(FrozenRecord):
    base: object
    exponent: object  # must stay variable-free


class Exp(FrozenRecord):
    arg: object


class Log(FrozenRecord):
    arg: object


def num(v) -> Num:
    return Num(Fraction(v))


def ast_sum(terms):
    return reduce(Add, list(terms) or [Num(Fraction(0))])


def ast_product(factors):
    return reduce(Mul, list(factors) or [Num(Fraction(1))])


def _fold(e, rules: dict, leaf):
    """Post-order value of e: rules[type] of a node's children's values, in
    field order, or leaf(node) for a type without a rule.  An explicit stack
    keeps long sums and products clear of the recursion limit."""
    values = []
    todo = [e]
    while todo:
        node = todo.pop()
        if node.__class__ is tuple:  # (rule, arity): its children are done
            rule, arity = node
            values[-arity:] = [rule(*values[-arity:])]
            continue
        rule = rules.get(node.__class__)
        if rule is None:
            values.append(leaf(node))
        else:
            parts = node._values()
            todo.append((rule, len(parts)))
            todo.extend(reversed(parts))
    return values.pop()


_REBUILD = {cls: cls for cls in (Neg, Add, Sub, Mul, Pow, Exp, Log)}


def _constant_power(c: Fraction, r: Fraction) -> Fraction:
    if r.denominator == 1:
        n = r.numerator
        if n >= 0:
            return c ** n
        if c == 0:
            raise EvaluationError("negative power of zero")
        return Fraction(1) / c ** (-n)
    if c == 1:
        return Fraction(1)
    if c == 0 and r > 0:
        return Fraction(0)
    raise EvaluationError(f"irrational constant {c}^{r}")


def _constant_exp(c: Fraction) -> Fraction:
    if c == 0:
        return Fraction(1)
    raise EvaluationError("irrational constant exp value")


def _constant_log(c: Fraction) -> Fraction:
    if c == 1:
        return Fraction(0)
    raise EvaluationError("irrational constant log value")


_RING = {Neg: operator.neg, Add: operator.add, Sub: operator.sub,
         Mul: operator.mul}
# a constant power reads its base first; a series power is a leaf, which
# reads its constant exponent before the base
_CONSTANT_OPS = {**_RING, Pow: _constant_power, Exp: _constant_exp,
                 Log: _constant_log}
_SERIES_OPS = {**_RING, Exp: TruncatedSeries.exp, Log: TruncatedSeries.log}


def _evaluate(e, q, space=None):
    """Value of e: a Fraction when space is None, else a TruncatedSeries in
    space = (nvars, trunc)."""
    def leaf(e):
        if isinstance(e, Param):
            if q is None:
                raise EvaluationError("parameter q left uninstantiated")
            e = Num(Fraction(q))
        if isinstance(e, Num):
            return e.value if space is None else TruncatedSeries.const(*space, e.value)
        if isinstance(e, Var):
            if space is None:
                raise EvaluationError("variable inside a constant context")
            return TruncatedSeries.var(*space, e.index)
        if isinstance(e, Pow):
            r = _evaluate(e.exponent, q)
            return _evaluate(e.base, q, space).pow_rational(r)
        raise EvaluationError(f"unknown node {e!r}")

    return _fold(e, _CONSTANT_OPS if space is None else _SERIES_OPS, leaf)


def expr_const(e, q: Optional[int] = None) -> Fraction:
    """Value of a variable-free expression, with q substituted for the parameter."""
    return _evaluate(e, q)


def expr_series(e, nvars: int, trunc: int, q: Optional[int] = None) -> TruncatedSeries:
    return _evaluate(e, q, (nvars, trunc))


def _bounded(combine):
    return lambda *parts: None if None in parts else combine(*parts)


def _degree_leaf(e):
    if not isinstance(e, Pow):
        return 1 if isinstance(e, Var) else 0
    base = expr_degree_bound(e.base)
    if base == 0:
        return 0
    try:
        r = expr_const(e.exponent)
    except EvaluationError:
        return None
    if base is None or r.denominator != 1 or r < 0:
        return None
    return base * r.numerator


_DEGREE_RULES = {Neg: lambda a: a, Add: _bounded(max), Sub: _bounded(max),
                 Mul: _bounded(operator.add),
                 **dict.fromkeys((Exp, Log), lambda a: 0 if a == 0 else None)}


def expr_degree_bound(e) -> Optional[int]:
    """Upper bound on the total degree of e as a polynomial, or None.

    A constant part has bound 0 and a variable 1; Add and Sub take the max
    of their parts, Mul the sum, and a power with a natural-number exponent
    the multiple.  exp, log and any other power of a nonconstant base are
    not polynomials and have no bound.
    """
    return _fold(e, _DEGREE_RULES, _degree_leaf)


_ANY_PART = dict.fromkeys(_REBUILD, lambda *parts: any(parts))


def expr_uses_param(e) -> bool:
    return _fold(e, _ANY_PART, lambda x: isinstance(x, Param))


def expr_map_vars(e, fn):
    """Rebuild the expression with each Var node replaced by fn(index)."""
    return _fold(e, _REBUILD, lambda x: fn(x.index) if isinstance(x, Var) else x)


def expr_rescale_var(e, j: int, factor):
    """Substitute h_j -> factor * h_j."""
    c = Fraction(factor)
    return expr_map_vars(e, lambda k: Mul(Num(c), Var(k)) if k == j else Var(k))


def expr_instantiate(e, q: int):
    """Replace the parameter q by a concrete integer, returning a new tree."""
    return _fold(e, _REBUILD, lambda x: Num(Fraction(q)) if isinstance(x, Param) else x)


def expr_at_zero(e):
    """Substitute every variable by 0, leaving q intact."""
    return expr_map_vars(e, lambda k: Num(Fraction(0)))


# ------------------------------------------------------------------ syntax
#
# expr   := term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := atom ('^' atom)?
# atom   := '-' atom | NUMBER | 'q' | hJ | '(' expr ')' | ('exp'|'log') '(' expr ')'
#
# NUMBER is INT or INT/INT; '/' appears only inside such literals.  Exponents
# must be variable-free (checked at evaluation, not at parse time).

_TOKEN = re.compile(r"\s*(?:(\d+(?:\s*/\s*\d+)?)|(h\d+)|(q\b)|(exp\b)|(log\b)|([()^*+-]))")


def _tokenize(s: str):
    pos, out = 0, []
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            if s[pos:].strip():
                raise ParseError(f"bad character at position {pos} in {s!r}")
            break
        if m.group(1):
            literal = m.group(1).replace(" ", "")
            try:
                out.append(("num", Fraction(literal)))
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {literal!r} in "
                                 f"{s!r}") from None
        elif m.group(2):
            out.append(("var", int(m.group(2)[1:])))
        elif m.group(3):
            out.append(("param", None))
        elif m.group(4):
            out.append(("exp", None))
        elif m.group(5):
            out.append(("log", None))
        else:
            out.append((m.group(6), None))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, source):
        self.tokens = tokens
        self.pos = 0
        self.source = source

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self, kind=None):
        if self.pos >= len(self.tokens):
            raise ParseError(f"unexpected end of expression: {self.source!r}")
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, got {tok[0]!r} in {self.source!r}")
        self.pos += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() == "*":
            self.take()
            node = Mul(node, self.factor())
        return node

    def factor(self):
        node = self.atom()
        if self.peek() == "^":
            self.take()
            node = Pow(node, self.atom())
        return node

    def atom(self):
        kind = self.peek()
        if kind == "-":
            self.take()
            inner = self.atom()
            if isinstance(inner, Num):
                return Num(-inner.value)
            return Neg(inner)
        if kind == "num":
            return Num(self.take()[1])
        if kind == "var":
            return Var(self.take()[1])
        if kind == "param":
            self.take()
            return Param()
        if kind in ("exp", "log"):
            self.take()
            self.take("(")
            inner = self.expr()
            self.take(")")
            return Exp(inner) if kind == "exp" else Log(inner)
        if kind == "(":
            self.take()
            inner = self.expr()
            self.take(")")
            return inner
        raise ParseError(f"unexpected token {kind!r} in {self.source!r}")


def parse_expr(s: str):
    p = _Parser(_tokenize(s), s)
    node = p.expr()
    if p.pos != len(p.tokens):
        raise ParseError(f"trailing tokens in {s!r}")
    return node


def _atomic(e) -> bool:
    return isinstance(e, (Var, Param)) or (isinstance(e, Num) and e.value >= 0)


_TEXT = {Neg: "-({})".format, Add: "({}+{})".format, Sub: "({}-{})".format,
         Mul: "({}*{})".format, Exp: "exp({})".format, Log: "log({})".format}


def _text_leaf(e) -> str:
    if isinstance(e, Num):
        return str(e.value)
    if isinstance(e, Var):
        return f"h{e.index}"
    if isinstance(e, Param):
        return "q"
    if isinstance(e, Pow):
        base = expr_text(e.base) if _atomic(e.base) else f"({expr_text(e.base)})"
        if _atomic(e.exponent) or isinstance(e.exponent, Num):
            ex = expr_text(e.exponent)
        else:
            ex = f"({expr_text(e.exponent)})"
        return f"{base}^{ex}"
    raise EvaluationError(f"unknown node {e!r}")


def expr_text(e) -> str:
    return _fold(e, _TEXT, _text_leaf)
