"""Exact scalar arithmetic over the Gaussian rationals Q(i).

Every coefficient in this package is a GaussianRational: a reduced
integer triple (a, b, d) standing for (a + b*i)/d, with d > 0 and
gcd(a, b, d) == 1. This is the layout of FLINT's fmpq, with one
denominator shared by both parts. The reduced form is unique, so
equality and hashing are structural and exact, and sums and products in
Z[i] (d == 1) never call gcd. No floats anywhere. Only this module knows
fractions.Fraction: it is accepted as input, and .re and .im hand the parts
out as Fractions, importing fractions when one is first read.
"""

from __future__ import annotations

import sys
from math import gcd
from typing import TYPE_CHECKING, NamedTuple, Union

if TYPE_CHECKING:
    from fractions import Fraction

_RationalLike = Union[int, "Fraction"]
ScalarLike = Union[int, "Fraction", "GaussianRational"]


def _is_fraction(value) -> bool:
    """A Fraction exists only once fractions is loaded, so its type is looked up, not imported."""
    return isinstance(value, getattr(sys.modules.get("fractions"), "Fraction", ()))


def _parts(value: _RationalLike) -> tuple[int, int]:
    if isinstance(value, int) or _is_fraction(value):
        return value.numerator, value.denominator
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class _Value:
    """Immutable; str() and to_latex() are the subclass's _render in _TEXT and _LATEX style."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __str__(self) -> str:
        return self._render(_TEXT)

    def to_latex(self) -> str:
        return self._render(_LATEX)


class GaussianRational(_Value):
    """(a + b*i)/d with ints a, b, d; d > 0 and gcd(a, b, d) == 1."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: _RationalLike = 0, im: _RationalLike = 0):
        p, q = _parts(re)
        r, s = _parts(im)
        # both parts are in lowest terms, so over their lcm the triple is reduced
        d = q * s // gcd(q, s)
        _set_a(self, p * (d // q))
        _set_b(self, r * (d // s))
        _set_d(self, d)

    @staticmethod
    def coerce(value: ScalarLike) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(value)

    @property
    def re(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self._b, self._d)

    # ---- ring operations ----

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        d, f = self._d, other._d
        if d == f:
            return _make(self._a + other._a, self._b + other._b, d)
        return _make(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        return self + -GaussianRational.coerce(other)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        return GaussianRational.coerce(other) - self

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        if type(other) is int:  # integer weights and falling factorials
            return _make(self._a * other, self._b * other, self._d)
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        return _make(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __neg__(self) -> "GaussianRational":
        return _make(-self._a, -self._b, self._d)

    def conjugate(self) -> "GaussianRational":
        return _make(self._a, -self._b, self._d)

    def inverse(self) -> "GaussianRational":
        a, b, d = self._a, self._b, self._d
        norm = a * a + b * b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero GaussianRational")
        return _make(d * a, -d * b, norm)

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        return self * GaussianRational.coerce(other).inverse()

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        return GaussianRational.coerce(other) * self.inverse()

    def __pow__(self, exponent: int) -> "GaussianRational":
        if not isinstance(exponent, int):
            raise TypeError("exponent must be int")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # ---- structure ----

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int) or _is_fraction(other):
            # with b == 0 the triple is a/d in lowest terms
            return self._b == 0 and self._a == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        # agree with int/Fraction hashing when purely real
        if self._b == 0:
            return hash(self._a) if self._d == 1 else hash(self.re)
        return hash((self.re, self.im))

    # ---- serialization / rendering ----

    def to_list(self) -> list[int]:
        """[re_num, re_den, im_num, im_den], each part in lowest terms"""
        g, h = gcd(self._a, self._d), gcd(self._b, self._d)
        return [self._a // g, self._d // g, self._b // h, self._d // h]

    @staticmethod
    def from_list(data) -> "GaussianRational":
        if (
            not isinstance(data, (list, tuple))
            or len(data) != 4
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in data)
        ):
            raise ValueError(
                "GaussianRational JSON form must be [re_num, re_den, im_num, im_den] with ints"
            )
        p, q, r, s = data
        if q == 0 or s == 0:
            raise ValueError("GaussianRational denominator must be nonzero")
        sign = -1 if q * s < 0 else 1  # p/q + (r/s) i = (p*s + r*q i)/(q*s)
        return _make(sign * p * s, sign * r * q, sign * q * s)

    def _render(self, style: _Style) -> str:
        a, b, d = self._a, self._b, self._d
        if not b:
            return _write_rational(style, a, d)
        unit = "i" if abs(b) == d else f"{_write_rational(style, abs(b), d)}{style.unit}i"
        if not a:
            return unit if b > 0 else f"-{unit}"
        return f"{_write_rational(style, a, d)}{style.gap}{'+' if b > 0 else '-'}{style.gap}{unit}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


# Slot setters that bypass the immutability guard; only the constructors use them.
_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__
_new = object.__new__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for ints with d > 0, unchecked; divides by the gcd only when d != 1."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    value = _new(GaussianRational)
    _set_a(value, a)
    _set_b(value, b)
    _set_d(value, d)
    return value


# ---- rendering: every output format is one row of this table ----

class _Style(NamedTuple):
    """How one output format writes numbers, products, brackets and the weight."""

    fraction: str  # a rational that is not an integer, formatted with (|numerator|, denominator)
    unit: str  # between a rational and i
    gap: str  # on both sides of the sign before an imaginary part
    times: str  # between factors
    power: str  # name^e, formatted with (name, e)
    left: str  # brackets
    right: str
    weight: str  # e^{-q^2/2} before a spinor


_TEXT = _Style("{}/{}", "", "", "*", "{}^{}", "(", ")", "exp(-q^2/2) * ")  # 2i
_EXPR = _TEXT._replace(unit="*")  # 2*i, so operator text reparses
_LATEX = _Style("\\frac{{{}}}{{{}}}", " ", " ", " ", "{}^{{{}}}", "\\left(", "\\right)", "e^{-q^2/2}")


def _write_rational(style: _Style, n: int, d: int) -> str:
    """n/d for d > 0, in lowest terms; the sign stands before a fraction."""
    g = gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{'-' if n < 0 else ''}{style.fraction.format(abs(n), d)}"


def _write_product(style: _Style, names, exponents) -> str:
    """The factors name^e with e > 0; a power 1 is written as the bare name."""
    return style.times.join(
        name if e == 1 else style.power.format(name, e) for name, e in zip(names, exponents) if e
    )


def _write_sum(style: _Style, terms, sparing: bool = False) -> str:
    """(coefficient, body) terms joined by " + ", or "0" when there are none.

    A coefficient is anything with _render(style). A coefficient 1 before a
    body is left out. Every other coefficient is bracketed; with sparing, only
    a scalar with a sign or two parts that stands before a body is.
    """
    out = []
    for coeff, body in terms:
        if body and coeff == 1:
            out.append(body)
            continue
        text = coeff._render(style)
        if not sparing or body and (coeff._a < 0 or coeff._b < 0 or coeff._a and coeff._b):
            text = f"{style.left}{text}{style.right}"
        out.append(f"{text}{style.times}{body}" if body else text)
    return " + ".join(out) or "0"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
MINUS_I = GaussianRational(0, -1)


def G(re: _RationalLike = 0, im: _RationalLike = 0) -> GaussianRational:
    """Shorthand constructor used heavily in tests."""
    return GaussianRational(re, im)
