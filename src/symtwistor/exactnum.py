"""Exact scalar arithmetic over the Gaussian rationals Q(i).

Every coefficient in this package is a GaussianRational: a pair of
stdlib Fractions (real and imaginary part). Fractions are already kept
in lowest terms with a positive denominator, so equality and hashing
are structural and exact. No floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

_RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "GaussianRational"]


def _as_fraction(value: _RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class GaussianRational:
    """re + im*i with exact rational re, im."""

    __slots__ = ("re", "im")

    def __init__(self, re: _RationalLike = 0, im: _RationalLike = 0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def coerce(value: ScalarLike) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(_as_fraction(value))

    # ---- ring operations ----

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        return GaussianRational.coerce(other) - self

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        other = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def inverse(self) -> "GaussianRational":
        norm = self.re * self.re + self.im * self.im
        if norm == 0:
            raise ZeroDivisionError("inverse of zero GaussianRational")
        return GaussianRational(self.re / norm, -self.im / norm)

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        return self * GaussianRational.coerce(other).inverse()

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        return GaussianRational.coerce(other) * self.inverse()

    def __pow__(self, exponent: int) -> "GaussianRational":
        if not isinstance(exponent, int):
            raise TypeError("exponent must be int")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = GaussianRational(1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # ---- structure ----

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self) -> int:
        # agree with int/Fraction hashing when purely real
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    # ---- serialization / rendering ----

    def to_list(self) -> list[int]:
        """[re_num, re_den, im_num, im_den]"""
        return [
            self.re.numerator,
            self.re.denominator,
            self.im.numerator,
            self.im.denominator,
        ]

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
        if data[1] == 0 or data[3] == 0:
            raise ValueError("GaussianRational denominator must be nonzero")
        return GaussianRational(Fraction(data[0], data[1]), Fraction(data[2], data[3]))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return _imag_str(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{_imag_str(abs(self.im)).lstrip('+')}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def to_latex(self) -> str:
        if self.im == 0:
            return _frac_latex(self.re)
        if self.re == 0:
            return _imag_latex(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"{_frac_latex(self.re)} {sign} {_imag_latex(abs(self.im))}"


def _imag_str(im: Fraction) -> str:
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return f"{im}i"


def _frac_latex(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    sign = "-" if value < 0 else ""
    return f"{sign}\\frac{{{abs(value.numerator)}}}{{{value.denominator}}}"


def _imag_latex(im: Fraction) -> str:
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return f"{_frac_latex(im)} i"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
MINUS_I = GaussianRational(0, -1)


def G(re: _RationalLike = 0, im: _RationalLike = 0) -> GaussianRational:
    """Shorthand constructor used heavily in tests."""
    return GaussianRational(re, im)
