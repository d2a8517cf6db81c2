"""Polynomial symplectic spinors with the Gaussian weight stripped.

A Spinor stores, per position monomial (e1, e2), a polynomial in q with
GaussianRational coefficients. The stored data p represents the actual
function e^{-q^2/2} * p(x1, x2, q); the weight never appears in the data
model, only in renderings. Bases mirror weyl.BasisTag: (x, y) or
(z, zbar).
"""

from __future__ import annotations

from itertools import zip_longest
from math import gcd, lcm, perm
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from .exactnum import _LATEX, ZERO, GaussianRational, ScalarLike, _Style, _Value
from .exactnum import _write_product, _write_sum
from .exactnum import _make  # unchecked (a + b*i)/d; QPoly reads the triple
from .weyl import GENERATOR_LATEX, GENERATOR_NAMES, BasisMismatchError, BasisTag
from .weyl import SUBSTITUTION, WeylOperator, _require_same_basis, substitute

EVEN = "even"
ODD = "odd"
MIXED = "mixed"

class QPoly(_Value):
    """Polynomial in q over Q(i): Gaussian-integer numerators over one denominator.

    Coefficient k is (re[k] + i*im[k])/d, the layout of FLINT's fmpq_poly with
    Z[i] numerators. The form is canonical: trailing zero coefficients are
    trimmed, d > 0, d and all numerator parts have gcd 1, and the zero
    polynomial has d == 1, so equality and hashing are structural. Each
    operation works on the ints and reduces at most once per result; .coeffs
    is a read-only view of the coefficients as GaussianRational.
    """

    __slots__ = ("_re", "_im", "_d")

    def __init__(self, coeffs: Sequence[ScalarLike] = ()):
        cs = map(GaussianRational.coerce, coeffs)
        poly = _from_terms([(k, c._a, c._b, c._d) for k, c in enumerate(cs)])
        _set_re(self, poly._re)
        _set_im(self, poly._im)
        _set_d(self, poly._d)

    @staticmethod
    def monomial(exponent: int, coeff: ScalarLike = 1) -> "QPoly":
        return QPoly([coeff]).shift(exponent)

    @staticmethod
    def combination(parts: Iterable[Tuple[GaussianRational, "QPoly"]]) -> "QPoly":
        """Sum of c * p over the (c, p) in parts, built once over one denominator."""
        parts = [(c, p) for c, p in parts if p._re]
        d = lcm(*(c._d * p._d for c, p in parts))
        size = max((len(p._re) for _, p in parts), default=0)
        re, im = [0] * size, [0] * size
        for c, p in parts:
            f = d // (c._d * p._d)
            a, b = c._a * f, c._b * f
            for j, (x, y) in enumerate(zip(p._re, p._im)):
                re[j] += x * a - y * b
                im[j] += x * b + y * a
        return _canonical(re, im, d)

    @property
    def coeffs(self) -> Tuple[GaussianRational, ...]:
        """Every coefficient, k ascending; a zero one is the shared ZERO, built without a gcd."""
        d = self._d
        return tuple(_make(a, b, d) if a or b else ZERO for a, b in zip(self._re, self._im))

    def nonzero_terms(self) -> Iterator[Tuple[int, GaussianRational]]:
        """(k, coefficient of q^k) for each nonzero coefficient, k ascending."""
        d = self._d
        return ((k, _make(a, b, d)) for k, (a, b) in enumerate(zip(self._re, self._im)) if a or b)

    def is_zero(self) -> bool:
        return not self._re

    def degree(self) -> Optional[int]:
        return len(self._re) - 1 if self._re else None

    def coefficient(self, exponent: int) -> GaussianRational:
        if 0 <= exponent < len(self._re):
            return _make(self._re[exponent], self._im[exponent], self._d)
        return ZERO

    def parity(self) -> str:
        parities = {k % 2 for k, (a, b) in enumerate(zip(self._re, self._im)) if a or b}
        if len(parities) == 2:
            return MIXED
        return ODD if parities == {1} else EVEN

    def __add__(self, other: "QPoly") -> "QPoly":
        return _sum(self, other, 1)

    def __sub__(self, other: "QPoly") -> "QPoly":
        return _sum(self, other, -1)

    def __neg__(self) -> "QPoly":
        return _raw(tuple(-a for a in self._re), tuple(-b for b in self._im), self._d)

    def scale(self, value: ScalarLike) -> "QPoly":
        v = GaussianRational.coerce(value)
        a, b, re, im = v._a, v._b, self._re, self._im
        return _canonical(
            [x * a - y * b for x, y in zip(re, im)], [x * b + y * a for x, y in zip(re, im)],
            self._d * v._d,
        )

    def shift(self, k: int) -> "QPoly":
        """Multiply by q^k, k >= 0."""
        if k < 0:
            raise ValueError(f"q-shift needs a nonnegative exponent, got {k}")
        if self.is_zero() or k == 0:
            return self
        pad = (0,) * k
        return _raw(pad + self._re, pad + self._im, self._d)

    def weighted_dq(self) -> "QPoly":
        """d/dq through the implicit weight: p -> p' - q*p.

        Over Z the map is invertible on numerator vectors, so the result is
        canonical over the same denominator without a gcd.
        """
        if self.is_zero():
            return self
        return _raw(_dq(self._re), _dq(self._im), self._d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPoly):
            return NotImplemented
        return self._d == other._d and self._re == other._re and self._im == other._im

    def __hash__(self) -> int:
        return hash((self._re, self._im, self._d))

    def _render(self, style: _Style) -> str:
        terms = ((c, _write_product(style, ("q",), (k,))) for k, c in self.nonzero_terms())
        return _write_sum(style, terms, sparing=True)

    def __repr__(self) -> str:
        return f"QPoly({self})"

    def to_json(self) -> list:
        return [c.to_list() for c in self.coeffs]

    @staticmethod
    def from_json(data, where: str = "q") -> "QPoly":
        if not isinstance(data, list):
            raise ValueError(f"{where}: expected a list of coefficient quadruples")
        out = []
        for k, item in enumerate(data):
            try:
                out.append(GaussianRational.from_list(item))
            except ValueError as exc:
                raise ValueError(f"{where}[{k}]: {exc}") from None
        return QPoly(out)


# Slot setters past the immutability guard; only the constructors use them.
_set_re = QPoly._re.__set__
_set_im = QPoly._im.__set__
_set_d = QPoly._d.__set__


def _raw(re: tuple, im: tuple, d: int) -> QPoly:
    """QPoly from numerator tuples over d that are already canonical (unchecked)."""
    poly = object.__new__(QPoly)
    _set_re(poly, re)
    _set_im(poly, im)
    _set_d(poly, d)
    return poly


def _canonical(re: list, im: list, d: int) -> QPoly:
    """QPoly from fresh numerator lists over d > 0: trim, then divide by the gcd once."""
    while re and not (re[-1] or im[-1]):
        re.pop()
        im.pop()
    if d != 1:
        g = gcd(d, *re, *im)  # d itself when re is empty, so zero gets d == 1
        if g != 1:
            re = [x // g for x in re]
            im = [y // g for y in im]
            d //= g
    return _raw(tuple(re), tuple(im), d)


def _from_terms(terms: Sequence[Tuple[int, int, int, int]]) -> QPoly:
    """QPoly with coefficient (a + b*i)/d of q^k for each (k, a, b, d); k ascending, d > 0."""
    d = lcm(*(t[3] for t in terms))
    size = terms[-1][0] + 1 if terms else 0
    re, im = [0] * size, [0] * size
    for k, a, b, e in terms:
        re[k], im[k] = a * (d // e), b * (d // e)
    return _canonical(re, im, d)


def _sum(p: QPoly, r: QPoly, sign: int) -> QPoly:
    """p + sign*r over the lcm of the two denominators."""
    d = lcm(p._d, r._d)
    f, g = d // p._d, sign * (d // r._d)
    re = [x * f + y * g for x, y in zip_longest(p._re, r._re, fillvalue=0)]
    im = [x * f + y * g for x, y in zip_longest(p._im, r._im, fillvalue=0)]
    return _canonical(re, im, d)


def _dq(v: tuple, lo: int = 0) -> tuple:
    """Numerators of p' - q*p from q^max(lo-1, 0), for v[j] the numerator of q^(lo+j) in p."""
    s = min(lo, 1)  # 1 when the result starts below the window, at q^(lo-1)
    weights = range(lo + 1 - s, lo + len(v) + 2)  # entry of q^e: (e+1)*c[e+1] - c[e-1]
    return tuple([k * x - y for k, x, y in zip(weights, v[1 - s:] + (0, 0), (0,) * (1 + s) + v)])


def _act(op: WeylOperator, spinor: "Spinor") -> "Spinor":
    """op applied to spinor (same basis) on numerators, one reduction per output polynomial.

    Coefficients and polynomials are each brought over the lcm of their denominators.
    The operator's terms act in groups of one position part (see _plan). One pass over
    the spinor terms meets every group: row-side groups act through their rows,
    chain-side groups through the term's Dq chain, which is dropped after the term.
    """
    op_den, groups = _plan(op)
    den = lcm(*(p._d for p in spinor.terms.values()))
    # Dq^f p has len(p) + f coefficients, shifted by q^qc
    longest = max((len(p._re) for p in spinor.terms.values()), default=0)
    size = longest + max((m[2] + m[5] for m in op.terms), default=0)
    out: dict = {}  # output key -> (re, im) lists over op_den * den
    for (m1, m2), p in spinor.terms.items():
        re, im = p._re, p._im
        if p._d != den:
            f = den // p._d
            re, im = tuple(x * f for x in re), tuple(y * f for y in im)
        chain = [(re, im, _nonzero(re, im))]  # Dq^f of the term, f = 0, 1, ...
        for (a, b, d, e), terms, rows in groups:
            if d > m1 or e > m2:
                continue
            key = (m1 - d + a, m2 - e + b)
            acc = out.get(key)
            if acc is None:
                acc = out[key] = ([0] * size, [0] * size)
            ore, oim = acc
            w = perm(m1, d) * perm(m2, e)
            if rows is None:
                for qc, f, ca, cb in terms:
                    while len(chain) <= f:
                        cre, cim = _dq(chain[-1][0]), _dq(chain[-1][1])
                        chain.append((cre, cim, _nonzero(cre, cim)))
                    ca, cb = ca * w, cb * w
                    for k, x, y in chain[f][2]:
                        ore[k + qc] += x * ca - y * cb
                        oim[k + qc] += x * cb + y * ca
                continue
            if len(rows) < len(re):  # grown only as far as an input reads
                _grow(rows, terms, len(re))
            for k, x, y in chain[0][2]:  # one pass over the merged rows L(q^k)
                x, y = x * w, y * w
                for j, ra, rb in rows[k]:
                    ore[j] += x * ra - y * rb
                    oim[j] += x * rb + y * ra
    d = op_den * den
    return Spinor(spinor.basis, {key: _canonical(re, im, d) for key, (re, im) in out.items()})


def _unit_images(op: WeylOperator, units: Sequence[Tuple[Tuple[int, int], int]]) -> list:
    """op's images of the monomial units (key, k): one {(key, q-power): coefficient} per
    unit, zero cells dropped.

    The image of unit ((m1, m2), k) is read from the plan, as _act reads it: each group
    with d <= m1 and e <= m2 adds its row k times perm(m1, d) * perm(m2, e) at key
    (m1 - d + a, m2 - e + b), over op_den. A chain-side group gets rows local to this call.
    """
    op_den, groups = _plan(op)
    n = max((k for _, k in units), default=-1) + 1
    tables = []
    for part, terms, rows in groups:
        rows = [] if rows is None else rows
        _grow(rows, terms, n)
        tables.append((part, rows))
    images = []
    for (m1, m2), k in units:
        cells: dict = {}  # (key, q-power) -> (re, im) over op_den
        for (a, b, d, e), rows in tables:
            if d > m1 or e > m2:
                continue
            key = (m1 - d + a, m2 - e + b)
            w = perm(m1, d) * perm(m2, e)
            for j, ra, rb in rows[k]:
                x, y = cells.get((key, j), (0, 0))
                cells[key, j] = (x + w * ra, y + w * rb)
        images.append({cell: _make(x, y, op_den) for cell, (x, y) in cells.items() if x or y})
    return images


def _plan(op: WeylOperator) -> tuple:
    """op's apply plan, built on first use and kept on op: (op_den, groups).

    Coefficients are integers (ca, cb) over op_den. Each group is ((a, b, d, e), terms,
    rows): the terms (qc, f, ca, cb) of one position part, in order of first appearance.
    A group with 0 < sum(f) <= len(terms) gets rows, a table grown on demand whose row k
    is the group's q-part applied to q^k, merged to nonzero (j, re, im); any other group
    (no Dq, or Dq orders high against its size) has rows None and goes through the Dq
    chain of each spinor term.
    """
    plan = op._plan
    if plan is None:
        op_den = lcm(*(c._d for c in op.terms.values()))
        parts: dict = {}
        for (a, b, qc, d, e, f), c in op.terms.items():
            w = op_den // c._d
            parts.setdefault((a, b, d, e), []).append((qc, f, c._a * w, c._b * w))
        groups = [(key, terms, [] if 0 < sum(t[1] for t in terms) <= len(terms) else None)
                  for key, terms in parts.items()]
        plan = (op_den, groups)
        object.__setattr__(op, "_plan", plan)
    return plan


def _grow(rows: list, terms: list, n: int) -> None:
    """Extend a group's rows to n rows, each built straight from q^k.

    Each term (qc, f, ca, cb) adds (ca + i*cb)*q^qc times Dq^f q^k; f sums to at most
    len(terms). The levels Dq^g q^k are _dq windows, shared by the group's terms.
    """
    for k in range(len(rows), n):
        row, levels = {}, [(1,)]  # j -> (re, im) of q^j; Dq^g q^k from q^max(k-g, 0)
        for qc, f, ca, cb in terms:
            while len(levels) <= f:
                levels.append(_dq(levels[-1], max(k + 1 - len(levels), 0)))
            for j, x in enumerate(levels[f], max(k - f, 0) + qc):
                if x:
                    ra, rb = row.get(j, (0, 0))
                    row[j] = (ra + x * ca, rb + x * cb)
        rows.append([(j, x, y) for j, (x, y) in row.items() if x or y])


def _nonzero(re: tuple, im: tuple) -> list:
    """The (k, re[k], im[k]) with a nonzero part."""
    return [(k, x, y) for k, (x, y) in enumerate(zip(re, im)) if x or y]


class Spinor(_Value):
    __slots__ = ("basis", "terms")

    def __init__(self, basis: BasisTag, terms: Mapping[Tuple[int, int], QPoly]):
        clean = {}
        for key, poly in terms.items():
            e1, e2 = key if type(key) is tuple and len(key) == 2 else (None, None)
            if type(e1) is not int or type(e2) is not int or e1 < 0 or e2 < 0:
                raise ValueError(f"position key {key!r} is not a pair of nonnegative ints")
            if not isinstance(poly, QPoly):
                poly = QPoly(poly)
            if not poly.is_zero():
                clean[key] = poly
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", clean)

    # ---- constructors ----

    @staticmethod
    def zero(basis: BasisTag) -> "Spinor":
        return Spinor(basis, {})

    @staticmethod
    def monomial(basis: BasisTag, e1: int, e2: int, qpoly: QPoly | Sequence[ScalarLike]) -> "Spinor":
        return Spinor(basis, {(e1, e2): qpoly})  # the constructor makes a QPoly of a sequence

    # ---- linear structure ----

    def __add__(self, other: "Spinor") -> "Spinor":
        _require_same_basis(self, other)
        terms = dict(self.terms)
        for key, poly in other.terms.items():
            prev = terms.get(key)
            terms[key] = poly if prev is None else prev + poly
        return Spinor(self.basis, terms)

    def __sub__(self, other: "Spinor") -> "Spinor":
        return self + (-other)

    def __neg__(self) -> "Spinor":
        return Spinor(self.basis, {k: -p for k, p in self.terms.items()})

    def scale(self, value: ScalarLike) -> "Spinor":
        return Spinor(self.basis, {k: p.scale(value) for k, p in self.terms.items()})

    # ---- structure ----

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneity(self) -> Optional[int]:
        """Common total degree in the two positions, None if mixed or zero."""
        degrees = {e1 + e2 for (e1, e2) in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def parity(self) -> str:
        parities = {p.parity() for p in self.terms.values()}
        if parities <= {EVEN}:  # the zero spinor is even
            return EVEN
        return ODD if parities == {ODD} else MIXED

    def q_degree(self) -> Optional[int]:
        if self.is_zero():
            return None
        return max(p.degree() for p in self.terms.values())

    def min_q_degree(self) -> Optional[int]:
        """Lowest q-power with a nonzero coefficient, read from the numerators; None if zero."""
        return min((next(k for k, (a, b) in enumerate(zip(p._re, p._im)) if a or b)
                    for p in self.terms.values()), default=None)

    def coefficient_of(self, e1: int, e2: int, qexp: int) -> GaussianRational:
        """Exact coefficient of x^e1 y^e2 q^qexp; the spinor must be in the xy basis."""
        if self.basis is not BasisTag.XY:
            raise BasisMismatchError("coefficient_of expects an xy-basis spinor")
        poly = self.terms.get((e1, e2))
        if poly is None:
            return ZERO
        return poly.coefficient(qexp)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Spinor):
            return NotImplemented
        return self.basis is other.basis and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.basis, frozenset(self.terms.items())))

    # ---- basis change ----

    def change_basis(self, target: BasisTag) -> "Spinor":
        if not isinstance(target, BasisTag):
            raise TypeError(f"change_basis needs a BasisTag, got {target!r}")
        if target is self.basis:
            return self
        images = substitute(SUBSTITUTION[self.basis][0], self.terms)
        parts: dict = {}  # target key -> [(scalar, poly)]
        for key, poly in self.terms.items():
            for target_key, scalar in images[key].items():
                parts.setdefault(target_key, []).append((scalar, poly))
        return Spinor(target, {key: QPoly.combination(ps) for key, ps in parts.items()})

    # ---- serialization ----

    def to_json(self) -> dict:
        terms = []
        for (e1, e2) in sorted(self.terms):
            terms.append({"e1": e1, "e2": e2, "q": self.terms[(e1, e2)].to_json()})
        return {"basis": self.basis.value, "terms": terms}

    @staticmethod
    def from_json(data) -> "Spinor":
        if not isinstance(data, dict):
            raise ValueError("spinor JSON must be an object")
        try:
            basis = BasisTag(data.get("basis"))
        except ValueError:
            raise ValueError("basis: expected 'xy' or 'zzbar'") from None
        raw_terms = data.get("terms")
        if not isinstance(raw_terms, list):
            raise ValueError("terms: expected a list")
        terms: dict = {}
        for idx, item in enumerate(raw_terms):
            where = f"terms[{idx}]"
            if not isinstance(item, dict):
                raise ValueError(f"{where}: expected an object")
            e1, e2 = item.get("e1"), item.get("e2")
            for name, val in (("e1", e1), ("e2", e2)):
                if not isinstance(val, int) or isinstance(val, bool) or val < 0:
                    raise ValueError(f"{where}.{name}: expected a nonnegative integer")
            poly = QPoly.from_json(item.get("q"), where=f"{where}.q")
            key = (e1, e2)
            prev = terms.get(key)
            terms[key] = poly if prev is None else prev + poly
        return Spinor(basis, terms)

    # ---- rendering (the weight reappears only here) ----

    def _render(self, style: _Style) -> str:
        if not self.terms:
            return "0"
        names = (GENERATOR_LATEX if style is _LATEX else GENERATOR_NAMES)[self.basis]
        terms = ((p, _write_product(style, names, key)) for key, p in sorted(self.terms.items()))
        return f"{style.weight}{style.left}{_write_sum(style, terms)}{style.right}"

    def __repr__(self) -> str:
        return f"<Spinor {self.basis.value}: {self}>"
