"""Normal-ordered operators in the rank-2-plus-q Weyl algebra.

A WeylOperator is a finite sum of normal-ordered monomials

    P1^a P2^b q^c D1^d D2^e Dq^f

where (P1, P2) are the two position generators of the tagged basis
(x, y or z, zbar), (D1, D2) the matching partial derivatives, and
(q, Dq) the extra conjugate pair. Each pair obeys [D, P] = 1, every
other pair of generators commutes. Normal order keeps all positions
to the left of all derivatives, so the dict of monomials is a
canonical form and equality is structural.

Operators act on weight-stripped Spinor data: the stored polynomial p
stands for e^{-q^2/2} * p, so Dq acts on stored data as (d/dq - q).

The basis change, for operators and spinors alike, is one substitution of
linear forms (SUBSTITUTION): positions to positions, derivatives to
derivatives, q and Dq fixed, so images need no reordering.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from functools import lru_cache
from math import comb, perm
from typing import Mapping, Tuple

from .exactnum import _EXPR, _LATEX, I, ONE, ZERO, GaussianRational, ScalarLike, _Style, _Value
from .exactnum import _make, _write_product, _write_sum

Monomial = Tuple[int, int, int, int, int, int]  # (p1, p2, q, d1, d2, dq)


class BasisTag(Enum):
    XY = "xy"
    ZZBAR = "zzbar"


class BasisMismatchError(ValueError):
    """Raised when two objects tagged with different bases are combined."""


def _require_same_basis(a, b) -> None:
    """The one basis rule: operators and spinors combine only in one basis."""
    if a.basis is not b.basis:
        raise BasisMismatchError(f"bases differ: {a.basis.value} vs {b.basis.value}")


# Generator names in monomial slot order; the parser and the spinor
# renderings read these tables, so names live only here.
GENERATOR_NAMES = {
    BasisTag.XY: ("x", "y", "q", "dx", "dy", "dq"),
    BasisTag.ZZBAR: ("z", "zbar", "q", "dz", "dzbar", "dq"),
}

GENERATOR_LATEX = {
    BasisTag.XY: ("x", "y", "q", "\\partial_x", "\\partial_y", "\\partial_q"),
    BasisTag.ZZBAR: (
        "z",
        "\\bar{z}",
        "q",
        "\\partial_z",
        "\\partial_{\\bar{z}}",
        "\\partial_q",
    ),
}


def _clean_terms(terms: Mapping[Monomial, GaussianRational]) -> dict:
    out = {}
    for mono, coeff in terms.items():
        if len(mono) != 6 or any((not isinstance(e, int)) or e < 0 for e in mono):
            raise ValueError(f"bad monomial exponent tuple {mono!r}")
        c = GaussianRational.coerce(coeff)
        if not c.is_zero():
            out[tuple(mono)] = c
    return out


MAX_OPERATOR_DEGREE = 128  # total degree of a product's monomials
MAX_COMPOSE_TERMS = 20_000  # terms of one composition before like terms merge


def _degree(op: "WeylOperator") -> int:
    return max(map(sum, op.terms), default=0)


def _check_degree(degree: int) -> None:
    if degree > MAX_OPERATOR_DEGREE:
        raise ValueError(f"product reaches degree {degree}, above {MAX_OPERATOR_DEGREE}")


@lru_cache(maxsize=1 << 12)  # bounded: one entry per (d, a) ever composed
def _contractions(d: int, a: int) -> tuple:
    """D^d P^a = sum of w * P^(a-j) D^(d-j) over the (j, w) listed, w = C(d,j) C(a,j) j!."""
    return tuple((j, comb(d, j) * perm(a, j)) for j in range(min(d, a) + 1))


class WeylOperator(_Value):
    __slots__ = ("basis", "terms", "_plan", "_hash")

    def __init__(self, basis: BasisTag, terms: Mapping[Monomial, GaussianRational]):
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", _clean_terms(terms))
        object.__setattr__(self, "_plan", None)  # spinor._plan builds it on first use
        object.__setattr__(self, "_hash", None)  # __hash__ computes it on the first call

    # ---- constructors ----

    @staticmethod
    def zero(basis: BasisTag) -> "WeylOperator":
        return WeylOperator(basis, {})

    @staticmethod
    def identity(basis: BasisTag) -> "WeylOperator":
        return WeylOperator(basis, {(0, 0, 0, 0, 0, 0): GaussianRational(1)})

    @staticmethod
    def scalar(basis: BasisTag, value: ScalarLike) -> "WeylOperator":
        return WeylOperator(basis, {(0, 0, 0, 0, 0, 0): GaussianRational.coerce(value)})

    @staticmethod
    def generator(basis: BasisTag, name: str) -> "WeylOperator":
        names = GENERATOR_NAMES[basis]
        if name not in names:
            raise ValueError(f"unknown generator {name!r} for basis {basis.value}")
        mono = [0] * 6
        mono[names.index(name)] = 1
        return WeylOperator(basis, {tuple(mono): GaussianRational(1)})

    # ---- linear structure ----

    def __add__(self, other) -> "WeylOperator":
        if not isinstance(other, WeylOperator):
            other = WeylOperator.scalar(self.basis, other)
        _require_same_basis(self, other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = terms.get(mono)
            terms[mono] = coeff if acc is None else acc + coeff
        return WeylOperator(self.basis, terms)

    __radd__ = __add__

    def __sub__(self, other) -> "WeylOperator":
        if not isinstance(other, WeylOperator):
            other = WeylOperator.scalar(self.basis, other)
        return self + (-other)

    def __neg__(self) -> "WeylOperator":
        return WeylOperator(self.basis, {m: -c for m, c in self.terms.items()})

    def scale(self, value: ScalarLike) -> "WeylOperator":
        v = GaussianRational.coerce(value)
        return WeylOperator(self.basis, {m: c * v for m, c in self.terms.items()})

    # ---- multiplication (normal-ordered composition) ----

    def __mul__(self, other) -> "WeylOperator":
        if isinstance(other, WeylOperator):
            return self.compose(other)
        return self.scale(other)

    def __rmul__(self, other) -> "WeylOperator":
        # scalars commute with everything, so this only sees ScalarLike
        return self.scale(other)

    def compose(self, other: "WeylOperator") -> "WeylOperator":
        """self applied after other, reduced to normal order.

        Raises ValueError, before any work, past MAX_OPERATOR_DEGREE or MAX_COMPOSE_TERMS.
        """
        _require_same_basis(self, other)
        _check_degree(_degree(self) + _degree(other))
        if self._compose_terms(other, MAX_COMPOSE_TERMS) > MAX_COMPOSE_TERMS:
            raise ValueError(f"product needs more than {MAX_COMPOSE_TERMS} terms")
        terms: dict = {}
        for m1, c1 in self.terms.items():
            a1, b1, q1, d1, e1, f1 = m1
            for m2, c2 in other.terms.items():
                a2, b2, q2, d2, e2, f2 = m2
                base = c1 * c2
                # move each derivative block of m1 past the matching position block of m2
                for j1, w1 in _contractions(d1, a2):
                    for j2, w2 in _contractions(e1, b2):
                        for j3, w3 in _contractions(f1, q2):
                            mono = (
                                a1 + a2 - j1,
                                b1 + b2 - j2,
                                q1 + q2 - j3,
                                d1 + d2 - j1,
                                e1 + e2 - j2,
                                f1 + f2 - j3,
                            )
                            add = base * (w1 * w2 * w3)
                            acc = terms.get(mono)
                            terms[mono] = add if acc is None else acc + add
        return WeylOperator(self.basis, terms)

    def _compose_terms(self, other: "WeylOperator", stop: int) -> int:
        """Terms compose(other) makes before like terms merge, counted up to past stop."""
        made = 0
        for m1 in self.terms:
            d1, e1, f1 = m1[3:]
            for m2 in other.terms:
                made += (len(_contractions(d1, m2[0])) * len(_contractions(e1, m2[1]))
                         * len(_contractions(f1, m2[2])))
            if made > stop:
                break
        return made

    def _walk(self, n: int):
        """Yield self^0, self^1, ..., self^n: one compose per step from the one before.

        self^k has degree k * deg(self), so a walk that compose would refuse at some step
        is refused before its first; a degree-0 self walks at most MAX_OPERATOR_DEGREE steps.
        """
        if not isinstance(n, int) or n < 0:
            raise ValueError("operator power needs a nonnegative integer exponent")
        d = _degree(self)
        if d:
            _check_degree(d * min(n, MAX_OPERATOR_DEGREE // d + 1))
        elif n > MAX_OPERATOR_DEGREE:
            raise ValueError(f"degree-0 power has exponent {n}, above {MAX_OPERATOR_DEGREE}")
        power = WeylOperator.identity(self.basis)
        yield power
        for _ in range(n):
            power = power.compose(self)
            yield power

    def powers(self, n: int) -> list:
        """[self^0, self^1, ..., self^n], every step of the walk."""
        return list(self._walk(n))

    def __pow__(self, exponent: int) -> "WeylOperator":
        return deque(self._walk(exponent), maxlen=1)[0]  # keeps only the current power

    def commutator(self, other: "WeylOperator") -> "WeylOperator":
        return self.compose(other) - other.compose(self)

    # ---- basis change ----

    def change_basis(self, target: BasisTag) -> "WeylOperator":
        """Apply the linear substitution between x,y and z,zbar generators.

        z = x + iy, zbar = x - iy, dx = dz + dzbar, dy = i(dz - dzbar);
        the map is an algebra homomorphism and the two directions are
        mutually inverse.
        """
        if not isinstance(target, BasisTag):
            raise TypeError(f"change_basis needs a BasisTag, got {target!r}")
        if target is self.basis:
            return self
        positions, derivatives = SUBSTITUTION[self.basis]
        pos = substitute(positions, {m[:2] for m in self.terms})
        der = substitute(derivatives, {m[3:5] for m in self.terms})
        terms: dict = {}
        for (a, b, c, d, e, f), coeff in self.terms.items():
            for (a2, b2), pc in pos[a, b].items():
                pc = coeff * pc
                for (d2, e2), dc in der[d, e].items():
                    m = (a2, b2, c, d2, e2, f)
                    terms[m] = terms.get(m, ZERO) + pc * dc
        return WeylOperator(target, terms)

    # ---- action on spinors ----

    def apply(self, spinor):
        """Act on a weight-stripped Spinor (Dq acts as d/dq - q)."""
        from .spinor import _act

        _require_same_basis(self, spinor)
        return _act(self, spinor)

    # ---- structure / rendering ----

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylOperator):
            return NotImplemented
        return self.basis is other.basis and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.basis, frozenset(self.terms.items()))))
        return self._hash

    def _render(self, style: _Style) -> str:
        names = (GENERATOR_LATEX if style is _LATEX else GENERATOR_NAMES)[self.basis]
        terms = ((c, _write_product(style, names, m)) for m, c in sorted(self.terms.items()))
        return _write_sum(style, terms)

    def __str__(self) -> str:
        # 2*i, not 2i: stays within the expression grammar, so str(op) reparses to op
        return self._render(_EXPR)

    def __repr__(self) -> str:
        return f"<WeylOperator {self.basis.value}: {self}>"


# source basis -> (images of its positions, images of its derivatives) in the other
# basis; the image (u, v) of a generator is u*T1 + v*T2 in the target positions or
# derivatives (T1, T2). So x = (z + zbar)/2, dx = dz + dzbar, z = x + i*y, ...
_HALF = _make(1, 0, 2)
SUBSTITUTION = {
    BasisTag.XY: (((_HALF, _HALF), (-I * _HALF, I * _HALF)), ((ONE, ONE), (I, -I))),
    BasisTag.ZZBAR: (((ONE, I), (ONE, -I)), ((_HALF, -I * _HALF), (_HALF, I * _HALF))),
}


def substitute(forms, keys) -> dict:
    """{(a, b): image of P1^a P2^b} for each (a, b) in keys, with P1, P2 -> forms.

    The target pair (T1, T2) commutes, so each image is a plain polynomial
    {(a', b'): coefficient}, highest power of T1 first, zero terms dropped.
    """
    images = {}
    for a, b in keys:
        # entry k of a row: the coefficient of T1^k T2^(n-k) in (u*T1 + v*T2)^n
        rows = [[u**k * v ** (n - k) * comb(n, k) for k in range(n + 1)]
                for (u, v), n in zip(forms, (a, b))]
        coeffs = [ZERO] * (a + b + 1)  # coeffs[k]: coefficient of T1^k T2^(a+b-k)
        for i, x in enumerate(rows[0]):
            for j, y in enumerate(rows[1]):
                coeffs[i + j] += x * y
        images[a, b] = {(k, a + b - k): coeffs[k] for k in reversed(range(a + b + 1)) if coeffs[k]}
    return images
