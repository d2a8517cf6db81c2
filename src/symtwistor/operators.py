"""Builders for the distinguished operators and the name registry.

Everything is constructed in the xy basis exactly as normal-ordered
combinations of generators (ds_squared natively in zzbar, where its
closed form lives); the registry hands out any of them in either basis
via change_basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import GaussianRational
from .weyl import BasisTag, WeylOperator

_I = GaussianRational(0, 1)
_HALF = GaussianRational(Fraction(1, 2))


def _gen(name: str) -> WeylOperator:
    return WeylOperator.generator(BasisTag.XY, name)


def build_xs() -> WeylOperator:
    """Raising operator y*dq + i*x*q."""
    return _gen("y") * _gen("dq") + (_gen("x") * _gen("q")).scale(_I)


def build_ds() -> WeylOperator:
    """Symplectic Dirac operator i*q*dy - dx*dq."""
    return (_gen("q") * _gen("dy")).scale(_I) - _gen("dx") * _gen("dq")


def build_euler() -> WeylOperator:
    """Degree operator x*dx + y*dy in the two positions."""
    return _gen("x") * _gen("dx") + _gen("y") * _gen("dy")


def build_ts_reduced() -> WeylOperator:
    """First twistor component dx - q*dq*dx + i*q^2*dy."""
    return (
        _gen("dx")
        - _gen("q") * _gen("dq") * _gen("dx")
        + (_gen("q") ** 2 * _gen("dy")).scale(_I)
    )


def build_ts_component2() -> WeylOperator:
    """Second twistor component 2*dy + i*dq^2*dx + q*dq*dy."""
    return (
        _gen("dy").scale(2)
        + (_gen("dq") ** 2 * _gen("dx")).scale(_I)
        + _gen("q") * _gen("dq") * _gen("dy")
    )


@dataclass(frozen=True)
class TwistorPair:
    comp1: WeylOperator
    comp2: WeylOperator


def build_ts_full() -> TwistorPair:
    return TwistorPair(build_ts_reduced(), build_ts_component2())


def build_rho_x() -> WeylOperator:
    """-y*dx - (i/2)*q^2."""
    return -(_gen("y") * _gen("dx")) - (_gen("q") ** 2).scale(_I * _HALF)


def build_rho_y() -> WeylOperator:
    """-x*dy - (i/2)*dq^2."""
    return -(_gen("x") * _gen("dy")) - (_gen("dq") ** 2).scale(_I * _HALF)


def build_rho_h() -> WeylOperator:
    """-x*dx + y*dy + q*dq + 1/2."""
    return (
        -(_gen("x") * _gen("dx"))
        + _gen("y") * _gen("dy")
        + _gen("q") * _gen("dq")
        + WeylOperator.scalar(BasisTag.XY, _HALF)
    )


def build_casimir() -> WeylOperator:
    """rhoH^2 + 1 + 2*rhoX*rhoY + 2*rhoY*rhoX, composed exactly."""
    rho_x, rho_y, rho_h = build_rho_x(), build_rho_y(), build_rho_h()
    return (
        rho_h * rho_h
        + WeylOperator.identity(BasisTag.XY)
        + (rho_x * rho_y).scale(2)
        + (rho_y * rho_x).scale(2)
    )


def build_ds_squared() -> WeylOperator:
    """D_s composed with itself, in the zzbar basis where it is block-diagonal."""
    ds_z = build_ds().change_basis(BasisTag.ZZBAR)
    return ds_z.compose(ds_z)


_BUILDERS = {
    "xs": build_xs,
    "ds": build_ds,
    "ts": build_ts_reduced,
    "ts2": build_ts_component2,
    "euler": build_euler,
    "rhoX": build_rho_x,
    "rhoY": build_rho_y,
    "rhoH": build_rho_h,
    "casimir": build_casimir,
    "ds2": build_ds_squared,
}


# (builder, basis) -> operator. Keyed on the builder object, so an entry of
# _BUILDERS that is rebound (a test double, a tracer) starts with no cached value.
_BUILT: dict = {}


def operator_names() -> list[str]:
    return sorted(_BUILDERS)


def named_operator(name: str, basis: BasisTag = BasisTag.XY) -> WeylOperator:
    """Look up a distinguished operator by registry name, in the requested basis.

    Operators are immutable, so each (builder, basis) is built once and shared.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown operator {name!r}; known: {', '.join(operator_names())}"
        ) from None
    op = _BUILT.get((builder, basis))
    if op is None:
        op = _BUILT[(builder, basis)] = builder().change_basis(basis)
    return op
