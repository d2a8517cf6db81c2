"""Builders for the distinguished operators and the name registry.

Each operator is parsed from its defining expression in the xy basis;
casimir and ds_squared are composed from those (ds_squared natively in
zzbar, where its closed form lives). The registry hands out any of them
in either basis via change_basis, built once; the rest of the package
reads operators only through named_operator, so a rebound registry entry
reaches every user. Each build_* call builds afresh.
"""

from __future__ import annotations

from .parsing import _Parser  # not parse_operator, whose traced calls count user input
from .weyl import BasisTag, WeylOperator


def build_xs() -> WeylOperator:
    """Raising operator X_s."""
    return _Parser("y*dq + i*x*q").parse()


def build_ds() -> WeylOperator:
    """Symplectic Dirac operator D_s."""
    return _Parser("i*q*dy - dx*dq").parse()


def build_euler() -> WeylOperator:
    """Degree operator E in the two positions."""
    return _Parser("x*dx + y*dy").parse()


def build_ts_reduced() -> WeylOperator:
    """First twistor component."""
    return _Parser("dx - q*dq*dx + i*q^2*dy").parse()


def build_ts_component2() -> WeylOperator:
    """Second twistor component."""
    return _Parser("2*dy + i*dq^2*dx + q*dq*dy").parse()


def build_rho_x() -> WeylOperator:
    """rhoX of the mp(2) action; '/' joins integer literals only, hence 1/2*i."""
    return _Parser("-y*dx - 1/2*i*q^2").parse()


def build_rho_y() -> WeylOperator:
    """rhoY of the mp(2) action."""
    return _Parser("-x*dy - 1/2*i*dq^2").parse()


def build_rho_h() -> WeylOperator:
    """rhoH of the mp(2) action."""
    return _Parser("-x*dx + y*dy + q*dq + 1/2").parse()


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


# Values derived from registry operators: (builder, basis) -> operator here, and
# kernels' ladder scale. Keys hold the builder objects, so an entry of _BUILDERS
# that is rebound (a test double, a tracer) starts with no cached value.
_BUILT: dict = {}


def _get_or_build(key, build):
    """The value cached under key, made by build() on first use."""
    value = _BUILT.get(key)
    if value is None:
        value = _BUILT[key] = build()
    return value


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
    return _get_or_build((builder, basis), lambda: builder().change_basis(basis))
