"""Builders for the distinguished operators and the name registry.

Each operator is parsed from its defining expression in the xy basis;
casimir and ds_squared are composed from registry entries (ds_squared
natively in zzbar, where its closed form lives). The registry hands out
any of them in either basis via change_basis, built once; the package,
composites included, reads operators only through named_operator, so a
rebound registry entry reaches every user. Each build_* call builds afresh.
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
    rho_x, rho_y, rho_h = (named_operator(name) for name in ("rhoX", "rhoY", "rhoH"))
    return (
        rho_h * rho_h
        + WeylOperator.identity(BasisTag.XY)
        + (rho_x * rho_y).scale(2)
        + (rho_y * rho_x).scale(2)
    )


def build_ds_squared() -> WeylOperator:
    """D_s composed with itself, in the zzbar basis where it is block-diagonal."""
    ds_z = named_operator("ds", BasisTag.ZZBAR)
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


# Values derived from registry operators (the operators here, and kernels' ladder scale):
# (name, basis) -> (the _BUILDERS values it was made under, value). Rebinding any entry
# (a test double, a tracer) rebuilds and replaces every value made from it, composites too.
_BUILT: dict = {}


def _get_or_build(name: str, basis: BasisTag, build):
    """The value cached for name in basis under the current builders, made by build()."""
    builders = tuple(_BUILDERS.values())
    entry = _BUILT.get((name, basis))
    if entry is None or entry[0] != builders:
        entry = _BUILT[name, basis] = (builders, build())
    return entry[1]


def operator_names() -> list[str]:
    return sorted(_BUILDERS)


def named_operator(name: str, basis: BasisTag = BasisTag.XY) -> WeylOperator:
    """Look up a distinguished operator by registry name, in the requested basis.

    Operators are immutable, so each (name, basis) is built once and shared.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown operator {name!r}; known: {', '.join(operator_names())}"
        ) from None
    return _get_or_build(name, basis, lambda: builder().change_basis(basis))
