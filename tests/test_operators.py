from fractions import Fraction

import pytest

from symtwistor.exactnum import G, I
from symtwistor.operators import (
    build_casimir,
    build_ds,
    build_ds_squared,
    build_euler,
    build_rho_h,
    build_rho_x,
    build_rho_y,
    build_ts_component2,
    build_ts_reduced,
    build_xs,
    named_operator,
    operator_names,
)
from symtwistor.parsing import parse_operator
from symtwistor.spinor import QPoly, Spinor
from symtwistor.weyl import BasisTag, WeylOperator

XY, ZZ = BasisTag.XY, BasisTag.ZZBAR


def test_registry_is_complete_and_sorted():
    assert operator_names() == [
        "casimir",
        "ds",
        "ds2",
        "euler",
        "rhoH",
        "rhoX",
        "rhoY",
        "ts",
        "ts2",
        "xs",
    ]


def test_named_operator_rejects_unknown():
    with pytest.raises(KeyError) as exc:
        named_operator("dirac")
    assert "xs" in str(exc.value)  # error lists the known names


def test_named_operator_basis_choice():
    assert named_operator("xs") == build_xs()
    assert named_operator("xs", ZZ) == build_xs().change_basis(ZZ)


def test_builders_match_their_defining_expressions():
    assert build_xs() == parse_operator("y*dq + i*x*q")
    assert build_ds() == parse_operator("i*q*dy - dx*dq")
    assert build_euler() == parse_operator("x*dx + y*dy")
    assert build_ts_reduced() == parse_operator("dx - q*dq*dx + i*q^2*dy")
    assert build_ts_component2() == parse_operator("2*dy + i*dq^2*dx + q*dq*dy")
    assert build_rho_x() == parse_operator("-y*dx - 1/2*i*q^2")
    assert build_rho_y() == parse_operator("-x*dy - 1/2*i*dq^2")
    assert build_rho_h() == parse_operator("-x*dx + y*dy + q*dq + 1/2")


def test_parsed_builders_equal_their_generator_compositions():
    def g(name):
        return WeylOperator.generator(XY, name)

    half_i = G(0, Fraction(1, 2))
    assert build_xs() == g("y") * g("dq") + (g("x") * g("q")).scale(I)
    assert build_ds() == (g("q") * g("dy")).scale(I) - g("dx") * g("dq")
    assert build_euler() == g("x") * g("dx") + g("y") * g("dy")
    assert build_ts_reduced() == (
        g("dx") - g("q") * g("dq") * g("dx") + (g("q") ** 2 * g("dy")).scale(I)
    )
    assert build_ts_component2() == (
        g("dy").scale(2) + (g("dq") ** 2 * g("dx")).scale(I) + g("q") * g("dq") * g("dy")
    )
    assert build_rho_x() == -(g("y") * g("dx")) - (g("q") ** 2).scale(half_i)
    assert build_rho_y() == -(g("x") * g("dy")) - (g("dq") ** 2).scale(half_i)
    assert build_rho_h() == (
        -(g("x") * g("dx")) + g("y") * g("dy") + g("q") * g("dq") + Fraction(1, 2)
    )


def test_casimir_is_composed_from_rho_generators():
    h, x, y = build_rho_h(), build_rho_x(), build_rho_y()
    want = h.compose(h) + 1 + x.compose(y).scale(2) + y.compose(x).scale(2)
    assert build_casimir() == want


def test_ds_squared_is_ds_composed_with_itself():
    ds_z = build_ds().change_basis(ZZ)
    assert build_ds_squared() == ds_z.compose(ds_z)
    assert build_ds_squared().basis is ZZ


def test_all_named_operators_resolve_in_both_bases():
    for name in operator_names():
        op_xy = named_operator(name, XY)
        op_zz = named_operator(name, ZZ)
        assert op_xy.basis is XY and op_zz.basis is ZZ
        assert op_xy.change_basis(ZZ) == op_zz


def _raise_twice(shift):
    xs = build_xs()
    s = Spinor.monomial(XY, 0, 0, QPoly.monomial(shift))
    return xs.apply(xs.apply(s))


def test_second_twistor_component_on_raised_constants():
    # frozen values, computed independently by normal-ordered application
    out = build_ts_component2().apply(_raise_twice(0))
    assert out == Spinor(
        XY,
        {(1, 0): QPoly([G(0, -2), G(0), I]), (0, 1): QPoly([1, 0, -1])},
    )
    out_odd = build_ts_component2().apply(_raise_twice(1))
    assert out_odd == Spinor(
        XY,
        {(1, 0): QPoly([0, G(0, -3), 0, I]), (0, 1): QPoly([0, 3, 0, -1])},
    )


def test_euler_measures_homogeneity():
    s = Spinor(XY, {(2, 1): QPoly([1, 2]), (1, 2): QPoly([5])})
    assert build_euler().apply(s) == s.scale(3)


def test_rho_h_scalar_shift():
    # on a q-free homogeneous spinor of degree l, rhoH acts as
    # -x dx + y dy plus the constant q dq contribution -q^2 and 1/2
    s = Spinor.monomial(XY, 0, 2, QPoly([1]))
    out = build_rho_h().apply(s)
    assert out == Spinor(XY, {(0, 2): QPoly([Fraction(5, 2), 0, -1])})


def test_named_operator_is_built_once_per_basis():
    assert named_operator("xs", ZZ) is named_operator("xs", ZZ)
    assert named_operator("xs", XY) is not named_operator("xs", ZZ)


def test_rebound_registry_entry_is_built_on_the_next_lookup(monkeypatch):
    from symtwistor import operators

    calls = []

    def doubled_xs():
        calls.append(1)
        return build_xs().scale(2)

    named_operator("xs", ZZ)
    monkeypatch.setitem(operators._BUILDERS, "xs", doubled_xs)
    assert named_operator("xs", ZZ) == build_xs().change_basis(ZZ).scale(2)
    assert named_operator("xs", ZZ) is named_operator("xs", ZZ)
    assert calls == [1]
    monkeypatch.undo()
    assert named_operator("xs", ZZ) == build_xs().change_basis(ZZ)


def test_rebinding_a_builder_replaces_the_values_cached_under_the_old_one(monkeypatch):
    from symtwistor import kernels, operators

    monkeypatch.setattr(operators, "_BUILT", {})
    sizes = []
    for _ in range(3):
        genuine = operators._BUILDERS["xs"]
        monkeypatch.setitem(operators._BUILDERS, "xs", lambda genuine=genuine: genuine())
        named_operator("xs")
        named_operator("ds")
        kernels.ladder_constant(0, 1)
        sizes.append(len(operators._BUILT))
    # xs, ds, and the ladder scale with the euler operator it reads; no stale entries
    assert sizes == [4, 4, 4]


def test_named_operator_rejects_a_basis_that_is_not_a_basis_tag():
    # unchecked, "xy" is not BasisTag.XY: X_s would come back in zzbar terms tagged "xy"
    with pytest.raises(TypeError, match="needs a BasisTag"):
        named_operator("xs", "xy")
