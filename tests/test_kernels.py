import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtwistor import kernels as kernels_mod
from symtwistor.exactnum import G, MINUS_I
from symtwistor.kernels import (
    HoweComponent,
    NonHomogeneousError,
    ParityMismatchError,
    RecursionKind,
    exclusion_formula,
    holomorphic_family_check,
    holomorphic_family_member,
    howe_decompose,
    kernel_linear_solve,
    ladder_constant,
    linear_combination,
    monogenic_minus,
    monogenic_plus,
    nullspace,
    operator_for_kind,
    raising_chain,
    rank,
    ratio_at_leading,
    reassemble,
    recursion_span,
    scalar_action,
    spinor_columns,
    solve_recursion,
    twistor_kernel_basis,
    verify_exclusion,
)
from symtwistor.operators import named_operator
from symtwistor.spinor import EVEN, ODD, QPoly, Spinor
from symtwistor.weyl import BasisTag

XY, ZZ = BasisTag.XY, BasisTag.ZZBAR


# ---- recursion kinds ----


def test_kind_parse_and_properties():
    kind = RecursionKind.parse("ds2/odd")
    assert kind is RecursionKind.DS2_ODD
    assert kind.operator_name == "ds2"
    assert kind.parity == ODD
    assert kind.second_order
    assert RecursionKind.DS_EVEN.parity == EVEN
    assert not RecursionKind.TS_ODD.second_order
    with pytest.raises(ValueError):
        RecursionKind.parse("ds/mixed")


def test_operator_for_kind_lives_in_zzbar():
    for kind in RecursionKind:
        assert operator_for_kind(kind).basis is ZZ


# ---- recursion solver ----


def test_solver_preconditions():
    with pytest.raises(ValueError):
        solve_recursion(RecursionKind.DS_ODD, 1, QPoly([1]), 3)  # odd qmax
    with pytest.raises(ValueError):
        solve_recursion(RecursionKind.DS_ODD, 2, QPoly([1]), 4)  # below 2m+2
    with pytest.raises(ParityMismatchError):
        solve_recursion(RecursionKind.DS_ODD, 1, QPoly([0, 1]), 4)
    with pytest.raises(ValueError):
        solve_recursion(RecursionKind.DS_ODD, 1, QPoly.monomial(6), 4)


def test_ds_odd_unit_seed_is_determined():
    fam = solve_recursion(RecursionKind.DS_ODD, 1, QPoly([1]), 4)
    assert fam.free_parameters == ()
    assert len(fam.basis) == 1
    assert fam.extends_beyond_truncation == (False,)
    assert fam.basis[0] == monogenic_minus(1)
    assert fam.kind is RecursionKind.DS_ODD
    assert fam.homogeneity == 1


def test_ds_even_free_parameter_slot():
    fam = solve_recursion(RecursionKind.DS_EVEN, 1, QPoly([1]), 4)
    assert fam.free_parameters == ("a[r=1,k=0]",)
    assert len(fam.basis) == 2
    assert fam.extends_beyond_truncation == (False, False)
    op = operator_for_kind(RecursionKind.DS_EVEN)
    for element in fam.basis:
        assert op.apply(element).is_zero()


def test_truncation_artifact_is_flagged_not_failed():
    # seed degree forces the solution past the window, so the residual
    # lives entirely at q-degrees >= qmax
    fam = solve_recursion(RecursionKind.DS_EVEN, 1, QPoly.monomial(6), 6)
    assert fam.extends_beyond_truncation[0] is True
    op = operator_for_kind(RecursionKind.DS_EVEN)
    residual = op.apply(fam.basis[0])
    assert not residual.is_zero()
    assert residual.min_q_degree() >= 6


def test_zero_seed_yields_only_free_elements():
    fam = solve_recursion(RecursionKind.DS_ODD, 2, QPoly([]), 6)
    assert fam.basis == ()
    fam2 = solve_recursion(RecursionKind.DS_EVEN, 2, QPoly([]), 6)
    assert len(fam2.basis) == len(fam2.free_parameters) == 2


def test_second_order_free_structure():
    fam = solve_recursion(RecursionKind.DS2_EVEN, 2, QPoly([]), 8)
    # whole first row is free, plus the k=0 slot of each later row
    assert "a[r=1,k=0]" in fam.free_parameters
    assert "a[r=2,k=0]" in fam.free_parameters
    op = operator_for_kind(RecursionKind.DS2_EVEN)
    for element, truncated in zip(fam.basis, fam.extends_beyond_truncation):
        residual = op.apply(element)
        if truncated:
            assert residual.min_q_degree() >= 8
        else:
            assert residual.is_zero()


def _expected_free_slots(kind, m, qmax):
    """The slots no relation fixes above the seed row, in fill order."""
    if kind in (RecursionKind.DS_ODD, RecursionKind.TS_EVEN):
        return []
    if kind in (RecursionKind.DS_EVEN, RecursionKind.TS_ODD):
        return [(r, 0) for r in range(1, m + 1)]
    row1 = [(1, k) for k in range(0, qmax + 1, 2)] if m >= 1 else []
    return row1 + [(r, 0) for r in range(2, m + 1)]


@pytest.mark.parametrize("kind", list(RecursionKind))
def test_free_parameters_follow_the_slot_rule(kind):
    for m in range(6):
        for qmax in (2 * m + 2, 2 * m + 4):
            fam = solve_recursion(kind, m, QPoly([1]), qmax)
            want = tuple(f"a[r={r},k={k}]" for r, k in _expected_free_slots(kind, m, qmax))
            assert fam.free_parameters == want, (kind, m, qmax)


def _span_the_old_way(kind, m, qmax):
    """Zero seed plus every unit seed through solve_recursion, then the exact combinations."""
    op = operator_for_kind(kind)
    elements = list(solve_recursion(kind, m, QPoly(), qmax).basis)
    for j in range(0, qmax + 1, 2):
        family = solve_recursion(kind, m, QPoly.monomial(j), qmax)
        if family.basis:
            elements.append(family.basis[0])
    cols, n = spinor_columns([op.apply(el) for el in elements])
    return [linear_combination(vec, elements) for vec in nullspace(cols, n)]


@pytest.mark.parametrize("kind", list(RecursionKind))
def test_recursion_span_matches_unit_seed_construction(kind):
    op = operator_for_kind(kind)
    for m in range(4):
        qmax = 2 * m + 4
        span = recursion_span(kind, m, qmax)
        old = _span_the_old_way(kind, m, qmax)
        assert all(op.apply(s).is_zero() for s in span)
        cols, n = spinor_columns(span + old)
        assert rank(cols[: len(span)], n) == rank(cols[len(span):], n) == rank(cols, n), m
        assert rank(cols[: len(span)], n) == len(span)


@pytest.mark.parametrize("kind", list(RecursionKind))
def test_recursion_span_fills_once_per_input(kind, monkeypatch):
    calls = []
    genuine = kernels_mod._fill

    def counting(*args):
        calls.append(args)
        return genuine(*args)

    monkeypatch.setattr(kernels_mod, "_fill", counting)
    m, qmax = 3, 10
    recursion_span(kind, m, qmax)
    seed_row = qmax // 2 + 1
    assert len(calls) == seed_row + len(_expected_free_slots(kind, m, qmax))
    assert sorted(slot for *_, inputs in calls for slot in inputs) == sorted(
        [(0, k) for k in range(0, qmax + 1, 2)] + _expected_free_slots(kind, m, qmax)
    )


def test_family_json_shape():
    fam = solve_recursion(RecursionKind.DS_ODD, 0, QPoly([1]), 2)
    data = fam.to_json()
    assert data["kind"] == "ds/odd"
    assert data["homogeneity"] == 0
    assert data["qmax"] == 2
    assert data["free_parameters"] == []
    assert len(data["basis"]) == 1
    assert data["basis"][0]["extends_beyond_truncation"] is False
    assert data["basis"][0]["spinor"]["basis"] == "zzbar"


# ---- canonical generators ----


def test_monogenic_plus_shape():
    s = monogenic_plus(3)
    assert s == Spinor.monomial(ZZ, 3, 0, QPoly([1]))
    with pytest.raises(ValueError):
        monogenic_plus(-1)


def test_monogenic_minus_small():
    s = monogenic_minus(0)
    assert s == Spinor.monomial(ZZ, 0, 0, QPoly([0, 1]))
    ds_z = named_operator("ds", ZZ)
    for m in range(4):
        assert ds_z.apply(monogenic_minus(m)).is_zero()


def test_monogenic_minus_wider_window_is_same_element():
    assert monogenic_minus(2, qmax=10) == monogenic_minus(2)


def test_twistor_kernel_basis_m0():
    a, b = twistor_kernel_basis(0)
    assert a == Spinor.monomial(ZZ, 0, 0, QPoly([1]))
    assert b == Spinor.monomial(ZZ, 0, 0, QPoly([0, 1]))


def test_twistor_kernel_basis_parities():
    # raising flips stored q-parity: the plus preimage gives the odd
    # element, the minus preimage the even-branch displays
    from_plus, from_minus = twistor_kernel_basis(2)
    assert from_plus.parity() == ODD
    assert from_minus.parity() == EVEN
    assert from_plus.homogeneity() == from_minus.homogeneity() == 2


# ---- exclusion coefficients ----


def test_exclusion_known_value():
    assert exclusion_formula(2, 0) == 1
    assert verify_exclusion(2, 0) == 1
    # i^3 * -(3+2)(2)/2 = -i * -5 = 5i
    assert exclusion_formula(3, 1) == G(0, 5)
    assert verify_exclusion(3, 1) == G(0, 5)


# ---- ladder constants and peeling ----


def test_ladder_constant_values():
    assert ladder_constant(0, 1) == MINUS_I
    assert ladder_constant(2, 3) == G(0, -12)
    assert ladder_constant(1, 2) == G(0, -5)  # -i * 2 * (2 + 1/2)


def test_ladder_identity_brute_force():
    xs_z = named_operator("xs", ZZ)
    ds_z = named_operator("ds", ZZ)
    base = monogenic_minus(1)
    lifted = xs_z.apply(xs_z.apply(base))
    expected = xs_z.apply(base).scale(ladder_constant(1, 2))
    assert ds_z.apply(lifted) == expected


def test_howe_decompose_single_layer():
    base = monogenic_plus(2)
    comps = howe_decompose(base)
    assert len(comps) == 1
    assert comps[0] == HoweComponent(2, 0, base)


def test_howe_decompose_mixed_layers():
    xs_z = named_operator("xs", ZZ)
    s = xs_z.apply(monogenic_plus(1)) + monogenic_plus(2).scale(3)
    comps = howe_decompose(s)
    assert [(c.homogeneity, c.power) for c in comps] == [(2, 0), (1, 1)]
    assert comps[0].monogenic == monogenic_plus(2).scale(3)
    assert comps[1].monogenic == monogenic_plus(1)


def test_howe_decompose_zero_and_errors():
    assert howe_decompose(Spinor.zero(ZZ)) == []
    mixed = Spinor(ZZ, {(1, 0): QPoly([1]), (2, 0): QPoly([1])})
    with pytest.raises(NonHomogeneousError):
        howe_decompose(mixed)


def test_howe_decompose_works_in_xy_basis():
    s = Spinor.monomial(XY, 1, 0, QPoly([1]))
    comps = howe_decompose(s)
    recon = Spinor.zero(XY)
    xs = named_operator("xs")
    for c in comps:
        lifted = c.monogenic
        for _ in range(c.power):
            lifted = xs.apply(lifted)
        recon = recon + lifted
    assert recon == s
    assert [(c.homogeneity, c.power) for c in comps] == [(1, 0), (0, 1)]


def _recursion_depth() -> int:
    """The interpreter's current recursion depth, C-level calls included."""

    def descend(k):
        try:
            return descend(k + 1)
        except RecursionError:
            return k

    return sys.getrecursionlimit() - descend(0)


def test_howe_decompose_does_not_recurse_per_layer():
    # e^{-q^2/2} zbar^16 has a layer at every power 0..16. One layer needs
    # about 10 levels of headroom; a peel that recursed per layer would need
    # about 23 here, so 16 levels must do.
    s = Spinor.monomial(ZZ, 0, 16, [1])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_recursion_depth() + 16)
    try:
        comps = howe_decompose(s)
    finally:
        sys.setrecursionlimit(limit)
    assert [c.power for c in comps] == list(range(17))
    assert reassemble(comps, named_operator("xs", ZZ)) == s


@pytest.mark.parametrize("basis", [XY, ZZ])
def test_reassemble_treats_a_missing_power_as_zero(basis):
    m0 = Spinor.monomial(basis, 2, 0, [1, 0, 3])
    m2 = Spinor.monomial(basis, 0, 0, [0, G(0, 1)])
    comps = [HoweComponent(2, 0, m0), HoweComponent(0, 2, m2)]
    xs = named_operator("xs", basis)
    assert reassemble(comps, xs) == m0 + raising_chain(m2, 2)[-1]
    assert reassemble([], xs) == Spinor.zero(basis)


_small_gaussians = st.builds(G, st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def _homogeneous_spinors(draw):
    basis = draw(st.sampled_from([XY, ZZ]))
    l = draw(st.integers(0, 5))
    terms = {}
    for e1 in range(l + 1):
        poly = QPoly(draw(st.lists(_small_gaussians, max_size=4)))
        if not poly.is_zero():
            terms[(e1, l - e1)] = poly
    return Spinor(basis, terms)


@settings(max_examples=25, deadline=None)
@given(_homogeneous_spinors())
def test_howe_layers_are_monogenic_and_reassemble(s):
    comps = howe_decompose(s)
    powers = [c.power for c in comps]
    assert len(set(powers)) == len(powers)
    ds = named_operator("ds", s.basis)
    assert all(ds.apply(c.monogenic).is_zero() for c in comps)
    assert reassemble(comps, named_operator("xs", s.basis)) == s


# ---- linear-algebra oracle ----


def test_kernel_linear_solve_dimensions():
    ds_z = named_operator("ds", ZZ)
    assert len(kernel_linear_solve(ds_z, 0, 3).basis) == 4
    assert len(kernel_linear_solve(ds_z, 1, 5).basis) == 5
    assert len(kernel_linear_solve(ds_z, 2, 7).basis) == 6


def test_kernel_linear_solve_members_are_killed():
    ts_z = named_operator("ts", ZZ)
    fam = kernel_linear_solve(ts_z, 1, 5)
    assert fam.kind is None
    assert fam.free_parameters == ()
    assert all(not flag for flag in fam.extends_beyond_truncation)
    for element in fam.basis:
        assert ts_z.apply(element).is_zero()
        assert element.homogeneity() == 1
        assert (element.q_degree() or 0) <= 5


def test_kernel_linear_solve_parity_filter():
    ds_z = named_operator("ds", ZZ)
    fam = kernel_linear_solve(ds_z, 1, 5, parity=ODD)
    assert all(element.parity() == ODD for element in fam.basis)
    full = kernel_linear_solve(ds_z, 1, 5)
    assert len(fam.basis) < len(full.basis)
    # the canonical odd element lies in the computed span
    with_member = list(fam.basis) + [monogenic_minus(1)]
    cols, n = spinor_columns(with_member)
    assert rank(cols, n) == rank(cols[:-1], n)


# ---- shared spinor helpers ----


@pytest.mark.parametrize("basis", [XY, ZZ])
def test_raising_chain_applies_xs_once_per_step(basis):
    s = Spinor.monomial(basis, 1, 0, QPoly([1, 0, G(0, 2)]))
    assert raising_chain(s, 0) == [s]
    xs = named_operator("xs", basis)
    chain = raising_chain(s, 3)
    assert len(chain) == 4 and chain[0] == s
    for j in range(1, 4):
        assert chain[j] == xs.apply(chain[j - 1])
    with pytest.raises(ValueError):
        raising_chain(s, -1)


def test_linear_combination_of_unit_vector_is_that_spinor():
    spinors = [monogenic_plus(1), monogenic_minus(1), Spinor.monomial(ZZ, 0, 1, [0, 0, 3])]
    for i, s in enumerate(spinors):
        unit = [G(1) if j == i else G(0) for j in range(len(spinors))]
        assert linear_combination(unit, spinors) == s


def test_spinor_columns_nullspace_recovers_planted_dependency():
    a = monogenic_minus(2)
    b = Spinor.monomial(ZZ, 1, 1, [1, 0, G(0, 2)])
    c = a.scale(3) - b.scale(G(0, 1))  # 3a - i*b - c = 0
    cols, nrows = spinor_columns([a, b, c])
    assert nrows == 8  # support of a (6 coefficients) and b (2 more)
    (vec,) = nullspace(cols, nrows)
    assert vec == [G(-3), G(0, 1), G(1)]
    assert linear_combination(vec, [a, b, c]).is_zero()


def test_ratio_at_leading():
    b = monogenic_minus(2)
    c = G(Fraction(-3, 4), 2)
    assert ratio_at_leading(b.scale(c), b) == c
    # b leads at key (0, 2), power q^1: other terms of a do not count
    assert ratio_at_leading(b.scale(c) + Spinor.monomial(ZZ, 2, 0, [0, 5]), b) == c
    assert ratio_at_leading(monogenic_plus(2), b) == 0
    assert ratio_at_leading(b, Spinor.zero(ZZ)) is None


# ---- scalar action ----


def test_scalar_action_eigen_and_non_eigen():
    cas = named_operator("casimir", ZZ)
    for m in range(3):
        want = Fraction((2 * m + 1) ** 2, 4)
        assert scalar_action(cas, monogenic_plus(m)) == want
        assert scalar_action(cas, monogenic_minus(m)) == want
    xs_z = named_operator("xs", ZZ)
    assert scalar_action(xs_z, monogenic_plus(0)) is None
    ds_z = named_operator("ds", ZZ)
    assert scalar_action(ds_z, monogenic_plus(1)) == G(0)


def test_scalar_action_rejects_zero_spinor():
    cas = named_operator("casimir", ZZ)
    with pytest.raises(ValueError):
        scalar_action(cas, Spinor.zero(ZZ))


# ---- holomorphic family ----


def test_holomorphic_family_member_shape():
    s = holomorphic_family_member(2)
    assert s == Spinor.monomial(ZZ, 2, 0, QPoly([0, 1]))
    assert holomorphic_family_check(2)
    assert holomorphic_family_check(0)
