import hashlib
import json
import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtwistor import kernels as kernels_mod
from symtwistor.exactnum import G, MINUS_I, GaussianRational, _make
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
    reassemble,
    recursion_span,
    same_span,
    scalar_action,
    scalar_multiple,
    spinor_columns,
    solve_recursion,
    twistor_kernel_basis,
    verify_exclusion,
)
from symtwistor import operators, verify
from symtwistor.operators import build_ds, named_operator
from symtwistor.parsing import parse_operator
from symtwistor.spinor import EVEN, ODD, QPoly, Spinor, _unit_images
from symtwistor.weyl import BasisTag, WeylOperator

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
        assert same_span(span, old), m


@pytest.mark.parametrize("kind", list(RecursionKind))
def test_recursion_span_fills_once_per_input(kind, monkeypatch):
    """Over two seeded solves and two spans of one window, each input slot is
    filled once as a unit, and each nonzero seed once."""
    calls = []
    genuine = kernels_mod._fill

    def counting(*args):
        calls.append(args)
        return genuine(*args)

    monkeypatch.setattr(kernels_mod, "_fill", counting)
    kernels_mod._unit_fill.cache_clear()
    m, qmax = 3, 10
    seeds = [QPoly([1]), QPoly.monomial(4)]
    solve_recursion(kind, m, seeds[0], qmax)
    recursion_span(kind, m, qmax)
    recursion_span(kind, m, qmax)
    solve_recursion(kind, m, seeds[1], qmax)
    units = [inputs for *_, inputs in calls if len(inputs) == 1]
    assert len(calls) - len(units) == len(seeds)
    assert sorted(slot for inputs in units for slot in inputs) == sorted(
        [(0, k) for k in range(0, qmax + 1, 2)] + _expected_free_slots(kind, m, qmax)
    )


def test_free_elements_are_filled_and_applied_once_per_window(monkeypatch):
    kind, m, qmax = RecursionKind.DS2_EVEN, 5, 16
    seeds = [  # unitriangular: q^j plus rational lower even terms
        QPoly([Fraction(k + 1, j + 3) if k % 2 == 0 else 0 for k in range(j)] + [1])
        for j in range(0, qmax + 1, 2)
    ]
    assert len(seeds) == 9
    operator_for_kind(kind)  # built outside the count
    applies = []
    genuine = WeylOperator.apply

    def counting(self, spinor):
        applies.append(spinor)
        return genuine(self, spinor)

    kernels_mod._unit_fill.cache_clear()
    monkeypatch.setattr(WeylOperator, "apply", counting)
    families = [solve_recursion(kind, m, seed, qmax) for seed in seeds]
    assert len(applies) == len(_expected_free_slots(kind, m, qmax)) + len(seeds)
    monkeypatch.undo()
    for seed, family in zip(seeds, families):
        kernels_mod._unit_fill.cache_clear()
        fresh = solve_recursion(kind, m, seed, qmax)
        assert family.to_json() == fresh.to_json()
        assert family.free_parameters == fresh.free_parameters
        assert family.extends_beyond_truncation == fresh.extends_beyond_truncation


def test_unit_fill_cache_follows_a_rebound_registry_operator(monkeypatch):
    kind, m, qmax = RecursionKind.DS_EVEN, 2, 6
    span = recursion_span(kind, m, qmax)
    family = solve_recursion(kind, m, QPoly(), qmax)  # zero seed: free elements only
    assert family.free_parameters and not any(family.extends_beyond_truncation)
    monkeypatch.setitem(operators._BUILDERS, "ds", lambda: build_ds() + 1)
    # D_s + 1 leaves each fill itself as residual, far below the truncation boundary
    with pytest.raises(ArithmeticError, match="below the truncation boundary"):
        recursion_span(kind, m, qmax)
    with pytest.raises(ArithmeticError, match="below the truncation boundary"):
        solve_recursion(kind, m, QPoly(), qmax)
    monkeypatch.undo()
    assert recursion_span(kind, m, qmax) == span
    assert solve_recursion(kind, m, QPoly(), qmax).to_json() == family.to_json()


def test_equal_operators_built_apart_share_one_unit_fill():
    kind, m, qmax, slot = RecursionKind.DS_EVEN, 2, 6, (0, 0)
    a = operator_for_kind(kind)
    b = WeylOperator(a.basis, dict(a.terms))
    assert a is not b and a == b and hash(a) == hash(b)
    kernels_mod._unit_fill.cache_clear()
    assert kernels_mod._unit_fill(a, kind, m, qmax, slot) is kernels_mod._unit_fill(
        b, kind, m, qmax, slot)
    info = kernels_mod._unit_fill.cache_info()
    assert (info.hits, info.currsize) == (1, 1)


def _reference_fill(kind, m, qmax, inputs):
    """The table filled slot by slot in GaussianRational arithmetic, as the fill rule reads."""
    a = {}
    for r in range(m + 1):
        for k in range(0, qmax + 1, 2):
            lead, terms = kernels_mod._relation(kind, m, r, k)
            rhs = G(0)
            for dr, dk, w in terms:
                rhs = rhs + a.get((r - dr, k - dk), G(0)) * w
            if lead:
                a[r, k] = rhs / lead
            else:
                assert rhs.is_zero()
                a[r, k] = inputs.get((r, k), G(0))
    shift = 1 if kind.parity == ODD else 0
    rows = {}
    for (r, k), v in a.items():
        row = rows.setdefault((r, m - r), [G(0)] * (qmax + 1 + shift))
        row[k + shift] = v
    return Spinor(ZZ, {key: QPoly(row) for key, row in rows.items()})


def _random_gaussian(rng):
    """Zero one time in four, else (a + b*i) with parts n/d, |n| <= 9 and 1 <= d <= 9."""
    if rng.randrange(4) == 0:
        return G(0)
    part = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))  # noqa: E731
    return G(part(), part())


@pytest.mark.parametrize("kind", list(RecursionKind))
@settings(max_examples=10, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_fill_matches_the_gaussian_rational_reference(kind, rng):
    for m in range(7):
        for qmax in (2 * m + 2, 2 * m + 6):
            inputs = {slot: _random_gaussian(rng) for slot in kernels_mod._inputs(kind, m, qmax)}
            got = kernels_mod._fill(kind, m, qmax, inputs)
            want = _reference_fill(kind, m, qmax, inputs)
            assert got == want and list(got.terms) == list(want.terms), (m, qmax)


def test_fill_rejects_a_relation_that_fixes_an_input_slot(monkeypatch):
    genuine = kernels_mod._relation

    def relation(kind, m, r, k):  # the input slot (1, 0) now has a right-hand side
        return (0, ((1, 0, 1),)) if (r, k) == (1, 0) else genuine(kind, m, r, k)

    monkeypatch.setattr(kernels_mod, "_relation", relation)
    kernels_mod._fill(RecursionKind.DS_EVEN, 2, 6, {(1, 0): G(1)})  # zero seed: rhs is 0
    with pytest.raises(ArithmeticError, match="inconsistent relation at r=1, k=0 for ds/even"):
        kernels_mod._fill(RecursionKind.DS_EVEN, 2, 6, {(0, 0): G(1, 2)})


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
    # the element ends at q-degree 2m+1, so no window wider than 2m+2 changes it
    for m in range(5):
        want = monogenic_minus(m)
        for qmax in range(2 * m + 2, 2 * m + 13, 2):
            family = solve_recursion(RecursionKind.DS_ODD, m, QPoly([1]), qmax)
            assert family.basis[0] == want, (m, qmax)
            assert family.free_parameters == (), (m, qmax)


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
    assert verify_exclusion(raising_chain(monogenic_plus(0).change_basis(XY), 2)[2], 2, 0) == 1
    # i^3 * -(3+2)(2)/2 = -i * -5 = 5i
    chain = raising_chain(monogenic_plus(1).change_basis(XY), 4)
    assert exclusion_formula(3, 1) == G(0, 5)
    assert verify_exclusion(chain[3], 3, 1) == G(0, 5)
    with pytest.raises(ValueError):
        verify_exclusion(chain[4], 3, 1)  # X_s^4, not X_s^3, of the degree-1 spinor


# ---- ladder constants and peeling ----


def test_ladder_constant_values():
    assert ladder_constant(0, 1) == MINUS_I
    assert ladder_constant(2, 3) == G(0, -12)
    assert ladder_constant(1, 2) == G(0, -5)  # -i * 2 * (2 + 1/2)


def test_ladder_scale_is_the_bracket_scalar_in_both_bases():
    # [D_s, X_s] = -i (E+1): the derived scalar, not the E+1 that sl2.ds-xs states
    assert kernels_mod._ladder_scale() == MINUS_I
    bracket = named_operator("ds", ZZ).commutator(named_operator("xs", ZZ))
    assert bracket == (named_operator("euler", ZZ) + 1).scale(MINUS_I)


def test_ladder_constant_follows_a_rebound_ds(monkeypatch):
    monkeypatch.setitem(operators._BUILDERS, "ds", lambda: build_ds().scale(3))
    assert ladder_constant(1, 2) == G(0, -15)
    monkeypatch.setitem(operators._BUILDERS, "ds", lambda: parse_operator("dx"))
    with pytest.raises(ArithmeticError, match=r"not a multiple of E\+1"):
        ladder_constant(1, 2)
    monkeypatch.undo()
    assert ladder_constant(1, 2) == G(0, -5)


def test_ladder_scale_is_composed_once(monkeypatch):
    ladder_constant(0, 1)

    def no_commutator(self, other):
        raise AssertionError("the ladder scale was composed again")

    monkeypatch.setattr(WeylOperator, "commutator", no_commutator)
    s = raising_chain(monogenic_minus(1), 2)[2]
    assert reassemble(howe_decompose(s), named_operator("xs", ZZ)) == s


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


def test_howe_decompose_stops_a_chain_that_does_not_end(monkeypatch):
    # D_s + 1 keeps the degree, so D_s^j s never vanishes; the chain is cut at l + 1
    monkeypatch.setitem(operators._BUILDERS, "ds", lambda: build_ds() + 1)
    with pytest.raises(ArithmeticError, match="degree-1 spinor did not end within 2 steps"):
        howe_decompose(Spinor.monomial(XY, 1, 0, QPoly([1])))


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


def _counting(monkeypatch, owner, name):
    """A list that gets one entry per call of owner.<name> from here on."""
    calls = []
    genuine = getattr(owner, name)

    def counted(*args):
        calls.append(name)
        return genuine(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("basis", [XY, ZZ])
def test_howe_decompose_lifts_layers_only_through_reassemble(basis, monkeypatch):
    l = 6
    s = Spinor(basis, {
        (e1, l - e1): QPoly([G(Fraction((3 * e1 + 5 * k + 1) % 11 - 5, 1 + (e1 + 2 * k) % 4),
                               Fraction((7 * e1 + 2 * k) % 9 - 4, 1 + (2 * e1 + k) % 3))
                             for k in range(7)])
        for e1 in range(l + 1)})
    expected = howe_decompose(s)  # builds the operators and the ladder scale outside the count
    assert [c.power for c in expected] == list(range(l + 1))
    applies = _counting(monkeypatch, WeylOperator, "apply")
    reassembles = _counting(monkeypatch, kernels_mod, "reassemble")
    scales = _counting(monkeypatch, Spinor, "scale")
    assert howe_decompose(s) == expected
    # applies: 7 for the D_s chain, 1+2+...+6 = 21 for the Horner lifts of the six levels
    # below the top and 6 remainder guards; s is never reassembled as a whole
    assert len(applies) == 7 + 21 + 6
    # one reassemble per level below the top; one scale per raised layer
    assert (len(reassembles), len(scales)) == (l, 21)


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


# sha256 of json.dumps([kernel_linear_solve(ts, m, 2m+7).to_json() for m <= 12],
# sort_keys=True) in zzbar, recorded with the dense elimination the sparse one replaced
TS_LINEAR_DIGEST = "7574ba840e81fcdf34f79710dd9f68826b5395cf2dc01d87fff87ad0c8fe0380"


def test_ts_linear_kernels_match_the_recorded_digest():
    ts_z = named_operator("ts", ZZ)
    families = [kernel_linear_solve(ts_z, m, 2 * m + 7).to_json() for m in range(13)]
    text = json.dumps(families, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == TS_LINEAR_DIGEST


# the same for 13 <= m <= 20, recorded while the unit images were still numbered into
# columns by a writer of their own
TS_LARGE_LINEAR_DIGEST = "4423adcf4dd9ae6f88c28d7d55cf9dc2eb6c8cc88ea9c031521faa98a0261706"


def test_large_ts_linear_kernels_match_the_recorded_digest():
    ts_z = named_operator("ts", ZZ)
    families = [kernel_linear_solve(ts_z, m, 2 * m + 7).to_json() for m in range(13, 21)]
    text = json.dumps(families, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == TS_LARGE_LINEAR_DIGEST


# sha256 of json.dumps(bases, sort_keys=True) for the oracle's parity-restricted solves,
# kernel_linear_solve(operator_for_kind(kind), m, qdeg, parity=kind.parity) for every kind
# and m <= 5, recorded while each basis spinor was still recombined from unit spinors
PARITY_LINEAR_DIGEST = "4254ba64107acf0afda634b730b5b590f013607e08d248360d3b29afaa556621"


def test_parity_restricted_linear_kernels_match_the_recorded_digest():
    families = []
    for kind in RecursionKind:
        for m in range(6):
            qdeg = 2 * m + 4 + (1 if kind.parity == ODD else 0)
            families.append(kernel_linear_solve(
                operator_for_kind(kind), m, qdeg, parity=kind.parity).to_json())
    text = json.dumps(families, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PARITY_LINEAR_DIGEST


def test_kernel_linear_solve_reads_its_basis_from_one_dense_nullspace(monkeypatch):
    calls = []
    genuine = kernels_mod.nullspace

    def spy(columns, nrows):
        calls.append(all(len(col) == nrows and all(isinstance(v, GaussianRational) for v in col)
                         for col in columns))
        return genuine(columns, nrows)

    def refuse(*args):
        raise AssertionError("kernel_linear_solve recombined its units")

    ts_z = named_operator("ts", ZZ)
    want = kernel_linear_solve(ts_z, 3, 11)
    monkeypatch.setattr(kernels_mod, "nullspace", spy)
    monkeypatch.setattr(kernels_mod, "linear_combination", refuse)
    assert kernel_linear_solve(ts_z, 3, 11) == want and calls == [True]


def test_kernel_linear_solve_makes_no_apply(monkeypatch):
    # sha256 of json.dumps(kernel_linear_solve(ts, 3, 11).to_json(), sort_keys=True) in
    # zzbar, recorded while each unit was still applied one at a time
    ts_z = named_operator("ts", ZZ)

    def refuse(*args):
        raise AssertionError("kernel_linear_solve applied its operator")

    monkeypatch.setattr(WeylOperator, "apply", refuse)
    text = json.dumps(kernel_linear_solve(ts_z, 3, 11).to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "25ac0a5b2b85ac86e5d713208f94d315ab3d51da7ce38a8a0fd90c6412e5bbf5")


# sha256 of json.dumps([kernel_linear_solve(n, m, 2m+5).to_json() for n in ts, ds, ds2, xs
# and m <= 5], sort_keys=True) in xy, where every plan has a chain-side group; recorded
# while each unit was still applied one at a time
XY_LINEAR_DIGEST = "9d969439c38d238afd539f5f30db48313864d0124df181af145dd7e162506b8c"


def test_xy_linear_kernels_match_the_recorded_digest():
    families = [kernel_linear_solve(named_operator(name, XY), m, 2 * m + 5).to_json()
                for name in ("ts", "ds", "ds2", "xs") for m in range(6)]
    text = json.dumps(families, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == XY_LINEAR_DIGEST


# registry operators, whose xy plans all have a chain-side group, and two chain-side
# groups of their own: a pure multiplication and a Dq order above the group's size
_PLANNED_OPERATORS = [named_operator(name, basis) for name in operators._BUILDERS
                      for basis in (XY, ZZ)] + [parse_operator(text, basis)
                      for text in ("x*q", "dq^3 + x*dx") for basis in (XY, ZZ)]


@settings(max_examples=60, deadline=None)
@given(op=st.sampled_from(_PLANNED_OPERATORS), m=st.integers(0, 4), qmax=st.integers(0, 9),
       parity=st.sampled_from([None, EVEN, ODD]))
def test_unit_images_are_the_applied_unit_images(op, m, qmax, parity):
    units = [((e1, m - e1), k) for e1 in range(m + 1) for k in range(qmax + 1)
             if parity is None or k % 2 == (parity == ODD)]
    images = [op.apply(Spinor(op.basis, {key: QPoly.monomial(k)})) for key, k in units]
    assert _unit_images(op, units) == [
        {(key, k): c for key, poly in image.terms.items() for k, c in poly.nonzero_terms()}
        for image in images]


@pytest.mark.parametrize("kind", list(RecursionKind))
def test_recursion_span_equals_the_linear_kernel_for_m_5_to_8(kind):
    for label, got, want in verify._recursion_vs_linear_rows([kind], range(5, 9)):
        assert got == want, label


def test_same_span_compares_spaces_not_bases():
    a, b = monogenic_minus(1), monogenic_plus(1)
    assert same_span([a, b], [a + b, a.scale(G(2)) - b])
    assert not same_span([a, b, a + b], [a, b])
    assert not same_span([a], [a, b])
    assert not same_span([a], [b])  # equal lengths, different spans
    assert same_span([], [])


def _dense_rref(columns, nrows):
    """Textbook Gauss-Jordan: (pivot columns, reduced pivot rows) on dense rows.

    Each pivot comes from the first row at or below the pivot row with a
    nonzero entry, and the whole pivot row is subtracted from every other.
    """
    rows = [[column[i] for column in columns] for i in range(nrows)]
    pivots = []
    for col in range(len(columns)):
        top = len(pivots)
        found = next((i for i in range(top, nrows) if rows[i][col]), None)
        if found is None:
            continue
        rows[top], rows[found] = rows[found], rows[top]
        inv = rows[top][col].inverse()
        rows[top] = [v * inv for v in rows[top]]
        for i in range(nrows):
            if i != top and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[top])]
        pivots.append(col)
    return pivots, rows[: len(pivots)]


_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
_sparse_entries = st.builds(
    lambda keep, re, im: G(re, im) if keep == 0 else G(0),
    st.integers(0, 3), _rationals, _rationals,
)


@st.composite
def _sparse_matrices(draw):
    """(columns, nrows): mostly zero entries, dense, zero and dependent columns."""
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 8))
    columns = []
    for j in range(ncols):
        shape = draw(st.sampled_from(["random", "dense", "zero", "combination"]))
        if shape == "zero" or (shape == "combination" and j < 2):
            columns.append([G(0)] * nrows)
        elif shape in ("random", "dense"):
            entries = _sparse_entries if shape == "random" else st.builds(G, _rationals, _rationals)
            columns.append(draw(st.lists(entries, min_size=nrows, max_size=nrows)))
        else:
            a, b = draw(st.integers(0, j - 1)), draw(st.integers(0, j - 1))
            c = G(draw(_rationals), draw(_rationals))
            columns.append([x + y * c for x, y in zip(columns[a], columns[b])])
    return columns, nrows


@settings(max_examples=200, deadline=None)
@given(_sparse_matrices())
def test_sparse_elimination_matches_dense_gauss_jordan(matrix):
    columns, nrows = matrix
    ncols = len(columns)
    pivots, reduced = _dense_rref(columns, nrows)
    rows, pivot_of_col = kernels_mod._eliminate(columns, nrows)
    # every stored entry is the reduced nonzero triple (a, b, d) of (a + b*i)/d
    assert all((a or b) and d > 0 and gcd(a, b, d) == 1
               for row in rows for a, b, d in row.values())
    assert sorted(pivot_of_col) == pivots
    dense = [[_make(*rows[pivot_of_col[c]].get(j, (0, 0, 1))) for j in range(ncols)]
             for c in pivots]
    assert dense == reduced
    assert all(not row for r, row in enumerate(rows) if r not in pivot_of_col.values())
    expected = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [G(0)] * ncols
        vec[fc] = G(1)
        for pc, row in zip(pivots, reduced):
            vec[pc] = -row[fc]
        expected.append(vec)
    assert nullspace(columns, nrows) == expected
    assert rank(columns, nrows) == len(pivots)


def test_elimination_builds_scalars_only_for_the_nullspace_entries(monkeypatch):
    rng = random.Random(7)
    nrows, ncols = 6, 9
    columns = [[G(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), rng.randint(-9, 9))
                for _ in range(nrows)] for _ in range(ncols)]
    expected_rank, expected = rank(columns, nrows), nullspace(columns, nrows)

    def refuse(*args):
        raise AssertionError("elimination computed with GaussianRational objects")

    for name in ("__mul__", "__rmul__", "__truediv__", "__neg__", "__add__", "__sub__", "inverse"):
        monkeypatch.setattr(GaussianRational, name, refuse)
    made = []
    genuine = kernels_mod._make
    monkeypatch.setattr(kernels_mod, "_make", lambda *t: made.append(t) or genuine(*t))
    assert rank(columns, nrows) == expected_rank and not made
    vectors = nullspace(columns, nrows)
    assert vectors == expected
    # one _make per returned pivot entry; the free entry is the shared ONE
    assert len(made) == sum(1 for vec in vectors for v in vec if v) - len(vectors) > 0


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


def test_kernel_linear_solve_rejects_unknown_parity():
    # an unknown parity used to solve the odd subspace
    with pytest.raises(ValueError):
        kernel_linear_solve(named_operator("ds", ZZ), 1, 5, parity="bogus")


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


def test_scalar_multiple():
    b = monogenic_minus(2)
    c = G(Fraction(-3, 4), 2)
    assert scalar_multiple(b.scale(c), b) == c
    assert scalar_multiple(Spinor.zero(ZZ), b) == 0
    # b leads at key (0, 2), power q^1; a term of a outside b's span makes it no multiple
    assert scalar_multiple(b.scale(c) + Spinor.monomial(ZZ, 2, 0, [0, 5]), b) is None
    assert scalar_multiple(monogenic_plus(2), b) is None
    assert scalar_multiple(b, Spinor.zero(ZZ)) is None


@settings(max_examples=40, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_scalar_multiple_recovers_the_scale_and_refuses_an_outside_term(rng):
    nonzero = lambda: G(rng.randint(1, 9), rng.randint(-9, 9))  # noqa: E731
    terms = {(rng.randrange(3), rng.randrange(3)): QPoly([_random_gaussian(rng) for _ in range(4)])
             for _ in range(3)}
    b = Spinor(ZZ, {**terms, (3, 0): QPoly([nonzero()])})
    c = _random_gaussian(rng)
    assert scalar_multiple(b.scale(c), b) == c
    # position degree 6 lies outside b's support, so no multiple of b has this term
    assert scalar_multiple(b.scale(c) + Spinor.monomial(ZZ, 6, 0, [nonzero()]), b) is None


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
