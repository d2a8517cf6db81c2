import json
import tracemalloc
from fractions import Fraction
from itertools import zip_longest
from math import gcd, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtwistor.exactnum import G, I
from symtwistor.kernels import howe_decompose, monogenic_plus
from symtwistor.operators import named_operator
from symtwistor.parsing import parse_operator
from symtwistor.spinor import EVEN, MIXED, ODD, QPoly, Spinor
from symtwistor.weyl import GENERATOR_NAMES, BasisMismatchError, BasisTag, WeylOperator

XY, ZZ = BasisTag.XY, BasisTag.ZZBAR


# ---- QPoly ----


def test_qpoly_trims_trailing_zeros():
    p = QPoly([1, 2, 0, 0])
    assert p.degree() == 1
    assert p == QPoly([1, 2])
    assert QPoly([0, 0]).is_zero()
    assert QPoly([]).degree() is None


def test_qpoly_coefficient_out_of_range_is_zero():
    p = QPoly([1, 2])
    assert p.coefficient(5) == G(0)
    assert p.coefficient(1) == 2


def test_qpoly_arithmetic():
    p, r = QPoly([1, 0, 2]), QPoly([0, 1])
    assert p + r == QPoly([1, 1, 2])
    assert p - p == QPoly([])
    assert -r == QPoly([0, -1])
    assert p.scale(I) == QPoly([I, G(0), G(0, 2)])


def test_qpoly_shift_and_derivative():
    p = QPoly([1, 2, 3])
    assert p.shift(2) == QPoly([0, 0, 1, 2, 3])
    assert p.derivative() == QPoly([2, 6])
    assert QPoly([5]).derivative().is_zero()


def test_qpoly_negative_shift_raises():
    # a negative exponent used to return the polynomial unchanged
    with pytest.raises(ValueError):
        QPoly([1, 2]).shift(-1)
    with pytest.raises(ValueError):
        QPoly().shift(-1)
    with pytest.raises(ValueError):
        QPoly.monomial(-2)


def test_qpoly_weighted_dq():
    # on stored data, dq acts as d/dq - q
    assert QPoly([1]).weighted_dq() == QPoly([0, -1])
    assert QPoly([0, 1]).weighted_dq() == QPoly([1, 0, -1])


def test_qpoly_parity():
    assert QPoly([1, 0, 2]).parity() == EVEN
    assert QPoly([0, 1]).parity() == ODD
    assert QPoly([1, 1]).parity() == MIXED
    assert QPoly([]).parity() == EVEN


def test_qpoly_monomial():
    assert QPoly.monomial(3) == QPoly([0, 0, 0, 1])
    assert QPoly.monomial(1, Fraction(1, 2)) == QPoly([0, Fraction(1, 2)])


# ---- Spinor ----


def test_spinor_drops_zero_polys():
    s = Spinor(XY, {(1, 0): QPoly([1]), (0, 1): QPoly([])})
    assert set(s.terms) == {(1, 0)}
    assert Spinor(XY, {(0, 0): QPoly([0])}).is_zero()


def test_spinor_linear_ops():
    a = Spinor.monomial(XY, 1, 0, QPoly([1]))
    b = Spinor.monomial(XY, 0, 1, QPoly([0, 2]))
    s = a + b
    assert s - a == b
    assert (-s) + s == Spinor.zero(XY)
    assert s.scale(Fraction(1, 2)).scale(2) == s


def test_spinor_mixed_basis_add_rejected():
    a = Spinor.monomial(XY, 1, 0, QPoly([1]))
    b = Spinor.monomial(ZZ, 1, 0, QPoly([1]))
    with pytest.raises(BasisMismatchError):
        a + b


def test_homogeneity():
    assert Spinor.monomial(XY, 2, 1, QPoly([1])).homogeneity() == 3
    mixed = Spinor(XY, {(1, 0): QPoly([1]), (2, 0): QPoly([1])})
    assert mixed.homogeneity() is None
    assert Spinor.zero(XY).homogeneity() is None


def test_parity_and_q_degree():
    s = Spinor(XY, {(1, 0): QPoly([1, 0, 2]), (0, 1): QPoly([3])})
    assert s.parity() == EVEN
    assert s.q_degree() == 2
    assert s.min_q_degree() == 0
    odd = Spinor.monomial(XY, 0, 0, QPoly([0, 1]))
    assert odd.parity() == ODD
    assert Spinor(XY, {(0, 0): QPoly([1, 1])}).parity() == MIXED


def test_coefficient_of_is_xy_only():
    s = Spinor.monomial(XY, 2, 0, QPoly([0, 0, 5]))
    assert s.coefficient_of(2, 0, 2) == 5
    assert s.coefficient_of(1, 1, 2) == G(0)
    with pytest.raises(BasisMismatchError):
        Spinor.monomial(ZZ, 1, 0, QPoly([1])).coefficient_of(1, 0, 0)


def test_change_basis_monomials():
    # z = x + iy
    z = Spinor.monomial(ZZ, 1, 0, QPoly([1]))
    assert z.change_basis(XY) == Spinor(
        XY, {(1, 0): QPoly([1]), (0, 1): QPoly([I])}
    )
    # x = (z + zbar)/2
    x = Spinor.monomial(XY, 1, 0, QPoly([1]))
    half = Fraction(1, 2)
    assert x.change_basis(ZZ) == Spinor(
        ZZ, {(1, 0): QPoly([half]), (0, 1): QPoly([half])}
    )


@pytest.mark.parametrize("source, target", [(XY, ZZ), (ZZ, XY)])
def test_change_basis_matches_operator_substitution(source, target):
    # a position monomial and the operator of the same monomial change basis alike
    c = G(2, -3)
    for e1 in range(7):
        for e2 in range(7 - e1):
            got = Spinor.monomial(source, e1, e2, [c]).change_basis(target)
            op = WeylOperator(source, {(e1, e2, 0, 0, 0, 0): c}).change_basis(target)
            assert set(op.terms) == {(a, b, 0, 0, 0, 0) for (a, b) in got.terms}
            for (a, b), poly in got.terms.items():
                assert poly == QPoly([op.terms[(a, b, 0, 0, 0, 0)]])


def test_change_basis_preserves_structure():
    s = Spinor(XY, {(2, 1): QPoly([1, 2]), (0, 0): QPoly([I])})
    t = s.change_basis(ZZ)
    assert t.basis is ZZ
    assert t.q_degree() == s.q_degree()
    assert t.change_basis(XY) == s


def test_change_basis_rejects_a_target_that_is_not_a_basis_tag():
    # unchecked, the string would tag the xy image of the zzbar spinor as "zzbar"
    with pytest.raises(TypeError, match="needs a BasisTag"):
        monogenic_plus(1).change_basis("zzbar")


def test_json_shape():
    s = Spinor(XY, {(1, 0): QPoly([Fraction(2, 3), I])})
    data = s.to_json()
    assert data == {
        "basis": "xy",
        "terms": [{"e1": 1, "e2": 0, "q": [[2, 3, 0, 1], [0, 1, 1, 1]]}],
    }
    assert Spinor.from_json(json.loads(json.dumps(data))) == s


def test_json_terms_sorted_deterministically():
    s = Spinor(XY, {(2, 0): QPoly([1]), (0, 2): QPoly([1]), (1, 1): QPoly([1])})
    keys = [(t["e1"], t["e2"]) for t in s.to_json()["terms"]]
    assert keys == [(0, 2), (1, 1), (2, 0)]


@pytest.mark.parametrize(
    "data, fragment",
    [
        ("nope", "object"),
        ({}, "basis"),
        ({"basis": "polar", "terms": []}, "basis"),
        ({"basis": "xy"}, "terms"),
        ({"basis": "xy", "terms": [3]}, "terms[0]"),
        ({"basis": "xy", "terms": [{"e1": 0, "e2": "x", "q": []}]}, "terms[0].e2"),
        ({"basis": "xy", "terms": [{"e1": 0, "e2": 0, "q": 5}]}, "terms[0].q"),
        (
            {"basis": "xy", "terms": [{"e1": 0, "e2": 0, "q": [[1, 0, 0, 1]]}]},
            "denominator",
        ),
        (
            {"basis": "xy", "terms": [{"e1": 0, "e2": 0, "q": [[1]]}]},
            "terms[0].q[0]",
        ),
    ],
)
def test_from_json_error_paths(data, fragment):
    with pytest.raises(ValueError) as exc:
        Spinor.from_json(data)
    assert fragment in str(exc.value)


def test_from_json_merges_duplicate_keys():
    data = {
        "basis": "xy",
        "terms": [
            {"e1": 1, "e2": 0, "q": [[1, 1, 0, 1]]},
            {"e1": 1, "e2": 0, "q": [[2, 1, 0, 1]]},
        ],
    }
    assert Spinor.from_json(data) == Spinor.monomial(XY, 1, 0, QPoly([3]))


def test_str_shows_weight_prefix():
    s = Spinor.monomial(XY, 1, 0, QPoly([0, 1]))
    assert str(s) == "exp(-q^2/2) * ((q)*x)"
    assert str(Spinor.zero(XY)) == "0"


def test_latex_shows_weight_prefix():
    s = Spinor.monomial(ZZ, 0, 1, QPoly([1]))
    assert s.to_latex() == r"e^{-q^2/2}\left(\left(1\right) \bar{z}\right)"


# ---- properties ----

coeffs = st.builds(
    G,
    st.fractions(min_value=-9, max_value=9, max_denominator=5),
    st.fractions(min_value=-9, max_value=9, max_denominator=5),
)


@st.composite
def spinors(draw, basis=XY, qlen=5):
    n = draw(st.integers(min_value=0, max_value=3))
    terms = {}
    for _ in range(n):
        key = (
            draw(st.integers(min_value=0, max_value=3)),
            draw(st.integers(min_value=0, max_value=3)),
        )
        terms[key] = QPoly(draw(st.lists(coeffs, max_size=qlen)))
    return Spinor(basis, terms)


@settings(max_examples=60, deadline=None)
@given(spinors())
def test_basis_round_trip(s):
    assert s.change_basis(ZZ).change_basis(XY) == s


@settings(max_examples=40, deadline=None)
@given(spinors(), spinors())
def test_change_basis_additive(a, b):
    assert (a + b).change_basis(ZZ) == a.change_basis(ZZ) + b.change_basis(ZZ)


@settings(max_examples=60, deadline=None)
@given(spinors())
def test_json_round_trip_property(s):
    assert Spinor.from_json(json.loads(json.dumps(s.to_json()))) == s


# ---- the shared-denominator layout against a coefficient-wise reference ----

qlists = st.lists(st.one_of(st.just(G(0)), coeffs), max_size=6)


def ref_add(a, b):
    return [x + y for x, y in zip_longest(a, b, fillvalue=G(0))]


def ref_dq(a):
    """p' - q*p on a coefficient list."""
    return ref_add([a[k] * k for k in range(1, len(a))], [G(0)] + [-x for x in a])


def assert_canonical(p):
    re, im, d = p._re, p._im, p._d
    assert d > 0 and len(re) == len(im)
    assert not re or re[-1] or im[-1]
    assert gcd(d, *re, *im) == 1  # d == 1 for the zero polynomial
    assert p.coeffs == tuple(G(Fraction(a, d), Fraction(b, d)) for a, b in zip(re, im))


def assert_matches(got, ref):
    assert_canonical(got)
    while ref and ref[-1].is_zero():
        ref = ref[:-1]
    assert got.coeffs == tuple(ref)
    assert got == QPoly(ref)


@settings(max_examples=80, deadline=None)
@given(qlists, qlists, coeffs, st.integers(min_value=0, max_value=3))
def test_qpoly_operations_match_coefficientwise_reference(a, b, c, k):
    p, r = QPoly(a), QPoly(b)
    assert_matches(p, list(a))
    assert_matches(p + r, ref_add(a, b))
    assert_matches(p - r, ref_add(a, [-y for y in b]))
    assert_matches(-p, [-x for x in a])
    assert_matches(p.scale(c), [x * c for x in a])
    assert_matches(p.shift(k), [G(0)] * k + list(a) if not p.is_zero() else [])
    assert_matches(p.derivative(), [a[j] * j for j in range(1, len(a))])
    assert_matches(p.weighted_dq(), ref_dq(list(a)))
    assert_matches(QPoly.combination([(c, p.shift(k)), (G(0, 1), r)]),
                   ref_add([G(0)] * k + [x * c for x in a], [y * I for y in b]))
    assert [p.coefficient(j) for j in range(-1, len(a) + 2)] == [
        G(0), *(list(p.coeffs) + [G(0)] * (len(a) + 2 - len(p.coeffs)))
    ]


@settings(max_examples=80, deadline=None)
@given(qlists, qlists)
def test_qpoly_equality_and_hash_are_coefficientwise(a, b):
    p, r = QPoly(a), QPoly(b)
    assert (p == r) == (p.coeffs == r.coeffs)
    same = QPoly(list(a) + [G(0), G(0)]).scale(3).scale(Fraction(1, 3))
    assert same == p and hash(same) == hash(p) and same.coeffs == p.coeffs
    assert (p - p).coeffs == () and hash(p - p) == hash(QPoly())


@st.composite
def operator_strings(draw, basis):
    """Random sums of products of generators, parsed in the given basis."""
    names = GENERATOR_NAMES[basis]
    factor = st.tuples(st.sampled_from(names), st.integers(min_value=1, max_value=4))
    scalar = st.sampled_from(["1", "i", "-2", "(1/2)", "(3/2*i)", "(1 - i)"])
    terms = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        factors = draw(st.lists(factor, min_size=0, max_size=3))
        body = [n if e == 1 else f"{n}^{e}" for n, e in factors]
        terms.append("*".join([draw(scalar)] + body))
    return " + ".join(terms)


def reference_apply(op, s):
    """Each (operator term, spinor term) pair applied and summed on coefficient lists."""
    out = {}
    for (m1, m2), poly in s.terms.items():
        for (a, b, qc, d, e, f), c in op.terms.items():
            if d > m1 or e > m2:
                continue
            q = list(poly.coeffs)
            for _ in range(f):
                q = ref_dq(q)
            weight = c * (perm(m1, d) * perm(m2, e))
            key = (m1 - d + a, m2 - e + b)
            out[key] = ref_add(out.get(key, []), [G(0)] * qc + [x * weight for x in q])
    return Spinor(s.basis, {key: QPoly(q) for key, q in out.items()})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apply_matches_term_by_term_reference(data):
    basis = data.draw(st.sampled_from([XY, ZZ]))
    registry = st.sampled_from(["xs", "ds", "ts", "ts2", "ds2"]).map(
        lambda name: str(named_operator(name, basis)))
    text = data.draw(st.one_of(operator_strings(basis), registry))
    op = parse_operator(text, basis)  # q, dq, i alone parse as xy
    # one operator, several inputs in any order: what apply keeps on op grows and is reused
    for s in data.draw(st.lists(spinors(basis, qlen=12), min_size=3, max_size=3)):
        got, want = op.apply(s), reference_apply(op, s)
        assert got == want
        assert list(got.terms) == list(want.terms)  # keys in order of first contribution
        for poly in got.terms.values():
            assert_canonical(poly)
    fresh = parse_operator(text, basis)
    assert op == fresh and hash(op) == hash(fresh)
    with pytest.raises(AttributeError):
        op.terms = {}


def entered_in_reverse(obj):
    """obj with the same terms, entered in reverse order."""
    return type(obj)(obj.basis, dict(reversed(obj.terms.items())))


def renderings(obj):
    out = (str(obj), obj.to_latex())
    return out + (json.dumps(obj.to_json()),) if isinstance(obj, Spinor) else out


@st.composite
def homogeneous_spinors(draw, basis):
    l = draw(st.integers(min_value=0, max_value=3))
    keys = draw(st.lists(st.integers(min_value=0, max_value=l), max_size=l + 1, unique=True))
    return Spinor(basis, {(e1, l - e1): QPoly(draw(st.lists(coeffs, max_size=4))) for e1 in keys})


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_term_order_reaches_no_output(data):
    basis = data.draw(st.sampled_from([XY, ZZ]))
    target = ZZ if basis is XY else XY
    op, other = (parse_operator(data.draw(operator_strings(basis)), basis) for _ in range(2))
    s, h = data.draw(spinors(basis)), data.draw(homogeneous_spinors(basis))
    rop, rother, rs, rh = map(entered_in_reverse, (op, other, s, h))
    for got, want in (
        (op.apply(s), rop.apply(rs)),
        (op.compose(other), rop.compose(rother)),
        (op.change_basis(target), rop.change_basis(target)),
        (s.change_basis(target), rs.change_basis(target)),
    ):
        assert renderings(got) == renderings(want)
    got, want = howe_decompose(h), howe_decompose(rh)
    assert [(c.homogeneity, c.power, renderings(c.monogenic)) for c in got] == [
        (c.homogeneity, c.power, renderings(c.monogenic)) for c in want]


def test_apply_holds_one_dq_chain_at_a_time():
    # (q*dq)^32 acts through the Dq chain of each spinor term, 33 levels; a chain
    # dropped after its term keeps the peak near one term's, not 16 terms'
    op = parse_operator("(q*dq)^32")
    poly = QPoly([Fraction(1, 3)])

    def peak(n):
        s = Spinor(XY, {(e1, n - 1 - e1): poly for e1 in range(n)})
        tracemalloc.start()
        try:
            op.apply(s)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # the plan, built once and kept on op
    assert peak(16) < 8 * peak(1)
