import time
from fractions import Fraction
from functools import reduce
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symtwistor.weyl as weyl_mod
from symtwistor.exactnum import G, I
from symtwistor.kernels import linear_combination
from symtwistor.operators import named_operator
from symtwistor.spinor import QPoly, Spinor
from symtwistor.weyl import BasisMismatchError, BasisTag, WeylOperator

XY, ZZ = BasisTag.XY, BasisTag.ZZBAR


def gen(name, basis=XY):
    return WeylOperator.generator(basis, name)


def test_basis_tag_parse():
    assert BasisTag("xy") is XY
    assert BasisTag("zzbar") is ZZ
    with pytest.raises(ValueError):
        BasisTag("polar")


def test_zero_and_identity():
    zero = WeylOperator.zero(XY)
    one = WeylOperator.identity(XY)
    x = gen("x")
    assert zero.is_zero()
    assert (x + zero) == x
    assert one.compose(x) == x
    assert x.compose(one) == x
    assert x - x == zero


def test_unknown_generator_name():
    with pytest.raises(ValueError):
        gen("w")
    with pytest.raises(ValueError):
        gen("z", XY)  # zzbar name under the xy tag


def test_scalar_coercions_in_arithmetic():
    x = gen("x")
    assert x + 1 - 1 == x
    assert 1 - x == -x + 1
    assert Fraction(1, 2) - x == (x - Fraction(1, 2)).scale(-1)
    assert (x * Fraction(1, 2)).scale(2) == x
    assert 3 * x == x.scale(3)
    assert (x * I).scale(-I) == x


@pytest.mark.parametrize("other", [1.5, None, "a"], ids=repr)
@pytest.mark.parametrize(
    "combine", [lambda a, b: a + b, lambda a, b: a - b, lambda a, b: b - a], ids=["+", "-", "r-"])
def test_sum_with_a_non_scalar_is_the_scalar_type_error(combine, other):
    # the error x * 1.5 gives
    with pytest.raises(TypeError, match="expected int or Fraction, got"):
        combine(gen("x"), other)


def test_canonical_commutation():
    # dq*q reorders to q*dq + 1, and likewise for the position pairs
    q, dq = gen("q"), gen("dq")
    assert dq.compose(q) == q.compose(dq) + 1
    x, dx = gen("x"), gen("dx")
    assert dx.compose(x) == x.compose(dx) + 1
    y, dy = gen("y"), gen("dy")
    assert dy.compose(y) == y.compose(dy) + 1


def test_mixed_generators_commute():
    x, dy = gen("x"), gen("dy")
    assert dy.commutator(x).is_zero()
    q, dx = gen("q"), gen("dx")
    assert dx.commutator(q).is_zero()
    assert gen("x").commutator(gen("y")).is_zero()


def test_commutator_dq_q_is_one():
    assert gen("dq").commutator(gen("q")) == WeylOperator.identity(XY)


def test_higher_order_contraction():
    # dx^2 x^2 = x^2 dx^2 + 4x dx + 2
    x, dx = gen("x"), gen("dx")
    lhs = (dx**2).compose(x**2)
    rhs = (x**2).compose(dx**2) + (x.compose(dx)).scale(4) + 2
    assert lhs == rhs


def test_power():
    q, dq = gen("q"), gen("dq")
    qdq = q.compose(dq)
    assert qdq**0 == WeylOperator.identity(XY)
    assert qdq**1 == qdq
    # (q dq)^2 = q^2 dq^2 + q dq
    assert qdq**2 == (q**2).compose(dq**2) + qdq
    with pytest.raises(ValueError):
        qdq**-1


def test_powers_walks_every_power_up_to_n():
    op = gen("x") + gen("q") + gen("dx") + gen("dq")
    walk = op.powers(4)
    assert len(walk) == 5
    reference = WeylOperator.identity(XY)
    for k, power in enumerate(walk):
        assert power == reference == op**k
        reference = op.compose(reference)  # multiplied on the other side than the walk
    assert op.powers(0) == [WeylOperator.identity(XY)]
    with pytest.raises(ValueError):
        op.powers(-1)


def test_composition_past_the_degree_limit_is_refused():
    x, dx = gen("x"), gen("dx")
    message = "^product reaches degree 129, above 128$"
    with pytest.raises(ValueError, match=message):
        x**129
    with pytest.raises(ValueError, match=message):
        (dx**64) * (x**65)
    with pytest.raises(ValueError, match=message):
        (x**128).commutator(x)
    assert len((dx**64 * x**64).terms) == 65  # at the limit it composes


def test_a_power_past_the_degree_limit_is_refused_before_any_composition(monkeypatch):
    dx64 = gen("dx") ** 64
    two = WeylOperator.scalar(XY, 2)
    calls = []
    genuine = WeylOperator.compose
    monkeypatch.setattr(WeylOperator, "compose", lambda a, b: calls.append(1) or genuine(a, b))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^product reaches degree 129, above 128$"):
        gen("x") ** 129
    with pytest.raises(ValueError, match="^product reaches degree 192, above 128$"):
        dx64**64  # the third step is the first past the limit
    with pytest.raises(ValueError, match="^degree-0 power has exponent 1000000000, above 128$"):
        two ** 10**9
    with pytest.raises(ValueError, match="^degree-0 power has exponent 129, above 128$"):
        WeylOperator.zero(XY).powers(129)
    assert calls == [] and time.perf_counter() - start < 1
    assert two**128 == WeylOperator.scalar(XY, 2**128)  # at the limit the walk runs
    assert len(calls) == 128


def test_composition_past_the_term_limit_is_refused():
    w = gen("x") + gen("y") + gen("q") + gen("dx") + gen("dy") + gen("dq")
    message = "^product needs more than 20000 terms$"
    walk = w.powers(9)  # the last step, w^8 after w, makes 14,700 terms
    assert walk[8]._compose_terms(w, 10**9) == 14_700
    with pytest.raises(ValueError, match=message):
        w**10
    with pytest.raises(ValueError, match=message):
        walk[9].commutator(w)


def test_basis_mismatch_rejected():
    x = gen("x")
    z = gen("z", ZZ)
    with pytest.raises(BasisMismatchError):
        x + z
    with pytest.raises(BasisMismatchError):
        x.compose(z)


def _spinor(basis):
    return Spinor.monomial(basis, 1, 0, QPoly([1]))


@pytest.mark.parametrize("combine", [
    lambda: gen("x") + gen("z", ZZ),
    lambda: gen("x").compose(gen("z", ZZ)),
    lambda: gen("x").apply(_spinor(ZZ)),
    lambda: _spinor(XY) + _spinor(ZZ),
    lambda: linear_combination([G(1), G(2)], [_spinor(XY), _spinor(ZZ)]),
], ids=["operator +", "compose", "apply", "spinor +", "linear_combination"])
def test_every_basis_mismatch_has_the_one_message(combine):
    with pytest.raises(BasisMismatchError, match="^bases differ: xy vs zzbar$"):
        combine()


def test_change_basis_on_generators():
    # dx -> dz + dzbar, y -> -i/2 z + i/2 zbar
    assert gen("dx").change_basis(ZZ) == gen("dz", ZZ) + gen("dzbar", ZZ)
    half = Fraction(1, 2)
    assert gen("y").change_basis(ZZ) == gen("z", ZZ).scale(G(0, -half)) + gen(
        "zbar", ZZ
    ).scale(G(0, half))
    assert gen("q").change_basis(ZZ) == gen("q", ZZ)
    # z -> x + i y, zbar -> x - i y, dz -> (dx - i dy)/2, dzbar -> (dx + i dy)/2
    assert gen("z", ZZ).change_basis(XY) == gen("x") + gen("y").scale(I)
    assert gen("zbar", ZZ).change_basis(XY) == gen("x") - gen("y").scale(I)
    assert gen("dz", ZZ).change_basis(XY) == (gen("dx") - gen("dy").scale(I)).scale(half)
    assert gen("dzbar", ZZ).change_basis(XY) == (gen("dx") + gen("dy").scale(I)).scale(half)
    assert gen("dq", ZZ).change_basis(XY) == gen("dq")


def test_change_basis_same_target_is_identity():
    x = gen("x")
    assert x.change_basis(XY) is x


def _apply_to_vacuum(op):
    return op.apply(Spinor.monomial(op.basis, 0, 0, QPoly([1])))


def test_hash_is_kept_and_unchanged_by_the_apply_plan():
    op = gen("x") * gen("dq") + gen("q") * 3
    first = hash(op)
    assert op._plan is None
    _apply_to_vacuum(op)
    assert op._plan is not None and hash(op) == first
    assert hash(WeylOperator(XY, dict(op.terms))) == first


def test_apply_weighted_q_derivative():
    # stored action of dq is (d/dq - q): on the constant it yields -q
    out = _apply_to_vacuum(gen("dq"))
    assert out == Spinor.monomial(XY, 0, 0, QPoly([0, -1]))


def test_apply_position_derivative_falling_factorial():
    s = Spinor.monomial(XY, 3, 1, QPoly([1]))
    out = (gen("dx") ** 2).apply(s)
    assert out == Spinor.monomial(XY, 1, 1, QPoly([6]))
    assert gen("dy").apply(out) == Spinor.monomial(XY, 1, 0, QPoly([6]))
    assert (gen("dx") ** 4).apply(s).is_zero()


def test_apply_multiplication_operators():
    s = Spinor.monomial(XY, 1, 0, QPoly([0, 1]))
    out = gen("x").compose(gen("q")).apply(s)
    assert out == Spinor.monomial(XY, 2, 0, QPoly([0, 0, 1]))


def test_apply_requires_matching_basis():
    s = Spinor.monomial(ZZ, 1, 0, QPoly([1]))
    with pytest.raises(BasisMismatchError):
        gen("x").apply(s)


def test_apply_is_composition_action():
    op1 = gen("dq").compose(gen("x")) + gen("y").scale(I)
    op2 = gen("q").compose(gen("dx"))
    s = Spinor(XY, {(2, 0): QPoly([1, 2]), (0, 1): QPoly([0, 0, Fraction(1, 3)])})
    assert op1.compose(op2).apply(s) == op1.apply(op2.apply(s))


def _spied_act(monkeypatch):
    """A list that gets the operator of each weyl._act call from here on."""
    calls = []
    genuine = weyl_mod._act

    def spied(op, spinor):
        calls.append(op)
        return genuine(op, spinor)

    monkeypatch.setattr(weyl_mod, "_act", spied)
    return calls


def _mixed_spinor():
    return Spinor(XY, {(2, 0): QPoly([1, 2]), (0, 1): QPoly([0, 0, Fraction(1, 3)])})


def test_a_repeated_apply_returns_the_same_image_and_acts_once(monkeypatch):
    calls = _spied_act(monkeypatch)
    op, s = gen("dq").compose(gen("x")) + gen("y").scale(I), _mixed_spinor()
    first = op.apply(s)
    assert op.apply(s) is first
    assert calls == [op]
    assert first == op.apply(_mixed_spinor())  # an equal spinor is another object: acted on anew
    assert len(calls) == 2


def test_another_operator_recomputes_and_replaces_the_remembered_image(monkeypatch):
    calls = _spied_act(monkeypatch)
    a, s = gen("x") * gen("dq"), _mixed_spinor()
    image_a = a.apply(s)
    image_b = gen("dx").apply(s)
    assert s._image[1] is image_b
    again = a.apply(s)
    assert again == image_a and again is not image_a
    equal_op = WeylOperator(XY, dict(a.terms))  # equal, but the memo keys on the object
    assert equal_op.apply(s) == image_a
    assert len(calls) == 4


def test_a_basis_mismatch_is_refused_with_an_image_remembered(monkeypatch):
    calls = _spied_act(monkeypatch)
    op, s = gen("x"), _mixed_spinor()
    op.apply(s)
    with pytest.raises(BasisMismatchError):
        op.change_basis(ZZ).apply(s)
    assert len(calls) == 1


def test_an_image_carries_the_marker_and_remembers_nothing():
    xs = named_operator("xs")
    s = x = _mixed_spinor()
    images = []
    for _ in range(5):
        x = xs.apply(x)
        images.append(x)
    assert s._image[0] is xs and s._image[1] is images[0]
    assert all(image._image is weyl_mod._AN_IMAGE for image in images)
    assert xs.apply(images[0]) == images[1] and images[0]._image is weyl_mod._AN_IMAGE


def test_str_rendering():
    assert str(WeylOperator.zero(XY)) == "0"
    op = gen("x").compose(gen("dx")).scale(Fraction(2, 3)) + WeylOperator.scalar(XY, I)
    assert str(op) == "(i) + (2/3)*x*dx"


def test_latex_rendering():
    op = gen("dq") ** 2
    assert op.to_latex() == r"\partial_q^{2}"
    assert gen("zbar", ZZ).to_latex() == r"\bar{z}"


coeffs = st.builds(
    G,
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
)
monomials = st.tuples(*[st.integers(min_value=0, max_value=2) for _ in range(6)])


@st.composite
def operators(draw, basis=XY, monomials=monomials):
    n = draw(st.integers(min_value=0, max_value=3))
    terms = {}
    for _ in range(n):
        terms[draw(monomials)] = draw(coeffs)
    return WeylOperator(basis, terms)


def leibniz_terms(a, b):
    """The (monomial, coefficient) terms of a after b, one per (term pair, j1, j2, j3).

    D^d P^p = sum_j C(d,j) C(p,j) j! P^(p-j) D^(d-j) for each of the x, y, q pairs.
    """
    made = []
    for (a1, b1, q1, d1, e1, f1), c1 in a.terms.items():
        for (a2, b2, q2, d2, e2, f2), c2 in b.terms.items():
            for j1 in range(min(d1, a2) + 1):
                for j2 in range(min(e1, b2) + 1):
                    for j3 in range(min(f1, q2) + 1):
                        w = 1
                        for d, p, j in ((d1, a2, j1), (e1, b2, j2), (f1, q2, j3)):
                            w *= comb(d, j) * comb(p, j) * factorial(j)
                        mono = (a1 + a2 - j1, b1 + b2 - j2, q1 + q2 - j3,
                                d1 + d2 - j1, e1 + e2 - j2, f1 + f2 - j3)
                        made.append((mono, c1 * c2 * w))
    return made


wide_operators = operators(monomials=st.tuples(*[st.integers(min_value=0, max_value=4)] * 6))


@settings(max_examples=60, deadline=None)
@given(wide_operators, wide_operators)
def test_compose_matches_term_by_term_leibniz_reference(a, b):
    made = leibniz_terms(a, b)
    want = WeylOperator.zero(XY)
    for mono, c in made:
        want = want + WeylOperator(XY, {mono: c})
    assert a.compose(b) == want
    # compose's term limit predicts the terms it makes before like terms merge
    assert a._compose_terms(b, 10**9) == len(made)


@settings(max_examples=40, deadline=None)
@given(operators(), operators(), operators())
def test_composition_associative(a, b, c):
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


@settings(max_examples=40, deadline=None)
@given(operators(), st.integers(min_value=0, max_value=4))
def test_power_is_a_left_fold_of_compose_from_the_identity(op, n):
    assert op**n == reduce(WeylOperator.compose, [op] * n, WeylOperator.identity(XY))
    assert op.powers(n)[-1] == op**n


def _other(basis):
    return ZZ if basis is XY else XY


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([XY, ZZ]).flatmap(lambda b: st.tuples(operators(b), operators(b))))
def test_change_basis_is_multiplicative(pair):
    a, b = pair  # one basis, drawn per example, so the zzbar -> xy direction is covered too
    t = _other(a.basis)
    assert a.compose(b).change_basis(t) == a.change_basis(t).compose(b.change_basis(t))


@settings(max_examples=100, deadline=None)
@given(st.one_of(operators(), operators(ZZ)))
def test_change_basis_round_trip(a):
    assert a.change_basis(_other(a.basis)).change_basis(a.basis) == a


@settings(max_examples=40, deadline=None)
@given(operators(), operators(), operators())
def test_commutator_leibniz(a, b, c):
    # [a, bc] = [a,b]c + b[a,c]
    lhs = a.commutator(b.compose(c))
    rhs = a.commutator(b).compose(c) + b.compose(a.commutator(c))
    assert lhs == rhs
