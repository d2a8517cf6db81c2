import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import symtwistor
from symtwistor.exactnum import G, GaussianRational, I, MINUS_I, ONE, ZERO


gaussians = st.builds(
    G,
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)
nonzero_gaussians = gaussians.filter(lambda g: not g.is_zero())


def test_construction_coerces_ints_and_fractions():
    g = GaussianRational(2, Fraction(1, 3))
    assert g.re == Fraction(2) and g.im == Fraction(1, 3)
    assert GaussianRational.coerce(5) == G(5)
    assert GaussianRational.coerce(Fraction(3, 4)) == G(Fraction(3, 4))
    assert GaussianRational.coerce(g) is g


def test_construction_accepts_exactly_int_bool_and_fraction():
    assert G(True) == 1 and G(False, True) == I
    assert type(G(True)._a) is int
    for bad in (1.5, None, "1", complex(1, 0)):
        with pytest.raises(TypeError, match="expected int or Fraction"):
            G(bad)


def test_importing_the_cli_loads_no_fractions():
    # pytest itself imports decimal, so the import is watched in a fresh process
    src = str(Path(symtwistor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = ("import sys, symtwistor.cli; "
             "print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout == "[]\n"


def test_immutable():
    g = G(1, 2)
    with pytest.raises(AttributeError):
        g.re = Fraction(9)


def test_basic_arithmetic():
    a = G(1, 2)
    b = G(3, -1)
    assert a + b == G(4, 1)
    assert a - b == G(-2, 3)
    assert a * b == G(5, 5)  # (1+2i)(3-i) = 3 - i + 6i + 2 = 5 + 5i
    assert -a == G(-1, -2)
    assert 2 + a == G(3, 2)
    assert 2 - a == G(1, -2)
    assert 3 * a == G(3, 6)


def test_i_squares_to_minus_one():
    assert I * I == G(-1)
    assert I**2 == -1
    assert I**3 == MINUS_I
    assert I**4 == ONE


def test_division_and_inverse():
    a = G(1, 1)
    assert a * a.inverse() == ONE
    assert a / a == ONE
    assert G(2) / 4 == Fraction(1, 2)
    assert 1 / I == MINUS_I
    assert G(5, 5) / G(3, -1) == G(1, 2)


def test_zero_division_raises():
    with pytest.raises(ZeroDivisionError):
        G(1) / ZERO
    with pytest.raises(ZeroDivisionError):
        G(1) / 0
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_negative_power_uses_inverse():
    assert G(0, 2) ** -2 == G(Fraction(-1, 4))
    assert I**-1 == MINUS_I


def test_pow_rejects_non_int():
    with pytest.raises(TypeError):
        I ** Fraction(1, 2)


def test_equality_against_plain_numbers():
    assert G(3) == 3
    assert G(Fraction(1, 2)) == Fraction(1, 2)
    assert G(3, 1) != 3
    assert not (G(0, 1) == 0)


def test_hash_matches_int_and_fraction_when_real():
    assert hash(G(7)) == hash(7)
    assert hash(G(Fraction(2, 3))) == hash(Fraction(2, 3))
    d = {G(7): "a"}
    assert d[7] == "a"


def test_str_rendering():
    assert str(ZERO) == "0"
    assert str(I) == "i"
    assert str(MINUS_I) == "-i"
    assert str(G(0, 2)) == "2i"
    assert str(G(Fraction(2, 3), Fraction(-1, 2))) == "2/3-1/2i"
    assert str(G(1, 1)) == "1+i"


def test_latex_rendering():
    assert G(Fraction(1, 2)).to_latex() == r"\frac{1}{2}"
    assert I.to_latex() == "i"
    assert G(1, -1).to_latex() == "1 - i"


def test_list_round_trip():
    g = G(Fraction(-3, 7), Fraction(5, 2))
    assert g.to_list() == [-3, 7, 5, 2]
    assert GaussianRational.from_list(g.to_list()) == g


@pytest.mark.parametrize(
    "bad",
    [
        [1, 2, 3],
        [1, 0, 0, 1],
        [1, 1, 1, 0],
        ["1", 1, 0, 1],
        [True, 1, 0, 1],
        "nope",
        None,
    ],
)
def test_from_list_rejects_malformed(bad):
    with pytest.raises(ValueError):
        GaussianRational.from_list(bad)


@given(gaussians, gaussians, gaussians)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(nonzero_gaussians)
def test_multiplicative_inverse(a):
    assert a * a.inverse() == ONE


@given(gaussians)
def test_conjugation_gives_norm(a):
    n = a * a.conjugate()
    assert n.im == 0
    assert n.re >= 0
    assert n.re == a.re * a.re + a.im * a.im


@given(gaussians)
def test_serialization_round_trip(a):
    assert GaussianRational.from_list(a.to_list()) == a


@given(gaussians, st.integers(min_value=0, max_value=12))
def test_pow_matches_repeated_multiplication(a, n):
    expected = ONE
    for _ in range(n):
        expected = expected * a
    assert a**n == expected


# ---- the reduced triple against a two-Fraction reference model ----

# zeros, integers and fractions with denominators up to 30
parts = st.one_of(
    st.just(Fraction(0)),
    st.integers(min_value=-20, max_value=20).map(Fraction),
    st.fractions(min_value=-40, max_value=40, max_denominator=30),
)
pairs = st.tuples(parts, parts)
nonzero_pairs = pairs.filter(lambda p: p != (0, 0))


def m_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def m_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def m_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def m_inverse(x):
    norm = x[0] * x[0] + x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def m_pow(x, n):
    if n < 0:
        return m_pow(m_inverse(x), -n)
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = m_mul(out, x)
    return out


def m_imag_str(v):
    return "i" if v == 1 else "-i" if v == -1 else f"{v}i"


def m_str(x):
    re, im = x
    if im == 0:
        return str(re)
    if re == 0:
        return m_imag_str(im)
    return f"{re}{'+' if im > 0 else '-'}{m_imag_str(abs(im))}"


def m_frac_latex(v):
    if v.denominator == 1:
        return str(v.numerator)
    return f"{'-' if v < 0 else ''}\\frac{{{abs(v.numerator)}}}{{{v.denominator}}}"


def m_imag_latex(v):
    return "i" if v == 1 else "-i" if v == -1 else f"{m_frac_latex(v)} i"


def m_latex(x):
    re, im = x
    if im == 0:
        return m_frac_latex(re)
    if re == 0:
        return m_imag_latex(im)
    return f"{m_frac_latex(re)} {'+' if im > 0 else '-'} {m_imag_latex(abs(im))}"


def agrees(g, x):
    """g has the model's value and is a reduced triple."""
    a, b, d = g._a, g._b, g._d
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0 and gcd(a, b, d) == 1
    assert (g.re, g.im) == x
    assert type(g.re) is Fraction and type(g.im) is Fraction
    return True


@given(pairs, pairs)
def test_ring_operations_match_the_model(x, y):
    gx, gy = G(*x), G(*y)
    assert agrees(gx, x) and agrees(gy, y)
    assert agrees(gx + gy, m_add(x, y))
    assert agrees(gx - gy, m_sub(x, y))
    assert agrees(gx * gy, m_mul(x, y))
    assert agrees(-gx, (-x[0], -x[1]))
    assert agrees(gx.conjugate(), (x[0], -x[1]))
    # mixed operands: int and Fraction on either side
    r = y[0]
    assert agrees(gx + r, m_add(x, (r, 0))) and agrees(r + gx, m_add(x, (r, 0)))
    assert agrees(gx - r, m_sub(x, (r, 0))) and agrees(r - gx, m_sub((r, 0), x))
    assert agrees(gx * r, m_mul(x, (r, 0))) and agrees(r * gx, m_mul(x, (r, 0)))
    n = r.numerator
    assert agrees(gx * n, m_mul(x, (n, 0))) and agrees(n * gx, m_mul(x, (n, 0)))


@given(pairs, nonzero_pairs, st.integers(min_value=-6, max_value=6))
def test_division_and_powers_match_the_model(x, y, n):
    gx, gy = G(*x), G(*y)
    assert agrees(gy.inverse(), m_inverse(y))
    assert agrees(gx / gy, m_mul(x, m_inverse(y)))
    assert agrees(1 / gy, m_inverse(y))
    assert agrees(gy**n, m_pow(y, n))
    if n >= 0:
        assert agrees(gx**n, m_pow(x, n))
    if y[1] == 0:
        assert agrees(gx / y[0], m_mul(x, m_inverse(y)))
    if n:  # plain int divisors, positive and negative
        assert agrees(gx / n, m_mul(x, (Fraction(1, n), Fraction(0))))


@given(pairs)
def test_hash_equality_and_forms_match_the_model(x):
    g = G(*x)
    re, im = x
    assert hash(g) == (hash(re) if im == 0 else hash((re, im)))
    assert (g == re) == (im == 0)
    assert (g == re.numerator) == (im == 0 and re.denominator == 1)
    if im == 0 and re.denominator == 1:
        assert hash(g) == hash(re.numerator)
    assert g == G(*x) and hash(g) == hash(G(*x))
    assert g.to_list() == [re.numerator, re.denominator, im.numerator, im.denominator]
    back = GaussianRational.from_list(g.to_list())
    assert agrees(back, x) and back == g
    unreduced = [3 * re.numerator, -3 * re.denominator, 2 * im.numerator, 2 * im.denominator]
    assert agrees(GaussianRational.from_list(unreduced), (-re, im))
    assert str(g) == m_str(x)
    assert g.to_latex() == m_latex(x)
    assert g.is_zero() == (x == (0, 0)) == (not g)
