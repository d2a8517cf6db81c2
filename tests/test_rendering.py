"""str() and to_latex() of QPoly, Spinor and WeylOperator against a reference model.

The model below writes each rendering from the coefficients alone, case by
case, as the output formats are documented: plain text for scalars,
q-polynomials and spinors, operator text that reparses (an explicit '*'
before i), and LaTeX.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from symtwistor.exactnum import G
from symtwistor.parsing import parse_operator
from symtwistor.spinor import QPoly, Spinor
from symtwistor.weyl import BasisTag, WeylOperator

XY, ZZ = BasisTag.XY, BasisTag.ZZBAR

# zeros, units (whose 1 is elided), integers and fractions, real, imaginary and both
parts = st.one_of(
    st.just(Fraction(0)),
    st.sampled_from([Fraction(1), Fraction(-1)]),
    st.integers(min_value=-9, max_value=9).map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)
scalars = st.builds(G, parts, parts)
qpolys = st.lists(scalars, max_size=6).map(QPoly)
bases = st.sampled_from([XY, ZZ])

NAMES = {
    XY: (["x", "y", "q", "dx", "dy", "dq"],
         ["x", "y", "q", r"\partial_x", r"\partial_y", r"\partial_q"]),
    ZZ: (["z", "zbar", "q", "dz", "dzbar", "dq"],
         ["z", r"\bar{z}", "q", r"\partial_z", r"\partial_{\bar{z}}", r"\partial_q"]),
}


@st.composite
def spinors(draw):
    keys = st.tuples(st.integers(0, 3), st.integers(0, 3))
    terms = draw(st.dictionaries(keys, qpolys, max_size=4))
    return Spinor(draw(bases), terms)


@st.composite
def operators(draw):
    monomials = st.tuples(*[st.integers(0, 3) for _ in range(6)])
    terms = draw(st.dictionaries(monomials, scalars, max_size=4))
    return WeylOperator(draw(bases), terms)


# ---- the model ----

def m_rational(v, latex):
    if not latex or v.denominator == 1:
        return str(v)
    return f"{'-' if v < 0 else ''}\\frac{{{abs(v.numerator)}}}{{{v.denominator}}}"


def m_scalar(c, mode):
    """mode is 'text' (2i), 'expr' (2*i) or 'latex' (2 i)."""
    latex = mode == "latex"
    re, im = c.re, c.im
    if im == 0:
        return m_rational(re, latex)
    if abs(im) == 1:
        unit = "i"
    else:
        unit = m_rational(abs(im), latex) + {"text": "i", "expr": "*i", "latex": " i"}[mode]
    if re == 0:
        return unit if im > 0 else "-" + unit
    sign = ("+" if im > 0 else "-")
    if latex:
        sign = f" {sign} "
    return m_rational(re, latex) + sign + unit


def m_bracket(text, latex):
    return f"\\left({text}\\right)" if latex else f"({text})"


def m_power(name, e, latex):
    if e == 1:
        return name
    return f"{name}^{{{e}}}" if latex else f"{name}^{e}"


def m_qpoly(p, mode):
    latex = mode == "latex"
    out = []
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        text = m_scalar(c, mode)
        if k == 0:
            out.append(text)
            continue
        qk = m_power("q", k, latex)
        if c == 1:
            out.append(qk)
            continue
        signed = c.re < 0 or c.im < 0 or (c.re != 0 and c.im != 0)
        if signed:
            text = m_bracket(text, latex)
        out.append(f"{text} {qk}" if latex else f"{text}*{qk}")
    return " + ".join(out) or "0"


def m_spinor(s, mode):
    latex = mode == "latex"
    if not s.terms:
        return "0"
    names = NAMES[s.basis][latex]
    out = []
    for (e1, e2), p in sorted(s.terms.items()):
        factors = [m_power(n, e, latex) for n, e in zip(names, (e1, e2)) if e]
        term = m_bracket(m_qpoly(p, mode), latex)
        if factors:
            term += " " + " ".join(factors) if latex else "*" + "*".join(factors)
        out.append(term)
    if latex:
        return "e^{-q^2/2}\\left(" + " + ".join(out) + "\\right)"
    return "exp(-q^2/2) * (" + " + ".join(out) + ")"


def m_operator(op, mode):
    latex = mode == "latex"
    names = NAMES[op.basis][latex]
    out = []
    for mono, c in sorted(op.terms.items()):
        factors = [m_power(n, e, latex) for n, e in zip(names, mono) if e]
        coeff = m_bracket(m_scalar(c, mode), latex)
        if not factors:
            out.append(coeff)
        elif latex:
            out.append(" ".join(factors if c == 1 else [coeff] + factors))
        else:
            out.append("*".join(factors if c == 1 else [coeff] + factors))
    return " + ".join(out) or "0"


# ---- properties ----

@settings(max_examples=150, deadline=None)
@given(qpolys)
def test_qpoly_renderings_match_the_model(p):
    assert str(p) == m_qpoly(p, "text")
    assert p.to_latex() == m_qpoly(p, "latex")


@settings(max_examples=100, deadline=None)
@given(spinors())
def test_spinor_renderings_match_the_model(s):
    assert str(s) == m_spinor(s, "text")
    assert s.to_latex() == m_spinor(s, "latex")


@settings(max_examples=150, deadline=None)
@given(operators())
def test_operator_renderings_match_the_model(op):
    assert str(op) == m_operator(op, "expr")
    assert op.to_latex() == m_operator(op, "latex")
    assert parse_operator(str(op), op.basis) == op


def test_zero_renders_as_0():
    assert str(QPoly()) == QPoly().to_latex() == "0"
    for basis in (XY, ZZ):
        for zero in (Spinor.zero(basis), WeylOperator.zero(basis)):
            assert str(zero) == zero.to_latex() == "0"


def test_fixed_renderings():
    p = QPoly([G(0, -1), G(1), G(-2), G(Fraction(1, 2), 3), G(0, Fraction(2, 3))])
    assert str(p) == "-i + q + (-2)*q^2 + (1/2+3i)*q^3 + 2/3i*q^4"
    assert p.to_latex() == (r"-i + q + \left(-2\right) q^{2} + \left(\frac{1}{2} + 3 i\right) q^{3}"
                            r" + \frac{2}{3} i q^{4}")
    s = Spinor(ZZ, {(0, 0): QPoly([1]), (2, 1): QPoly([0, G(0, 2)])})
    assert str(s) == "exp(-q^2/2) * ((1) + (2i*q)*z^2*zbar)"
    assert s.to_latex() == (r"e^{-q^2/2}\left(\left(1\right) + \left(2 i q\right) z^{2} \bar{z}"
                            r"\right)")
    op = WeylOperator(XY, {(0, 0, 0, 0, 0, 0): G(1), (1, 0, 2, 0, 0, 1): G(-1, Fraction(-1, 2))})
    assert str(op) == "(1) + (-1-1/2*i)*x*q^2*dq"
    assert op.to_latex() == r"\left(1\right) + \left(-1 - \frac{1}{2} i\right) x q^{2} \partial_q"
