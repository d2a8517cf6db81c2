"""Expression-language behavior: precedence, bases, error positions."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symtwistor.exactnum import G, I
from symtwistor.parsing import (
    MAX_EXPONENT,
    MAX_NESTING_DEPTH,
    OperatorSyntaxError,
    UnknownSymbolError,
    parse_operator,
    tokenize,
)
from symtwistor.weyl import BasisTag, WeylOperator

from test_weyl import operators

XY, ZZ = BasisTag.XY, BasisTag.ZZBAR


def gen(name, basis=XY):
    return WeylOperator.generator(basis, name)


def test_single_generator():
    assert parse_operator("x") == gen("x")
    assert parse_operator("dzbar") == gen("dzbar", ZZ)


def test_integer_and_fraction_literals():
    assert parse_operator("7") == WeylOperator.scalar(XY, 7)
    assert parse_operator("2/3") == WeylOperator.scalar(XY, Fraction(2, 3))
    assert parse_operator("i") == WeylOperator.scalar(XY, I)
    assert parse_operator("1/2*x").terms == {(1, 0, 0, 0, 0, 0): G(Fraction(1, 2))}
    assert parse_operator("6/4") == WeylOperator.scalar(XY, Fraction(3, 2))


def test_precedence_product_over_sum():
    got = parse_operator("x + y*dq")
    assert got == gen("x") + gen("y").compose(gen("dq"))


def test_power_binds_tightest():
    assert parse_operator("q^2") == gen("q") ** 2
    assert parse_operator("-q^2") == -(gen("q") ** 2)
    assert parse_operator("2*q^3*dq") == (gen("q") ** 3).compose(gen("dq")).scale(2)


def test_parentheses():
    got = parse_operator("(x + y)*dq")
    assert got == (gen("x") + gen("y")).compose(gen("dq"))
    assert parse_operator("((x))") == gen("x")


def test_product_is_composition_order():
    # dq*q must normal-order to q*dq + 1, not commute
    assert parse_operator("dq*q") == gen("q").compose(gen("dq")) + 1
    assert parse_operator("q*dq") == gen("q").compose(gen("dq"))


def test_unary_minus_chains():
    assert parse_operator("--x") == gen("x")
    assert parse_operator("-x + x").is_zero()


def test_known_display_expression():
    ts = parse_operator("dx - q*dq*dx + i*q^2*dy")
    want = (
        gen("dx")
        - gen("q").compose(gen("dq")).compose(gen("dx"))
        + (gen("q") ** 2).compose(gen("dy")).scale(I)
    )
    assert ts == want


def test_neutral_expression_defaults_to_xy():
    op = parse_operator("q*dq + 1")
    assert op.basis is XY


def test_neutral_expression_converts_on_request():
    op = parse_operator("q*dq + 1", ZZ)
    assert op.basis is ZZ
    assert op == gen("q", ZZ).compose(gen("dq", ZZ)) + 1


def test_basis_inference_zzbar():
    op = parse_operator("z*dzbar")
    assert op.basis is ZZ


def test_explicit_basis_conversion():
    op = parse_operator("dx", ZZ)
    assert op == gen("dz", ZZ) + gen("dzbar", ZZ)


def test_conversion_target_must_be_a_basis_tag():
    # unchecked, the string would tag the untouched xy operator x as "zzbar"
    with pytest.raises(TypeError, match="needs a BasisTag"):
        parse_operator("x", "zzbar")


def test_mixed_bases_rejected_with_position():
    with pytest.raises(OperatorSyntaxError) as exc:
        parse_operator("x + zbar")
    assert exc.value.position == 4
    with pytest.raises(OperatorSyntaxError):
        parse_operator("z*y")


@pytest.mark.parametrize(
    "text, error, message, position",
    [
        # a syntax error before the mixing identifier wins
        ("x + ) + z", OperatorSyntaxError, "unexpected ')'", 4),
        ("(x + zbar", OperatorSyntaxError, "'zbar' mixes zzbar generators into an xy expression", 5),
        # the first basis-specific identifier fixes the basis, even after neutral ones
        ("q + zbar*x", OperatorSyntaxError, "'x' mixes xy generators into a zzbar expression", 9),
        ("q*dq + z*foo", UnknownSymbolError, "unknown symbol 'foo'", 9),
    ],
)
def test_error_precedence_follows_token_order(text, error, message, position):
    with pytest.raises(OperatorSyntaxError) as exc:
        parse_operator(text)
    assert type(exc.value) is error
    assert str(exc.value) == f"{message} (at position {position})"
    assert exc.value.position == position


def test_unknown_symbol_position():
    with pytest.raises(UnknownSymbolError) as exc:
        parse_operator("x*foo")
    assert exc.value.position == 2
    assert "foo" in str(exc.value)


def test_juxtaposition_is_error():
    with pytest.raises(OperatorSyntaxError) as exc:
        parse_operator("2q")
    assert exc.value.position == 1


def test_dangling_operator():
    with pytest.raises(OperatorSyntaxError) as exc:
        parse_operator("x +")
    assert exc.value.position == 3


def test_unbalanced_parens():
    with pytest.raises(OperatorSyntaxError):
        parse_operator("(x + y")
    with pytest.raises(OperatorSyntaxError):
        parse_operator("x)")


def test_nesting_up_to_the_limit_parses():
    n = MAX_NESTING_DEPTH
    assert parse_operator("(" * n + "x" + ")" * n) == gen("x")
    assert parse_operator("-" * n + "x") == gen("x").scale((-1) ** n)
    half = n // 2
    assert parse_operator("(-" * half + "x" + ")" * half) == parse_operator("-" * half + "x")


@pytest.mark.parametrize(
    "text",
    [
        "(" * 1200 + "x" + ")" * 1200,
        "-" * 5000 + "x",
        "(-" * 1000 + "x" + ")" * 1000,
        "(" * (MAX_NESTING_DEPTH + 1) + "x" + ")" * (MAX_NESTING_DEPTH + 1),
    ],
)
def test_nesting_past_the_limit_is_a_syntax_error(text):
    # one level per '(' or unary '-'; the first token past the limit is reported
    with pytest.raises(OperatorSyntaxError) as exc:
        parse_operator(text)
    assert exc.value.position == MAX_NESTING_DEPTH
    assert f"nesting deeper than {MAX_NESTING_DEPTH} levels" in str(exc.value)


def test_slash_restricted_to_integer_literals():
    with pytest.raises(OperatorSyntaxError):
        parse_operator("x/2")
    with pytest.raises(OperatorSyntaxError):
        parse_operator("1/x")
    with pytest.raises(OperatorSyntaxError):
        parse_operator("1/0")


def test_power_needs_integer_exponent():
    with pytest.raises(OperatorSyntaxError):
        parse_operator("q^x")
    with pytest.raises(OperatorSyntaxError):
        parse_operator("q^")


def test_an_exponent_past_the_digit_limit_of_int_is_the_exponent_limit():
    # compared by its digits: int() of 5,000 digits would raise without a position
    with pytest.raises(OperatorSyntaxError) as exc:
        parse_operator("x^" + "9" * 5000)
    assert str(exc.value) == f"exponent must be at most {MAX_EXPONENT} (at position 2)"
    assert parse_operator("x^" + "0" * 5000 + "2") == gen("x") ** 2


@pytest.mark.parametrize(
    "text, position",
    [("9" * 5000 + "*x", 0), ("x*1/" + "9" * 5000, 4)],
    ids=["numerator", "denominator"],
)
def test_a_literal_past_the_digit_limit_of_int_is_a_syntax_error_at_the_literal(text, position):
    with pytest.raises(OperatorSyntaxError) as exc:
        parse_operator(text)
    assert exc.value.position == position
    assert str(exc.value).endswith(f" (at position {position})")


@pytest.mark.parametrize("text", ["\u0663*x", "\uff11\uff12*x", "x^\u0663"])
def test_numbers_are_ascii_digits_only(text):
    # Arabic-Indic three and fullwidth twelve; no renderer writes them
    at = next(i for i, ch in enumerate(text) if not ch.isascii())
    with pytest.raises(OperatorSyntaxError) as exc:
        parse_operator(text)
    assert str(exc.value) == f"unexpected character {text[at]!r} (at position {at})"


@pytest.mark.parametrize("text", ["x\u3000+ y", "x\xa0+ y", "x\u3000", "x + y\u2003"])
def test_only_ascii_space_tab_cr_lf_separate_tokens(text):
    # ideographic, no-break and em spaces are stray characters, trailing ones too
    at = next(i for i, ch in enumerate(text) if not ch.isascii())
    with pytest.raises(OperatorSyntaxError) as exc:
        parse_operator(text)
    assert str(exc.value) == f"unexpected character {text[at]!r} (at position {at})"


def test_tab_cr_and_lf_separate_tokens():
    assert parse_operator(" x\t+\r\n y \n") == parse_operator("x + y")


def test_stray_character_position():
    with pytest.raises(OperatorSyntaxError) as exc:
        parse_operator("x + $y")
    assert exc.value.position == 4


def test_empty_input():
    with pytest.raises(OperatorSyntaxError):
        parse_operator("")
    with pytest.raises(OperatorSyntaxError):
        parse_operator("   ")


def _reference_tokens(text):
    """Character-by-character scan: (kind, text, position) tokens, or (message, position)."""
    digits, letters = "0123456789", "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"
    tokens, pos = [], 0
    while pos < len(text):
        c = text[pos]
        if c in " \t\r\n":
            pos += 1
        elif c in "-+*^()/":
            tokens.append((c, c, pos))
            pos += 1
        elif c in digits or c in letters:
            kind, allowed = ("int", digits) if c in digits else ("ident", letters + digits)
            end = pos + 1
            while end < len(text) and text[end] in allowed:
                end += 1
            tokens.append((kind, text[pos:end], pos))
            pos = end
        else:
            return f"unexpected character {c!r} (at position {pos})", pos
    return tokens


_PIECES = [*"0123456789+-*^()/", "x", "y", "q", "dx", "dzbar", "zbar", "i", "_a1",
           " ", "   ", "\t", "\r", "\n", "\r\n", "\v", "\f", "$", "\u3000", "\xa0", "\u0663"]
_SPACES = st.lists(st.sampled_from([" ", "\t", "\r", "\n"]), max_size=4).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.tuples(_SPACES, st.lists(st.sampled_from(_PIECES), max_size=16).map("".join), _SPACES)
       .map("".join))
@example("")
@example("   ")
@example(" \t\r\n x\t+\r\n12 ")
def test_tokenize_matches_a_character_by_character_scan(text):
    try:
        got = [tuple(tok) for tok in tokenize(text)]
    except OperatorSyntaxError as exc:
        assert type(exc) is OperatorSyntaxError
        got = str(exc), exc.position
    assert got == _reference_tokens(text)


@settings(max_examples=50, deadline=None)
@given(operators())
def test_str_round_trips_through_parser(op):
    assert parse_operator(str(op), op.basis) == op


@settings(max_examples=30, deadline=None)
@given(operators(basis=ZZ))
def test_str_round_trips_zzbar(op):
    assert parse_operator(str(op), op.basis) == op
