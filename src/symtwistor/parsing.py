"""Small expression language for building WeylOperators.

Grammar (tightest first):
    power   := primary ["^" INT]
    unary   := "-" unary | power
    term    := unary ("*" unary)*        # noncommutative, left to right
    expr    := term (("+" | "-") term)*
    primary := INT ["/" INT] | IDENT | "(" expr ")"

Parentheses and unary minus signs together nest at most MAX_NESTING_DEPTH
deep, which keeps the recursive descent inside Python's recursion limit;
deeper input is an OperatorSyntaxError at the first token past the limit.
An exponent above MAX_EXPONENT is an OperatorSyntaxError at the exponent.
A product, or a step of a power, that WeylOperator.compose refuses is an
OperatorSyntaxError at its "*" or "^".

Identifiers: the generator names of weyl.GENERATOR_NAMES (x y q dx dy dq
in the xy basis, z zbar q dz dzbar dq in the zzbar basis) and i (the
imaginary unit). "/" is only the rational-literal separator, never an
operator. Juxtaposition is not multiplication: "2q" is a syntax error.

An expression has one basis: that of its first identifier that is a
generator of one basis only, or xy when there is none (q, dq, i and
numbers name no basis). Every operand is built in that basis, and a
generator of the other basis is a syntax error where it is reached.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .exactnum import GaussianRational, _make
from .weyl import GENERATOR_NAMES, BasisTag, WeylOperator


class OperatorSyntaxError(ValueError):
    """Malformed expression; .position is a 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(OperatorSyntaxError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown symbol {name!r}", position)
        self.name = name


MAX_NESTING_DEPTH = 100
MAX_EXPONENT = 64

_SPACE = " \t\r\n"  # the only characters that separate tokens
_TOKEN_RE = re.compile(rf"[{_SPACE}]*(?:([0-9]+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()/]))")


class _Token(NamedTuple):
    kind: str  # "int", "ident", or the operator character itself
    text: str
    position: int


def tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip(_SPACE)
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise OperatorSyntaxError(f"unexpected character {text[bad_at]!r}", bad_at)
        number, ident, op = match.groups()
        start = match.end() - len(match.group().lstrip(_SPACE))
        if number is not None:
            tokens.append(_Token("int", number, start))
        elif ident is not None:
            tokens.append(_Token("ident", ident, start))
        else:
            tokens.append(_Token(op, op, start))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0
        self.depth = 0
        self.basis = _expression_basis(self.tokens)

    def peek(self) -> _Token | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def advance(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise OperatorSyntaxError("unexpected end of expression", len(self.text))
        self.index += 1
        return tok

    def expect(self, kind: str, message: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            raise OperatorSyntaxError(message, tok.position if tok else len(self.text))
        self.index += 1
        return tok

    def nest(self, tok: _Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING_DEPTH:
            raise OperatorSyntaxError(
                f"nesting deeper than {MAX_NESTING_DEPTH} levels", tok.position
            )

    def parse(self) -> WeylOperator:
        result = self.parse_expr()
        tok = self.peek()
        if tok is not None:
            raise OperatorSyntaxError(f"unexpected {tok.text!r}", tok.position)
        return result

    def parse_expr(self) -> WeylOperator:
        acc = self.parse_term()
        while True:
            tok = self.peek()
            if tok is None or tok.kind not in ("+", "-"):
                return acc
            self.advance()
            rhs = self.parse_term()
            acc = acc + rhs if tok.kind == "+" else acc - rhs

    def parse_term(self) -> WeylOperator:
        acc = self.parse_unary()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "*":
                return acc
            self.advance()
            acc = _reported_at(tok, WeylOperator.compose, acc, self.parse_unary())

    def parse_unary(self) -> WeylOperator:
        tok = self.peek()
        if tok is not None and tok.kind == "-":
            self.advance()
            self.nest(tok)
            result = -self.parse_unary()
            self.depth -= 1
            return result
        return self.parse_power()

    def parse_power(self) -> WeylOperator:
        base = self.parse_primary()
        tok = self.peek()
        if tok is not None and tok.kind == "^":
            self.advance()
            exp_tok = self.expect("int", "exponent must be a nonnegative integer")
            digits = exp_tok.text.lstrip("0") or "0"  # compared before int() can refuse it
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise OperatorSyntaxError(
                    f"exponent must be at most {MAX_EXPONENT}", exp_tok.position
                )
            return _reported_at(tok, pow, base, int(digits))
        return base

    def parse_primary(self) -> WeylOperator:
        tok = self.advance()
        if tok.kind == "int":
            value = _reported_at(tok, int, tok.text)  # past the digit limit of int()
            nxt = self.peek()
            if nxt is not None and nxt.kind == "/":
                self.advance()
                den_tok = self.expect("int", "'/' is only allowed between integer literals")
                den = _reported_at(den_tok, int, den_tok.text)
                if den == 0:
                    raise OperatorSyntaxError("zero denominator", den_tok.position)
                value = _make(value, 0, den)  # value/den, reduced
            return WeylOperator.scalar(self.basis, value)
        if tok.kind == "ident":
            return self.ident_operand(tok)
        if tok.kind == "(":
            self.nest(tok)
            inner = self.parse_expr()
            self.expect(")", "expected ')'")
            self.depth -= 1
            return inner
        raise OperatorSyntaxError(f"unexpected {tok.text!r}", tok.position)

    def ident_operand(self, tok: _Token) -> WeylOperator:
        name = tok.text
        if name == "i":
            return WeylOperator.scalar(self.basis, GaussianRational(0, 1))
        if name in GENERATOR_NAMES[self.basis]:
            return WeylOperator.generator(self.basis, name)
        bases = _generator_bases(name)
        if not bases:
            raise UnknownSymbolError(name, tok.position)
        article = "an" if self.basis is BasisTag.XY else "a"
        raise OperatorSyntaxError(
            f"{name!r} mixes {bases[0].value} generators into {article} "
            f"{self.basis.value} expression",
            tok.position,
        )


def _reported_at(tok: _Token, fn, *args):
    """fn(*args), with a ValueError it raises reported as an OperatorSyntaxError at tok.

    This is how a composition that WeylOperator.compose refuses gets its position.
    """
    try:
        return fn(*args)
    except ValueError as exc:
        raise OperatorSyntaxError(str(exc), tok.position) from exc


def _generator_bases(name: str) -> list[BasisTag]:
    return [tag for tag in BasisTag if name in GENERATOR_NAMES[tag]]


def _expression_basis(tokens: list[_Token]) -> BasisTag:
    """Basis of the first identifier that is a generator of one basis only; xy if none."""
    for tok in tokens:
        if tok.kind == "ident":
            bases = _generator_bases(tok.text)
            if len(bases) == 1:
                return bases[0]
    return BasisTag.XY


def parse_operator(text: str, basis: BasisTag | None = None) -> WeylOperator:
    """Parse text into a WeylOperator.

    The basis is that of the first identifier that is a generator of one
    basis only (x, y, dx, dy or z, zbar, dz, dzbar); it is xy when only
    q, dq, i and numbers appear. A generator of the other basis raises
    OperatorSyntaxError at its position. When `basis` is given, the
    parsed operator is converted to it.
    """
    result = _Parser(text).parse()
    if basis is not None:
        result = result.change_basis(basis)
    return result
