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
A product, and each step of a power, is an OperatorSyntaxError at its "*"
or "^" when it would reach a total degree above MAX_OPERATOR_DEGREE or
produce more than MAX_COMPOSE_TERMS terms before like terms merge; both
are predicted before the composition.

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
MAX_OPERATOR_DEGREE = 128  # total degree of a product's monomials
MAX_COMPOSE_TERMS = 20_000  # terms of one composition before like terms merge

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()/]))")


class _Token(NamedTuple):
    kind: str  # "int", "ident", or the operator character itself
    text: str
    position: int


def tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise OperatorSyntaxError(f"unexpected character {text[bad_at]!r}", bad_at)
        number, ident, op = match.groups()
        start = match.end() - len(match.group().lstrip())
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
            acc = _compose(acc, self.parse_unary(), tok)

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
            exp_tok = self.peek()
            if exp_tok is None or exp_tok.kind != "int":
                at = exp_tok.position if exp_tok else len(self.text)
                raise OperatorSyntaxError("exponent must be a nonnegative integer", at)
            self.advance()
            exponent = int(exp_tok.text)
            if exponent > MAX_EXPONENT:
                raise OperatorSyntaxError(
                    f"exponent must be at most {MAX_EXPONENT}", exp_tok.position
                )
            result = WeylOperator.identity(self.basis)
            for _ in range(exponent):
                result = _compose(result, base, tok)
            return result
        return base

    def parse_primary(self) -> WeylOperator:
        tok = self.peek()
        if tok is None:
            raise OperatorSyntaxError("unexpected end of expression", len(self.text))
        if tok.kind == "int":
            self.advance()
            value = int(tok.text)
            nxt = self.peek()
            if nxt is not None and nxt.kind == "/":
                self.advance()
                den_tok = self.peek()
                if den_tok is None or den_tok.kind != "int":
                    at = den_tok.position if den_tok else len(self.text)
                    raise OperatorSyntaxError("'/' is only allowed between integer literals", at)
                self.advance()
                den = int(den_tok.text)
                if den == 0:
                    raise OperatorSyntaxError("zero denominator", den_tok.position)
                value = _make(value, 0, den)  # value/den, reduced
            return WeylOperator.scalar(self.basis, value)
        if tok.kind == "ident":
            self.advance()
            return self.ident_operand(tok)
        if tok.kind == "(":
            self.advance()
            self.nest(tok)
            inner = self.parse_expr()
            closing = self.peek()
            if closing is None or closing.kind != ")":
                at = closing.position if closing else len(self.text)
                raise OperatorSyntaxError("expected ')'", at)
            self.advance()
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


def _compose(a: WeylOperator, b: WeylOperator, tok: _Token) -> WeylOperator:
    """a.compose(b), refused before any work when it exceeds a limit."""
    degree = max(map(sum, a.terms), default=0) + max(map(sum, b.terms), default=0)
    if degree > MAX_OPERATOR_DEGREE:
        raise OperatorSyntaxError(
            f"product reaches degree {degree}, above {MAX_OPERATOR_DEGREE}", tok.position
        )
    if a._compose_terms(b, MAX_COMPOSE_TERMS) > MAX_COMPOSE_TERMS:
        raise OperatorSyntaxError(
            f"product needs more than {MAX_COMPOSE_TERMS} terms", tok.position
        )
    return a.compose(b)


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
