"""Plain-text input formats: branch-germ expressions and field specs.

Germ grammar (whitespace insensitive, integer coefficients only):

    expr   := term (('+' | '-') term)*
    term   := ('-')* factor ('*' factor)*
    factor := atom ('^' natural)?
    atom   := natural | 'x' | 't' | '(' expr ')'

Field specs are "Q" for the rationals or "F<p>" / "F<p>^<k>" for F_{p^k},
p an odd prime.
"""

from __future__ import annotations

import re

from .fields import QQ, extension_field, is_prime
from .polynomials import BPoly


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_field_spec(spec: str):
    spec = spec.strip()
    if spec == "Q":
        return QQ
    m = re.fullmatch(r"F(\d+)(?:\^(\d+))?", spec)
    if not m:
        raise ValueError(
            f"bad field spec {spec!r}: expected Q, F<p> or F<p>^<k>"
        )
    p = int(m.group(1))
    k = int(m.group(2)) if m.group(2) else 1
    if p == 2:
        raise ValueError("characteristic 2 is not supported")
    if not is_prime(p):
        raise ValueError(f"field characteristic {p} is not prime")
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    return extension_field(p, k)


class _Parser:
    def __init__(self, text: str, field):
        self.text = text.replace("−", "-")
        self.pos = 0
        self.field = field

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def parse(self) -> BPoly:
        value = self.expr()
        if self.peek():
            self.error(f"unexpected {self.peek()!r}")
        if value.is_zero():
            self.error("germ equation must be nonzero")
        return value

    def expr(self) -> BPoly:
        value = self.term()
        while True:
            if self.take("+"):
                value = value + self.term()
            elif self.take("-"):
                value = value - self.term()
            else:
                return value

    def term(self) -> BPoly:
        negate = False
        while self.take("-"):
            negate = not negate
        value = self.factor()
        while self.take("*"):
            value = value * self.factor()
        return -value if negate else value

    def factor(self) -> BPoly:
        base = self.atom()
        if self.take("^"):
            exp = self.natural()
            out = BPoly.constant(self.field, self.field.one)
            while exp:  # square and multiply
                if exp & 1:
                    out = out * base
                exp >>= 1
                if exp:
                    base = base * base
            return out
        return base

    def atom(self) -> BPoly:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            value = self.expr()
            if not self.take(")"):
                self.error("expected ')'")
            return value
        if ch == "x":
            self.pos += 1
            return BPoly.var_x(self.field)
        if ch == "t":
            self.pos += 1
            return BPoly.var_t(self.field)
        if ch.isdigit():
            return BPoly.constant(self.field, self.field.from_int(self.natural()))
        self.error("expected a number, x, t or '('")

    def natural(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected a number")
        return int(self.text[start:self.pos])


def parse_polynomial(text: str, field) -> BPoly:
    """Parse a germ expression in x and t over the given field."""
    return _Parser(text, field).parse()
