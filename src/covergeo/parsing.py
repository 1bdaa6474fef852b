"""Plain-text input formats: branch-germ expressions and field specs.

Germ grammar (whitespace insensitive, integer coefficients only):

    expr   := term (('+' | '-') term)*
    term   := ('-')* factor ('*' factor)*
    factor := atom ('^' natural)?
    atom   := natural | 'x' | 't' | '(' expr ')'

The total degree of every product and power is at most MAX_DEGREE; the
check comes before the expansion.  Parentheses nest at most MAX_NESTING
deep, which keeps the recursive descent well inside Python's recursion
limit.  Field specs are "Q" for the rationals or
"F<p>" / "F<p>^<k>" for F_{p^k}, p an odd prime.
"""

from __future__ import annotations

import re

from .fields import QQ, extension_field
from .polynomials import BPoly


# admits every germ of the tests and the benchmark, the longest being t^2100
MAX_DEGREE = 10_000
# each level of parentheses takes four frames (atom, expr, term, factor), so
# this bound stays far below the default recursion limit of 1,000
MAX_NESTING = 100


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
    return extension_field(int(m.group(1)), int(m.group(2) or 1))


class _Parser:
    def __init__(self, text: str, field):
        self.text = text.replace("−", "-")
        self.pos = 0
        self.field = field
        self.depth = 0

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def check_degree(self, degree: int):
        if degree > MAX_DEGREE:
            self.error(f"total degree {degree} exceeds the bound {MAX_DEGREE}")

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
            rhs = self.factor()
            self.check_degree(_degree(value) + _degree(rhs))
            value = value * rhs
        return -value if negate else value

    def factor(self) -> BPoly:
        base = self.atom()
        if self.take("^"):
            exp = self.natural()
            self.check_degree(_degree(base) * exp)
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
            if self.depth == MAX_NESTING:
                self.error(f"parentheses nest deeper than the bound {MAX_NESTING}")
            self.pos += 1
            self.depth += 1
            value = self.expr()
            if not self.take(")"):
                self.error("expected ')'")
            self.depth -= 1
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


def _degree(f: BPoly) -> int:
    return max((i + j for i, j in f.terms), default=0)


def parse_polynomial(text: str, field) -> BPoly:
    """Parse a germ expression in x and t over the given field."""
    return _Parser(text, field).parse()
