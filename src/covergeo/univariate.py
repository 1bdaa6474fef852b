"""Univariate polynomials over an exact coefficient field.

``UPoly`` is dense (coefficient tuple, increasing degree, no trailing
zeros).  Factorization over finite fields is fully deterministic: squarefree
decomposition (characteristic aware), distinct-degree splitting, then
equal-degree splitting driven by a fixed enumeration of trial polynomials
instead of a random source.
"""

from __future__ import annotations

import math
from fractions import Fraction


class UPoly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == field.zero:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    @classmethod
    def var(cls, field):
        return cls(field, (field.zero, field.one))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return (
            isinstance(other, UPoly)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __add__(self, other):
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        out = [f.zero] * n
        for i, c in enumerate(self.coeffs):
            out[i] = c
        for i, c in enumerate(other.coeffs):
            out[i] = f.add(out[i], c)
        return UPoly(f, out)

    def __neg__(self):
        f = self.field
        return UPoly(f, [f.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        f = self.field
        if not self.coeffs or not other.coeffs:
            return UPoly.zero(f)
        out = [f.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == f.zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = f.add(out[i + j], f.mul(a, b))
        return UPoly(f, out)

    def scale(self, c):
        f = self.field
        return UPoly(f, [f.mul(c, a) for a in self.coeffs])

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.leading()))

    def __divmod__(self, other):
        f = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.degree
        inv_lead = f.inv(other.leading())
        q = [f.zero] * max(0, len(rem) - db)
        while len(rem) - 1 >= db and rem:
            c = f.mul(rem[-1], inv_lead)
            d = len(rem) - 1 - db
            q[d] = c
            for i, bc in enumerate(other.coeffs):
                rem[d + i] = f.sub(rem[d + i], f.mul(c, bc))
            while rem and rem[-1] == f.zero:
                rem.pop()
        return UPoly(f, q), UPoly(f, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def deriv(self):
        f = self.field
        out = []
        for i, c in enumerate(self.coeffs[1:], start=1):
            out.append(f.mul(f.from_int(i), c))
        return UPoly(f, out)

    def valuation(self) -> int:
        """Order of vanishing at 0."""
        if self.is_zero():
            raise ValueError("zero polynomial has no valuation")
        for i, c in enumerate(self.coeffs):
            if c != self.field.zero:
                return i
        raise AssertionError

    def pow_mod(self, e: int, mod: "UPoly") -> "UPoly":
        result = UPoly.constant(self.field, self.field.one) % mod
        base = self % mod
        while e > 0:
            if e & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            e >>= 1
        return result

    def sort_key(self):
        return (self.degree, tuple(self.field.sort_key(c) for c in self.coeffs))

    def fmt(self, var: str = "t") -> str:
        f = self.field
        if self.is_zero():
            return "0"
        terms = []
        for d in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[d]
            if c == f.zero:
                continue
            cs = f.fmt(c)
            if d == 0:
                terms.append(cs)
            else:
                head = "" if cs == "1" else f"{cs}*"
                terms.append(f"{head}{var}" + (f"^{d}" if d > 1 else ""))
        return " + ".join(terms)

    def __repr__(self):
        return f"UPoly({self.fmt()!r} over {self.field.name})"


def ugcd(a: UPoly, b: UPoly) -> UPoly:
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def u_squarefree(f: UPoly) -> list[tuple[UPoly, int]]:
    """Squarefree decomposition f = c * prod g_i^e_i with g_i monic squarefree
    and pairwise coprime; valid in characteristic 0 and p."""
    if f.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    parts: dict[int, UPoly] = {}
    _usqf(f.monic(), 1, parts)
    out = [(g, e) for e, g in parts.items()]
    out.sort(key=lambda ge: (ge[1], ge[0].sort_key()))
    return out


def _usqf(f: UPoly, mult: int, parts: dict[int, UPoly]) -> None:
    if f.is_constant():
        return
    p = f.field.char
    fp = f.deriv()
    if fp.is_zero():
        # f is a polynomial in x^p, hence a p-th power over a perfect field
        _usqf(_u_pth_root(f), mult * p, parts)
        return
    d = ugcd(f, fp)
    w = f.exact_div(d)
    e = 1
    while not w.is_constant():
        y = ugcd(w, d)
        a = w.exact_div(y)
        if not a.is_constant():
            key = mult * e
            parts[key] = parts[key] * a if key in parts else a.monic()
        w, d = y, d.exact_div(y)
        e += 1
    if not d.is_constant():
        _usqf(_u_pth_root(d.monic()), mult * p, parts)


def _u_pth_root(f: UPoly) -> UPoly:
    fld = f.field
    p = fld.char
    out = [fld.zero] * (f.degree // p + 1)
    for i, c in enumerate(f.coeffs):
        if c == fld.zero:
            continue
        if i % p:
            raise ValueError("polynomial is not a p-th power")
        out[i // p] = fld.pth_root(c)
    return UPoly(fld, out)


# ---------------------------------------------------------------------------
# Factorization over finite fields.


def _field_poly_by_code(field, code: int, length: int) -> UPoly:
    # canonical enumeration of polynomials: base-(field order) digits
    q = field.order
    coeffs = []
    for _ in range(length):
        coeffs.append(field.decode(code % q))
        code //= q
    return UPoly(field, coeffs)


def _equal_degree_split(f: UPoly, d: int) -> list[UPoly]:
    """Split monic squarefree f, all of whose irreducible factors have degree
    d, using a deterministic trial sequence (field order is odd here)."""
    field = f.field
    if f.degree == d:
        return [f]
    q = field.order
    exponent = (q**d - 1) // 2
    code = q  # first non-constant polynomial in the enumeration
    while True:
        a = _field_poly_by_code(field, code, f.degree)
        code += 1
        if a.degree < 1:
            continue
        b = a.pow_mod(exponent, f) - UPoly.constant(field, field.one)
        g = ugcd(b, f)
        if 0 < g.degree < f.degree:
            return _equal_degree_split(g, d) + _equal_degree_split(f.exact_div(g), d)


def u_factor(f: UPoly) -> tuple[object, list[tuple[UPoly, int]]]:
    """Factor f over a finite field into (unit, [(monic irreducible, mult)]),
    the factors sorted by degree then coefficient order."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    field = f.field
    if field.char == 0:
        raise ValueError("finite-field factorization requested over Q")
    unit = f.leading()
    factors: list[tuple[UPoly, int]] = []
    for g, e in u_squarefree(f):
        # distinct-degree stage on the squarefree part g
        x = UPoly.var(field)
        h = x
        d = 0
        rest = g
        while rest.degree > 0:
            d += 1
            if 2 * d > rest.degree:
                factors.append((rest.monic(), e))
                break
            h = h.pow_mod(field.order, rest)
            gd = ugcd(h - x, rest)
            if gd.degree > 0:
                for irr in _equal_degree_split(gd.monic(), d):
                    factors.append((irr, e))
                rest = rest.exact_div(gd)
                h = h % rest
    factors.sort(key=lambda fe: fe[0].sort_key())
    return unit, factors


def u_roots(f: UPoly) -> list[object]:
    """Distinct roots of f in its own finite field, sorted canonically."""
    field = f.field
    if f.is_zero():
        raise ValueError("zero polynomial")
    x = UPoly.var(field)
    frob = x.pow_mod(field.order, f)
    g = ugcd(frob - x, f)
    roots = []
    if g.degree > 0:
        for lin in _equal_degree_split(g.monic(), 1):
            roots.append(field.neg(lin.coeffs[0]))
    roots.sort(key=field.sort_key)
    return roots


def u_rational_roots(f: UPoly) -> tuple[list[tuple[Fraction, int]], UPoly]:
    """Rational roots with multiplicities, plus the root-free cofactor.

    Coefficients must be Fractions.  Candidates come from the classical
    divisor test on the primitive integer model, then each root is divided
    out to exhaustion.
    """
    field = f.field
    if field.char != 0:
        raise ValueError("rational root extraction needs coefficients in Q")
    if f.is_zero():
        raise ValueError("zero polynomial")
    roots: list[tuple[Fraction, int]] = []
    # split off the root at 0 first
    v = f.valuation()
    if v:
        f = UPoly(field, f.coeffs[v:])
        roots.append((Fraction(0), v))
    den = math.lcm(*(c.denominator for c in f.coeffs))
    ints = [int(c * den) for c in f.coeffs]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    for r in sorted(_rational_candidates(ints[0], ints[-1])):
        mult = 0
        while True:
            val = Fraction(0)
            for c in reversed(f.coeffs):
                val = val * r + c
            if val != 0:
                break
            f = f.exact_div(UPoly(field, (-r, Fraction(1))))
            mult += 1
        if mult:
            roots.append((r, mult))
    roots.sort()
    return roots, f


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _rational_candidates(a0: int, lead: int) -> set[Fraction]:
    cands = set()
    for num in _divisors(a0):
        for den in _divisors(lead):
            cands.add(Fraction(num, den))
            cands.add(Fraction(-num, den))
    return cands
