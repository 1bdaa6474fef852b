"""Bivariate polynomials over an exact coefficient field.

``BPoly`` is bivariate in the local variables (x, t), stored as a sparse
exponent map with no zero coefficients.  The univariate layer lives in
``covergeo.univariate``; its public names are re-exported here.
"""

from __future__ import annotations

import math

from .fields import extension_field
from .univariate import UPoly, u_factor, u_rational_roots, u_roots, u_squarefree, ugcd  # noqa: F401


class BPoly:
    __slots__ = ("field", "terms")

    def __init__(self, field, terms):
        self.field = field
        self.terms = {e: c for e, c in dict(terms).items() if c != field.zero}

    @classmethod
    def zero(cls, field):
        return cls(field, {})

    @classmethod
    def constant(cls, field, c):
        return cls(field, {(0, 0): c})

    @classmethod
    def monomial(cls, field, c, i, j):
        return cls(field, {(i, j): c})

    @classmethod
    def var_x(cls, field):
        return cls(field, {(1, 0): field.one})

    @classmethod
    def var_t(cls, field):
        return cls(field, {(0, 1): field.one})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(e == (0, 0) for e in self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, BPoly)
            and self.field is other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.field), tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        f = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = f.add(out.get(e, f.zero), c)
        return BPoly(f, out)

    def __neg__(self):
        f = self.field
        return BPoly(f, {e: f.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        f = self.field
        out: dict = {}
        for (i, j), a in self.terms.items():
            for (k, l), b in other.terms.items():
                e = (i + k, j + l)
                out[e] = f.add(out.get(e, f.zero), f.mul(a, b))
        return BPoly(f, out)

    def scale(self, c):
        f = self.field
        return BPoly(f, {e: f.mul(c, a) for e, a in self.terms.items()})

    def eval_origin(self):
        return self.terms.get((0, 0), self.field.zero)

    def total_valuation(self) -> int:
        """Multiplicity at the origin: least total degree of a monomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no multiplicity")
        return min(i + j for i, j in self.terms)

    def x_valuation(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial")
        return min(i for i, _ in self.terms)

    def t_valuation(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial")
        return min(j for _, j in self.terms)

    def x_degree(self) -> int:
        return max((i for i, _ in self.terms), default=-1)

    def deriv_x(self):
        f = self.field
        out: dict = {}
        for (i, j), c in self.terms.items():
            if i:
                d = f.mul(f.from_int(i), c)
                if d != f.zero:
                    out[(i - 1, j)] = d
        return BPoly(f, out)

    def deriv_t(self):
        f = self.field
        out: dict = {}
        for (i, j), c in self.terms.items():
            if j:
                d = f.mul(f.from_int(j), c)
                if d != f.zero:
                    out[(i, j - 1)] = d
        return BPoly(f, out)

    def subst_x_xt(self):
        """Total transform in the chart x = x, t = x*t."""
        f = self.field
        out: dict = {}
        for (i, j), c in self.terms.items():
            e = (i + j, j)
            out[e] = f.add(out.get(e, f.zero), c)
        return BPoly(f, out)

    def subst_xt_t(self):
        """Total transform in the chart x = x*t, t = t."""
        f = self.field
        out: dict = {}
        for (i, j), c in self.terms.items():
            e = (i, i + j)
            out[e] = f.add(out.get(e, f.zero), c)
        return BPoly(f, out)

    def divide_x_power(self, m: int):
        if any(i < m for i, _ in self.terms):
            raise ValueError("not divisible by the requested power of x")
        return BPoly(self.field, {(i - m, j): c for (i, j), c in self.terms.items()})

    def divide_t_power(self, m: int):
        if any(j < m for _, j in self.terms):
            raise ValueError("not divisible by the requested power of t")
        return BPoly(self.field, {(i, j - m): c for (i, j), c in self.terms.items()})

    def restrict_x0(self) -> UPoly:
        """The univariate polynomial f(0, t)."""
        f = self.field
        deg = max((j for i, j in self.terms if i == 0), default=-1)
        out = [f.zero] * (deg + 1)
        for (i, j), c in self.terms.items():
            if i == 0:
                out[j] = c
        return UPoly(f, out)

    def restrict_t0(self) -> UPoly:
        f = self.field
        deg = max((i for i, j in self.terms if j == 0), default=-1)
        out = [f.zero] * (deg + 1)
        for (i, j), c in self.terms.items():
            if j == 0:
                out[i] = c
        return UPoly(f, out)

    def translate_t(self, a):
        """Substitute t -> t + a."""
        f = self.field
        if a == f.zero:
            return self
        out: dict = {}
        for (i, j), c in self.terms.items():
            pw = f.one
            for r in range(j, -1, -1):
                coef = f.mul(c, f.mul(f.from_int(math.comb(j, r)), pw))
                if coef != f.zero:
                    e = (i, r)
                    out[e] = f.add(out.get(e, f.zero), coef)
                pw = f.mul(pw, a)
        return BPoly(f, out)

    def map_to(self, new_field, embed):
        """Push coefficients through an embedding into a larger field."""
        out = {}
        for e, c in self.terms.items():
            v = embed(c)
            if v != new_field.zero:
                out[e] = v
        return BPoly(new_field, out)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda ec: (-ec[0][0], -ec[0][1]))

    def sort_key(self):
        fld = self.field
        return tuple((e, fld.sort_key(c)) for e, c in sorted(self.terms.items()))

    def fmt(self) -> str:
        if not self.terms:
            return "0"
        f = self.field
        parts = []
        for (i, j), c in self.sorted_terms():
            cs = f.fmt(c)
            sign = "+"
            if cs.startswith("-"):
                sign, cs = "-", cs[1:]
            mono = ""
            if i:
                mono += "x" + (f"^{i}" if i > 1 else "")
            if j:
                mono += ("*" if mono else "") + "t" + (f"^{j}" if j > 1 else "")
            if not mono:
                parts.append((sign, cs))
            elif cs == "1":
                parts.append((sign, mono))
            else:
                parts.append((sign, f"{cs}*{mono}"))
        first_sign, first_text = parts[0]
        out = ("-" if first_sign == "-" else "") + first_text
        for sign, text in parts[1:]:
            out += f" {sign} {text}"
        return out

    def __repr__(self):
        return f"BPoly({self.fmt()!r} over {self.field.name})"


# ---------------------------------------------------------------------------
# Bivariate gcd, exact division and squarefree decomposition, via the
# x-major view: a polynomial in x whose coefficients live in F[t].


def _x_list(f: BPoly) -> list[UPoly]:
    n = f.x_degree()
    cols: list[dict] = [dict() for _ in range(n + 1)]
    for (i, j), c in f.terms.items():
        cols[i][j] = c
    out = []
    fld = f.field
    for col in cols:
        deg = max(col, default=-1)
        cs = [fld.zero] * (deg + 1)
        for j, c in col.items():
            cs[j] = c
        out.append(UPoly(fld, cs))
    return out


def _from_x_list(field, xs: list[UPoly]) -> BPoly:
    terms = {}
    for i, u in enumerate(xs):
        for j, c in enumerate(u.coeffs):
            if c != field.zero:
                terms[(i, j)] = c
    return BPoly(field, terms)


def _xl_trim(xs: list[UPoly]) -> list[UPoly]:
    while xs and xs[-1].is_zero():
        xs.pop()
    return xs


def _xl_content(field, xs: list[UPoly]) -> UPoly:
    g = UPoly.zero(field)
    for u in xs:
        g = ugcd(g, u)
    return g


def _xl_primitive(field, xs: list[UPoly]) -> list[UPoly]:
    cont = _xl_content(field, xs)
    if cont.is_zero() or cont.degree == 0:  # gcd is monic, so a constant is 1
        return list(xs)
    return [u.exact_div(cont) for u in xs]


def _xl_pseudo_rem(field, a: list[UPoly], b: list[UPoly]) -> list[UPoly]:
    a = list(a)
    db = len(b) - 1
    lead_b = b[-1]
    while len(a) - 1 >= db and a:
        lead_a = a[-1]
        shift = len(a) - 1 - db
        a = [u * lead_b for u in a]
        for i in range(db + 1):
            a[shift + i] = a[shift + i] - lead_a * b[i]
        _xl_trim(a)
    return a


def b_normalize(f: BPoly) -> BPoly:
    """Scale so the lexicographically greatest monomial has coefficient 1."""
    if f.is_zero():
        return f
    lead = max(f.terms)
    return f.scale(f.field.inv(f.terms[lead]))


def b_gcd(f: BPoly, g: BPoly) -> BPoly:
    """Gcd in F[x, t] via the primitive remainder sequence, normalized."""
    if f.is_zero():
        return b_normalize(g)
    if g.is_zero():
        return b_normalize(f)
    field = f.field
    fa, ga = _x_list(f), _x_list(g)
    cf, cg = _xl_content(field, fa), _xl_content(field, ga)
    cont = ugcd(cf, cg)
    a, b = _xl_primitive(field, fa), _xl_primitive(field, ga)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _xl_trim(_xl_pseudo_rem(field, a, b))
        a, b = b, (_xl_primitive(field, r) if r else [])
    prim = _from_x_list(field, a)
    cont_b = BPoly(field, {(0, j): c for j, c in enumerate(cont.coeffs)})
    return b_normalize(prim * cont_b)


def b_exact_div(f: BPoly, g: BPoly) -> BPoly:
    """Exact division f / g in F[x, t]; raises if g does not divide f."""
    field = f.field
    if g.is_zero():
        raise ZeroDivisionError("bivariate division by zero")
    if f.is_zero():
        return f
    a, b = _x_list(f), _x_list(g)
    q: list[UPoly] = [UPoly.zero(field)] * max(0, len(a) - len(b) + 1)
    while a and len(a) >= len(b):
        qc = a[-1].exact_div(b[-1])
        shift = len(a) - len(b)
        q[shift] = qc
        for i in range(len(b)):
            a[shift + i] = a[shift + i] - qc * b[i]
        _xl_trim(a)
    if a:
        raise ValueError("inexact bivariate division")
    return _from_x_list(field, q)


def b_pth_root(f: BPoly) -> BPoly:
    field = f.field
    p = field.char
    out = {}
    for (i, j), c in f.terms.items():
        if i % p or j % p:
            raise ValueError("polynomial is not a p-th power")
        out[(i // p, j // p)] = field.pth_root(c)
    return BPoly(field, out)


def b_squarefree(f: BPoly) -> list[tuple[BPoly, int]]:
    """Squarefree decomposition f = c * prod g_i^e_i over Q or F_{p^k} (p
    odd), with the g_i squarefree, pairwise coprime and normalized."""
    if f.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    parts: dict[int, BPoly] = {}
    _bsqf(b_normalize(f), 1, parts)
    out = [(g, e) for e, g in parts.items()]
    out.sort(key=lambda ge: (ge[1], ge[0].sort_key()))
    return out


def _bsqf(f: BPoly, mult: int, parts: dict[int, BPoly]) -> None:
    if f.is_constant():
        return
    fx, ft = f.deriv_x(), f.deriv_t()
    if fx.is_zero() and ft.is_zero():
        _bsqf(b_pth_root(f), mult * f.field.char, parts)
        return
    d = f
    for partial in (fx, ft):
        if not partial.is_zero():
            d = b_gcd(d, partial)
    w = b_exact_div(f, d)
    e = 1
    while not w.is_constant():
        y = b_gcd(w, d)
        a = b_exact_div(w, y)
        if not a.is_constant():
            key = mult * e
            part = b_normalize(a)
            parts[key] = b_normalize(parts[key] * part) if key in parts else part
        w, d = y, b_exact_div(d, y)
        e += 1
    if not d.is_constant():
        # leftover part carries only multiplicities divisible by p
        _bsqf(b_pth_root(b_normalize(d)), mult * f.field.char, parts)


def extension_embedding(small, big):
    """Embedding F_{p^k} -> F_{p^m} (k | m) sending the generator to the
    canonically least root of the small field's defining polynomial."""
    if small.char != big.char:
        raise ValueError("incompatible characteristics")
    if small.k == 1:
        return lambda a: big.from_int(a)
    mod = UPoly(big, [big.from_int(c) for c in small.modulus])
    roots = u_roots(mod)
    if not roots:
        raise ValueError(f"{small.name} does not embed into {big.name}")
    rho = roots[0]
    def embed(a):
        acc = big.zero
        for c in reversed(a):
            acc = big.add(big.mul(acc, rho), big.from_int(c))
        return acc
    return embed


def splitting_extension(field, degree: int):
    """The canonical field F_{p^(k*degree)} over the given finite field."""
    return extension_field(field.char, field.k * degree)
