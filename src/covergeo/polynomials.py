"""Bivariate polynomials over an exact coefficient field.

``BPoly`` is bivariate in the local variables (x, t), stored as a sparse
exponent map with no zero coefficients.  The univariate layer lives in
``covergeo.univariate``; its public names are re-exported here.  The
bivariate gcd and exact division run one x-list core over D[t]: D = Z over Q,
after clearing denominators (``covergeo._intpoly``), and D = F_q over F_q.
"""

from __future__ import annotations

import math

from ._intpoly import ZT, _z_primitive, int_x_list, q_terms
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
# x-major view: an x-list is a polynomial in x (increasing degree, no
# trailing zeros) whose coefficients lie in D[t].  The core below is written
# once against a coefficient ring: ``_intpoly.ZT`` (Z[t] on int lists, the
# model over Q) or ``_FqT`` (F_q[t] on UPoly).  A ring gives zero, one, mul,
# sub, exact_div (ValueError if inexact), gcd (normalized, so a unit gcd is
# one) and lead_multipliers(lead_a, lead_b) = (m_a, m_b) with
# m_a*lead_a = m_b*lead_b.


class _FqT:
    """F_q[t] on UPoly as the coefficient ring of an x-list."""

    mul = staticmethod(UPoly.__mul__)
    sub = staticmethod(UPoly.__sub__)
    exact_div = staticmethod(UPoly.exact_div)

    def __init__(self, field):
        self.zero = UPoly.zero(field)
        self.one = UPoly.constant(field, field.one)

    @staticmethod
    def gcd(a: UPoly, b: UPoly) -> UPoly:
        return ugcd(a, b)  # by module name, which the benchmark tracer wraps

    @staticmethod
    def lead_multipliers(lead_a: UPoly, lead_b: UPoly):
        return lead_b, lead_a


def _x_list(f: BPoly) -> list[UPoly]:
    fld = f.field
    cols: list[list] = [[] for _ in range(f.x_degree() + 1)]
    for (i, j), c in f.terms.items():
        u = cols[i]
        if len(u) <= j:
            u.extend([fld.zero] * (j + 1 - len(u)))
        u[j] = c
    return [UPoly(fld, u) for u in cols]


def _from_x_list(field, xs: list[UPoly]) -> BPoly:
    return BPoly(field, {(i, j): c for i, u in enumerate(xs) for j, c in enumerate(u.coeffs)})


def _trim(xs: list) -> list:
    while xs and not xs[-1]:
        xs.pop()
    return xs


def _primitive(ring, xs: list) -> tuple:
    """(content, primitive part) of a nonzero x-list; the content fold skips
    zero coefficients and stops at a unit."""
    cont = ring.zero
    for u in xs:
        if u:
            cont = ring.gcd(cont, u)
            if cont == ring.one:
                return cont, xs
    return cont, [ring.exact_div(u, cont) for u in xs]


def _pseudo_rem(ring, a: list, b: list) -> list:
    # a remainder of a modulo b up to a nonzero factor in D[t]
    mul, sub = ring.mul, ring.sub
    a = list(a)
    db = len(b) - 1
    while len(a) > db:
        ma, mb = ring.lead_multipliers(a[-1], b[-1])
        shift = len(a) - 1 - db
        if ma != ring.one:
            a = [mul(u, ma) for u in a]
        for i in range(db + 1):
            a[shift + i] = sub(a[shift + i], mul(mb, b[i]))
        _trim(a)
    return a


def _xl_gcd(ring, a: list, b: list) -> list:
    """Gcd of nonzero x-lists: the primitive remainder sequence (Collins,
    J. ACM 14, 1967) times the gcd of the contents."""
    ca, a = _primitive(ring, a)
    cb, b = _primitive(ring, b)
    cont = ring.gcd(ca, cb)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(ring, a, b)
        a, b = b, (_primitive(ring, r)[1] if r else [])
    return [ring.mul(u, cont) for u in a]


def _xl_div(ring, a: list, b: list) -> list:
    """a / b for x-lists, consuming a; raises ValueError unless b divides a."""
    mul, sub = ring.mul, ring.sub
    q = [ring.zero] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        qc = ring.exact_div(a[-1], b[-1])
        shift = len(a) - len(b)
        q[shift] = qc
        for i in range(len(b)):
            a[shift + i] = sub(a[shift + i], mul(qc, b[i]))
        _trim(a)
    if a:
        raise ValueError("inexact bivariate division")
    return q


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
    if field.char == 0:
        d = _xl_gcd(ZT, int_x_list(f.terms)[0], int_x_list(g.terms)[0])
        return BPoly(field, q_terms(d, 1, d[-1][-1]))
    d = _xl_gcd(_FqT(field), _x_list(f), _x_list(g))
    return b_normalize(_from_x_list(field, d))


def b_exact_div(f: BPoly, g: BPoly) -> BPoly:
    """Exact division f / g in F[x, t]; raises if g does not divide f."""
    field = f.field
    if g.is_zero():
        raise ZeroDivisionError("bivariate division by zero")
    if f.is_zero():
        return f
    if field.char == 0:
        # Gauss's lemma: the primitive part P of G = d_g*g divides F = d_f*f
        # in Z[t][x] if g divides f, and the Z[t] content c*c_t of G, with c
        # an integer and c_t primitive, leaves f/g = d_g*(F/P)/c_t / (d_f*c).
        a, den_f = int_x_list(f.terms)
        b, den_g = int_x_list(g.terms)
        cont, b = _primitive(ZT, b)
        q = _xl_div(ZT, a, b)
        c_t = _z_primitive(cont)
        if len(c_t) > 1:
            q = [ZT.exact_div(u, c_t) for u in q]
        return BPoly(field, q_terms(q, den_g, den_f * (cont[-1] // c_t[-1])))
    return _from_x_list(field, _xl_div(_FqT(field), _x_list(f), _x_list(g)))


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
