"""Bivariate polynomials over an exact coefficient field.

``BPoly`` is bivariate in the local variables (x, t), stored as a sparse
exponent map with no zero coefficients.  The univariate layer lives in
``covergeo.univariate``; its public names are re-exported here.  The
bivariate gcd and exact division run one x-list core over D[t]: D = Z over Q,
on the integer model with denominators cleared once per call (``int_x_list``),
and D = F_q over F_q.  The same core, over D = Z, gives Z[t] its gcd and
exact division.

Over a prime field F_p, the univariate operations that these build on run
the int-list kernel of ``covergeo.univariate``, chosen by its one predicate
``fp_modulus(field)`` (p for a ``PrimeField``, else 0).  Here the same test
sends ``BPoly.translate_t`` and the univariate image of the squarefree
certificate to loops on bare ints with ``% p`` inline; that image over Q
lies in the prime field F_(2^31 - 1), so it runs on ints as well.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from functools import reduce

from .fields import PrimeField
from .univariate import (  # noqa: F401
    UPoly, fp_modulus, u_factor, u_rational_roots, u_roots, u_squarefree, ugcd, yun_squarefree)


class BPoly:
    __slots__ = ("field", "terms")

    def __init__(self, field, terms):
        self.field = field
        self.terms = {e: c for e, c in dict(terms).items() if c != field.zero}

    @classmethod
    def _adopt(cls, field, terms: dict):
        """Wrap ``terms`` as it is, for a caller that knows every coefficient
        is nonzero and hands the dict over."""
        out = cls.__new__(cls)
        out.field = field
        out.terms = terms
        return out

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

    def total_valuation(self) -> int:
        """Multiplicity at the origin: least total degree of a monomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no multiplicity")
        return min(i + j for i, j in self.terms)

    def x_degree(self) -> int:
        return max((i for i, _ in self.terms), default=-1)

    def partials(self):
        """(df/dx, df/dt), in one pass over the terms."""
        f = self.field
        fx: dict = {}
        ft: dict = {}
        for (i, j), c in self.terms.items():
            if i:
                d = f.mul(f.from_int(i), c)
                if d != f.zero:
                    fx[(i - 1, j)] = d
            if j:
                d = f.mul(f.from_int(j), c)
                if d != f.zero:
                    ft[(i, j - 1)] = d
        return BPoly._adopt(f, fx), BPoly._adopt(f, ft)

    def translate_t(self, a):
        """Substitute t -> t + a."""
        f = self.field
        if not a or not self.terms:
            return self
        if f.char == 0:
            return BPoly(f, _q_translate_t(self.terms, a))
        # binomial expansion of each term; a Taylor shift by Horner's rule
        # measured slower, as the x-columns are sparse
        top = max(j for _, j in self.terms)
        p = fp_modulus(f)
        if p:
            pows = [pow(a, r, p) for r in range(top + 1)]
            out: dict = {}
            for (i, j), c in self.terms.items():
                for r in range(j + 1):
                    out[(i, r)] = out.get((i, r), 0) + c * math.comb(j, r) * pows[j - r]
            return BPoly._adopt(f, {e: c % p for e, c in out.items() if c % p})
        pows = [f.one]
        for _ in range(top):
            pows.append(f.mul(pows[-1], a))
        out = {}
        for (i, j), c in self.terms.items():
            for r in range(j, -1, -1):
                coef = f.mul(c, f.mul(f.from_int(math.comb(j, r)), pows[j - r]))
                if coef != f.zero:
                    e = (i, r)
                    out[e] = f.add(out.get(e, f.zero), coef)
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


def _q_translate_t(terms: dict, a) -> dict:
    # On the integer model D*f = sum_i x^i u_i(t): with a = r/s and d the
    # degree of u_i, v(t) = s^d u_i(t/s) has the integer coefficients
    # u_ij s^(d-j), and v(t + r) = s^d u_i((t + r)/s), so the coefficient
    # of t^k in u_i(t + a) is that of v(t + r) over s^(d-k).
    xs, den = int_x_list(terms)
    r, s = a.numerator, a.denominator
    s_pows = [1]
    for _ in range(max(map(len, xs))):
        s_pows.append(s_pows[-1] * s)
    out = {}
    for i, v in enumerate(xs):
        d = len(v) - 1
        if s != 1:
            v = [c * s_pows[d - j] for j, c in enumerate(v)]
        for k in range(d):  # Taylor shift by r: d passes of Horner's rule
            for j in range(d - 1, k - 1, -1):
                v[j] += r * v[j + 1]
        for k, c in enumerate(v):
            if c:
                quo, rem = divmod(c, den * s_pows[d - k])
                out[(i, k)] = Fraction(c, den * s_pows[d - k]) if rem else quo
    return out


# ---------------------------------------------------------------------------
# Bivariate gcd, exact division and squarefree decomposition, via the
# x-major view: an x-list is a polynomial in x (increasing degree, no
# trailing zeros) whose coefficients lie in a ring D[t].  The core below is
# written once against a coefficient ring: ``ZT`` (Z[t] on int lists, the
# model over Q), ``_FqT`` (F_q[t] on UPoly), or ``_Z`` (plain ints, on which
# the core is Z[t] itself, with an int list as the x-list).  A ring gives
# zero, one, mul, sub, exact_div (ValueError if inexact), gcd (normalized, so
# a unit gcd is one), normalize (the associate that gcd(zero, u) returns) and
# lead_multipliers(lead_a, lead_b) = (m_a, m_b) with m_a*lead_a = m_b*lead_b.


class _FqT:
    """F_q[t] on UPoly as the coefficient ring of an x-list."""

    mul = staticmethod(UPoly.__mul__)
    sub = staticmethod(UPoly.__sub__)
    exact_div = staticmethod(UPoly.exact_div)
    normalize = staticmethod(UPoly.monic)

    def __init__(self, field):
        self.zero = UPoly.zero(field)
        self.one = UPoly.constant(field, field.one)

    @staticmethod
    def gcd(a: UPoly, b: UPoly) -> UPoly:
        return ugcd(a, b)  # by module name, which the benchmark tracer wraps

    @staticmethod
    def lead_multipliers(lead_a: UPoly, lead_b: UPoly):
        return lead_b, lead_a


class _Z:
    """Z on Python ints as the coefficient ring of an int list."""

    zero, one = 0, 1
    mul, sub = operator.mul, operator.sub
    gcd, normalize = math.gcd, abs

    @staticmethod
    def exact_div(a: int, b: int) -> int:
        q, r = divmod(a, b)
        if r:
            raise ValueError("inexact integer division")
        return q

    @staticmethod
    def lead_multipliers(lead_a: int, lead_b: int):
        # m_a > 0, so a pseudo-remainder by a lead of -1 never negates a
        g = math.gcd(lead_a, lead_b)
        if lead_b < 0:
            g = -g
        return lead_b // g, lead_a // g


def _z_sub(a: list[int], b: list[int]) -> list[int]:
    out = list(a)
    out.extend([0] * (len(b) - len(a)))
    for i, c in enumerate(b):
        out[i] -= c
    while out and not out[-1]:
        out.pop()
    return out


def _z_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return out


class ZT:
    """Z[t] on int lists (increasing degree, no trailing zeros, [] is 0) as
    the coefficient ring of an x-list, used as the class itself.  Its gcd
    and exact division are the x-list core over ``_Z``."""

    zero: list[int] = []
    one = [1]
    mul = staticmethod(_z_mul)
    sub = staticmethod(_z_sub)

    @staticmethod
    def exact_div(a: list[int], b: list[int]) -> list[int]:
        return _xl_div(_Z, list(a), b)

    @staticmethod
    def gcd(a: list[int], b: list[int]) -> list[int]:
        """Gcd with positive leading coefficient; gcd([], []) is []."""
        if not a or not b:
            return ZT.normalize(a or b)
        return ZT.normalize(_xl_gcd(_Z, a, b))

    @staticmethod
    def normalize(a: list[int]) -> list[int]:
        return [-v for v in a] if a and a[-1] < 0 else a

    @staticmethod
    def lead_multipliers(lead_a: list[int], lead_b: list[int]):
        # lead_b and lead_a over the gcd of their integer contents; not
        # math.gcd(*lead_a): the argument tuple of a long coefficient list is
        # a large short-lived allocation, and many of them fragment the heap
        # (one more pymalloc arena and +0.5 MB peak RSS over 1,700 resolutions)
        g = reduce(math.gcd, lead_b, reduce(math.gcd, lead_a, 0))
        return [c // g for c in lead_b], [c // g for c in lead_a]


def int_x_list(terms: dict) -> tuple[list[list[int]], int]:
    """(F, d): F = d*f in Z[t][x] for the nonzero f over Q with these terms."""
    den = reduce(math.lcm, (c.denominator for c in terms.values()), 1)
    xs: list[list[int]] = [[] for _ in range(max(i for i, _ in terms) + 1)]
    for (i, j), c in terms.items():
        u = xs[i]
        if len(u) <= j:
            u.extend([0] * (j + 1 - len(u)))
        u[j] = c.numerator * (den // c.denominator)
    return xs, den


def q_terms(xs: list[list[int]], num: int, den: int) -> dict:
    """The terms of (num/den) * xs over Q, each an int where it is integral."""
    out = {}
    for i, u in enumerate(xs):
        for j, c in enumerate(u):
            if c:
                quo, rem = divmod(num * c, den)
                out[(i, j)] = Fraction(num * c, den) if rem else quo
    return out


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
    """(content, primitive part) of a nonzero x-list; the content fold starts
    from the first nonzero coefficient, skips zero ones and stops at a unit."""
    nonzero = (u for u in xs if u)
    cont = ring.normalize(next(nonzero))
    for u in nonzero:
        if cont == ring.one:
            break
        cont = ring.gcd(cont, u)
    if cont == ring.one:
        return cont, xs
    return cont, [ring.exact_div(u, cont) for u in xs]


def _pseudo_rem(ring, a: list, b: list) -> list:
    # a remainder of a modulo b up to a nonzero factor in the coefficient ring
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
    lead = f.terms[max(f.terms)]
    return f if lead == f.field.one else f.scale(f.field.inv(lead))


def b_gcd(f: BPoly, g: BPoly) -> BPoly:
    """Gcd in F[x, t] via the primitive remainder sequence, normalized."""
    if f.is_zero():
        return b_normalize(g)
    if g.is_zero():
        return b_normalize(f)
    field = f.field
    if f.is_constant() or g.is_constant():
        return BPoly.constant(field, field.one)
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
        c, c_t = _primitive(_Z, cont)
        if len(c_t) > 1:
            q = [ZT.exact_div(u, c_t) for u in q]
        return BPoly(field, q_terms(q, den_g, den_f * c))
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
    odd), with the g_i squarefree, pairwise coprime and normalized.

    A univariate image certifies most squarefree f before any bivariate gcd:
    over F_q the image is f itself, over Q its integer model mod 2^31 - 1.
    In a variable, say x, the other is set to v = 1, 2 or 3 (skipping v = 0
    in the field) until g = f(x, v) keeps the x-degree of f and
    gcd(g, g') = 1; a variable that f does not contain passes at once.  If
    h^2 divides f, then h(x, v)^2 divides g, and the degree test keeps the
    x-degree of h(x, v) equal to that of h, so a pass rules out every
    repeated factor h of positive x-degree (over Q, Gauss's lemma keeps h
    integral, so the divisibility survives the reduction).
    The image is taken first in the variable of lower degree in f (x on a
    tie), then in the other.  If the image in one variable passes, a
    repeated factor h can only lie in the other variable, and then h^2
    divides every coefficient of a power of the first; so one nonzero such
    coefficient of degree <= 1 in the other variable certifies f.  Where
    every one has degree >= 2, the images in both variables must pass.  So
    the second image is taken only when the first fails, or passes without
    such a coefficient.  Over Q the support of the integer model is that of
    f, so f's terms decide this.  Only a yes is trusted: a failed test, or a
    constant f, falls through to Yun's loop.
    Either way the answer for a squarefree f is [(b_normalize(f), 1)].
    """
    if f.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    g = b_normalize(f)
    if not f.is_constant() and _certified_squarefree(f):
        return [(g, 1)]
    return yun_squarefree(g, BPoly.partials, b_gcd, b_exact_div, b_pth_root)


# 2^31 - 1, a Mersenne prime (Euler), as the field of the image over Q;
# built directly, since prime_field would first test it by trial division
_IMAGE_FIELD = PrimeField(2**31 - 1)


def _certified_squarefree(f: BPoly) -> bool:
    field, terms = f.field, f.terms
    image = terms
    if field.char == 0:
        field = _IMAGE_FIELD
        xs = int_x_list(terms)[0]
        image = {(i, j): c % field.p for i, u in enumerate(xs) for j, c in enumerate(u) if c}
    degrees = [max(e[axis] for e in terms) for axis in (0, 1)]
    first = 0 if degrees[0] <= degrees[1] else 1
    passed = False
    for axis in (first, 1 - first):
        if not _image_passes(field, image, degrees[axis], axis):
            continue
        # a repeated factor left by this image lies in the other variable
        # alone, so it divides every coefficient of a power of this one
        other = 1 - axis
        if passed or {e[axis] for e in terms} - {e[axis] for e in terms if e[other] > 1}:
            return True  # both images passed, or a coefficient of degree <= 1
        passed = True
    return False


def _image_passes(field, image: dict, degree: int, axis: int) -> bool:
    # f has no repeated factor of positive degree in the variable ``axis``
    # if g, its image with the other variable set to some v, keeps ``degree``
    # and gcd(g, g') = 1
    if degree == 0:
        return True
    zero, add, mul, pow_ = field.zero, field.add, field.mul, field.pow
    p = fp_modulus(field)
    other = 1 - axis
    for v in (1, 2, 3):
        value = field.from_int(v)
        if value == zero:
            continue
        powers: dict[int, object] = {}
        g = [zero] * (degree + 1)
        for e, c in image.items():
            k = e[other]
            pw = powers.get(k)
            if pw is None:
                pw = powers[k] = pow_(value, k)
            g[e[axis]] = g[e[axis]] + c * pw if p else add(g[e[axis]], mul(c, pw))
        if p:
            g = [c % p for c in g]
        if g[degree] != zero:
            g = UPoly(field, g)
            if ugcd(g, g.deriv()).is_constant():
                return True
    return False


@functools.lru_cache(maxsize=None)
def extension_embedding(small, big):
    """Embedding F_{p^k} -> F_{p^m} (k | m) sending the generator to the
    canonically least root of the small field's defining polynomial.  F_p
    has the same codes 0..p-1 in every F_{p^m}."""
    if small.char != big.char:
        raise ValueError("incompatible characteristics")
    if small.k == 1:
        return lambda a: a
    p = big.p
    roots = u_roots(UPoly(big, list(small.modulus)))
    if not roots:
        raise ValueError(f"{small.name} does not embed into {big.name}")
    rho = roots[0]

    def embed(a):
        # the code a is a_0 + p*a' with a_0 in F_p, so a = a_0 + g*a'
        return a if a < p else big.add(a % p, big.mul(rho, embed(a // p)))

    if small.tabled:
        return [embed(a) for a in range(small.order)].__getitem__
    return embed
