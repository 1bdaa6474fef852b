"""Univariate polynomials over an exact coefficient field.

``UPoly`` is dense (coefficient tuple, increasing degree, no trailing
zeros).  Factorization over finite fields is fully deterministic: squarefree
decomposition (characteristic aware), distinct-degree splitting, then the
equal-degree splitting of Cantor and Zassenhaus (Math. Comp. 36, 1981) with
trial polynomials taken in a canonical order instead of from a random
source.  Over F_{p^k} the order starts at x + g, g the field's generator,
not at x: many roots met on the exceptional line are conjugate over F_p,
and a shift x + c with c in F_p cannot split them, since the quadratic
character chi commutes with Frobenius sigma, chi(r + c) = chi(sigma(r) + c).

Over a prime field the hot loops run on bare ints.  ``fp_modulus(field)``
is the one predicate: it gives p for a ``PrimeField``, whose elements are
ints in [0, p), and 0 otherwise, and it is tested once per operation.  With
p, the operation runs the int-list kernel below (``_fp_div``, ``_fp_mul``,
``_fp_gcd``), which reduces mod p inline and calls no field method:
``UPoly`` addition, negation, product, ``scale``, ``monic``, ``divmod``,
``%``, ``deriv`` and ``pow_mod``, and ``ugcd``.  Every other field, F_{p^k}
with k > 1 and Q, goes through the field's methods.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fields import PrimeField


def fp_modulus(field) -> int:
    """p if ``field`` is the prime field F_p, else 0: whether an operation
    runs the int-list kernel."""
    return field.p if type(field) is PrimeField else 0


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

    @classmethod
    def _adopt(cls, field, coeffs):
        """Wrap a list with no trailing zeros, such as a kernel returns."""
        out = cls.__new__(cls)
        out.field = field
        out.coeffs = tuple(coeffs)
        return out

    def __add__(self, other):
        f = self.field
        p = fp_modulus(f)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p if p else f.add(out[i], c)
        return UPoly(f, out)

    def __neg__(self):
        f = self.field
        p = fp_modulus(f)
        return UPoly._adopt(f, [-c % p if p else f.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        f = self.field
        p = fp_modulus(f)
        if p:
            return UPoly._adopt(f, _fp_mul(self.coeffs, other.coeffs, p))
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
        p = fp_modulus(f)
        return UPoly(f, [c * a % p if p else f.mul(c, a) for a in self.coeffs])

    def monic(self):
        if self.is_zero() or self.leading() == self.field.one:
            return self
        p = fp_modulus(self.field)
        lead = self.leading()
        return self.scale(pow(lead, -1, p) if p else self.field.inv(lead))

    def _divide(self, other, q):
        """The remainder of self by other; the quotient's coefficients go
        into the list q when it is given."""
        f = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem, b = list(self.coeffs), other.coeffs
        p = fp_modulus(f)
        if p:
            return UPoly._adopt(f, _fp_div(rem, b, p, q))
        db = len(b) - 1
        inv_lead = None if b[-1] == f.one else f.inv(b[-1])  # None: monic
        while len(rem) > db:
            c = rem.pop()
            if inv_lead is not None:
                c = f.mul(c, inv_lead)
            d = len(rem) - db
            if q is not None:
                q[d] = c
            for i in range(db):
                rem[d + i] = f.sub(rem[d + i], f.mul(c, b[i]))
            while rem and rem[-1] == f.zero:
                rem.pop()
        return UPoly._adopt(f, rem)

    def __divmod__(self, other):
        q = [self.field.zero] * max(0, len(self.coeffs) - len(other.coeffs) + 1)
        rem = self._divide(other, q)
        return UPoly(self.field, q), rem

    def __mod__(self, other):
        return self._divide(other, None)

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def deriv(self):
        f = self.field
        p = fp_modulus(f)
        return UPoly(f, [i * c % p if p else f.mul(f.from_int(i), c)
                         for i, c in enumerate(self.coeffs) if i])

    def pow_mod(self, e: int, mod: "UPoly") -> "UPoly":
        f = self.field
        p = fp_modulus(f)
        if p:
            if mod.is_zero():
                raise ZeroDivisionError("polynomial division by zero")
            m = mod.coeffs
            result, base = _fp_div([1], m, p), _fp_div(list(self.coeffs), m, p)
            mul_mod = lambda a, b: _fp_div(_fp_mul(a, b, p), m, p)  # noqa: E731
        else:
            result, base = UPoly.constant(f, f.one) % mod, self % mod
            mul_mod = lambda a, b: a * b % mod  # noqa: E731
        while e > 0:
            if e & 1:
                result = mul_mod(result, base)
            base = mul_mod(base, base)
            e >>= 1
        return UPoly._adopt(f, result) if p else result

    def sort_key(self):
        return (self.degree, self.coeffs)

    def __repr__(self):
        return f"UPoly({self.coeffs!r} over {self.field.name})"


def ugcd(a: UPoly, b: UPoly) -> UPoly:
    p = fp_modulus(a.field)
    if p:
        return UPoly._adopt(a.field, _fp_gcd(list(a.coeffs), list(b.coeffs), p))
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


# ---------------------------------------------------------------------------
# The F_p kernel: polynomials as int lists (increasing degree, entries in
# [0, p), no trailing zeros, [] is 0), p prime.


def _fp_div(a: list, b, p: int, q: list | None = None) -> list:
    """The remainder of a by nonzero b, consuming a; the quotient's
    coefficients go into q when it is given."""
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    while len(a) > db:
        c = a.pop() * inv % p  # the top term of a - c x^d b cancels
        d = len(a) - db
        if q is not None:
            q[d] = c
        for i in range(db):
            a[d + i] = (a[d + i] - c * b[i]) % p
        while a and not a[-1]:
            a.pop()
    return a


def _fp_mul(a, b, p: int) -> list:
    if not a or not b:
        return []
    # a product of nonzero leads mod a prime is nonzero: no trailing zeros
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b, i):
                out[j] += c * d
    return [c % p for c in out]


def _fp_gcd(a: list, b: list, p: int) -> list:
    """Monic gcd, consuming a and b; the gcd of [] and [] is []."""
    while b:
        a, b = b, _fp_div(a, b, p)
    if a and a[-1] != 1:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def u_squarefree(f: UPoly) -> list[tuple[UPoly, int]]:
    """Squarefree decomposition f = c * prod g_i^e_i with g_i monic squarefree
    and pairwise coprime; valid in characteristic 0 and p."""
    if f.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    return yun_squarefree(f.monic(), lambda g: (g.deriv(),), ugcd,
                          UPoly.exact_div, _u_pth_root)


def yun_squarefree(f, partials, gcd, exact_div, pth_root) -> list:
    """Yun's loop (D. Y. Y. Yun, SYMSAC 1976) with the p-th-root step of
    characteristic p, for ``UPoly`` and ``BPoly``: the (part, multiplicity)
    list of a nonzero normalized f, sorted by multiplicity.

    The caller passes its type's ``partials(f)`` (a tuple), normalized
    ``gcd``, ``exact_div`` and ``pth_root``.  Gcds, quotients of normalized
    polynomials and their p-th roots are normalized, so every operand and
    part is.  Step e finds the parts of multiplicity e prime to p; the rest
    stay in d, a p-th power whose root is decomposed with multiplicities
    times p, so each multiplicity is found once.
    """
    parts: dict[int, object] = {}
    mult = 1
    while not f.is_constant():
        derivs = [g for g in partials(f) if not g.is_zero()]
        if not derivs:
            # every exponent is divisible by p: f is a p-th power (F_q is perfect)
            f, mult = pth_root(f), mult * f.field.char
            continue
        d = f
        for g in derivs:
            d = gcd(d, g)
        if d.is_constant():
            # f is squarefree: the loop below would divide by 1 and find f alone
            parts[mult] = f
            break
        w = exact_div(f, d)
        e = 1
        while not w.is_constant():
            y = gcd(w, d)
            a = exact_div(w, y)
            if not a.is_constant():
                parts[mult * e] = a
            w, d = y, exact_div(d, y)
            e += 1
        f = d  # constant, or a p-th power whose partials all vanish
    return [(g, e) for e, g in sorted(parts.items())]


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
    # canonical enumeration of polynomials: base-(field order) digits, each
    # an element's code, the constant digit rotated by p, so that over
    # F_{p^k} the constants that come first are those outside F_p (over F_p
    # the rotation is the identity)
    q = field.order
    coeffs = [(code + field.p) % q]
    for _ in range(1, length):
        code //= q
        coeffs.append(code % q)
    return UPoly(field, coeffs)


def _equal_degree_split(f: UPoly, d: int) -> list[UPoly]:
    """Split monic squarefree f, all of whose irreducible factors have degree
    d, using a deterministic trial sequence (field order is odd here).

    A trial a splits f when a^((q^d - 1)/2) is 1 at some roots of f and not
    at others.  Over F_p the trials are x, x + 1, x + 2, ...  Over F_{p^k}
    they start at x + g, x + g + 1, ...: every constant of the first
    p^2 - p linear trials generates the whole field, so none lies in a
    proper subfield that holds f's coefficients, where it could not tell
    roots conjugate over that subfield apart.
    """
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
    x = UPoly.var(field)
    # x^v is read off the valuation, so Yun's loop sees only the rest
    v = next(i for i, c in enumerate(f.coeffs) if c != field.zero)
    factors: list[tuple[UPoly, int]] = [(x, v)] if v else []
    for g, e in u_squarefree(UPoly._adopt(field, f.coeffs[v:])):
        # distinct-degree stage on the squarefree part g
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
    roots.sort()
    return roots


def u_rational_roots(f: UPoly) -> tuple[list[tuple[int | Fraction, int]], UPoly]:
    """Rational roots with multiplicities, plus the root-free cofactor.

    Coefficients are Q values, ints or Fractions.  Candidates come from the
    classical divisor test on the primitive integer model F, and the test
    and the division run on F itself: the divisors of F(0) and of the
    leading coefficient are listed once each, and each coprime pair n, d
    gives the candidates num/d, num = +-n, tried by exact synthetic division
    of F by d*x - num, which succeeds exactly when it is a root (by Gauss's
    lemma, as d*x - num is primitive); each root is divided out to
    exhaustion.  A root is an int when d = 1 and a Fraction otherwise, and
    the cofactor goes back to Q once, at the end, scaled by an int when the
    scale is integral.
    """
    field = f.field
    if field.char != 0:
        raise ValueError("rational root extraction needs coefficients in Q")
    if f.is_zero():
        raise ValueError("zero polynomial")
    roots: list[tuple[int | Fraction, int]] = []
    # split off the root at 0 first
    v = next(i for i, c in enumerate(f.coeffs) if c)
    if v:
        roots.append((0, v))
    den = math.lcm(*(c.denominator for c in f.coeffs))
    ints = [c.numerator * (den // c.denominator) for c in f.coeffs[v:]]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    scale = g  # f / x^v = scale/den * F
    leads = _divisors(ints[-1])
    for n in _divisors(ints[0]):
        for d in leads:
            if math.gcd(n, d) > 1:
                continue
            for num in (n, -n):
                mult = 0
                while (q := _divide_root(ints, num, d)) is not None:
                    ints, mult, scale = q, mult + 1, scale * d
                if mult:
                    roots.append((num if d == 1 else Fraction(num, d), mult))
    roots.sort()
    quo, rem = divmod(scale, den)
    scale = Fraction(scale, den) if rem else quo
    # the lead of ints stays nonzero: no trailing zeros to strip
    return roots, UPoly._adopt(field, [scale * c for c in ints])


def _divide_root(ints: list[int], num: int, den: int) -> list[int] | None:
    """The quotient of the int list by den*x - num, or None if the division
    is inexact; the quotient's coefficients come from the top down."""
    q = [0] * (len(ints) - 1)
    acc = 0
    for i in range(len(ints) - 1, 0, -1):
        acc, r = divmod(ints[i] + num * acc, den)
        if r:
            return None
        q[i - 1] = acc
    return q if ints[0] + num * acc == 0 else None


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

