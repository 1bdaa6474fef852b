"""Exact coefficient fields: the rationals and finite fields F_{p^k}, p odd.

Field objects operate on plain values (for Q an ``int`` when the value is
integral and a ``Fraction`` only when it is not, ``int`` in ``[0, p)`` for
F_p, and for F_{p^k} the int code sum(c_i p^i) of the coefficient vector in
a generator g) so that values stay hashable and cheap.  Zero is 0 and one is
1 in every field, so a zero test is a truth test, and F_p sits in
F_{p^k} as the codes 0..p-1.  A field of order at most MAX_TABLE_ORDER
multiplies, adds and inverts by lookups in log, antilog and Zech tables
built once per field; a larger one computes on the base-p digits of the
codes.  Field constructors are cached, hence fields can be compared by
identity.  Extension fields choose their defining polynomial
deterministically: the monic irreducible of the required degree whose
non-leading coefficient vector, read as base-p digits (constant term least
significant), is minimal; irreducibility is read off the factorization
over F_p in ``univariate``.  Reruns therefore produce identical element
encodings and labels.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction


# is_prime divides by every odd number up to sqrt(p): about 23,000 trial
# divisions at this bound, which admits every prime the CLI, the verify
# suites, the tests and the benchmark use
MAX_CHARACTERISTIC = 2**31 - 1

# An extension field of at most this order keeps log, antilog and Zech
# tables.  The build is O(q) at 1-10 us per element (about 65 ms and 0.75 MB
# for F_3^8 = 6,561, CPython 3.11); around this order a resolution that
# touches a new field saves about what the tables cost, and at F_11^4 =
# 14,641 the digit arithmetic is already faster for one resolution.
MAX_TABLE_ORDER = 2**13

# largest k of a field F_{p^k}, enforced by extension_field.  It admits every
# germ of the tests, goldens, verify suites and benchmark: the goldens reach
# F5^4, the tests F5^6.  F5^16 takes seconds to build and use, F5^22 far
# longer.
MAX_EXTENSION_DEGREE = 12

# The resolution's default blow-up limit and the errors of a resolution
# that could not finish live here, next to the extension degree bound, so
# that the CLI reads them without loading the resolution layer;
# ``resolution`` re-exports them.
DEFAULT_DEPTH_LIMIT = 256


class ResolutionDepthError(RuntimeError):
    """A resolution needs more blow-ups than its depth limit."""


class IrrationalPointError(ValueError):
    """A singular point on the exceptional line is not rational over Q."""


class ExtensionDegreeError(RuntimeError):
    """A point on the exceptional line needs a field F_{p^k} with k above
    MAX_EXTENSION_DEGREE."""


@functools.lru_cache
def is_prime(n: int) -> bool:
    """Trial division; every characteristic is tested here, so a number past
    MAX_CHARACTERISTIC raises ValueError before any division.  Cached, as
    callers such as xi_type test the same p again for every branch point."""
    if n > MAX_CHARACTERISTIC:
        raise ValueError(
            f"field characteristic {n} exceeds the bound {MAX_CHARACTERISTIC}"
        )
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes_between(lo: int, hi: int) -> list[int]:
    """All primes lo <= p <= hi, from a sieve of Eratosthenes on [0, hi]."""
    sieve = bytearray([1]) * (hi + 1)
    for n in range(2, math.isqrt(max(hi, 0)) + 1):
        if sieve[n]:
            sieve[n * n::n] = bytes(len(range(n * n, hi + 1, n)))
    return [n for n in range(max(lo, 2), hi + 1) if sieve[n]]


def minimal_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Deterministic defining polynomial for F_{p^k}: the monic irreducible
    x^k + c_{k-1}x^{k-1} + ... + c_0 whose digit vector (c_0, ..., c_{k-1})
    encodes the smallest integer sum(c_i p^i)."""
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    if k == 1:
        return (0, 1)
    from .univariate import UPoly, u_factor  # only here: keeps fields light

    fp = prime_field(p)
    # x^k + c is irreducible over F_p only if every prime r | k divides p - 1,
    # and p = 1 mod 4 when 4 | k (Lidl and Niederreiter, Finite Fields,
    # Thm 3.75); when it cannot be, the scan skips the codes 1..p-1 of the
    # binomials, which for large p are most of the work
    no_binomial = (k % 4 == 0 and p % 4 == 3) or any(
        k % r == 0 and (p - 1) % r for r in range(2, k + 1) if is_prime(r)
    )
    for code in range(p if no_binomial else 0, p**k):
        digits, v = [], code
        for _ in range(k):
            digits.append(v % p)
            v //= p
        if digits[0] == 0:
            continue
        f = UPoly(fp, digits + [1])
        if u_factor(f)[1] == [(f, 1)]:
            return f.coeffs
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# Field classes.


class RationalField:
    """The rationals; an element is an int when it is integral and a
    fractions.Fraction when it is not.  The two mix exactly and print alike,
    so a germ with integral coefficients and centres is resolved on ints."""

    char = 0
    p = 0
    k = 1
    order = None
    name = "Q"

    zero = 0
    one = 1

    # plain operator functions, one Python frame fewer per operation
    from_int = staticmethod(int)
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        q = 1 / Fraction(a)
        return q.numerator if q.denominator == 1 else q

    def pow(self, a, e: int):
        return Fraction(a) ** e

    def fmt(self, a) -> str:
        return str(a)

    def __repr__(self):
        return "Q"


class PrimeField:
    """F_p for an odd prime p; elements are ints reduced mod p."""

    def __init__(self, p: int):
        self.char = p
        self.p = p
        self.k = 1
        self.order = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in {self.name}")
        return pow(a, -1, self.p)

    def pow(self, a, e: int):
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def pth_root(self, a):
        return a  # Frobenius is the identity on F_p

    def decode(self, code: int):
        return code % self.p

    def fmt(self, a) -> str:
        return str(a)

    def __repr__(self):
        return self.name


class ExtensionField:
    """F_{p^k} = F_p[g]/(modulus).  An element is the int code
    c_0 + c_1 p + ... + c_{k-1} p^(k-1) of its coefficients in
    c_0 + c_1 g + ... + c_{k-1} g^(k-1), so zero is 0, one is 1, F_p is
    0..p-1 and elements sort by their codes.

    The methods below are the digit arithmetic: decode to coefficients,
    compute in F_p[g], encode.  A field of order at most MAX_TABLE_ORDER
    replaces them by lookups in its log, antilog and Zech tables; a larger
    field keeps them, and tests compare the tables against them.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.char = p
        self.p = p
        self.k = k
        self.order = p**k
        self.modulus = modulus  # monic, length k+1
        self.name = f"F{p**k}"
        self.zero = 0
        self.one = 1
        # g^k expressed in lower powers
        self._top = tuple(-c % p for c in modulus[:k])
        self._places = [p**i for i in range(k)]
        self.tabled = self.order <= MAX_TABLE_ORDER
        if self.tabled:
            self._tabulate()

    def digits(self, a: int) -> list[int]:
        """The k coefficients of a, constant term first."""
        p = self.p
        return [a // place % p for place in self._places]

    def _encode(self, digits) -> int:
        return sum(map(operator.mul, digits, self._places))

    def from_int(self, n: int) -> int:
        return n % self.p

    # digit i of a is a // p^i % p, so (a // p^i + b // p^i) % p is digit i
    # of a + b

    def add(self, a, b):
        p = self.p
        return sum((a // place + b // place) % p * place for place in self._places)

    def sub(self, a, b):
        p = self.p
        return sum((a // place - b // place) % p * place for place in self._places)

    def neg(self, a):
        p = self.p
        return sum(-(a // place) % p * place for place in self._places)

    def mul(self, a, b):
        p, k, places = self.p, self.k, self._places
        if b < p:
            a, b = b, a
        if a < p:  # a scalar of F_p
            return sum((b // place * a) % p * place for place in places)
        b = self.digits(b)
        prod = [0] * (2 * k - 1)
        for i, place in enumerate(places):
            ai = a // place % p
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        # reduce degrees >= k using g^k = self._top, then each digit mod p
        for d in range(2 * k - 2, k - 1, -1):
            c = prod[d] % p
            if c:
                for i, ti in enumerate(self._top):
                    prod[d - k + i] += c * ti
        return self._encode([c % p for c in prod[:k]])

    def inv(self, a):
        if not a:
            raise ZeroDivisionError(f"inverse of zero in {self.name}")
        # extended Euclid in F_p[g], one leading term at a time: s*a = r
        # modulo the modulus for both pairs (r, s), and deg u >= deg v
        p = self.p
        v = self.digits(a)
        while not v[-1]:
            v.pop()
        u, su, sv = list(self.modulus), [], [1]
        while len(v) > 1:
            shift, c = len(u) - len(v), -u[-1] * pow(v[-1], -1, p)
            u, su = _axpy(u, v, c, shift, p), _axpy(su, sv, c, shift, p)
            if len(u) < len(v):
                u, su, v, sv = v, sv, u, su
        c = pow(v[0], -1, p)
        return self._encode([s * c % p for s in sv])

    def pow(self, a, e: int):
        if e < 0:
            a, e = self.inv(a), -e
        result = 1
        while e > 0:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def pth_root(self, a):
        # Frobenius has order k, so x -> x^(p^(k-1)) inverts x -> x^p
        return self.pow(a, self.p ** (self.k - 1))

    def _tabulate(self) -> None:
        """Build the tables in O(q) digit operations and install the lookups.

        With n = q - 1 and a primitive element h: exp[i] = h^i and
        log[exp[i]] = i for 0 <= i < n, and zech[i] = log(1 + h^i).  log[0]
        is 2n - 1 and exp is 0 from 2n - 1 on, so a product or a negation
        with a zero factor lands on a 0 without a test; zech is 2n - 1 where
        1 + h^i = 0 (i = n/2) for the same reason, and is stored twice so
        that any log difference in (-n, 2n) indexes it.
        """
        q, p, k = self.order, self.p, self.k
        n, half = q - 1, (q - 1) // 2
        divisors = [r for r in primes_between(2, n) if n % r == 0]
        h = next(c for c in range(2, q)
                 if all(self.pow(c, n // r) != 1 for r in divisors))
        # multiplying by h is F_p-linear: row i of its matrix gives digit i
        # of h*v from the digits of v
        images = [self.digits(self.mul(h, place)) for place in self._places]
        rows = [[image[i] for image in images] for i in range(k)]
        exp, v = [1] * n, self.digits(1)
        for i in range(1, n):
            v = [sum(map(operator.mul, v, row)) % p for row in rows]
            exp[i] = self._encode(v)
        log = [0] * q
        log[0] = 2 * n - 1
        for i, c in enumerate(exp):
            log[c] = i
        # 1 + c adds one to the constant digit only
        zech = [log[c - c % p + (c + 1) % p] for c in exp] * 2
        exp = exp + exp[: n - 1] + [0] * (2 * n)
        frobenius_inverse = p ** (k - 1) % n

        def add(a, b):
            if not a:
                return b
            if not b:
                return a
            la = log[a]
            return exp[la + zech[log[b] - la]]

        def sub(a, b):
            if not b:
                return a
            lb = log[b] + half  # the log of -b
            if not a:
                return exp[lb]
            la = log[a]
            return exp[la + zech[lb - la]]

        def neg(a):
            return exp[log[a] + half]

        def mul(a, b):
            return exp[log[a] + log[b]]

        def inv(a):
            if not a:
                raise ZeroDivisionError(f"inverse of zero in {self.name}")
            return exp[n - log[a]]

        def pow(a, e: int):
            if a:
                return exp[log[a] * e % n]
            if e < 0:
                raise ZeroDivisionError(f"inverse of zero in {self.name}")
            return 0 if e else 1

        def pth_root(a):
            return exp[log[a] * frobenius_inverse % n] if a else 0

        self.add, self.sub, self.neg, self.mul = add, sub, neg, mul
        self.inv, self.pow, self.pth_root = inv, pow, pth_root

    def decode(self, code: int):
        return code % self.order

    def fmt(self, a) -> str:
        return _fmt_intpoly(self.digits(a), "g")

    def __repr__(self):
        return self.name


def _axpy(u: list[int], v: list[int], c: int, shift: int, p: int) -> list[int]:
    """u + c*g^shift*v in F_p[g], as coefficients without trailing zeros."""
    out = u + [0] * (len(v) + shift - len(u))
    for i, x in enumerate(v):
        out[i + shift] = (out[i + shift] + c * x) % p
    while out and not out[-1]:
        out.pop()
    return out


def _fmt_intpoly(coeffs, var: str) -> str:
    # coeffs in increasing degree; leading entries may be zero padding
    terms = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if not c:
            continue
        if d == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            terms.append(f"{head}{var}" + (f"^{d}" if d > 1 else ""))
    return "+".join(terms) if terms else "0"


QQ = RationalField()


@functools.lru_cache(maxsize=None)
def prime_field(p: int) -> PrimeField:
    if p == 2:
        raise ValueError("characteristic 2 is not supported")
    if not is_prime(p):
        raise ValueError(f"field characteristic {p} is not prime")
    return PrimeField(p)


@functools.lru_cache(maxsize=None)
def extension_field(p: int, k: int):
    """F_{p^k} with the deterministic minimal defining polynomial (F_p itself
    when k == 1); k past MAX_EXTENSION_DEGREE raises ValueError before any
    search for the polynomial."""
    if k == 1:
        return prime_field(p)
    prime_field(p)  # validates p
    if k > MAX_EXTENSION_DEGREE:
        raise ValueError(
            f"extension degree {k} exceeds the bound {MAX_EXTENSION_DEGREE}"
        )
    return ExtensionField(p, k, minimal_irreducible(p, k))
