"""Exact coefficient fields: the rationals and finite fields F_{p^k}, p odd.

Field objects operate on plain values (``Fraction`` for Q, ``int`` in
``[0, p)`` for F_p, tuple of ints for F_{p^k}) so that values stay hashable
and cheap.  Field constructors are cached, hence fields can be compared by
identity.  Extension fields choose their defining polynomial
deterministically: the monic irreducible of the required degree whose
non-leading coefficient vector, read as base-p digits (constant term least
significant), is minimal; irreducibility is read off the factorization
over F_p in ``univariate``.  Reruns therefore produce identical element
encodings and labels.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .univariate import UPoly, u_factor


def is_prime(n: int) -> bool:
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
    """All primes p with lo <= p <= hi."""
    return [n for n in range(max(lo, 2), hi + 1) if is_prime(n)]


def fmt_fraction(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def minimal_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Deterministic defining polynomial for F_{p^k}: the monic irreducible
    x^k + c_{k-1}x^{k-1} + ... + c_0 whose digit vector (c_0, ..., c_{k-1})
    encodes the smallest integer sum(c_i p^i)."""
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    if k == 1:
        return (0, 1)
    fp = prime_field(p)
    for code in range(p**k):
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
    """The rationals; elements are fractions.Fraction."""

    char = 0
    p = 0
    k = 1
    order = None
    name = "Q"

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return 1 / Fraction(a)

    def pow(self, a, e: int):
        return Fraction(a) ** e

    def sort_key(self, a):
        return Fraction(a)

    def fmt(self, a) -> str:
        return fmt_fraction(a)

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

    def sort_key(self, a):
        return a

    def fmt(self, a) -> str:
        return str(a)

    def __repr__(self):
        return self.name


class ExtensionField:
    """F_{p^k} = F_p[g]/(modulus); elements are coefficient tuples of length k
    in increasing powers of the generator g."""

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.char = p
        self.p = p
        self.k = k
        self.order = p**k
        self.modulus = modulus  # monic, length k+1
        self.name = f"F{p**k}"
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)
        # g^k expressed in lower powers
        self._top = tuple(-c % p for c in modulus[:k])
        self._inverses: dict[tuple[int, ...], tuple[int, ...]] = {}

    def from_int(self, n: int):
        return (n % self.p,) + (0,) * (self.k - 1)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        # reduce degrees >= k using g^k = self._top
        for d in range(2 * k - 2, k - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for i, ti in enumerate(self._top):
                    prod[d - k + i] = (prod[d - k + i] + c * ti) % p
        return tuple(prod[:k])

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError(f"inverse of zero in {self.name}")
        inverse = self._inverses.get(a)
        if inverse is None:
            # a^(q-1) = 1.  Resolutions invert few distinct elements many
            # times, so each answer is kept.
            inverse = self._inverses[a] = self.pow(a, self.order - 2)
        return inverse

    def pow(self, a, e: int):
        if e < 0:
            a, e = self.inv(a), -e
        result = self.one
        while e > 0:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def pth_root(self, a):
        # Frobenius has order k, so x -> x^(p^(k-1)) inverts x -> x^p
        return self.pow(a, self.p ** (self.k - 1))

    def encode(self, a) -> int:
        code = 0
        for c in reversed(a):
            code = code * self.p + c
        return code

    def decode(self, code: int):
        out = []
        for _ in range(self.k):
            out.append(code % self.p)
            code //= self.p
        return tuple(out)

    def sort_key(self, a):
        return self.encode(a)

    def fmt(self, a) -> str:
        return _fmt_intpoly(a, "g") if any(a) else "0"

    def __repr__(self):
        return self.name


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
    when k == 1)."""
    if k == 1:
        return prime_field(p)
    prime_field(p)  # validates p
    return ExtensionField(p, k, minimal_irreducible(p, k))
