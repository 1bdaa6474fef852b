"""Exact coefficient fields: the rationals and finite fields F_{p^k}, p odd.

Field objects operate on plain values (``Fraction`` for Q, ``int`` in
``[0, p)`` for F_p, tuple of ints for F_{p^k}) so that values stay hashable
and cheap.  Field constructors are cached, hence fields can be compared by
identity.  Extension fields choose their defining polynomial
deterministically: the monic irreducible of the required degree whose
non-leading coefficient vector, read as base-p digits (constant term least
significant), is minimal.  Reruns therefore produce identical element
encodings and labels.
"""

from __future__ import annotations

import functools
from fractions import Fraction


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


# ---------------------------------------------------------------------------
# Raw univariate arithmetic over F_p (dense int lists), used for building and
# running extension fields.  Lists hold coefficients in increasing degree.

def _ptrim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _padd(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _ptrim(out)


def _pdivmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    inv_lead = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        c = a[-1] * inv_lead % p
        d = len(a) - len(b)
        q[d] = c
        for i, bi in enumerate(b):
            a[d + i] = (a[d + i] - c * bi) % p
        _ptrim(a)
        if not a:
            break
    return _ptrim(q), a


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _ppowmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _pdivmod(base, mod, p)[1]
    while e > 0:
        if e & 1:
            result = _pdivmod(_pmul(result, base, p), mod, p)[1]
        base = _pdivmod(_pmul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def _is_irreducible(f: list[int], p: int) -> bool:
    """Monic f over F_p, degree k >= 1, by the Frobenius criterion."""
    k = len(f) - 1
    x = [0, 1]
    if _ppowmod(x, p**k, f, p) != x:
        return False
    for q in _prime_divisors(k):
        h = _padd(_ppowmod(x, p ** (k // q), f, p), [0, p - 1], p)
        if len(_pgcd(h, f, p)) != 1:
            return False
    return True


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def minimal_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Deterministic defining polynomial for F_{p^k}: the monic irreducible
    x^k + c_{k-1}x^{k-1} + ... + c_0 whose digit vector (c_0, ..., c_{k-1})
    encodes the smallest integer sum(c_i p^i)."""
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    if k == 1:
        return (0, 1)
    for code in range(p**k):
        digits, v = [], code
        for _ in range(k):
            digits.append(v % p)
            v //= p
        f = digits + [1]
        if f[0] != 0 and _is_irreducible(f, p):
            return tuple(f)
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

    def encode(self, a) -> int:
        return a

    def decode(self, code: int):
        return code % self.p

    def sort_key(self, a):
        return a

    def fmt(self, a) -> str:
        return str(a)

    def elements(self):
        return range(self.p)

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
        # extended Euclid in F_p[z] against the modulus
        p = self.p
        r0, r1 = list(self.modulus), _ptrim(list(a))
        s0, s1 = [], [1]
        while r1:
            q, r = _pdivmod(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, _padd(s0, [(-c) % p for c in _pmul(q, s1, p)], p)
        lead_inv = pow(r0[-1], -1, p)
        s0 = [c * lead_inv % p for c in s0]
        s0 += [0] * (self.k - len(s0))
        return tuple(s0[: self.k])

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

    def elements(self):
        return (self.decode(i) for i in range(self.order))

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
        raise ValueError(f"{p} is not prime")
    return PrimeField(p)


@functools.lru_cache(maxsize=None)
def extension_field(p: int, k: int):
    """F_{p^k} with the deterministic minimal defining polynomial (F_p itself
    when k == 1)."""
    if k == 1:
        return prime_field(p)
    prime_field(p)  # validates p
    return ExtensionField(p, k, minimal_irreducible(p, k))
