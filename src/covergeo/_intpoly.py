"""Z[t] on int lists: the coefficient ring of the bivariate model over Q.

Over Q, ``polynomials.b_gcd`` and ``b_exact_div`` clear denominators once
per call (``int_x_list``) and run their x-list remainder sequence and long
division on x-lists of Z[t] int lists (increasing degree, no trailing zeros,
[] is 0) with ``ZT`` as the coefficient ring.  Every step then runs on
Python ints, which keeps the coefficients free of the growth of Euclid over
Fractions; Fractions are built only for the answer (``q_terms``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

# ---------------------------------------------------------------------------
# Z[t] on int lists.


def _gcd(values) -> int:
    # not math.gcd(*values): the argument tuple of a long coefficient list is
    # a large short-lived allocation, and many of them fragment the heap (one
    # more pymalloc arena and +0.5 MB peak RSS over 1,700 resolutions)
    return reduce(math.gcd, values, 0)


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


def _z_exact_div(a: list[int], b: list[int]) -> list[int]:
    """a / b in Z[t]; raises ValueError unless b divides a in Z[t]."""
    rem = list(a)
    db = len(b) - 1
    lead = b[-1]
    q = [0] * max(0, len(rem) - db)
    while len(rem) > db:
        c, r = divmod(rem[-1], lead)
        if r:
            raise ValueError("inexact polynomial division")
        d = len(rem) - 1 - db
        q[d] = c
        for i, bc in enumerate(b):
            rem[d + i] -= c * bc
        while rem and not rem[-1]:
            rem.pop()
    if rem:
        raise ValueError("inexact polynomial division")
    return q


def _z_primitive(a: list[int]) -> list[int]:
    """a over its integer content, with positive leading coefficient."""
    if not a:
        return a
    c = _gcd(a)
    if a[-1] < 0:
        c = -c
    return a if c == 1 else [v // c for v in a]


def _z_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    # a remainder of a modulo b up to a nonzero integer factor
    a = list(a)
    db = len(b) - 1
    while len(a) > db:
        g = math.gcd(a[-1], b[-1])
        ma, mb = b[-1] // g, a[-1] // g
        shift = len(a) - 1 - db
        if ma != 1:
            a = [ma * v for v in a]
        for i, bc in enumerate(b):
            a[shift + i] -= mb * bc
        while a and not a[-1]:
            a.pop()
    return a


def _z_gcd(a: list[int], b: list[int]) -> list[int]:
    """Gcd in Z[t] with positive leading coefficient: the primitive
    remainder sequence times the integer content; _z_gcd([], []) is []."""
    if not a or not b:
        c = a or b
        return [-v for v in c] if c and c[-1] < 0 else list(c)
    cont = math.gcd(_gcd(a), _gcd(b))
    if len(a) == 1 or len(b) == 1:
        return [cont]
    a, b = _z_primitive(a), _z_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        a, b = b, _z_primitive(_z_pseudo_rem(a, b))
    if b:  # a nonzero constant remainder: the primitive parts are coprime
        a = [1]
    return [cont * v for v in a]


class ZT:
    """Z[t] as the coefficient ring of an x-list, used as the class itself."""

    zero: list[int] = []
    one = [1]
    mul = staticmethod(_z_mul)
    sub = staticmethod(_z_sub)
    exact_div = staticmethod(_z_exact_div)
    gcd = staticmethod(_z_gcd)

    @staticmethod
    def lead_multipliers(lead_a: list[int], lead_b: list[int]):
        # lead_b and lead_a over the gcd of their integer contents
        g = math.gcd(_gcd(lead_a), _gcd(lead_b))
        return [c // g for c in lead_b], [c // g for c in lead_a]


# ---------------------------------------------------------------------------
# Conversions between Q[x, t] term maps and Z[t][x] x-lists.


def int_x_list(terms: dict) -> tuple[list[list[int]], int]:
    """(F, d): F = d*f in Z[t][x] for the nonzero f with these terms."""
    den = reduce(math.lcm, (c.denominator for c in terms.values()), 1)
    xs: list[list[int]] = [[] for _ in range(max(i for i, _ in terms) + 1)]
    for (i, j), c in terms.items():
        u = xs[i]
        if len(u) <= j:
            u.extend([0] * (j + 1 - len(u)))
        u[j] = c.numerator * (den // c.denominator)
    return xs, den


def q_terms(xs: list[list[int]], num: int, den: int) -> dict:
    """The terms of (num/den) * xs over Q."""
    return {(i, j): Fraction(num * c, den)
            for i, u in enumerate(xs) for j, c in enumerate(u) if c}
