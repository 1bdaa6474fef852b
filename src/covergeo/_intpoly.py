"""Bivariate gcd and exact division over Q on integer models.

Over Q, ``polynomials.b_gcd`` and ``b_exact_div`` hand their term maps
({(i, j): Fraction}) to this module.  Each call clears denominators once
and holds the polynomial as an x-list of Z[t] int lists (increasing degree,
no trailing zeros, [] is 0).  Every step then runs on Python ints, which
keeps the coefficients free of the growth of Euclid over Fractions;
Fractions are built only for the answer.
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
    a, b = _z_primitive(a), _z_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        a, b = b, _z_primitive(_z_pseudo_rem(a, b))
    if b:  # a nonzero constant remainder: the primitive parts are coprime
        a = [1]
    return [cont * v for v in a]


# ---------------------------------------------------------------------------
# Z[t][x] as x-lists of Z[t] int lists.


def _x_list(terms: dict) -> tuple[list[list[int]], int]:
    """(F, d): F = d*f in Z[t][x] for the nonzero f with these terms."""
    den = reduce(math.lcm, (c.denominator for c in terms.values()), 1)
    xs: list[list[int]] = [[] for _ in range(max(i for i, _ in terms) + 1)]
    for (i, j), c in terms.items():
        u = xs[i]
        if len(u) <= j:
            u.extend([0] * (j + 1 - len(u)))
        u[j] = c.numerator * (den // c.denominator)
    return xs, den


def _terms(xs: list[list[int]], num: int, den: int) -> dict:
    """The terms of (num/den) * xs over Q."""
    return {(i, j): Fraction(num * c, den)
            for i, u in enumerate(xs) for j, c in enumerate(u) if c}


def _trim(xs: list[list[int]]) -> list[list[int]]:
    while xs and not xs[-1]:
        xs.pop()
    return xs


def _content(xs: list[list[int]]) -> list[int]:
    g: list[int] = []
    for u in xs:
        g = _z_gcd(g, u)
        if len(g) == 1:  # no common factor in t: only the integer content
            return [_gcd(c for v in xs for c in v)]
    return g


def _primitive(xs: list[list[int]]) -> list[list[int]]:
    cont = _content(xs)
    if cont == [1]:
        return xs
    return [_z_exact_div(u, cont) for u in xs]


def _pseudo_rem(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    # a remainder of a modulo b up to a nonzero factor in Z[t]
    a = list(a)
    db = len(b) - 1
    while len(a) > db:
        g = math.gcd(_gcd(a[-1]), _gcd(b[-1]))
        ma, mb = [c // g for c in b[-1]], [c // g for c in a[-1]]
        shift = len(a) - 1 - db
        if ma != [1]:
            a = [_z_mul(u, ma) for u in a]
        for i in range(db + 1):
            a[shift + i] = _z_sub(a[shift + i], _z_mul(mb, b[i]))
        _trim(a)
    return a


def q_gcd(f: dict, g: dict) -> dict:
    """The terms of gcd(f, g) in Q[x, t] for nonzero f and g, scaled so the
    lexicographically greatest monomial has coefficient 1: the primitive
    remainder sequence (Collins, J. ACM 14, 1967) over Z[t]."""
    a, b = _x_list(f)[0], _x_list(g)[0]
    cont = _z_gcd(_content(a), _content(b))
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b)
        a, b = b, (_primitive(r) if r else [])
    a = [_z_mul(u, cont) for u in a]
    return _terms(a, 1, a[-1][-1])


def q_exact_div(f: dict, g: dict) -> dict:
    """The terms of f / g in Q[x, t] for nonzero f and g; raises ValueError
    if g does not divide f."""
    # Gauss's lemma: the primitive part P of G = d_g*g divides F = d_f*f in
    # Z[t][x] if g divides f, and the Z[t] content c*c_t of G, with c an
    # integer and c_t primitive, leaves f/g = d_g*(F/P)/c_t / (d_f*c).
    a, den_f = _x_list(f)
    b, den_g = _x_list(g)
    cont = _content(b)
    if cont != [1]:
        b = [_z_exact_div(u, cont) for u in b]
    q: list[list[int]] = [[] for _ in range(max(0, len(a) - len(b) + 1))]
    while len(a) >= len(b):
        qc = _z_exact_div(a[-1], b[-1])
        shift = len(a) - len(b)
        q[shift] = qc
        for i in range(len(b)):
            a[shift + i] = _z_sub(a[shift + i], _z_mul(qc, b[i]))
        _trim(a)
    if a:
        raise ValueError("inexact bivariate division")
    c = _gcd(cont)
    if len(cont) > 1:
        c_t = [v // c for v in cont]
        q = [_z_exact_div(u, c_t) for u in q]
    return _terms(q, den_g, den_f * c)
