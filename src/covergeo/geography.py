"""Chern-number geography of minimal surfaces of general type, exact form.

kappa(p) denotes the infimum of chi/c_1^2 in characteristic p.  The module
carries its conjectural closed form (p^2-4p-1)/4(3p^2-8p-3), the proven
lower bounds ((p-7)/12(p-3) for p >= 7, the exact value 1/32 at p = 5,
qualitative positivity at p = 3), the ruled-surface example family whose
chi/K^2 realizes the conjectural value, a characteristic-3 family with
c_2/(q-1) -> -4, and assorted exact inequality checks.  Everything is
integer or Fraction arithmetic.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .fields import is_prime, primes_between


class SurfaceInvariants(namedtuple("SurfaceInvariants", [
    "p",
    "K2",
    "c2",
    "chi",
    "q",  # base-curve genus of the fibration, if any
    "g",  # fiber arithmetic genus, if any
], defaults=(None, None))):
    """Numerical record of a surface.  Nothing checks its identities on
    construction; callers check them explicitly via noether_check and friends."""

    __slots__ = ()


def noether_check(inv: SurfaceInvariants) -> bool:
    return 12 * inv.chi == inv.K2 + inv.c2


def c2_floor_check(inv: SurfaceInvariants) -> bool:
    if inv.q is None:
        raise ValueError("c2 floor needs the base-curve genus q")
    return inv.c2 >= -4 * (inv.q - 1)


def kappa_conjectural(p: int) -> Fraction:
    if p < 5 or not is_prime(p):
        raise ValueError("the conjectural value is stated for primes p >= 5")
    return _conjectural(p)


def _conjectural(p: int) -> Fraction:
    return Fraction(p * p - 4 * p - 1, 4 * (3 * p * p - 8 * p - 3))


def kappa_proven_lower(p: int) -> Fraction | None:
    """Proven information on kappa(p): exact value 1/32 at p = 5, the strict
    lower bound (p-7)/12(p-3) for p >= 7, and None at p = 3 standing for
    "positive, no explicit value"."""
    if p not in (3, 5) and (p < 3 or not is_prime(p)):
        raise ValueError("p must be an odd prime >= 3")
    return _proven_lower(p)


def _proven_lower(p: int) -> Fraction | None:
    if p == 3:
        return None
    if p == 5:
        return Fraction(1, 32)
    return Fraction(p - 7, 12 * (p - 3))


class KappaReport(namedtuple("KappaReport", "p conjectural proven_lower")):
    __slots__ = ()

    @property
    def note(self) -> str:
        if self.p == 3:
            return "positive, no explicit value"
        if self.p == 5:
            return "exact value"
        return "strict lower bound"


def raynaud_invariants(p: int, l: int) -> SurfaceInvariants:
    """Invariants of the ruled-surface double-cover family:
    chi = (p^2-4p-1) l / 8, K^2 = (3p^2-8p-3) l / 2, c2 = -2pl = -4(q-1)
    with 2q - 2 = pl.  Needs p >= 5 prime and l positive even (which makes
    both chi and K^2 integral)."""
    if p < 5 or not is_prime(p):
        raise ValueError("the family needs a prime p >= 5")
    if l < 1 or l % 2:
        raise ValueError(
            f"l = {l} is inadmissible: l must be positive and even for "
            f"chi = (p^2-4p-1)l/8 and q = pl/2 + 1 to be integers"
        )
    # for odd p, p^2-4p-1 = 4 and 3p^2-8p-3 = 0 (mod 8), so an even l
    # makes both quotients below exact
    chi_num = (p * p - 4 * p - 1) * l
    k2_num = (3 * p * p - 8 * p - 3) * l
    return SurfaceInvariants(
        p=p,
        K2=k2_num // 2,
        c2=-2 * p * l,
        chi=chi_num // 8,
        q=p * l // 2 + 1,
        g=(p - 1) // 2,
    )


class Char3Example(namedtuple("Char3Example", [
    "n",
    "q",
    "m",
    "c2_upper",  # -4(q-1) + 3m
])):
    __slots__ = ()

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.c2_upper, self.q - 1)


# largest n of char3_example: 4(q - 1) < 2*9^n then has at most 1,909
# digits, well inside the 4,300 digits that Python converts to a string
MAX_CHAR3_N = 2000


def char3_example(n: int) -> Char3Example:
    """Characteristic-3 family: q - 1 = (3^n - 1)(3^n - 4)/2, m = 3^n - 1,
    and c2 <= -4(q-1) + 3m; general type needs n >= 2."""
    if n < 2:
        raise ValueError("the family is of general type only for n >= 2")
    if n > MAX_CHAR3_N:
        raise ValueError(f"n = {n} exceeds the bound {MAX_CHAR3_N}")
    m = 3**n - 1
    q_minus_1 = (3**n - 1) * (3**n - 4) // 2
    return Char3Example(n=n, q=q_minus_1 + 1, m=m, c2_upper=-4 * q_minus_1 + 3 * m)


# largest p_max of kappa_table: the table up to it has 17,983 rows and
# takes about 0.5 s to build and print
MAX_KAPPA_P = 200_000


def kappa_table(p_min: int, p_max: int) -> list[KappaReport]:
    if p_max > MAX_KAPPA_P:
        raise ValueError(f"primes up to {p_max} exceed the bound {MAX_KAPPA_P}")
    # the sieve's primes need no second test
    return [
        KappaReport(
            p=p,
            conjectural=_conjectural(p) if p >= 5 else None,
            proven_lower=_proven_lower(p),
        )
        for p in primes_between(max(p_min, 3), p_max)
    ]
