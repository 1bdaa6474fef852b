"""Closed-form singularity invariants for double-cover branch germs.

``xi_family`` evaluates the Euclidean-descent recursion on (m, n) for the
monomial family x^a t^b (x^m - t^n), with a, b in {0, 1} and m, n coprime;
``xi_bound_family`` is its closed upper bound, valid for odd m.

The four local shapes on a hyperelliptic fibration's branch divisor
(classes I-IV), parametrized by the ramification data of the defining
function, reduce to this family at m = p.  With (a, b) the class's
``branch_exponents``, a point with tame data R, or with wild data away from a
pole, is the germ x^a t^b (x^p - t^(R+1)).  A wild pole (class III or IV with
wild j) is j layers, each adding (p^2 - 1)/8, over x^0 t^b (x^p - t^n) with
n = R - p*j + 1.  ``xi_type`` adds the layers to ``xi_family`` of that germ.
The layers add (p^2 - 1)/8 to the per-class linear bound as well, so
``xi_inequality_slack``, the bound minus xi, is ``xi_bound_family`` minus
``xi_family`` of the same germ; it is non-negative for every admissible input.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from fractions import Fraction

from .fields import is_prime


class SingularityClass(enum.Enum):
    """Class of a branch point on a hyperelliptic fibration.

    (a, b) = ``branch_exponents`` are the exponents of its local shape
    x^a t^b (x^p - t^(R+1)): a = 1 at a pole (III, IV) and b = 1 on a
    vertical component (II, IV).
    """

    I = "I"
    II = "II"
    III = "III"
    IV = "IV"

    @property
    def branch_exponents(self) -> tuple[int, int]:
        """The (a, b) monomial exponents of the matching local branch shape."""
        return _CLASS_EXPONENTS[self]

    @property
    def counts_as_pole(self) -> bool:
        return self in (SingularityClass.III, SingularityClass.IV)

    @property
    def d_b(self) -> int:
        return 1 if self in (SingularityClass.II, SingularityClass.IV) else 0


_CLASS_EXPONENTS = {
    SingularityClass.I: (0, 0),
    SingularityClass.II: (0, 1),
    SingularityClass.III: (1, 0),
    SingularityClass.IV: (1, 1),
}


class RamificationType(namedtuple("RamificationType", [
    "kind",  # "tame" | "wild"
    "R",
    "j",
])):
    """Local ramification descriptor: tame {R} or wild {p*j, R}.

    R is the length of the relative-differentials stalk.  Tame data have
    valuation R + 1; wild data carry j >= 1 with valuation p*j.  ``check``
    asks R >= p*j of wild data and, of both kinds, that p does not divide
    R + 1: no local function realizes R = -1 mod p.
    """

    __slots__ = ()

    def __new__(cls, kind: str, R: int, j: int | None = None):
        if kind not in ("tame", "wild"):
            raise ValueError(f"unknown ramification kind {kind!r}")
        if R < 0:
            raise ValueError("ramification index must be non-negative")
        if kind == "wild":
            if j is None or j < 1:
                raise ValueError("wild ramification needs j >= 1")
        elif j is not None:
            raise ValueError("tame ramification carries no j")
        return super().__new__(cls, kind, R, j)

    @classmethod
    def tame(cls, R: int) -> "RamificationType":
        return cls("tame", R)

    @classmethod
    def wild(cls, j: int, R: int) -> "RamificationType":
        return cls("wild", R, j)

    @property
    def is_wild(self) -> bool:
        return self.kind == "wild"

    def check(self, p: int) -> None:
        """Consistency against the residue characteristic p."""
        if self.kind == "wild" and self.R < p * self.j:
            raise ValueError(
                f"wild ramification requires R >= p*j "
                f"(got R={self.R}, p*j={p * self.j})"
            )
        if (self.R + 1) % p == 0:
            raise ValueError(
                f"ramification requires p does not divide R+1: R = -1 mod p "
                f"is not realized by any local function (got R={self.R}, p={p})"
            )

    def fmt(self) -> str:
        if self.kind == "tame":
            return f"tame R={self.R}"
        return f"wild j={self.j} R={self.R}"


def _check_family(a: int, b: int, m: int, n: int) -> None:
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError("exponents a, b must be 0 or 1")
    if m < 1 or n < 1:
        raise ValueError("m, n must be positive")
    if math.gcd(m, n) != 1:
        raise ValueError(f"m={m} and n={n} must be coprime")


def xi_family(a: int, b: int, m: int, n: int) -> int:
    """Invariant of the germ x^a t^b (x^m - t^n), gcd(m, n) = 1."""
    _check_family(a, b, m, n)
    # The recursion's step subtracts the smaller of m, n from the larger,
    # adds _step_drop(a + b + smaller) and sets the larger side's exponent
    # to that sum mod 2.  A run of q = larger // smaller such steps against
    # the same smaller side is taken at once: if b + n (a + m) is even, a (b)
    # stays fixed, and if it is odd, a (b) alternates, starting as it is.
    total = 0
    while m != 1 and n != 1:
        if m > n:
            q, m = divmod(m, n)
            total += _run_drops(q, a, b + n)
            a ^= q & 1 & (b + n)
        else:
            q, n = divmod(n, m)
            total += _run_drops(q, b, a + m)
            b ^= q & 1 & (a + m)
    return total


def _run_drops(q: int, e: int, rest: int) -> int:
    # the drops of q steps whose changing exponent starts at e
    if rest % 2 == 0:
        return q * _step_drop(e + rest)
    return (q + 1) // 2 * _step_drop(e + rest) + q // 2 * _step_drop(1 - e + rest)


def _step_drop(s: int) -> int:
    # the chi drop (l^2 - l)/2 of a blow-up at multiplicity s, l = floor(s/2),
    # as BlowupStep.chi_drop_each; resolve does not load this module
    l = s // 2
    return l * (l - 1) // 2


def xi_bound_family(a: int, b: int, m: int, n: int) -> Fraction:
    """Closed upper bound for xi_family, valid for odd m:
    (m-1)^2 (n-1) / 8m + (m-1) n a / 4m + (m-1) b / 4."""
    _check_family(a, b, m, n)
    if m % 2 == 0:
        raise ValueError("the bound requires odd m")
    return Fraction((m - 1) * ((m - 1) * (n - 1) + 2 * n * a + 2 * m * b), 8 * m)


def _family_form(cls: SingularityClass, lam: RamificationType,
                 p: int) -> tuple[int, int, int, int]:
    # (layers, a, b, n): the point is `layers` wild layers, each adding
    # (p^2 - 1)/8 to xi and to its bound, over the germ x^a t^b (x^p - t^n)
    if p < 5 or not is_prime(p):
        raise ValueError("class I-IV invariants need a prime p >= 5")
    lam.check(p)
    if cls is SingularityClass.I and lam.R < 1:
        # the class-I shape is singular only where the function ramifies
        raise ValueError("class I requires R >= 1")
    a, b = cls.branch_exponents
    if cls.counts_as_pole and lam.is_wild:
        # the j layers of valuation p*j, ..., p leave the pole behind
        return lam.j, 0, b, lam.R - p * lam.j + 1
    return 0, a, b, lam.R + 1


def xi_type(cls: SingularityClass, lam: RamificationType, p: int) -> int:
    """Invariant of a class I-IV branch point with ramification data lam."""
    layers, a, b, n = _family_form(cls, lam, p)
    return layers * (p * p - 1) // 8 + xi_family(a, b, p, n)


def xi_inequality_slack(cls: SingularityClass, lam: RamificationType,
                        p: int) -> Fraction:
    """Left-minus-right value of the per-class linear bound on xi_type."""
    _, a, b, n = _family_form(cls, lam, p)
    return xi_bound_family(a, b, p, n) - xi_family(a, b, p, n)
