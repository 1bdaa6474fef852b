"""Exact validators for genus change under inseparable covers of curves.

All operations are pure integer or rational identities; no curves are
modeled.  Genus drops shrink by a factor of at least p along a tower of
degree-p inseparable covers, the torsion degree of the differentials is
2p*(drop)/(p-1), and quasi-hyperelliptic rational curves have arithmetic
genus of the shape (p^i + p^j - 2)/2.  That shape is tested exactly, by
dividing out powers of p, so no bound on the exponents i, j applies.
"""

from __future__ import annotations

from collections import namedtuple

from .fields import is_prime


def require_odd_prime(p: int) -> None:
    """ValueError unless p is an odd prime within the characteristic bound."""
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")


class GenusChangeRecord(namedtuple("GenusChangeRecord", [
    "p",
    "g_upper",  # arithmetic genus of the curve upstairs
    "g_lower",  # genus of the normalized descent
])):
    __slots__ = ()

    def __new__(cls, p: int, g_upper: int, g_lower: int):
        require_odd_prime(p)
        if g_lower < 0 or g_upper < g_lower:
            raise ValueError("need g_upper >= g_lower >= 0")
        return super().__new__(cls, p, g_upper, g_lower)

    @property
    def drop(self) -> int:
        return self.g_upper - self.g_lower


def tate_divisibility(rec: GenusChangeRecord) -> bool:
    """Whether p - 1 divides twice the genus drop."""
    return (2 * rec.drop) % (rec.p - 1) == 0


def torsion_degree(rec: GenusChangeRecord) -> int:
    """Degree of the torsion of the differentials: 2p*drop/(p-1)."""
    if not tate_divisibility(rec):
        raise ValueError(
            f"2*(g_upper - g_lower) = {2 * rec.drop} is not divisible by "
            f"p - 1 = {rec.p - 1}"
        )
    return 2 * rec.p * rec.drop // (rec.p - 1)


def rational_curve_torsion(g: int, p: int) -> int:
    """Torsion degree 2pg/(p-1) for a non-smooth geometrically rational
    curve of genus g, valid for 0 < g < (p^2 - 1)/2 (the descent is then a
    smooth conic); such a curve also forces 2g >= p - 1."""
    require_odd_prime(p)
    if not 0 < g < (p * p - 1) // 2:
        raise ValueError(
            f"g={g} outside the smooth-conic range 0 < g < (p^2-1)/2 = "
            f"{(p * p - 1) // 2}"
        )
    if 2 * g < p - 1:
        raise ValueError(
            f"a non-smooth geometrically rational curve needs 2g >= p - 1 "
            f"(got 2g = {2 * g} < {p - 1})"
        )
    if (2 * g) % (p - 1):
        raise ValueError(f"p - 1 = {p - 1} does not divide 2g = {2 * g}")
    return 2 * p * g // (p - 1)


def tower_monotonicity(genera: list[int], p: int) -> bool:
    """Along a tower of degree-p inseparable covers the genus drops shrink by
    a factor of at least p: drop_{i+1} <= drop_i / p, checked exactly."""
    if len(genera) < 3:
        raise ValueError("need at least three genera")
    for i in range(1, len(genera) - 1):
        drop_prev = genera[i - 1] - genera[i]
        drop_next = genera[i] - genera[i + 1]
        if p * drop_next > drop_prev:
            return False
    return True


def quasi_hyperelliptic_genus_ok(g: int, p: int) -> bool:
    """Whether 2g + 2 = p^i + p^j has a solution with 0 <= i <= j.

    Exact, for every genus: p^i + p^j = p^i (1 + p^(j-i)), and 1 + p^k is
    prime to the odd prime p, so p^i is the exact power of p dividing
    2g + 2, and the answer is yes iff the rest minus 1 is a power of p.
    A negative genus, or p not an odd prime, raises ValueError.
    """
    require_odd_prime(p)
    if g < 0:
        raise ValueError(f"genus must be >= 0, got g={g}")
    rest = 2 * g + 2
    while rest % p == 0:
        rest //= p
    rest -= 1
    while rest > 1 and rest % p == 0:
        rest //= p
    return rest == 1
