"""Chern-number geography of minimal surfaces of general type, exact form.

kappa(p) denotes the infimum of chi/c_1^2 in characteristic p.  The module
carries its conjectural closed form (p^2-4p-1)/4(3p^2-8p-3), the proven
lower bounds ((p-7)/12(p-3) for p >= 7, the exact value 1/32 at p = 5,
qualitative positivity at p = 3), the ruled-surface example family whose
chi/K^2 realizes the conjectural value, a characteristic-3 family with
c_2/(q-1) -> -4, and assorted exact inequality checks.  Everything is
integer or Fraction arithmetic; square-root comparisons are decided by
sign-aware squaring.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .fields import is_prime, primes_between

CLASSICAL_CHAR0_RATIO = Fraction(1, 9)  # chi/c_1^2 floor over C, for reference


@dataclass(frozen=True)
class SurfaceInvariants:
    """Numerical record of a surface; generators assert their own identities,
    plain records are checked explicitly via noether_check and friends."""

    p: int
    K2: int
    c2: int
    chi: int
    q: int | None = None  # base-curve genus of the fibration, if any
    g: int | None = None  # fiber arithmetic genus, if any
    p_g: int | None = None
    irregularity: int | None = None


def noether_check(inv: SurfaceInvariants) -> bool:
    return 12 * inv.chi == inv.K2 + inv.c2


def c2_floor_check(inv: SurfaceInvariants) -> bool:
    if inv.q is None:
        raise ValueError("c2 floor needs the base-curve genus q")
    return inv.c2 >= -4 * (inv.q - 1)


def bmy_char0_check(inv: SurfaceInvariants) -> bool:
    """Classical char-0 inequality 3 c2 >= c1^2 (reference only; fails in
    positive characteristic)."""
    return 3 * inv.c2 >= inv.K2


def kappa_conjectural(p: int) -> Fraction:
    if p < 5 or not is_prime(p):
        raise ValueError("the conjectural value is stated for primes p >= 5")
    return Fraction(p * p - 4 * p - 1, 4 * (3 * p * p - 8 * p - 3))


def kappa_proven_lower(p: int) -> Fraction | None:
    """Proven information on kappa(p): exact value 1/32 at p = 5, the strict
    lower bound (p-7)/12(p-3) for p >= 7, and None at p = 3 standing for
    "positive, no explicit value"."""
    if p == 3:
        return None
    if p == 5:
        return Fraction(1, 32)
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime >= 3")
    return Fraction(p - 7, 12 * (p - 3))


@dataclass(frozen=True)
class KappaReport:
    p: int
    conjectural: Fraction | None
    proven_lower: Fraction | None
    proven_is_exact: bool
    classical_char0: Fraction = CLASSICAL_CHAR0_RATIO

    @property
    def note(self) -> str:
        if self.p == 3:
            return "positive, no explicit value"
        if self.proven_is_exact:
            return "exact value"
        return "strict lower bound"


def kappa_report(p: int) -> KappaReport:
    return KappaReport(
        p=p,
        conjectural=kappa_conjectural(p) if p >= 5 else None,
        proven_lower=kappa_proven_lower(p),
        proven_is_exact=(p == 5),
    )


def kappa_limit_gap(p: int) -> Fraction:
    """1/12 - kappa_conjectural(p), exactly p / (3 (3p^2 - 8p - 3))."""
    return Fraction(1, 12) - kappa_conjectural(p)


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
    chi_num = (p * p - 4 * p - 1) * l
    k2_num = (3 * p * p - 8 * p - 3) * l
    if chi_num % 8 or k2_num % 2:
        raise ValueError(f"l = {l} fails the integrality conditions")
    q = p * l // 2 + 1
    inv = SurfaceInvariants(
        p=p,
        K2=k2_num // 2,
        c2=-2 * p * l,
        chi=chi_num // 8,
        q=q,
        g=(p - 1) // 2,
    )
    assert noether_check(inv)
    assert inv.c2 == -4 * (q - 1)
    assert Fraction(inv.chi, inv.K2) == kappa_conjectural(p)
    return inv


def smallest_admissible_l(p: int, count: int) -> list[int]:
    out = []
    l = 1
    while len(out) < count:
        try:
            raynaud_invariants(p, l)
        except ValueError:
            pass
        else:
            out.append(l)
        l += 1
    return out


@dataclass(frozen=True)
class Char3Example:
    n: int
    q: int
    m: int
    c2_upper: int  # -4(q-1) + 3m

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.c2_upper, self.q - 1)


def char3_example(n: int) -> Char3Example:
    """Characteristic-3 family: q - 1 = (3^n - 1)(3^n - 4)/2, m = 3^n - 1,
    and c2 <= -4(q-1) + 3m; general type needs n >= 2."""
    if n < 2:
        raise ValueError("the family is of general type only for n >= 2")
    m = 3**n - 1
    q_minus_1 = (3**n - 1) * (3**n - 4) // 2
    return Char3Example(n=n, q=q_minus_1 + 1, m=m, c2_upper=-4 * q_minus_1 + 3 * m)


def canonical_map_bounds(p: int, p_g: int, kappa: Fraction) -> tuple[Fraction, Fraction]:
    """Upper bounds from chi >= kappa c_1^2: on the genus of a canonical
    pencil, 1 + (p_g+2)/(2 kappa (p_g-1)), and on the degree of a generically
    finite canonical map, (p_g+1)/(kappa (p_g-2))."""
    if p < 3:
        raise ValueError("p must be >= 3")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if p_g < 3:
        raise ValueError(
            "the bounds need p_g >= 3 (the degree bound divides by p_g - 2)"
        )
    g_max = 1 + Fraction(p_g + 2, 1) / (2 * kappa * (p_g - 1))
    d_max = Fraction(p_g + 1, 1) / (kappa * (p_g - 2))
    return g_max, d_max


@dataclass(frozen=True)
class SlackReport:
    applicable: bool
    passed: bool | None
    threshold: Fraction | None
    slack: Fraction | None


def sb_lower_bound_check(inv: SurfaceInvariants) -> SlackReport:
    """K^2 > 4(g-1)(q-1)/3, applicable for p >= 3 and fiber genus g >= 3."""
    if inv.g is None or inv.q is None or inv.g < 3 or inv.p < 3:
        return SlackReport(False, None, None, None)
    threshold = Fraction(4 * (inv.g - 1) * (inv.q - 1), 3)
    slack = inv.K2 - threshold
    return SlackReport(True, slack > 0, threshold, slack)


def intersection_floor_check(lam: Fraction, r: int, kb: int, q: int) -> bool:
    """Whether KB >= (sqrt(lam^2 + 8 r lam) - lam)(q-1)/2, decided exactly:
    squaring is legitimate once both sides are known non-negative."""
    if lam <= 0:
        raise ValueError("lam = K^2/(q-1) must be positive")
    if q < 2:
        raise ValueError("q must be >= 2")
    if r < 0:
        raise ValueError("r must be >= 0")
    mu = 2 * Fraction(kb, q - 1) + lam  # KB passes iff mu >= sqrt(lam^2+8r lam)
    if mu < 0:
        return False
    return mu * mu >= lam * lam + 8 * r * lam


def clifford_case(deg_d: int, h0: int, q: int) -> str:
    """Which clause of the divisor degree dichotomy holds on a genus-q curve:
    'case1' (deg D > 2(q-1) and deg D = h0 + q - 1), 'case2'
    (2(h0-1) <= deg D <= 2(q-1)), else 'inconsistent'."""
    if deg_d > 2 * (q - 1) and deg_d == h0 + q - 1:
        return "case1"
    if 2 * (h0 - 1) <= deg_d <= 2 * (q - 1):
        return "case2"
    return "inconsistent"


def delta_degree(g: int, p: int) -> Fraction:
    """Degree 2pg/(p-1) of the inseparable-locus divisor on the generic
    fiber, valid for (p-1) | 2g and g < (p^2-1)/2."""
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if (2 * g) % (p - 1):
        raise ValueError(f"p - 1 = {p - 1} must divide 2g = {2 * g}")
    if g >= (p * p - 1) // 2:
        raise ValueError(
            f"g = {g} is outside the range g < (p^2-1)/2 = {(p * p - 1) // 2}"
        )
    return Fraction(2 * p * g, p - 1)


def kappa_table(p_min: int, p_max: int) -> list[KappaReport]:
    return [kappa_report(p) for p in primes_between(max(p_min, 3), p_max)]


def invariants_to_json(inv: SurfaceInvariants) -> str:
    """Canonical JSON for an invariant record, same style as datum files."""
    data = {"p": inv.p, "K2": inv.K2, "c2": inv.c2, "chi": inv.chi}
    for key in ("q", "g", "p_g", "irregularity"):
        value = getattr(inv, key)
        if value is not None:
            data[key] = value
    return json.dumps(data, indent=2) + "\n"


def invariants_from_json(text: str) -> SurfaceInvariants:
    data = json.loads(text)
    return SurfaceInvariants(
        p=int(data["p"]),
        K2=int(data["K2"]),
        c2=int(data["c2"]),
        chi=int(data["chi"]),
        q=data.get("q"),
        g=data.get("g"),
        p_g=data.get("p_g"),
        irregularity=data.get("irregularity"),
    )
