from fractions import Fraction

import pytest

from covergeo.fields import primes_between
from covergeo.geography import (
    SurfaceInvariants,
    c2_floor_check,
    char3_example,
    kappa_conjectural,
    kappa_proven_lower,
    kappa_table,
    noether_check,
    raynaud_invariants,
)

CHAR2_REFERENCE = SurfaceInvariants(p=2, K2=14, c2=-2, chi=1)


def test_noether_check():
    assert noether_check(SurfaceInvariants(p=5, K2=64, c2=-40, chi=2))
    assert noether_check(CHAR2_REFERENCE)
    assert not noether_check(SurfaceInvariants(p=2, K2=14, c2=0, chi=1))


def test_c2_floor():
    inv = raynaud_invariants(5, 4)
    assert c2_floor_check(inv) and inv.c2 == -4 * (inv.q - 1)
    assert not c2_floor_check(
        SurfaceInvariants(p=5, K2=0, c2=-4 * 10 - 1, chi=0, q=11)
    )
    assert c2_floor_check(SurfaceInvariants(p=5, K2=0, c2=0, chi=0, q=11))


def test_kappa_values():
    assert kappa_conjectural(5) == Fraction(1, 32)
    assert kappa_conjectural(7) == Fraction(5, 88)
    assert kappa_proven_lower(5) == Fraction(1, 32)
    assert kappa_proven_lower(7) == 0
    assert kappa_proven_lower(13) == Fraction(1, 20)
    assert kappa_proven_lower(3) is None
    rows = kappa_table(3, 7)
    assert [row.note for row in rows] == [
        "positive, no explicit value", "exact value", "strict lower bound"]
    assert [(row.conjectural, row.proven_lower) for row in rows] == [
        (None, None), (Fraction(1, 32), Fraction(1, 32)), (Fraction(5, 88), 0)]
    with pytest.raises(ValueError):
        kappa_conjectural(3)
    with pytest.raises(ValueError):
        kappa_conjectural(6)


def test_kappa_orderings():
    for p in primes_between(7, 199):
        assert kappa_conjectural(p) > kappa_proven_lower(p)
    gaps = [Fraction(1, 12) - kappa_conjectural(p) for p in primes_between(5, 500)]
    assert all(g > 0 for g in gaps)
    assert gaps == sorted(gaps, reverse=True)  # increases toward 1/12
    assert gaps == [Fraction(p, 3 * (3 * p * p - 8 * p - 3))
                    for p in primes_between(5, 500)]
    for p in primes_between(100, 999):
        assert abs(kappa_conjectural(p) - Fraction(1, 12)) < Fraction(1, p)


def test_raynaud_invariants():
    inv = raynaud_invariants(5, 4)
    assert (inv.chi, inv.K2, inv.c2, inv.q) == (2, 64, -40, 11)
    inv = raynaud_invariants(7, 8)
    assert (inv.chi, inv.K2, inv.c2, inv.q) == (20, 352, -112, 29)
    assert 12 * inv.chi - inv.K2 == inv.c2
    assert Fraction(inv.chi, inv.K2) == kappa_conjectural(7)
    assert inv.g == 3


def test_raynaud_rejects_odd_l():
    with pytest.raises(ValueError, match="even"):
        raynaud_invariants(5, 1)
    with pytest.raises(ValueError):
        raynaud_invariants(4, 2)


def test_raynaud_family_identities():
    for p in (5, 7, 11, 13):
        for l in (2, 4, 6):
            inv = raynaud_invariants(p, l)
            assert noether_check(inv)
            assert inv.c2 == -4 * (inv.q - 1)
            assert Fraction(inv.chi, inv.K2) == kappa_conjectural(p)


def test_char3_example():
    ex = char3_example(2)
    assert (ex.q - 1, ex.m, ex.c2_upper) == (20, 8, -56)
    ex = char3_example(3)
    assert (ex.q - 1, ex.m, ex.c2_upper) == (299, 26, -1118)
    with pytest.raises(ValueError):
        char3_example(1)


def test_char3_ratio_tends_to_minus_four():
    ratios = [char3_example(n).ratio for n in range(2, 9)]
    assert all(r > -4 for r in ratios)
    assert ratios == sorted(ratios, reverse=True)  # decreasing toward -4
    assert abs(ratios[4] + 4) < Fraction(1, 10)  # n = 6

