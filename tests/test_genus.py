import pytest

from covergeo.genus import (
    GenusChangeRecord,
    quasi_hyperelliptic_genus_ok,
    rational_curve_torsion,
    tate_divisibility,
    torsion_degree,
    tower_monotonicity,
)


def test_tate_divisibility():
    assert tate_divisibility(GenusChangeRecord(7, 10, 7))  # 6 | 6
    assert not tate_divisibility(GenusChangeRecord(7, 9, 7))  # 6 does not divide 4
    assert tate_divisibility(GenusChangeRecord(3, 50, 13))  # 2 | even


def test_torsion_degree():
    assert torsion_degree(GenusChangeRecord(3, 1, 0)) == 3
    assert torsion_degree(GenusChangeRecord(5, 2, 0)) == 5
    assert torsion_degree(GenusChangeRecord(5, 9, 9)) == 0
    with pytest.raises(ValueError):
        torsion_degree(GenusChangeRecord(7, 9, 7))


def test_torsion_degree_positive_iff_drop():
    for p in (3, 5, 7, 11):
        for drop in range(0, 40):
            if (2 * drop) % (p - 1):
                continue
            value = torsion_degree(GenusChangeRecord(p, drop + 1, 1))
            assert (value > 0) == (drop > 0)
            # torsion strictly exceeds twice the drop when positive
            if drop:
                assert value > 2 * drop


def test_rational_curve_torsion():
    assert rational_curve_torsion(2, 5) == 5
    assert rational_curve_torsion(3, 7) == 7
    with pytest.raises(ValueError, match="2g >= p - 1"):
        rational_curve_torsion(1, 5)
    with pytest.raises(ValueError, match="range"):
        rational_curve_torsion(12, 5)
    with pytest.raises(ValueError, match="divide"):
        rational_curve_torsion(3, 5)


def test_tower_monotonicity():
    assert tower_monotonicity([7, 2, 1], 5)
    assert tower_monotonicity([7, 2, 2], 5)
    assert not tower_monotonicity([7, 6, 5], 5)
    assert tower_monotonicity([31, 6, 1, 0], 5)
    with pytest.raises(ValueError):
        tower_monotonicity([7, 2], 5)


def test_quasi_hyperelliptic_membership():
    assert quasi_hyperelliptic_genus_ok(2, 5) is True  # 6 = 5 + 1
    assert quasi_hyperelliptic_genus_ok(1, 5) is False
    assert quasi_hyperelliptic_genus_ok(0, 7) is True  # 2 = 1 + 1
    assert quasi_hyperelliptic_genus_ok(12, 5) is True  # 26 = 25 + 1
    # the test is exact, so an exponent above 12 is answered too
    huge = (5**13 + 1 - 2) // 2
    assert quasi_hyperelliptic_genus_ok(huge, 5) is True
    with pytest.raises(ValueError, match="^genus must be >= 0, got g=-1$"):
        quasi_hyperelliptic_genus_ok(-1, 5)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_quasi_hyperelliptic_matches_enumeration(p):
    limit = 20_000
    powers = [p**i for i in range(20)]
    shapes = {(pi + pj - 2) // 2 for i, pi in enumerate(powers) for pj in powers[i:]}
    for g in range(limit):
        assert quasi_hyperelliptic_genus_ok(g, p) == (g in shapes), g
    for g in shapes:
        assert quasi_hyperelliptic_genus_ok(g, p) is True, g


@pytest.mark.parametrize("p", [1, 2])
def test_quasi_hyperelliptic_requires_odd_prime(p):
    with pytest.raises(ValueError, match="^p must be an odd prime$"):
        quasi_hyperelliptic_genus_ok(3, p)


def test_quasi_hyperelliptic_implies_tate():
    for p in (3, 5, 7):
        for g in range(0, 201):
            if quasi_hyperelliptic_genus_ok(g, p) is True:
                assert tate_divisibility(GenusChangeRecord(p, g, 0))


def test_record_validation():
    with pytest.raises(ValueError):
        GenusChangeRecord(4, 3, 1)
    with pytest.raises(ValueError):
        GenusChangeRecord(5, 1, 2)
