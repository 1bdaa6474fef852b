import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from covergeo.xi import (
    RamificationType,
    SingularityClass,
    _step_drop,
    xi_bound_family,
    xi_family,
    xi_inequality_slack,
    xi_type,
)

I, II, III, IV = (
    SingularityClass.I,
    SingularityClass.II,
    SingularityClass.III,
    SingularityClass.IV,
)


def test_family_base_cases():
    assert xi_family(0, 0, 1, 7) == 0
    assert xi_family(1, 0, 1, 9) == 0
    assert xi_family(0, 1, 4, 1) == 0


def test_family_values():
    assert xi_family(0, 0, 5, 4) == 1
    assert xi_family(1, 1, 3, 2) == 1
    assert xi_family(0, 1, 5, 2) == 1
    assert xi_family(0, 0, 5, 2) == 0


def _xi_family_by_subtraction(a, b, m, n):
    # the recursion one subtraction at a time
    total = 0
    while m != 1 and n != 1:
        if m > n:
            s = a + b + n
            total += _step_drop(s)
            a, m = s % 2, m - n
        else:
            s = a + b + m
            total += _step_drop(s)
            b, n = s % 2, n - m
    return total


def test_family_matches_subtractive_recursion():
    # xi_family takes each run of subtractions as one division
    for m in range(1, 120):
        for n in range(1, 120):
            if math.gcd(m, n) == 1:
                for a in (0, 1):
                    for b in (0, 1):
                        assert xi_family(a, b, m, n) == _xi_family_by_subtraction(a, b, m, n)


def test_family_requires_coprime():
    with pytest.raises(ValueError):
        xi_family(0, 0, 4, 2)
    with pytest.raises(ValueError):
        xi_family(2, 0, 3, 2)


@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=1),
)
def test_family_symmetry(m, n, a, b):
    if math.gcd(m, n) != 1:
        return
    assert xi_family(a, b, m, n) == xi_family(b, a, n, m)


def test_bound_examples():
    assert xi_bound_family(1, 1, 3, 2) == 1
    assert xi_bound_family(0, 0, 5, 4) == Fraction(6, 5)
    assert xi_bound_family(0, 0, 1, 9) == 0


def test_bound_rejects_even_m():
    with pytest.raises(ValueError, match="odd"):
        xi_bound_family(0, 0, 4, 3)


def test_bound_dominates():
    for m in range(1, 32, 2):
        for n in range(1, 32):
            if math.gcd(m, n) != 1:
                continue
            for a in (0, 1):
                for b in (0, 1):
                    assert xi_family(a, b, m, n) <= xi_bound_family(a, b, m, n)


def test_type_examples():
    assert xi_type(I, RamificationType.tame(1), 5) == 0
    assert xi_type(II, RamificationType.tame(1), 5) == 1
    assert xi_type(III, RamificationType.wild(1, 5), 5) == 3


def test_type_tame_equals_family():
    # for tame data the peeled recursion collapses onto the monomial family
    for p in (5, 7, 11):
        for cls in SingularityClass:
            for r in range(0 if cls is not I else 1, 3 * p + 1):
                if (r + 1) % p == 0:
                    continue
                a, b = cls.branch_exponents
                assert xi_type(cls, RamificationType.tame(r), p) == xi_family(
                    a, b, p, r + 1
                )


def _xi_type_by_layers(cls, lam, p):
    # the degree-p recursion one layer at a time
    if p < 5 or any(p % d == 0 for d in range(2, p)):
        raise ValueError("class I-IV invariants need a prime p >= 5")
    lam.check(p)
    if cls is I and lam.R < 1:
        raise ValueError("class I requires R >= 1")
    inc_light, inc_heavy = (p - 1) * (p - 3) // 8, (p - 1) * (p + 1) // 8
    total, cur, R = 0, cls, lam.R
    if cls.counts_as_pole:
        if lam.is_wild:
            j = lam.j
            while j >= 2:
                total += inc_heavy
                R -= p
                j -= 1
            total += inc_heavy
            R -= p
            cur = I if cls is III else II
        else:
            while R >= p:
                total += inc_heavy
                R -= p
    if cur in (I, II):
        while R >= p:
            total += inc_light if cur is I else inc_heavy
            cur = II if cur is I else I
            R -= p
    if (R + 1) % p == 0:
        raise ValueError("inconsistent ramification data")
    a, b = cur.branch_exponents
    return total + xi_family(a, b, p, R + 1)


def _type_grid():
    for p in (5, 7, 11, 13):
        for cls in SingularityClass:
            for R in range(12 * p):
                for lam in [RamificationType.tame(R)] + [
                        RamificationType.wild(j, R) for j in range(1, 6)]:
                    yield cls, lam, p


def _assert_matches(function, reference):
    # equal values, and both sides raise on the same inputs
    cases = raised = 0
    for cls, lam, p in _type_grid():
        cases += 1
        try:
            expected = reference(cls, lam, p)
        except ValueError:
            raised += 1
            with pytest.raises(ValueError):
                function(cls, lam, p)
            continue
        assert function(cls, lam, p) == expected, (cls, lam, p)
    assert (cases, raised) == (10368, 3076)


def test_type_closed_form_matches_layers():
    # xi_type reduces to xi_family at m = p instead of walking the layers
    _assert_matches(xi_type, _xi_type_by_layers)


def test_check_rejects_what_xi_type_rejects():
    # validate's test of each point is lam.check; class I with R = 0 is
    # refused earlier, when its BranchPointDatum is built
    cases = 0
    for cls, lam, p in _type_grid():
        if cls is I and lam.R == 0:
            continue
        cases += 1
        try:
            xi_type(cls, lam, p)
        except ValueError:
            with pytest.raises(ValueError):
                lam.check(p)
        else:
            lam.check(p)
    assert cases == 10344


def _slack_by_class(cls, lam, p):
    # the linear bound of each class, written out, minus xi
    xi = _xi_type_by_layers(cls, lam, p)
    R = lam.R
    if cls is I:
        return Fraction((p - 1) ** 2 * R, 8 * p) - xi
    if cls is II:
        return Fraction((p - 1) ** 2 * R, 8 * p) + Fraction(p - 1, 4) - xi
    if lam.is_wild:
        slack = Fraction((p - 1) ** 2 * R, 8 * p) - xi + Fraction((p - 1) * lam.j, 4)
    else:
        slack = Fraction((p - 1) * (p + 1) * R, 8 * p) - xi + Fraction(p - 1, 4 * p)
    if cls is IV:
        slack += Fraction(p - 1, 4)
    return slack


def test_slack_matches_the_per_class_bounds():
    # xi_inequality_slack is xi_bound_family - xi_family on the reduced germ
    _assert_matches(xi_inequality_slack, _slack_by_class)


def test_type_depends_on_r_only_for_i_ii():
    for p in (5, 7):
        for r in range(p, 3 * p):
            if (r + 1) % p == 0:
                continue
            for cls in (I, II):
                tame = xi_type(cls, RamificationType.tame(r), p)
                for j in range(1, r // p + 1):
                    wild = xi_type(cls, RamificationType.wild(j, r), p)
                    assert wild == tame


def test_type_rejects_inconsistent_data():
    with pytest.raises(ValueError):
        RamificationType.tame(-1)
    with pytest.raises(ValueError):
        RamificationType.wild(0, 5)
    with pytest.raises(ValueError, match="R >= p"):
        xi_type(III, RamificationType.wild(2, 7), 5)
    with pytest.raises(ValueError, match="does not divide"):
        xi_type(I, RamificationType.tame(4), 5)  # v = 5 would be wild
    with pytest.raises(ValueError, match="R >= 1"):
        xi_type(I, RamificationType.tame(0), 5)
    with pytest.raises(ValueError):
        xi_type(I, RamificationType.tame(1), 4)  # p must be prime >= 5
    with pytest.raises(ValueError, match="not realized"):
        # wild data whose residual tame index would need p | R+1
        xi_type(III, RamificationType.wild(1, 9), 5)


def test_slack_examples():
    assert xi_inequality_slack(I, RamificationType.tame(1), 5) == Fraction(2, 5)
    assert xi_inequality_slack(II, RamificationType.tame(1), 5) == Fraction(2, 5)
    assert xi_inequality_slack(III, RamificationType.wild(1, 5), 5) == 0


def test_slack_non_negative_sweep():
    for p in (5, 7, 11):
        for cls in SingularityClass:
            for r in range(0 if cls is not I else 1, 4 * p + 1):
                if (r + 1) % p == 0:
                    continue
                assert xi_inequality_slack(cls, RamificationType.tame(r), p) >= 0
            for j in (1, 2, 3):
                for r in range(p * j, p * j + p - 1):
                    if (r + 1) % p == 0:
                        continue
                    lam = RamificationType.wild(j, r)
                    assert xi_inequality_slack(cls, lam, p) >= 0


def test_slack_equality_at_wild_pole():
    for p in (5, 7, 11):
        assert xi_inequality_slack(III, RamificationType.wild(1, p), p) == 0


def test_class_exponent_map():
    assert I.branch_exponents == (0, 0)
    assert II.branch_exponents == (0, 1)
    assert III.branch_exponents == (1, 0)
    assert IV.branch_exponents == (1, 1)
    assert [c.d_b for c in (I, II, III, IV)] == [0, 1, 0, 1]
