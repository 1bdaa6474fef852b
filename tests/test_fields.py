import random

import pytest

from covergeo.fields import (
    extension_field,
    is_prime,
    minimal_irreducible,
    prime_field,
    primes_between,
)


def test_prime_field_validation():
    with pytest.raises(ValueError):
        prime_field(2)
    with pytest.raises(ValueError):
        prime_field(9)
    assert prime_field(5) is prime_field(5)


def test_minimal_irreducible_is_deterministic():
    assert minimal_irreducible(5, 2) == (2, 0, 1)  # z^2 + 2
    assert minimal_irreducible(5, 2) == minimal_irreducible(5, 2)
    # degree-3 pick: constant term nonzero and irreducible
    mod = minimal_irreducible(3, 3)
    assert len(mod) == 4 and mod[-1] == 1 and mod[0] != 0


# Every extension label in the goldens depends on these choices.
PINNED_MODULI = {
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (2, 0, 0, 1),
    (11, 2): (1, 0, 1),
    (13, 2): (2, 0, 1),
}


@pytest.mark.parametrize("p,k", sorted(PINNED_MODULI))
def test_minimal_irreducible_pinned(p, k):
    assert minimal_irreducible(p, k) == PINNED_MODULI[(p, k)]
    assert extension_field(p, k).modulus == PINNED_MODULI[(p, k)]


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3), (11, 2)])
def test_extension_inverses_exhaustive(p, k):
    fld = extension_field(p, k)
    for code in range(1, fld.order):
        a = fld.decode(code)
        inverse = fld.inv(a)
        assert fld.mul(a, inverse) == fld.one
        assert fld.inv(a) == inverse
    with pytest.raises(ZeroDivisionError):
        fld.inv(fld.zero)


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (5, 3), (7, 2), (13, 2)])
def test_extension_field_axioms(p, k):
    fld = extension_field(p, k)
    rng = random.Random(p * 100 + k)
    for _ in range(50):
        a = fld.decode(rng.randrange(fld.order))
        b = fld.decode(rng.randrange(fld.order))
        c = fld.decode(rng.randrange(fld.order))
        assert fld.mul(a, fld.mul(b, c)) == fld.mul(fld.mul(a, b), c)
        assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))
        if a != fld.zero:
            assert fld.mul(a, fld.inv(a)) == fld.one
            assert fld.pow(a, fld.order - 1) == fld.one
        assert fld.pow(fld.pth_root(a), p) == a
        assert fld.decode(fld.encode(a)) == a


def test_extension_field_tower_sizes():
    f25 = extension_field(5, 2)
    assert f25.order == 25
    assert extension_field(5, 1) is prime_field(5)


def test_primes_between():
    assert primes_between(7, 19) == [7, 11, 13, 17, 19]
    assert is_prime(997) and not is_prime(999)
    # the sieve against trial division, edge ranges included
    for lo, hi in [(-5, 1), (0, 1), (9, 4), (2, 2), (2, 30), (0, 3), (4, 4),
                   (90, 97), (97, 97), (24, 28), (0, 10000)]:
        assert primes_between(lo, hi) == [n for n in range(lo, hi + 1)
                                          if is_prime(n)], (lo, hi)
