import ast
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from covergeo import fields
from covergeo.fields import (
    MAX_EXTENSION_DEGREE,
    MAX_TABLE_ORDER,
    QQ,
    ExtensionField,
    extension_field,
    is_prime,
    minimal_irreducible,
    prime_field,
    primes_between,
)
from covergeo.reports import fmt_value
from covergeo.univariate import UPoly, u_factor

SRC = Path(__file__).resolve().parent.parent / "src" / "covergeo"


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
    # 4 | k and p = 3 mod 4: no binomial x^4 + c is irreducible
    (10007, 4): (6, 1, 0, 0, 1),
}


@pytest.mark.parametrize("p,k", sorted(PINNED_MODULI))
def test_minimal_irreducible_pinned(p, k):
    assert minimal_irreducible(p, k) == PINNED_MODULI[(p, k)]
    assert extension_field(p, k).modulus == PINNED_MODULI[(p, k)]


def _scan_minimal_irreducible(p, k):
    """The search over every code in order, without skipping binomials."""
    fp = prime_field(p)
    for code in range(p**k):
        digits = [code // p**i % p for i in range(k)]
        if digits[0]:
            f = UPoly(fp, digits + [1])
            if u_factor(f)[1] == [(f, 1)]:
                return f.coeffs


def test_minimal_irreducible_matches_full_scan():
    # the pairs take both branches: the binomial block is skipped when a
    # prime r | k does not divide p - 1, or 4 | k and p = 3 mod 4
    for p in primes_between(3, 59):
        for k in (2, 3, 4, 5, 6):
            assert minimal_irreducible(p, k) == _scan_minimal_irreducible(p, k), (p, k)


def test_large_characteristic_extension_is_fast():
    # the binomials x^k + c, c = 1..p-1, were each factored before the first
    # candidate that can be irreducible: 8.2 s for F10007^4, and the scan for
    # F(2^31 - 1)^12 would factor 2^31 - 2 of them; both now take under 0.5 s
    for p, k, modulus in [(10007, 4, PINNED_MODULI[(10007, 4)]),
                          (fields.MAX_CHARACTERISTIC, MAX_EXTENSION_DEGREE,
                           (15, 1) + (0,) * 10 + (1,))]:
        start = time.perf_counter()
        assert minimal_irreducible(p, k) == modulus
        assert time.perf_counter() - start < 2, (p, k)


def test_extension_degree_bound():
    assert extension_field(3, MAX_EXTENSION_DEGREE).k == MAX_EXTENSION_DEGREE
    with pytest.raises(ValueError, match=f"^extension degree 200 exceeds the bound "
                       f"{MAX_EXTENSION_DEGREE}$"):
        extension_field(3, 200)


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
        assert fld.decode(a) == a


def _digit_reference(fld, monkeypatch):
    """The same field, computing on the digits of the codes only."""
    monkeypatch.setattr(fields, "MAX_TABLE_ORDER", 0)
    ref = ExtensionField(fld.p, fld.k, fld.modulus)
    assert fld.tabled and not ref.tabled
    return ref


def _assert_same_arithmetic(fld, ref, pairs, exponents):
    for a, b in pairs:
        assert fld.add(a, b) == ref.add(a, b), (a, b)
        assert fld.sub(a, b) == ref.sub(a, b), (a, b)
        assert fld.mul(a, b) == ref.mul(a, b), (a, b)
    for a in {a for pair in pairs for a in pair}:
        assert fld.neg(a) == ref.neg(a), a
        assert fld.pth_root(a) == ref.pth_root(a), a
        for e in exponents:
            if a or e >= 0:
                assert fld.pow(a, e) == ref.pow(a, e), (a, e)
        if a:
            assert fld.inv(a) == ref.inv(a), a
    for f in (fld, ref):
        with pytest.raises(ZeroDivisionError):
            f.inv(0)
        with pytest.raises(ZeroDivisionError):
            f.pow(0, -1)


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3), (7, 2)])
def test_tables_match_digit_arithmetic_exhaustively(p, k, monkeypatch):
    fld = extension_field(p, k)
    q = fld.order
    pairs = [(a, b) for a in range(q) for b in range(q)]
    _assert_same_arithmetic(fld, _digit_reference(fld, monkeypatch), pairs,
                            [-q - 1, -2, -1, 0, 1, 2, p, q - 2, q - 1, 3 * q + 5])


@pytest.mark.parametrize("p,k", [(13, 2), (5, 4)])
def test_tables_match_digit_arithmetic_seeded(p, k, monkeypatch):
    fld = extension_field(p, k)
    rng = random.Random(f"tables-{p}-{k}")
    pairs = [(rng.randrange(fld.order), rng.randrange(fld.order)) for _ in range(1500)]
    pairs += [(0, a) for a, _ in pairs[:20]] + [(a, a) for a, _ in pairs[:20]]
    exponents = [rng.randrange(-fld.order, 2 * fld.order) for _ in range(4)] + [0, 1]
    _assert_same_arithmetic(fld, _digit_reference(fld, monkeypatch), pairs, exponents)


def test_table_bound_picks_the_arithmetic():
    for p, k in [(3, 8), (3, 9), (13, 2), (11, 4)]:
        fld = extension_field(p, k)
        assert fld.tabled == (fld.order <= MAX_TABLE_ORDER)


def test_field_axioms_above_the_table_bound():
    # F_3^9 computes on digits: the only arithmetic such a field has
    fld = extension_field(3, 9)
    assert not fld.tabled
    rng = random.Random(39)
    for _ in range(40):
        a, b, c = (rng.randrange(fld.order) for _ in range(3))
        assert fld.mul(a, fld.mul(b, c)) == fld.mul(fld.mul(a, b), c)
        assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))
        assert fld.add(fld.sub(a, b), b) == a
        assert fld.add(a, fld.neg(a)) == fld.zero
        if a:
            assert fld.mul(a, fld.inv(a)) == fld.one
            assert fld.pow(a, fld.order - 1) == fld.one
            assert fld.pow(a, -2) == fld.inv(fld.mul(a, a))
        assert fld.pow(fld.pth_root(a), 3) == a
        assert fld.decode(a) == a


def test_codes_and_labels():
    # an element is its code: F_p inside as 0..p-1, labels from the digits
    f25 = extension_field(5, 2)
    assert (f25.zero, f25.one, f25.from_int(-1)) == (0, 1, 4)
    assert [f25.fmt(c) for c in (0, 3, 5, 7, 24)] == ["0", "3", "g", "g+2", "4g+4"]
    assert f25.mul(5, 5) == f25.from_int(-2)  # g^2 = -2 under z^2 + 2
    assert sorted([7, 0, 24, 5]) == [0, 5, 7, 24]


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


def test_rationals_are_the_fraction_operators():
    # a Q value is an int when it is integral and a Fraction when it is not;
    # the operators mix the two exactly, as Fraction arithmetic does, and
    # keep ints ints
    rng = random.Random(11)
    values = [Fraction(rng.randint(-10**6, 10**6), rng.randint(2, 10**6))
              for _ in range(100)]
    values += [rng.randint(-10**6, 10**6) for _ in range(100)]
    rng.shuffle(values)
    for a, b in zip(values, reversed(values)):
        fa, fb = Fraction(a), Fraction(b)
        results = QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b), QQ.neg(a)
        assert results == (fa + fb, fa - fb, fa * fb, -fa)
        if type(a) is int and type(b) is int:
            assert all(type(r) is int for r in results)
    for n in (rng.randint(-10**9, 10**9) for _ in range(50)):
        value = QQ.from_int(n)
        assert type(value) is int and value == n
    assert (type(QQ.zero), type(QQ.one)) == (int, int)
    assert (QQ.zero, QQ.one) == (0, 1)
    assert type(QQ.inv(2)) is Fraction and QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.inv(Fraction(-1, 3))) is int and QQ.inv(Fraction(-1, 3)) == -3
    assert QQ.fmt(3) == "3" and QQ.fmt(Fraction(-1, 2)) == "-1/2"


def _true_divisions(tree):
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)]


def test_no_true_division_outside_the_rational_inverse():
    # with ints as Q values, int / int would silently give a float; the one
    # true division in covergeo is the Fraction inverse of RationalField.inv
    found = [(path.name, line) for path in sorted(SRC.glob("*.py"))
             for line in _true_divisions(ast.parse(path.read_text(), str(path)))]
    tree = ast.parse((SRC / "fields.py").read_text())
    rational = next(node for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name == "RationalField")
    inv = next(node for node in rational.body
               if isinstance(node, ast.FunctionDef) and node.name == "inv")
    allowed = [("fields.py", line) for line in _true_divisions(inv)]
    assert len(allowed) == 1 and found == allowed


def test_rationals_print_as_num_or_num_over_den():
    # the format pinned: the numerator alone when integral, else num/den
    def old_rule(x):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    grid = [Fraction(n, d) for n in range(-12, 13) for d in range(1, 9)]
    grid += [Fraction(-3**40, 2**70), Fraction(10**30), Fraction(0, 7)]
    for x in grid:
        assert fmt_value(x) == QQ.fmt(x) == old_rule(x), x
    assert QQ.fmt(-4) == "-4"
