import random
import signal
from fractions import Fraction

import pytest

from covergeo.fields import QQ, extension_field, prime_field
from covergeo.parsing import MAX_DEGREE, ParseError, parse_field_spec, parse_polynomial
from covergeo.polynomials import (
    BPoly,
    UPoly,
    b_exact_div,
    b_gcd,
    b_normalize,
    b_squarefree,
    extension_embedding,
    u_factor,
    u_rational_roots,
    u_roots,
    u_squarefree,
)


def upoly(field, *ints):
    return UPoly(field, [field.from_int(n) for n in ints])


def test_factor_distinct_roots():
    f5 = prime_field(5)
    unit, facs = u_factor(upoly(f5, -1, 0, 1))  # x^2 - 1
    assert unit == 1
    assert [(g.coeffs, e) for g, e in facs] == [((1, 1), 1), ((4, 1), 1)]


def test_factor_frobenius_fixed_points():
    f5 = prime_field(5)
    unit, facs = u_factor(upoly(f5, 0, -1, 0, 0, 0, 1))  # x^5 - x
    assert len(facs) == 5
    assert all(g.degree == 1 and e == 1 for g, e in facs)


def test_factor_irreducible_quadratic():
    f7 = prime_field(7)
    unit, facs = u_factor(upoly(f7, 1, 0, 1))  # x^2 + 1
    assert facs == [(upoly(f7, 1, 0, 1), 1)]
    # oracle: exhaustive root check over F_7
    assert all(pow(a, 2, 7) != 6 for a in range(7))


def test_factor_zero_rejected():
    with pytest.raises(ValueError):
        u_factor(UPoly.zero(prime_field(5)))


@pytest.mark.parametrize(
    "p,k",
    [(3, 1), (5, 1), (7, 1), (11, 1), (3, 2), (5, 2), (7, 2), (11, 2)],
)
def test_factor_roundtrip_random(p, k):
    fld = extension_field(p, k)
    rng = random.Random(1000 * p + k)
    for _ in range(25):
        deg = rng.randint(1, 12)
        coeffs = [fld.decode(rng.randrange(fld.order)) for _ in range(deg)]
        coeffs.append(fld.decode(rng.randrange(1, fld.order)))
        f = UPoly(fld, coeffs)
        unit, facs = u_factor(f)
        prod = UPoly.constant(fld, unit)
        for g, e in facs:
            assert g.leading() == fld.one
            for _ in range(e):
                prod = prod * g
        assert prod == f


def test_factor_deterministic_order():
    fld = prime_field(11)
    rng = random.Random(7)
    for _ in range(10):
        coeffs = [fld.decode(rng.randrange(11)) for _ in range(9)] + [1]
        f = UPoly(fld, coeffs)
        assert u_factor(f) == u_factor(f)
        _, facs = u_factor(f)
        keys = [g.sort_key() for g, _ in facs]
        assert keys == sorted(keys)


def test_squarefree_char_p_power():
    f5 = prime_field(5)
    x = UPoly.var(f5)
    g = x + UPoly.constant(f5, f5.from_int(-1))
    h = x + UPoly.constant(f5, f5.from_int(-2))
    f = g * g * g * g * g * h * h
    parts = u_squarefree(f)
    assert [(tuple(q.coeffs), e) for q, e in parts] == [((3, 1), 2), ((4, 1), 5)]


def test_roots_sorted_and_complete():
    f13 = prime_field(13)
    f = upoly(f13, -1, 0, 0, 1)  # x^3 - 1, three cube roots of unity mod 13
    roots = u_roots(f)
    assert roots == sorted(roots)
    assert all(pow(r, 3, 13) == 1 for r in roots)
    assert len(roots) == 3


def test_rational_roots():
    f = parse_polynomial("(t-2)^2*(3*t+1)*(t^2+1)", QQ).restrict_x0()
    roots, cofactor = u_rational_roots(f)
    assert roots == [(Fraction(-1, 3), 1), (Fraction(2), 2)]
    assert cofactor.degree == 2


def test_bivariate_squarefree_examples():
    # monomial case: standard decomposition x^2 t^3 = x^2 * t^3
    f = parse_polynomial("x^2*t^3", QQ)
    parts = b_squarefree(f)
    assert [(g.fmt(), e) for g, e in parts] == [("x", 2), ("t", 3)]

    # already squarefree in characteristic 5
    f = parse_polynomial("x^3 - t^2", prime_field(5))
    assert [(g.fmt(), e) for g, e in b_squarefree(f)] == [("x^3 + 4*t^2", 1)]

    # (x-t)^2 (x+t) in characteristic 7
    f = parse_polynomial("(x-t)^2*(x+t)", prime_field(7))
    parts = b_squarefree(f)
    assert [(g.fmt(), e) for g, e in parts] == [("x + t", 1), ("x + 6*t", 2)]


def test_bivariate_squarefree_frobenius_power():
    # x^5 - t^5 = (x - t)^5 over F_5
    f = parse_polynomial("x^5 - t^5", prime_field(5))
    assert [(g.fmt(), e) for g, e in b_squarefree(f)] == [("x + 4*t", 5)]


@pytest.mark.parametrize("spec", ["F7", "F7^2", "Q"])
def test_bivariate_squarefree_reassembly_and_coprimality(spec):
    rng = random.Random(42)
    fld = parse_field_spec(spec)
    x, t = BPoly.var_x(fld), BPoly.var_t(fld)
    lines = [x, t, x - t, x + t, x - t * t, x * x - t * t * t,
             x - t.scale(fld.inv(fld.from_int(2)))]
    for _ in range(20):
        f = BPoly.constant(fld, fld.from_int(rng.randrange(1, 7)))
        for g in rng.sample(lines, rng.randint(1, 4)):
            for _ in range(rng.randint(1, 3)):
                f = f * g
        parts = b_squarefree(f)
        prod = BPoly.constant(fld, fld.one)
        for g, e in parts:
            for _ in range(e):
                prod = prod * g
        assert b_normalize(prod) == b_normalize(f)
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert b_gcd(parts[i][0], parts[j][0]).is_constant()


@pytest.mark.parametrize("spec", ["F5", "F5^2", "Q"])
def test_bivariate_exact_division(spec):
    fld = parse_field_spec(spec)
    f = parse_polynomial("(x^2-t^3)*(x+4*t)", fld)
    g = parse_polynomial("x+4*t", fld)
    assert b_exact_div(f, g) == parse_polynomial("x^2-t^3", fld)
    # non-integer coefficients over Q: 3/7 (x^2 - t^3) times x - t/2
    three_sevenths = fld.mul(fld.from_int(3), fld.inv(fld.from_int(7)))
    h = parse_polynomial("x^2-t^3", fld).scale(three_sevenths)
    g = BPoly.var_x(fld) - BPoly.var_t(fld).scale(fld.inv(fld.from_int(2)))
    assert b_exact_div(h * g, g) == h
    assert b_exact_div(h * g, h) == g
    t2 = parse_polynomial("t^2", fld)
    assert b_exact_div(h * g * g * t2, (g * t2).scale(three_sevenths)) == (
        parse_polynomial("x^2-t^3", fld) * g)
    for num, den in [("x^2-t^3", "x+4*t"), ("x^2+t", "t"), ("x*t", "2*x^2"),
                     ("t^2*x", "t*x+1")]:
        with pytest.raises(ValueError):
            b_exact_div(parse_polynomial(num, fld), parse_polynomial(den, fld))


def test_bivariate_squarefree_sparse_content_is_fast():
    # the content of x^1500 + t^1500 in F[t] folds over 1,499 zero
    # x-coefficients; making the running gcd monic at each of them took 11 s
    fld = parse_field_spec("F7^2")
    f = parse_polynomial("x^1500 + t^1500", fld)

    def too_slow(*_):
        raise TimeoutError("squarefree part of x^1500 + t^1500 took over 3 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(3)
    try:
        parts = b_squarefree(f)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert parts == [(f, 1)]


def test_bivariate_zero_rejected():
    with pytest.raises(ValueError):
        b_squarefree(BPoly.zero(QQ))


def _random_product(rng, fld, factors):
    """A seeded product of 1-3 of the given factors, each to a power 1-2,
    times a small nonzero constant."""
    f = BPoly.constant(fld, fld.mul(fld.from_int(rng.choice([1, 2, 3])),
                                    fld.inv(fld.from_int(rng.choice([1, 2, 3])))))
    for g in rng.sample(factors, rng.randint(1, 3)):
        for _ in range(rng.randint(1, 2)):
            f = f * g
    return f


def _random_factors(rng, fld, count):
    out = []
    while len(out) < count:
        terms = {}
        for _ in range(rng.randint(2, 4)):
            i = rng.randint(0, 2)
            j = rng.randint(0 if i else 1, 2)
            num, den = rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3])
            terms[(i, j)] = fld.mul(fld.from_int(num), fld.inv(fld.from_int(den)))
        g = BPoly(fld, terms)
        if not g.is_constant():
            out.append(g)
    return out


@pytest.mark.parametrize("spec", ["Q", "F7"])
def test_bivariate_gcd_and_squarefree_against_sympy(spec):
    sympy = pytest.importorskip("sympy")
    fld = parse_field_spec(spec)
    domain = sympy.QQ if fld.char == 0 else sympy.GF(fld.char)

    def to_sympy(f):
        return sympy.Poly.from_dict(
            {e: sympy.Rational(int(c.numerator), int(c.denominator)) for e, c in f.terms.items()},
            sympy.symbols("x t"), domain=domain)

    def from_sympy(poly):
        terms = {}
        for e, c in poly.terms():
            c = sympy.Rational(int(c)) if fld.char else sympy.Rational(c)
            terms[e] = fld.mul(fld.from_int(int(c.p)), fld.inv(fld.from_int(int(c.q))))
        return b_normalize(BPoly(fld, terms))

    rng = random.Random(8)
    for _ in range(25):
        factors = _random_factors(rng, fld, 4)
        f, g = _random_product(rng, fld, factors), _random_product(rng, fld, factors)
        assert b_gcd(f, g) == from_sympy(to_sympy(f).gcd(to_sympy(g)))
        if fld.char == 0:  # sympy's bivariate sqf_list needs characteristic 0
            parts: dict = {}
            for h, e in to_sympy(f).sqf_list()[1]:
                parts[e] = parts.get(e, BPoly.constant(fld, fld.one)) * from_sympy(h)
            assert b_squarefree(f) == sorted(
                ((b_normalize(h), e) for e, h in parts.items()),
                key=lambda he: (he[1], he[0].sort_key()))


@pytest.mark.parametrize("spec,exponents", [("Q", (0, 1, 2, 5, 12)),
                                            ("F7", (0, 1, 3, 7, 8, 22))])
def test_parsed_power_is_repeated_product(spec, exponents):
    fld = parse_field_spec(spec)
    base = parse_polynomial("2*x - 3*t^2 + 1", fld)
    product = BPoly.constant(fld, fld.one)
    for n in range(max(exponents) + 1):
        if n in exponents:
            assert parse_polynomial(f"(2*x - 3*t^2 + 1)^{n}", fld) == product
        product = product * base


def test_parse_degree_bound():
    fld = parse_field_spec("F5")
    half = MAX_DEGREE // 2
    assert parse_polynomial(f"x^{half} * t^{half}", fld).total_valuation() == MAX_DEGREE
    assert parse_polynomial(f"(x + t)^{MAX_DEGREE}", fld).total_valuation() == MAX_DEGREE
    for text in (f"x^{half} * t^{half + 1}", f"(x + t^2)^{half + 1}", "x^100000000"):
        with pytest.raises(ParseError, match=f"exceeds the bound {MAX_DEGREE}"):
            parse_polynomial(text, fld)


def test_extension_embedding_is_homomorphism():
    small = extension_field(5, 2)
    big = extension_field(5, 4)
    embed = extension_embedding(small, big)
    rng = random.Random(3)
    for _ in range(30):
        a = small.decode(rng.randrange(25))
        b = small.decode(rng.randrange(25))
        assert embed(small.add(a, b)) == big.add(embed(a), embed(b))
        assert embed(small.mul(a, b)) == big.mul(embed(a), embed(b))
    assert embed(small.one) == big.one


def test_translate_matches_eval():
    f5 = prime_field(5)
    f = parse_polynomial("x^2*t + 3*t^4 + x", f5)
    shifted = f.translate_t(f5.from_int(2))
    # f(x, t+2) evaluated at t=0 equals f at t=2
    assert shifted.restrict_x0().coeffs[:1] == (f5.from_int(3 * 16 % 5),)
    assert shifted.translate_t(f5.from_int(-2)) == f
