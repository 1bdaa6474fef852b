import math
import random
import signal
from collections import Counter
from fractions import Fraction

import pytest

import covergeo.fields
import covergeo.polynomials
import covergeo.univariate
from covergeo.fields import QQ, extension_field, prime_field
from covergeo.parsing import (
    MAX_DEGREE,
    MAX_NESTING,
    ParseError,
    parse_field_spec,
    parse_polynomial,
)
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
    ugcd,
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


def _count_trials(monkeypatch):
    """Record every trial polynomial of the equal-degree splitting."""
    trials = []
    make_trial = covergeo.univariate._field_poly_by_code

    def counted(field, code, length):
        trials.append(make_trial(field, code, length))
        return trials[-1]

    monkeypatch.setattr(covergeo.univariate, "_field_poly_by_code", counted)
    return trials


@pytest.mark.parametrize("p", [7, 11, 13])
def test_conjugate_roots_split_in_few_trials(monkeypatch, p):
    # the roots of x^2 - c, c a non-square of F_p, are conjugate over F_p; a
    # trial x + c' with c' in F_p gives both the same character and cannot
    # split them (9, 13 and 16 trials for u_roots when F_p came first)
    fld = extension_field(p, 2)
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    trials = _count_trials(monkeypatch)
    roots = u_roots(upoly(fld, -c, 0, 1))
    assert len(roots) == 2 and all(fld.mul(r, r) == fld.from_int(c) for r in roots)
    assert 0 < len(trials) <= 3
    assert trials[0] == upoly(fld, 0, 1) + UPoly.constant(fld, fld.decode(p))  # x + g
    trials.clear()
    square = upoly(fld, 1, 0, -c) * upoly(fld, 1, 0, -c)  # (1 - c*t^2)^2
    _, factors = u_factor(square)
    assert [(g.degree, e) for g, e in factors] == [(1, 2), (1, 2)]
    assert 0 < len(trials) <= 3


def test_prime_field_trials_start_at_x(monkeypatch):
    fld = prime_field(7)
    x = upoly(fld, 0, 1)
    trials = _count_trials(monkeypatch)
    # roots 1, 2 and 4 are all squares mod 7: x cannot split them, x + 1
    # splits off x - 1, and x + 2 splits (x - 2)(x - 4)
    assert u_roots(upoly(fld, -1, 1) * upoly(fld, -2, 1) * upoly(fld, -4, 1)) == [1, 2, 4]
    assert trials == [x + upoly(fld, c) for c in (0, 1, 0, 1, 2)]


def _random_upoly(rng, fld, degree):
    coeffs = [fld.decode(rng.randrange(fld.order)) for _ in range(degree)]
    return UPoly(fld, coeffs + [fld.decode(rng.randrange(1, fld.order))])


def _evaluate(f, a):
    fld = f.field
    value = fld.zero
    for c in reversed(f.coeffs):
        value = fld.add(fld.mul(value, a), c)
    return value


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (7, 2), (3, 3)])
def test_roots_match_exhaustive_evaluation(p, k):
    fld = extension_field(p, k)
    elements = [fld.decode(code) for code in range(fld.order)]
    rng = random.Random(31 * p + k)
    for _ in range(12):
        # a product with linear factors, so that most cases have roots
        f = _random_upoly(rng, fld, rng.randint(0, 4))
        for _ in range(rng.randint(0, 4)):
            f = f * _random_upoly(rng, fld, 1)
        expected = [a for a in elements if _evaluate(f, a) == fld.zero]
        assert u_roots(f) == expected


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_factor_against_sympy(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    fld = prime_field(p)
    rng = random.Random(p)
    for _ in range(12):
        f = _random_upoly(rng, fld, rng.randint(1, 6))
        for _ in range(rng.randint(0, 2)):
            f = f * _random_upoly(rng, fld, rng.randint(1, 3))
        unit, factors = sympy.Poly(list(reversed(f.coeffs)), x, modulus=p).factor_list()
        expected = sorted(
            ((UPoly(fld, [int(c) % p for c in reversed(g.all_coeffs())]), e)
             for g, e in factors),
            key=lambda ge: ge[0].sort_key())
        assert u_factor(f) == (int(unit) % p, expected)


@pytest.mark.parametrize("spec", ["F3", "F5", "F7", "F3^2", "F5^2"])
def test_factor_splits_off_the_power_of_x(spec):
    # x^v * g with g(0) != 0 factors as g does, plus (x, v); v = p and 2p
    # would reach the p-th-root step of Yun's loop
    fld = parse_field_spec(spec)
    rng = random.Random(f"x-power-{spec}")
    x = UPoly.var(fld)
    for _ in range(6):
        g = _random_upoly(rng, fld, rng.randint(0, 4))
        if rng.random() < 0.5:
            g = g * g * _random_upoly(rng, fld, 1)
        if g.coeffs[0] == fld.zero:
            g = g + UPoly.constant(fld, fld.one)
        unit, factors = u_factor(g)
        for v in (0, 1, 2, fld.p, fld.p + 1, 2 * fld.p):
            expected = sorted(factors + [(x, v)] if v else factors,
                              key=lambda he: he[0].sort_key())
            x_v = UPoly(fld, [fld.zero] * v + [fld.one])
            assert u_factor(x_v * g) == (unit, expected), (g, v)


def test_factor_reads_the_power_of_x_off_the_valuation(monkeypatch):
    # Yun's loop would take one gcd per power of x
    fld = prime_field(7)
    calls = Counter()
    _count_calls(monkeypatch, covergeo.univariate, "ugcd", calls)
    counts = []
    for v in (1, 40):
        calls.clear()
        unit, factors = u_factor(upoly(fld, *[0] * v, 1, 1))  # x^v * (x + 1)
        assert (unit, factors) == (1, [(upoly(fld, 0, 1), v), (upoly(fld, 1, 1), 1)])
        counts.append(calls["ugcd"])
    assert counts == [1, 1]


def _count_calls(monkeypatch, module, name, calls):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("p", [0, 3, 5, 7])
def test_squarefree_against_sympy(p):
    # products of powers of random factors of degree <= 2; over F_p the
    # exponents p, p + 1 and 2p force the p-th-root step of Yun's loop
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    fld = prime_field(p) if p else QQ
    rng = random.Random(p)
    exponents = (1, 2, 3) + ((p, p + 1, 2 * p) if p else (4,))
    for _ in range(12):
        f = UPoly.constant(fld, fld.one)
        for _ in range(rng.randint(1, 3)):
            if p:
                g = _random_upoly(rng, fld, rng.randint(1, 2))
            else:
                coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                          for _ in range(rng.randint(1, 2))]
                g = UPoly(fld, coeffs + [Fraction(rng.randint(1, 4))])
            for _ in range(rng.choice(exponents)):
                f = f * g
        options = {"modulus": p} if p else {"domain": sympy.QQ}
        coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)]
        _, parts = sympy.Poly(coeffs, x, **options).sqf_list()
        expected = sorted(
            ((UPoly(fld, [int(c) % p if p else Fraction(int(c.p), int(c.q))
                          for c in reversed(g.all_coeffs())]), e)
             for g, e in parts),
            key=lambda ge: ge[1])
        assert u_squarefree(f) == expected, f


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (7, 2), (3, 3), (5, 3), (3, 4)])
def test_factor_over_extension_is_a_factorization(p, k):
    fld = extension_field(p, k)
    elements = [fld.decode(code) for code in range(fld.order)]
    rng = random.Random(17 * p + k)
    for _ in range(10):
        f = _random_upoly(rng, fld, rng.randint(2, 5))
        for _ in range(rng.randint(0, 2)):
            f = f * _random_upoly(rng, fld, rng.randint(1, 3))
        unit, factors = u_factor(f)
        product = UPoly.constant(fld, unit)
        for g, e in factors:
            assert g.leading() == fld.one
            for _ in range(e):
                product = product * g
            if g.degree in (2, 3):  # irreducible: no root in the field
                assert all(_evaluate(g, a) != fld.zero for a in elements)
        assert product == f
        assert len({g for g, _ in factors}) == len(factors)


def test_rational_roots():
    # (t-2)^2*(3*t+1)*(t^2+1) = 3t^5 - 11t^4 + 11t^3 - 7t^2 + 8t + 4
    f = UPoly(QQ, [QQ.from_int(c) for c in (4, 8, -7, 11, -11, 3)])
    roots, cofactor = u_rational_roots(f)
    assert roots == [(Fraction(-1, 3), 1), (Fraction(2), 2)]
    assert cofactor.degree == 2


def test_rational_roots_are_ints_where_integral():
    # t^2 (t-2)^2 (3t+1) (t^2+1), and half of it: the roots 0 and 2 come back
    # as ints and -1/3 as a Fraction, the cofactor has int coefficients when
    # the scale is integral, and writing the coefficients as ints or as
    # Fractions changes neither roots nor cofactor
    ints = (0, 0, 4, 8, -7, 11, -11, 3)
    for scale in (1, Fraction(1, 2)):
        as_ints = UPoly(QQ, [scale * c for c in ints])
        as_fractions = UPoly(QQ, [Fraction(scale * c) for c in ints])
        answers = [u_rational_roots(as_ints), u_rational_roots(as_fractions)]
        assert answers[0] == answers[1]
        for roots, cofactor in answers:
            assert roots == [(Fraction(-1, 3), 1), (0, 2), (2, 2)]
            assert [type(r) for r, _ in roots] == [Fraction, int, int]
            assert cofactor == UPoly(QQ, [scale * 3, 0, scale * 3])
            assert all(type(c) is int for c in cofactor.coeffs) == (scale == 1)


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


@pytest.mark.parametrize("spec", ["F3", "F5", "F5^2", "F7", "F7^2", "Q"])
def test_bivariate_squarefree_reassembly_and_coprimality(spec):
    # exponents p, p + 1 and 2p send parts through the p-th-root recursion,
    # whose squarefree remainder leaves by the constant-gcd exit
    rng = random.Random(42)
    fld = parse_field_spec(spec)
    p = fld.char
    exponents = (1, 2, 3) + ((p, p + 1, 2 * p) if p else ())
    x, t = BPoly.var_x(fld), BPoly.var_t(fld)
    lines = [x, t, x - t, x + t, x - t * t, x * x - t * t * t,
             x - t.scale(fld.inv(fld.from_int(2)))]
    for _ in range(20):
        c = fld.from_int(rng.randrange(1, 7))
        f = BPoly.constant(fld, fld.one if c == fld.zero else c)
        for g in rng.sample(lines, rng.randint(1, 4)):
            for _ in range(rng.choice(exponents)):
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
        # each part is squarefree: gcd(g, g_x, g_t) = 1, by the remainder
        # sequence rather than by the certificate that b_squarefree tries
        for g, _ in parts:
            common = g
            for partial in g.partials():
                if not partial.is_zero():
                    common = b_gcd(common, partial)
            assert common.is_constant(), (spec, g.fmt())


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


def _certified(f):
    return covergeo.polynomials._certified_squarefree(f)


def _yun_only(monkeypatch, f):
    # b_squarefree as it decomposes f without the certificate
    with monkeypatch.context() as patch:
        patch.setattr(covergeo.polynomials, "_certified_squarefree", lambda _: False)
        return b_squarefree(f)


def _power(f, e):
    out = BPoly.constant(f.field, f.field.one)
    for _ in range(e):
        out = out * f
    return out


@pytest.mark.parametrize("spec", ["Q", "F3", "F5", "F7", "F3^2", "F5^2"])
def test_squarefree_certificate_is_one_sided(monkeypatch, spec):
    # h^e * k with h nonconstant and e in {2, 3, p} is never certified, and
    # whatever is certified decomposes as Yun's loop alone decomposes it
    rng = random.Random(f"certificate-{spec}")
    fld = parse_field_spec(spec)
    exponents = (2, 3) + ((fld.char,) if fld.char else ())

    def coefficient():
        num = fld.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))
        return fld.mul(num if num != fld.zero else fld.one,
                       fld.inv(fld.from_int(rng.choice([1, 1, 2, 4]))))

    factors = []
    while len(factors) < 8:
        g = BPoly(fld, {(rng.randint(0, 2), rng.randint(0, 2)): coefficient()
                        for _ in range(rng.randint(2, 4))})
        if not g.is_constant():
            factors.append(g)
    certified = 0
    for _ in range(40):
        h, *rest = rng.sample(factors, rng.randint(1, 3))
        k = BPoly.constant(fld, coefficient())
        for g in rest:
            k = k * g
        e = rng.choice(exponents)
        assert not _certified(_power(h, e) * k), (h.fmt(), e, k.fmt())
        if _certified(h * k):
            certified += 1
            assert _yun_only(monkeypatch, h * k) == [(b_normalize(h * k), 1)]
    # most squarefree products are certified, fewer over F3 and F9 (7 of 40)
    assert certified >= 5


def test_squarefree_certificate_degree_test_over_q():
    # 2^31 - 1 divides the leading coefficient of the integer model in x or
    # in t, so the image loses degree and certifies nothing; the first two
    # have the images x + t, which would pass without the degree test
    big = 2**31 - 1
    for text in (f"({big}*x + 1)^2*(x + t)", f"({big}*t + 1)^2*(x + t)",
                 f"({big}*x + t)^2", f"(x + {big}*t)^2", f"({big}*x*t + x + t)^2*x"):
        assert not _certified(parse_polynomial(text, QQ)), text
    half = BPoly.var_x(QQ).scale(Fraction(1, big)) + BPoly.var_t(QQ)
    assert not _certified(half * half)
    f = parse_polynomial(f"x^2 + {big}*x*t + t^3", QQ)
    assert _certified(f) and b_squarefree(f) == [(b_normalize(f), 1)]


@pytest.mark.parametrize("text,parts", [
    # the image in x, of lower degree, finds the square; the image in t
    # passes, but every coefficient of a power of t is divisible by (x + 1)^2
    ("(x + 1)^2*(x + t^4)", [("x + t^4", 1), ("x + 1", 2)]),
    # no v in F3 keeps the x-degree: t^2 - 1 vanishes at t = 1 and t = 2
    ("((t^2 - 1)*x + t)^2*(x + t)", [("x + t", 1), ("x*t^2 + 2*x + t", 2)]),
    # the image in x passes, but both coefficients of powers of x have
    # t-degree 3, and g' = 0 in t for every v
    ("(x + 1)*t^3 + x", [("x*t^3 + t^3 + x", 1)]),
    # the image in t, of lower degree, finds the square
    ("(x^3 - t)*(x - t)^2", [("x^3 + 2*t", 1), ("x + 2*t", 2)]),
])
def test_squarefree_certificate_falls_back_over_f3(monkeypatch, text, parts):
    fld = parse_field_spec("F3")
    f = parse_polynomial(text, fld)
    assert not _certified(f)
    expected = [(parse_polynomial(g, fld), e) for g, e in parts]
    assert b_squarefree(f) == expected == _yun_only(monkeypatch, f)


@pytest.mark.parametrize("text,parts", [
    # g' = 0 in x for every v, but the image in t, of lower degree, passes,
    # and the coefficient of t (or t^2) is a constant
    ("x^3 - t", [("x^3 + 2*t", 1)]),
    ("x^3 - t^2", [("x^3 + 2*t^2", 1)]),
    # no v in F3 keeps the x-degree: t^2 - 1 vanishes at t = 1 and t = 2;
    # the image in t passes, and the coefficient of t is a constant
    ("(t^2 - 1)*x^2 + t", [("x^2*t^2 + 2*x^2 + t", 1)]),
])
def test_squarefree_certificate_passes_over_f3(monkeypatch, text, parts):
    fld = parse_field_spec("F3")
    f = parse_polynomial(text, fld)
    assert _certified(f)
    expected = [(parse_polynomial(g, fld), e) for g, e in parts]
    assert b_squarefree(f) == expected == _yun_only(monkeypatch, f)


@pytest.mark.parametrize("text", ["x^5 - t^7", "x^5 - t^12", "x^25 - t^26"])
def test_squarefree_certificate_from_the_other_image_over_f5(monkeypatch, text):
    # the image in x, of lower degree, is a p-th power (g' = 0) for every v;
    # the image in t passes, and the coefficient of its top power is -1
    fld = parse_field_spec("F5")
    f = parse_polynomial(text, fld)
    calls = []
    gcd = covergeo.polynomials.b_gcd

    def counted(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(covergeo.polynomials, "b_gcd", counted)
    assert b_squarefree(f) == [(b_normalize(f), 1)]
    assert calls == []
    assert _yun_only(monkeypatch, f) == [(b_normalize(f), 1)]


@pytest.mark.parametrize("spec", ["Q", "F5"])
def test_squarefree_certificate_square_in_the_other_variable(monkeypatch, spec):
    # the image in x, of lower degree, passes; every coefficient of a power
    # of x has t-degree 2, so the image in t decides, and it fails
    fld = parse_field_spec(spec)
    f = parse_polynomial("t^2*(x + 1)", fld)
    assert not _certified(f)
    expected = [(parse_polynomial("x + 1", fld), 1), (parse_polynomial("t", fld), 2)]
    assert b_squarefree(f) == expected == _yun_only(monkeypatch, f)


@pytest.mark.parametrize("spec", ["Q", "F3", "F5", "F7^2"])
def test_family_germs_certified_by_one_image(monkeypatch, spec):
    # x^m - t^n with p not dividing min(m, n): the image in the variable of
    # lower degree passes, and the coefficient of its top power is -1 or 1
    fld = parse_field_spec(spec)
    axes = []
    image_passes = covergeo.polynomials._image_passes

    def counted(field, image, degree, axis):
        axes.append(axis)
        return image_passes(field, image, degree, axis)

    monkeypatch.setattr(covergeo.polynomials, "_image_passes", counted)
    for m in range(1, 10):
        for n in range(1, 10):
            if fld.char and min(m, n) % fld.char == 0:
                continue
            f = BPoly(fld, {(m, 0): fld.one, (0, n): fld.neg(fld.one)})
            axes.clear()
            assert b_squarefree(f) == [(f, 1)], f.fmt()
            assert axes == [0 if m <= n else 1], f.fmt()


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
            # multiplicities are unique, so they alone give the order
            assert b_squarefree(f) == [(b_normalize(parts[e]), e) for e in sorted(parts)]


def test_zt_ring_against_sympy():
    # Z[t] on int lists (increasing degree, [] is 0), the coefficient ring
    # of the integer model over Q: gcd with positive leading coefficient,
    # exact division that raises ValueError when the quotient leaves Z[t]
    sympy = pytest.importorskip("sympy")
    ZT = covergeo.polynomials.ZT
    t = sympy.symbols("t")

    def to_sympy(a):
        return sympy.Poly(list(reversed(a)) or [0], t, domain=sympy.ZZ)

    def from_sympy(poly):
        return [int(c) for c in reversed(poly.all_coeffs())] if not poly.is_zero else []

    def random_zt(rng, degree):
        return [rng.randint(-4, 4) for _ in range(degree)] + [rng.choice([-3, -2, -1, 1, 2, 3])]

    pairs = [([], []), ([], [-1, -2]), ([3, -6], []), ([6], [4, 2]), ([-6], [-4]),
             ([5], []), ([1, 1], [1, 2]), ([2, 2], [4, 8]), ([1, 0, -1], [-1, -1]),
             ([0, -4, 0, -2], [0, 6, 0, 3])]
    rng = random.Random(15)
    for _ in range(60):
        common = random_zt(rng, rng.randint(0, 2))
        a = ZT.mul(common, random_zt(rng, rng.randint(0, 3)))
        b = ZT.mul(common, random_zt(rng, rng.randint(0, 3)))
        pairs.append((a, b))
    for a, b in pairs:
        g = ZT.gcd(a, b)
        assert g == from_sympy(to_sympy(a).gcd(to_sympy(b))), (a, b)
        assert ZT.gcd(b, a) == g
        if g:
            assert ZT.exact_div(a, g) == from_sympy(to_sympy(a).exquo(to_sympy(g))), (a, g)
        if b:
            assert ZT.exact_div(ZT.mul(a, b), b) == a, (a, b)
    for a, b in [([1, 0, 1], [1, 1]), ([3, 3], [2, 2]), ([1], [2]), ([0, 1], [2, 0, 1]),
                 ([2, 1], [0, 1])]:
        with pytest.raises(ValueError):
            ZT.exact_div(a, b)


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


def test_parse_nesting_bound():
    fld = parse_field_spec("F5")
    at_bound = "(" * MAX_NESTING + "x*t" + ")" * MAX_NESTING
    assert parse_polynomial(at_bound, fld) == parse_polynomial("x*t", fld)
    with pytest.raises(ParseError, match=f"nest deeper than the bound {MAX_NESTING}"):
        parse_polynomial("(" + at_bound + ")", fld)


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


def test_extension_embedding_above_the_table_bound():
    # F_97^2 has no tables, so its embedding evaluates each code in turn
    small, big = extension_field(97, 2), extension_field(97, 4)
    assert not small.tabled
    embed = extension_embedding(small, big)
    assert extension_embedding(small, big) is embed  # built once per pair
    rng = random.Random(97)
    for _ in range(30):
        a, b = rng.randrange(small.order), rng.randrange(small.order)
        assert embed(small.add(a, b)) == big.add(embed(a), embed(b))
        assert embed(small.mul(a, b)) == big.mul(embed(a), embed(b))
    assert [embed(c) for c in range(97)] == list(range(97))  # F_p is fixed


def test_translate_matches_eval():
    f5 = prime_field(5)
    f = parse_polynomial("x^2*t + 3*t^4 + x", f5)
    shifted = f.translate_t(f5.from_int(2))
    # f(x, t+2) evaluated at t=0 equals f at t=2
    at_x0 = UPoly(f5, [shifted.terms.get((0, j), f5.zero) for j in range(5)])
    assert at_x0.coeffs[:1] == (f5.from_int(3 * 16 % 5),)
    assert shifted.translate_t(f5.from_int(-2)) == f


def _shift_by_binomials(f, a):
    # f(x, t + a) = sum c x^i (t + a)^j, with (t + a)^j = sum C(j, r) t^r a^(j-r)
    out = {}
    for (i, j), c in f.terms.items():
        for r in range(j + 1):
            out[(i, r)] = out.get((i, r), 0) + c * math.comb(j, r) * a ** (j - r)
    return BPoly(QQ, out)


def test_translate_over_q_matches_binomial_expansion():
    rng = random.Random(12)
    shifts = [Fraction(3, 2), Fraction(-5, 3), Fraction(-4), Fraction(7, 12), Fraction(-1, 9)]
    for _ in range(30):
        # x-columns of different t-degree, some with gaps
        terms = {}
        for i in range(rng.randint(1, 4)):
            degree = rng.randint(0, 9)
            for j in {degree, rng.randint(0, degree), rng.randint(0, degree)}:
                terms[(i, j)] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 20),
                                         rng.randint(1, 8))
        f = BPoly(QQ, terms)
        for a in shifts:
            shifted = f.translate_t(a)
            assert shifted == _shift_by_binomials(f, a)
            assert shifted.translate_t(-a) == f
    assert BPoly.zero(QQ).translate_t(Fraction(1, 2)) == BPoly.zero(QQ)


def _random_codes(rng, p, degree):
    # degree + 1 codes in 0..p-1, the last nonzero
    return [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]


def _codes(result):
    # the coefficient codes of every UPoly in a nest of tuples and lists
    if isinstance(result, UPoly):
        return result.coeffs
    if isinstance(result, (tuple, list)):
        return [_codes(r) for r in result]
    return result


@pytest.mark.parametrize("p", [3, 5, 13])
def test_prime_field_kernel_matches_base_change_to_f_p2(p):
    # F_p has the codes 0..p-1 in F_{p^2}, whose arithmetic runs through the
    # field's methods, so every answer over F_p must have the same codes
    # there: a differential of the int-list kernel against the generic path
    small, big = prime_field(p), extension_field(p, 2)
    rng = random.Random(26 * p)
    for _ in range(40):
        a, b, c = (_random_codes(rng, p, rng.randint(0, 7)) for _ in range(3))
        e = rng.randrange(2 * p * p)
        fa, fb, fc = (UPoly(small, codes) for codes in (a, b, c))
        ga, gb, gc = (UPoly(big, codes) for codes in (a, b, c))
        pairs = [
            (divmod(fa * fc + fb, fc), divmod(ga * gc + gb, gc)),
            (fa * fb * fc, ga * gb * gc),
            (ugcd(fa * fc, fb * fc), ugcd(ga * gc, gb * gc)),
            (fa.pow_mod(e, fc), ga.pow_mod(e, gc)),
            (fa.deriv(), ga.deriv()),
            (u_squarefree(math.prod([fc, fc] + [fb] * p, start=fa)),
             u_squarefree(math.prod([gc, gc] + [gb] * p, start=ga))),
        ]
        for got, want in pairs:
            assert _codes(got) == _codes(want)
        terms = {(i, j): v for i, j, v in zip(a, b, c) if v}
        shift = rng.randrange(1, p)
        assert (BPoly(small, terms).translate_t(shift).terms
                == BPoly(big, terms).translate_t(shift).terms)


def _fraction_candidates(a0, lead):
    # every +-num/den with num | a0 and den | lead, by trial division
    def divisors(n):
        small = [d for d in range(1, math.isqrt(abs(n)) + 1) if n % d == 0]
        return {e for d in small for e in (d, abs(n) // d)}
    return {Fraction(s * num, den)
            for num in divisors(a0) for den in divisors(lead) for s in (1, -1)}


def _fraction_rational_roots(f):
    # the Fraction candidates, evaluation and division that u_rational_roots
    # replaced
    field = f.field
    roots = []
    v = next(i for i, c in enumerate(f.coeffs) if c != 0)
    if v:
        f = UPoly(field, f.coeffs[v:])
        roots.append((Fraction(0), v))
    den = math.lcm(*(c.denominator for c in f.coeffs))
    ints = [int(c * den) for c in f.coeffs]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    for r in sorted(_fraction_candidates(ints[0], ints[-1])):
        mult = 0
        while True:
            val = Fraction(0)
            for c in reversed(f.coeffs):
                val = val * r + c
            if val != 0:
                break
            f = f.exact_div(UPoly(field, (-r, Fraction(1))))
            mult += 1
        if mult:
            roots.append((r, mult))
    roots.sort()
    return roots, f


def test_rational_roots_of_non_monic_products_match_fraction_reference():
    # linear factors with leads other than 1 (25x + 46 broke an earlier
    # integer prototype) times a cofactor with no rational root; products
    # whose constant or leading coefficient passes 10^9 are drawn again, as
    # the candidates come from trial division up to their square roots, and
    # the largest multiplicities are added by hand
    rng = random.Random(2026)
    linear = [(25, 46), (3, -512), (2, 1), (-4, 3), (9, -2), (7, 7), (1, -3)]
    rootless = ([1, 0, 1], [3, 0, 0, -2], [5, 1, 1], [1], [2, 0, 0, 0, 7])
    x2_plus_1 = UPoly(QQ, [Fraction(1), Fraction(0), Fraction(1)])
    fixed = [math.prod([UPoly(QQ, [Fraction(-512), Fraction(3)])] * 4, start=x2_plus_1),
             math.prod([UPoly(QQ, [Fraction(46), Fraction(25)])] * 4, start=x2_plus_1)]
    for f in fixed:
        assert u_rational_roots(f) == _fraction_rational_roots(f)
    cases = 0
    while cases < 30:
        f = UPoly(QQ, [Fraction(c) for c in rng.choice(rootless)])
        for lead, const in rng.sample(linear, rng.randint(1, 3)):
            factor = UPoly(QQ, [Fraction(const), Fraction(lead)])
            for _ in range(rng.randint(1, 4)):
                f = f * factor
        if max(abs(f.coeffs[0]), abs(f.leading())) > 10**9:
            continue
        cases += 1
        f = f * UPoly(QQ, [Fraction(0)] * rng.randint(0, 2) + [Fraction(1)])
        f = f.scale(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)))
        assert u_rational_roots(f) == _fraction_rational_roots(f)


def test_rational_roots_list_each_divisor_set_once(monkeypatch):
    # (25x + 46)^4 (3x - 512)^2 (x^2 + 7), constant 8,216,167,579,648 and
    # lead 3,515,625: each is trial-divided once, not once per divisor of
    # the other
    f = math.prod([UPoly(QQ, [Fraction(46), Fraction(25)])] * 4
                  + [UPoly(QQ, [Fraction(-512), Fraction(3)])] * 2,
                  start=UPoly(QQ, [Fraction(7), Fraction(0), Fraction(1)]))
    want = _fraction_rational_roots(f)
    calls = Counter()
    _count_calls(monkeypatch, covergeo.univariate, "_divisors", calls)
    assert u_rational_roots(f) == want
    assert want[0] == [(Fraction(-46, 25), 4), (Fraction(512, 3), 2)]
    assert calls == Counter({"_divisors": 2})


def test_prime_field_operations_call_no_field_method(monkeypatch):
    # the kernel runs on ints; a fresh F_p whose arithmetic raises still
    # divides, multiplies, takes gcds and powers, factors and finds roots
    fld = covergeo.fields.PrimeField(13)
    for name in ("add", "sub", "mul", "inv"):
        monkeypatch.setattr(fld, name, _raise)
    f = upoly(fld, 5, 0, 3, 1, 0, 2)
    g = upoly(fld, 7, 1, 4)
    q, r = divmod(f * g + g, f)
    assert (q, r) == (g, g)
    assert ugcd(f * g, g * g) == g.monic()
    assert f.pow_mod(13**2, g) == f % g  # g is squarefree, its roots in F_13^2
    unit, factors = u_factor(f * g * g)
    assert unit == 6 and sum(e * h.degree for h, e in factors) == 9
    assert u_roots(upoly(fld, -1, 0, 0, 1)) == [1, 3, 9]


def _raise(*args):
    raise AssertionError("field method called on the F_p kernel path")
