import itertools
import math
import random
import re
import signal
from collections import Counter
from fractions import Fraction

import pytest

import covergeo.polynomials
import covergeo.resolution
from covergeo.fields import (
    MAX_EXTENSION_DEGREE,
    QQ,
    ExtensionDegreeError,
    extension_field,
    prime_field,
)
from covergeo.parsing import parse_field_spec, parse_polynomial
from covergeo.polynomials import (
    BPoly,
    UPoly,
    b_exact_div,
    b_normalize,
    b_squarefree,
    extension_embedding,
    u_factor,
    u_rational_roots,
    u_roots,
    ugcd,
)
from covergeo.resolution import (
    NEGLIGIBLE_FIRST,
    NEGLIGIBLE_SECOND,
    NOT_NEGLIGIBLE,
    BranchGerm,
    IrrationalPointError,
    ResolutionDepthError,
    blowup_once,
    canonical_resolution,
    is_negligible,
    normalize_branch,
)
from covergeo.xi import RamificationType, SingularityClass, xi_family, xi_type


def germ(expr, spec="Q"):
    return BranchGerm(parse_polynomial(expr, parse_field_spec(spec)))


def family_germ(field, a, b, m, n):
    poly = BPoly(field, {(m, 0): field.one, (0, n): field.neg(field.one)})
    if a:
        poly = poly * BPoly.var_x(field)
    if b:
        poly = poly * BPoly.var_t(field)
    return BranchGerm(poly)


# -- multiplicity ------------------------------------------------------------

def test_multiplicity_examples():
    assert germ("x^3 - t^2").poly.total_valuation() == 2
    assert germ("x^5 - t^4").poly.total_valuation() == 4
    assert germ("x*t*(x-t)").poly.total_valuation() == 3


def test_multiplicity_zero_equation():
    with pytest.raises(ValueError):
        BranchGerm(BPoly.zero(QQ))


# -- normalization -----------------------------------------------------------

def test_normalize_monomial_parity():
    b1, b0 = normalize_branch(germ("x^2*t^3"))
    assert b1.poly.fmt() == "t"
    assert b0.poly.fmt() == "x*t"


def test_normalize_squarefree_input():
    b1, b0 = normalize_branch(germ("x^5 - t^4", "F5"))
    assert b1.poly.fmt() == "x^5 + 4*t^4"
    assert b0.poly.is_constant()


def test_normalize_mixed():
    b1, b0 = normalize_branch(germ("(x-t)^2*(x+t)", "F7"))
    assert b1.poly.fmt() == "x + t"
    assert b0.poly.fmt() == "x + 6*t"


@pytest.mark.parametrize("spec", ["Q", "F5", "F3^2"])
def test_normalize_keeps_parts_normalized(spec):
    # the parts of b_squarefree are normalized, and so is a product of
    # normalized polynomials, so B1 and B0 need no scaling
    fld = parse_field_spec(spec)
    rng = random.Random(f"normalized-{spec}")
    if fld.char == 0:
        coef = lambda: fld.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))  # noqa: E731
    else:
        coef = lambda: fld.decode(rng.randrange(1, fld.order))  # noqa: E731
    repeated = 0
    for _ in range(20):
        f = BPoly.constant(fld, coef())
        for _ in range(rng.randint(1, 3)):
            factor = BPoly(fld, {(rng.randint(1, 3), 0): coef(),
                                 (0, rng.randint(1, 3)): coef(), (1, 1): coef()})
            for _ in range(rng.randint(1, 4)):
                f = f * factor
        b1, b0 = normalize_branch(BranchGerm(f))
        assert b1.poly == b_normalize(b1.poly) and b0.poly == b_normalize(b0.poly), f.fmt()
        assert b_normalize(b1.poly * b0.poly * b0.poly) == b_normalize(f), f.fmt()
        repeated += not b0.poly.is_constant()
    assert repeated >= 10


# -- single blow-up ----------------------------------------------------------

def _charts(poly):
    """(strict, branch) of charts "x" and "t" at the germ's multiplicity m:
    the pull-back over the m-th power of the line's variable, and over the
    (m - m % 2)-th, which adds the line once more at odd m."""
    m = poly.total_valuation()
    chart = covergeo.resolution._chart
    return [(chart(poly, name, m), chart(poly, name, m - m % 2)) for name in "xt"]


def test_blowup_quartic():
    g = germ("x^5 - t^4")
    result = blowup_once(g)
    assert (result.multiplicity, result.half) == (4, 2)
    (strict_x, branch_x), (strict_t, _) = _charts(g.poly)
    # chart with exceptional line x = 0 carries the strict transform x - t^4
    assert strict_x.fmt() == "x - t^4"
    assert branch_x == strict_x  # even multiplicity
    # the other chart misses the origin entirely
    assert (0, 0) in strict_t.terms
    assert result.singular_sites == ()


def test_blowup_normal_crossing():
    g = germ("x*t")
    result = blowup_once(g)
    assert (result.multiplicity, result.half) == (2, 1)
    (_, branch_x), (_, branch_t) = _charts(g.poly)
    assert branch_x.fmt() == "t"
    assert branch_t.fmt() == "x"
    assert result.singular_sites == ()  # both lines now regular and disjoint


def test_blowup_cusp():
    g = germ("x^3 - t^2")
    result = blowup_once(g)
    assert (result.multiplicity, result.half) == (2, 1)
    (strict_x, _), _ = _charts(g.poly)
    assert strict_x.fmt() == "x - t^2"
    assert result.singular_sites == ()


def test_blowup_rejects_non_reduced():
    with pytest.raises(ValueError, match="normalize"):
        blowup_once(germ("x^2*t^3"))


def test_blowup_rejects_regular_point():
    with pytest.raises(ValueError, match="mult"):
        blowup_once(germ("x - t^2"))


# -- canonical resolution ----------------------------------------------------

def test_resolution_cusp():
    trace = canonical_resolution(germ("x^3 - t^2"))
    assert trace.xi == 0
    assert trace.k2_defect == 0
    assert [(s.multiplicity, s.half) for s in trace.steps] == [(2, 1)]


def test_resolution_quartic():
    trace = canonical_resolution(germ("x^5 - t^4"))
    assert trace.xi == 1
    assert trace.k2_defect == 2
    assert [(s.multiplicity, s.half) for s in trace.steps] == [(4, 2)]


def test_resolution_negligible_germs():
    trace = canonical_resolution(germ("x*t"))
    assert trace.xi == 0 and trace.negligible == NEGLIGIBLE_FIRST
    trace = canonical_resolution(germ("x*t*(x-t)"))
    assert trace.xi == 0 and trace.negligible == NEGLIGIBLE_SECOND
    assert trace.k2_defect == 0


def test_resolution_normalizes_first():
    # (x - t)^5 over F_5: reduced part is regular, nothing to blow up
    trace = canonical_resolution(germ("x^5 - t^5", "F5"))
    assert trace.steps == ()
    assert trace.xi == 0
    assert trace.reduced.poly.fmt() == "x + 4*t"
    assert trace.even_part.poly.fmt() == "x^2 + 3*x*t + t^2"


def test_resolution_depth_guard():
    with pytest.raises(ResolutionDepthError, match="depth exceeded"):
        canonical_resolution(germ("x*t*(x-t)"), depth_limit=2)


def test_resolution_depth_limit_counts_only_blowups():
    # one blow-up resolves x^2 - t^2 and decides its class
    trace = canonical_resolution(germ("x^2 - t^2"), depth_limit=1)
    assert len(trace.steps) == 1
    assert trace.negligible == NEGLIGIBLE_FIRST


def test_resolution_long_chain_needs_only_depth_limit():
    # 1,050 blow-ups in one chain: deeper than Python's recursion limit
    trace = canonical_resolution(germ("x^2 - t^2100", "F5"), depth_limit=5000)
    assert len(trace.steps) == 1050
    assert trace.xi == 0
    assert trace.negligible == NEGLIGIBLE_FIRST


def test_resolution_needs_field_extension():
    # tangent directions solve 2*tau^2 = 1, irrational over F_5
    trace = canonical_resolution(germ("x^2 - 2*t^2", "F5"))
    assert trace.xi == 0
    assert [(s.multiplicity, s.half, s.copies) for s in trace.steps] == [(2, 1, 1)]
    assert trace.negligible == NEGLIGIBLE_FIRST


def test_resolution_conjugate_points_counted():
    # t*(x^2 - 2t^2) over F_5: the exceptional line stays in the branch and
    # crosses the strict transform at t'=0 and at a conjugate pair over F_25
    trace = canonical_resolution(germ("t*(x^2 - 2*t^2)", "F5"))
    assert [(s.multiplicity, s.half, s.copies) for s in trace.steps] == [
        (3, 1, 1),
        (2, 1, 1),
        (2, 1, 2),
    ]
    assert trace.xi == 0
    assert "F25" in trace.steps[2].center


def test_resolution_even_multiplicity_irrational_simple_points_ok():
    # even multiplicity: the exceptional line leaves the branch, and simple
    # irrational intersections are regular, so Q suffices
    trace = canonical_resolution(germ("(x^2 - 2*t^2)*(x^2 - 3*t^2)"))
    assert trace.xi == 1
    assert [(s.multiplicity, s.half) for s in trace.steps] == [(4, 2)]


def test_resolution_irrational_over_q():
    with pytest.raises(IrrationalPointError):
        canonical_resolution(germ("t*(x^2 - 2*t^2)"))
    # even multiplicity, but the irrational tangents are double: each point
    # would have to be re-centred to tell whether it is singular
    with pytest.raises(IrrationalPointError, match="^multiple branch point "
                       "with irrational coordinates; rerun over a finite "
                       "field, extensions of Q are not supported$"):
        canonical_resolution(germ("(x^2 - 2*t^2)^2 + x^5"))
    assert canonical_resolution(germ("(x^2 - 2*t^2)^2 + x^5", "F5")).xi == 1
    # multiplicity 4 is never negligible: decided before any blow-up
    assert is_negligible(germ("(x^2 - 2*t^2)^2 + x^5")) == NOT_NEGLIGIBLE


def test_is_negligible_raises_what_resolution_raises():
    # at odd multiplicity the irrational tangents are singular points
    for expr in ("x^3 - t^3", "t*(x^2 - 2*t^2)"):
        with pytest.raises(IrrationalPointError):
            canonical_resolution(germ(expr))
        with pytest.raises(IrrationalPointError):
            is_negligible(germ(expr))


def test_resolution_dense_q_germ_is_fast():
    # Euclid over Fractions in the bivariate gcd took minutes on this germ;
    # the alarm turns a relapse into a failure instead of a hang.
    g = germ("3*(t + 3*x^2)*(t^4 + x^3)"
             "*(3*t^4 - 2*t^3*x + t^3 + 2*t^2 + t*x^3 - 3*t*x^2 + t + 2*x^4)")

    def too_slow(*_):
        raise TimeoutError("dense germ over Q took over 10 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        parts = b_squarefree(g.poly)
        trace = canonical_resolution(g)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert [e for _, e in parts] == [1]  # sympy's sqf_list agrees
    assert (trace.xi, trace.k2_defect, trace.negligible) == (1, 2, NOT_NEGLIGIBLE)


def test_resolution_wild_branch():
    # x*(x^5 - (t^5 + t^6)) over F_5: wild pole shape with j=1, R=5
    trace = canonical_resolution(germ("x*(x^5 - t^5 - t^6)", "F5"))
    assert trace.xi == 3


def test_class_types_match_the_engine_in_char_p():
    # xi_type against the blow-ups over F_p.  A class with branch exponents
    # (a, b) and tame data R is the germ x^a t^b (x^p - t^(R+1)).  For wild
    # data the germ is (x + t^j)^a t^b (x^p - t^(R+1)): a model that the
    # recursion agrees with, not a normal form quoted from the paper
    cases = 0
    for p in (5, 7):
        field = prime_field(p)
        data = [RamificationType.tame(R) for R in range(1, 3 * p + 1)] + [
            RamificationType.wild(j, R)
            for j in (1, 2, 3) for R in range(p * j, p * j + 2 * p + 1)]
        for cls in SingularityClass:
            a, b = cls.branch_exponents
            for lam in data:
                if (lam.R + 1) % p == 0:
                    continue  # xi_type rejects these, and no other datum here
                poly = family_germ(field, 0, b, p, lam.R + 1).poly
                if a:
                    pole = {(1, 0): field.one}
                    if lam.is_wild:
                        pole[0, lam.j] = field.one
                    poly = poly * BPoly(field, pole)
                xi = canonical_resolution(BranchGerm(poly)).xi
                assert xi == xi_type(cls, lam, p), (cls, lam, p)
                cases += 1
    assert cases == 384


def test_resolution_degree_four_extension():
    # directions solve 2*tau^4 = 1, an irreducible quartic over F_5
    trace = canonical_resolution(germ("t*(x^4 - 2*t^4)", "F5"))
    assert [(s.multiplicity, s.half, s.copies) for s in trace.steps] == [
        (5, 2, 1),
        (2, 1, 1),
        (2, 1, 4),
    ]
    assert trace.xi == 1
    assert "F625" in trace.steps[2].center


def test_resolution_extension_of_extension():
    f25 = extension_field(5, 2)
    gen = BPoly.constant(f25, f25.decode(5))  # non-square in F_25
    x, t = BPoly.var_x(f25), BPoly.var_t(f25)
    g = BranchGerm(t * (x * x - gen * t * t))
    trace = canonical_resolution(g)
    assert trace.xi == 0
    assert sorted(s.copies for s in trace.steps) == [1, 1, 2]
    assert any("F625" in s.center for s in trace.steps)
    assert is_negligible(g) == NEGLIGIBLE_SECOND


def test_resolution_formats_no_polynomial(monkeypatch):
    # the resolve goldens' germs and two with conjugate or even parts: the
    # trace keeps germs, and the report formats them
    germs = [germ(expr, spec) for expr, spec in [
        ("x^3 - t^2", "Q"), ("x^5 - t^4", "Q"), ("x*t", "Q"),
        ("x*t*(x-t)", "Q"), ("x^5 - t^4", "F5"),
        ("(x^2-2*t^2)^2*x + t^7", "F5"), ("t*(x^4 - 2*t^4)", "F5"),
        ("x^5 - t^5", "F5"),
    ]]
    expected = [canonical_resolution(g) for g in germs]

    def no_fmt(self):
        raise AssertionError("the resolution engine formatted a polynomial")

    monkeypatch.setattr(BPoly, "fmt", no_fmt)
    assert [canonical_resolution(g) for g in germs] == expected
    assert [is_negligible(tr.reduced) for tr in expected] == [tr.negligible for tr in expected]


def test_trace_totals_recompute():
    trace = canonical_resolution(germ("x*t*(x^3-t^2)", "F7"))
    assert trace.recompute_totals() == (trace.xi, trace.k2_defect)


# -- negligible classification ----------------------------------------------

@pytest.mark.parametrize(
    "expr,spec,expected",
    [
        ("x*t", "Q", NEGLIGIBLE_FIRST),
        ("x*t*(x-t)", "Q", NEGLIGIBLE_SECOND),
        ("x^5 - t^4", "Q", NOT_NEGLIGIBLE),
        ("x^3 - t^2", "Q", NOT_NEGLIGIBLE),  # one singular branch
        ("x^2 - t^4", "Q", NEGLIGIBLE_FIRST),  # smooth tangent pair
        ("x^2 - t^6", "Q", NEGLIGIBLE_FIRST),
        ("x^2 - 2*t^2", "F5", NEGLIGIBLE_FIRST),  # conjugate pair
        ("x^2 - 2*t^4", "F5", NEGLIGIBLE_FIRST),  # tangent conjugate pair
        ("x*t*(x - t^2)", "Q", NEGLIGIBLE_SECOND),  # two of three transversal
        ("x*(x - t^2)*(x + t^2)", "Q", NOT_NEGLIGIBLE),  # all three tangent
        ("x*(x^2 - t^3)", "Q", NOT_NEGLIGIBLE),  # line plus cusp
        ("x - t^2", "Q", NOT_NEGLIGIBLE),  # regular point
    ],
)
def test_is_negligible(expr, spec, expected):
    assert is_negligible(germ(expr, spec)) == expected


def test_negligible_implies_xi_zero():
    for expr, spec in [
        ("x*t", "Q"),
        ("x^2 - t^4", "Q"),
        ("x*t*(x-t)", "F7"),
        ("x*t*(x - t^2)", "Q"),
        ("x^2 - 2*t^2", "F5"),
        ("t*(x^2-2*t^2)", "F5"),
    ]:
        g = germ(expr, spec)
        if is_negligible(g) != NOT_NEGLIGIBLE:
            assert canonical_resolution(g).xi == 0, expr


def test_all_tangent_triple_has_positive_xi():
    g = germ("x*(x - t^2)*(x + t^2)")
    assert is_negligible(g) == NOT_NEGLIGIBLE
    assert canonical_resolution(g).xi == 1


def test_is_negligible_requires_reduced():
    message = "^branch is not reduced; normalize_branch must be applied first$"
    for expr in ("x^2*t", "x^2", "x^3", "x^2*t^2", "(x - t^2)^2*t^3"):
        with pytest.raises(ValueError, match=message):
            is_negligible(germ(expr))


@pytest.mark.parametrize("expr", ["x*t*(x - t)", "x^2 - t^3"])
def test_is_negligible_factors_once(monkeypatch, expr):
    # reducedness is read off the walk's own normalization
    calls = Counter()
    _count_calls(monkeypatch, covergeo.resolution, "b_squarefree", calls)
    is_negligible(germ(expr))
    assert calls["b_squarefree"] == 1


# -- reducedness is kept by blow-ups -------------------------------------------
#
# canonical_resolution checks reducedness only through normalize_branch; the
# blow-ups inside it rely on strict transforms, exceptional lines, translations
# and field extensions keeping a reduced germ reduced.  These tests walk the
# blow-up tree of seeded random germs and check every re-centred germ.

def _random_reduced_germ(rng, fld):
    """Normalized branch of a seeded product of factors x^m + c t^n (+ d x t
    over F_q), some squared, of total degree at most 8; None if it is
    regular at the origin."""
    if fld.char == 0:
        coef = lambda: fld.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))  # noqa: E731
    else:
        coef = lambda: fld.decode(rng.randrange(1, fld.order))  # noqa: E731
    poly = BPoly.constant(fld, fld.one)
    for _ in range(rng.randint(1, 3)):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        if fld.char == 0 and math.gcd(m, n) != 1:
            n += 1  # coprime exponents keep the singular points rational
        factor = BPoly(fld, {(m, 0): fld.one, (0, n): coef()})
        if fld.char and rng.random() < 0.5:
            factor = factor + BPoly(fld, {(1, 1): coef()})
        for _ in range(rng.choice([1, 1, 2])):
            if _degree(poly) + _degree(factor) <= 8:
                poly = poly * factor
    b1, _ = normalize_branch(BranchGerm(poly))
    if (0, 0) in b1.poly.terms or b1.poly.total_valuation() < 2:
        return None
    return b1


def _degree(poly):
    return max(i + j for i, j in poly.terms)


def _is_reduced(poly):
    return all(e == 1 for _, e in b_squarefree(poly))


def _walk_sites(poly, depth):
    """Blow up the germ and every singular site above it; returns the number
    of re-centred germs seen, asserting that each is reduced."""
    assert depth < 64
    seen = 0
    for site in blowup_once(BranchGerm(poly)).singular_sites:
        assert _is_reduced(site.germ), (poly.fmt(), site.location)
        seen += 1 + _walk_sites(site.germ, depth + 1)
    return seen


@pytest.mark.parametrize("spec", ["Q", "F5", "F7", "F5^2"])
def test_blowups_keep_random_germs_reduced(spec):
    fld = parse_field_spec(spec)
    rng = random.Random(f"reduced-{spec}")
    germs = sites = 0
    while germs < 12:
        b1 = _random_reduced_germ(rng, fld)
        if b1 is None:
            continue
        assert _is_reduced(b1.poly)
        sites += _walk_sites(b1.poly, 0)
        germs += 1
    assert sites > 0


# -- chart polynomials and work skipped by shape -------------------------------

def _chart_reference(poly):
    """(strict, branch) of charts "x" and "t": substitute, divide by the m-th
    power of the line's variable and add the line once more at odd m."""
    fld = poly.field
    m = poly.total_valuation()
    x, t = BPoly.var_x(fld), BPoly.var_t(fld)
    out = []
    for line, x_image, t_image in ((x, x, x * t), (t, x * t, t)):
        power = BPoly.constant(fld, fld.one)
        for _ in range(m):
            power = power * line
        strict = b_exact_div(_substitute(poly, x_image, t_image), power)
        out.append((strict, strict * line if m % 2 else strict))
    return out


@pytest.mark.parametrize("spec", ["Q", "F5", "F5^2"])
def test_blowup_charts_match_substitution(spec):
    fld = parse_field_spec(spec)
    rng = random.Random(f"charts-{spec}")
    parities = set()
    germs = 0
    while germs < 15:
        b1 = _random_reduced_germ(rng, fld)
        if b1 is None:
            continue
        germs += 1
        parities.add(b1.poly.total_valuation() % 2)
        assert _charts(b1.poly) == _chart_reference(b1.poly), b1.poly.fmt()
    assert parities == {0, 1}


def _eager_sites_reference(poly, flags):
    """The sites routine as it was before charts were built lazily: both
    charts built by substitution, the line restriction and the parity read
    off the chart "x" polynomials, and every site's multiplicity computed
    from its germ.  Returns ((chart, label, copies, flags, terms,
    multiplicity) per site, ends)."""
    fld = poly.field
    (strict_x, branch_x), (strict_t, branch_t) = _chart_reference(poly)
    on_x, on_t = flags
    odd = min(i for i, _ in branch_x.terms) > 0
    at_x0 = {j: c for (i, j), c in strict_x.terms.items() if not i}
    line = UPoly(fld, [at_x0.get(j, fld.zero) for j in range(max(at_x0) + 1)])
    if len(at_x0) == 1:
        (v,) = at_x0
        factors = [(fld.zero, 1, v == 1)] if v else []
    elif fld.char:
        factors = [(fld.neg(irr.coeffs[0]) if irr.degree == 1 else irr,
                    irr.degree, e == 1)
                   for irr, e in u_factor(line)[1]]
    else:
        roots, cofactor = u_rational_roots(line)
        factors = [(tau, 1, e == 1) for tau, e in roots]
        if not cofactor.is_constant():
            simple = ugcd(cofactor, cofactor.deriv()).is_constant()
            factors.append((cofactor, cofactor.degree, simple))
    sites, ends = [], 0
    for tau, degree, simple in factors:
        old = on_t and degree == 1 and tau == fld.zero
        if simple and not odd:
            ends += 0 if old else degree
            continue
        if degree == 1:
            local, label = branch_x.translate_t(tau), fld.fmt(tau)
        elif not fld.char:
            raise IrrationalPointError("singular point" if odd else "multiple branch point")
        elif fld.k * degree > MAX_EXTENSION_DEGREE:
            raise ExtensionDegreeError(f"F{fld.p}^{fld.k * degree}")
        else:
            big = extension_field(fld.p, fld.k * degree)
            embed = extension_embedding(fld, big)
            tau = u_roots(UPoly(big, [embed(c) for c in tau.coeffs]))[0]
            local = branch_x.map_to(big, embed).translate_t(tau)
            label = f"{big.fmt(tau)} in {big.name}"
        if local.total_valuation() >= 2:
            sites.append(("x", label, degree, (True, old), local))
        elif not old:
            ends += degree
    if branch_t.total_valuation() >= 2:
        sites.append(("t", "0", 1, (on_x, True), branch_t))
    elif strict_t.terms.get((0, 0), fld.zero) == fld.zero and not on_x:
        ends += 1
    return [(*site[:4], sorted(site[4].terms.items()), site[4].total_valuation())
            for site in sites], ends


def _exit(fn):
    """fn()'s value, or the kind of error it raised with the kind of point
    or the field it names."""
    try:
        return fn()
    except IrrationalPointError as exc:
        return "irrational", str(exc).split(" with ")[0]
    except ExtensionDegreeError as exc:
        return "extension", re.search(r"F\d+\^\d+", str(exc)).group()


# a tangent cone irreducible of degree d, with k*d > MAX_EXTENSION_DEGREE
# over F_{p^k}, at odd m; over Q a cone with irrational points
_PAST_EXTENSION_BOUND = {
    "Q": "x^3 - 2*x*t^2 + t^4",
    "F3": "2*x^13 + x^9*t^4 + t^13",
    "F5": "x^13 + x^7*t^6 + t^13",
    "F7": "3*x^13 + x^11*t^2 + t^13",
    "F3^2": "2*x^7 + x^5*t^2 + t^7",
    "F5^2": "x^7 + x^6*t + t^7",
}


@pytest.mark.parametrize("spec", ["Q", "F3", "F5", "F7", "F3^2", "F5^2"])
def test_sites_match_eager_chart_reference(spec):
    # every fact that the sites routine reads off the germ (parity, tangent
    # cone, chart "t" multiplicity and origin) and every chart it builds
    # lazily agree with both charts built in full, at every node of the
    # blow-up tree and under every pair of flags; the fixed germs add
    # conjugate sites and both error exits
    fld = parse_field_spec(spec)
    rng = random.Random(f"sites-{spec}")
    flag_pairs = [(a, b) for a in (False, True) for b in (False, True)]
    roots = [germ(expr, spec) for expr in
             ("t*(x^2 - 2*t^2)", "(x^2 - 2*t^2)^2 + t^5", _PAST_EXTENSION_BOUND[spec])]
    while len(roots) < 18:
        b1 = _random_reduced_germ(rng, fld)
        if b1 is not None:
            roots.append(b1)
    parities, exits = set(), set()
    for root in roots:
        pending = [root.poly]
        while pending:
            poly = pending.pop()
            m = poly.total_valuation()
            parities.add(m % 2)
            for flags in flag_pairs:
                got = _exit(lambda: _lazy_sites(poly, m, flags))
                assert got == _exit(lambda: _eager_sites_reference(poly, flags)), (poly.fmt(), flags)
            if isinstance(got[0], str):
                exits.add(got[0])
            else:
                sites, _ = covergeo.resolution._sites_on_exceptional(poly, m, (False, False))
                pending.extend(site.germ for site in sites)
    assert parities == {0, 1}
    assert exits == ({"irrational"} if spec == "Q" else {"extension"}), exits


def _lazy_sites(poly, m, flags):
    sites, ends = covergeo.resolution._sites_on_exceptional(poly, m, flags)
    return [(site.chart, site.location, site.copies, site.flags,
             sorted(site.germ.terms.items()), site.multiplicity)
            for site in sites], ends


def _count_calls(monkeypatch, module, name, calls):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_chain_carries_multiplicities_and_builds_only_site_charts(monkeypatch):
    # x^2 - t^2100 takes 1,050 blow-ups, each at the chart "t" origin of
    # the last, at multiplicity 2, until x^2 - t^2 crosses the line in
    # chart "x": only the germ's own multiplicity is computed, and only the
    # chart "t" of each site is built
    calls = Counter()
    _count_calls(monkeypatch, BPoly, "total_valuation", calls)
    chart = covergeo.resolution._chart

    def counted(poly, name, e):
        calls[f"chart {name}"] += 1
        return chart(poly, name, e)

    monkeypatch.setattr(covergeo.resolution, "_chart", counted)
    trace = canonical_resolution(germ("x^2 - t^2100", "F5"), depth_limit=2000)
    assert len(trace.steps) == 1050 and trace.negligible == NEGLIGIBLE_FIRST
    assert calls == Counter({"total_valuation": 1, "chart t": 1049})


def test_chain_wraps_only_the_parts_of_its_input(monkeypatch):
    # the walk carries bare polynomials: the two parts of normalize_branch
    # are the only BranchGerms built, and each of the 1,049 sites of the
    # chain is one SingularSite
    root = germ("x^2 - t^2100", "F5")
    calls = Counter()
    _count_calls(monkeypatch, covergeo.resolution, "BranchGerm", calls)
    _count_calls(monkeypatch, covergeo.resolution, "SingularSite", calls)
    trace = canonical_resolution(root, depth_limit=2000)
    assert len(trace.steps) == 1050
    assert calls == Counter({"BranchGerm": 2, "SingularSite": 1049})


@pytest.mark.parametrize("spec", ["Q", "F7"])
def test_shape_shortcuts_skip_work(monkeypatch, spec):
    # a reduced germ is certified squarefree without a bivariate gcd or an
    # exact division, and a restriction to the exceptional line that is a
    # monomial or a constant is neither factored nor searched for rational
    # roots
    calls = Counter()
    _count_calls(monkeypatch, covergeo.polynomials, "b_gcd", calls)
    _count_calls(monkeypatch, covergeo.polynomials, "b_exact_div", calls)
    _count_calls(monkeypatch, covergeo.resolution, "u_factor", calls)
    _count_calls(monkeypatch, covergeo.resolution, "u_rational_roots", calls)
    for expr in ("x^2 - t^101", "x*t*(x^3 - t^2)", "(x^2 - t^3)*(x^3 - t^5)"):
        normalize_branch(germ(expr, spec))
    assert calls == Counter()
    trace = canonical_resolution(germ("x^2 - t^101", spec))
    assert len(trace.steps) == 50
    assert calls == Counter()
    # the counters see the work when the shape does not rule it out
    normalize_branch(germ("(x - t)^2*(x + t)", spec))
    canonical_resolution(germ("x*t*(x - t)", spec))
    assert calls["b_gcd"] > 0 and calls["b_exact_div"] > 0
    assert calls["u_rational_roots" if spec == "Q" else "u_factor"] > 0


def test_regular_conjugate_points_build_no_field(monkeypatch):
    # at even m a simple zero of the line restriction is a transversal
    # crossing, so its conjugate points are counted as regular where they
    # are; at odd m the line stays in the branch and the points are nodes
    calls = Counter()
    _count_calls(monkeypatch, covergeo.resolution, "extension_field", calls)
    for expr, class_ in (("x^2 - 2*t^2", NEGLIGIBLE_FIRST),
                         ("x^8 - 2*t^8", NOT_NEGLIGIBLE)):
        trace = canonical_resolution(germ(expr, "F5"))
        assert len(trace.steps) == 1 and trace.negligible == class_
    assert calls == Counter()
    canonical_resolution(germ("t*(x^2 - 2*t^2)", "F5"))
    assert calls["extension_field"] == 1


# -- metamorphic properties ----------------------------------------------------
#
# xi, the K^2 drop and the negligible class are invariants of the germ, so a
# change of coordinates or a unit factor must not move them.  Swapping x and t
# or multiplying by a unit also keeps the multiset of blow-up multiplicities
# with their conjugate counts.

def _substitute(poly, x_image, t_image):
    fld = poly.field
    out = BPoly.zero(fld)
    for (i, j), c in poly.terms.items():
        term = BPoly.constant(fld, c)
        for _ in range(i):
            term = term * x_image
        for _ in range(j):
            term = term * t_image
        out = out + term
    return out


def _invariants(poly):
    trace = canonical_resolution(BranchGerm(poly))
    steps = sorted((s.multiplicity, s.half, s.copies) for s in trace.steps)
    return (trace.xi, trace.k2_defect, trace.negligible), steps


@pytest.mark.parametrize("spec", ["F5", "F7", "F11", "F5^2"])
def test_metamorphic_invariants(spec):
    fld = parse_field_spec(spec)
    x, t = BPoly.var_x(fld), BPoly.var_t(fld)
    rng = random.Random(f"metamorphic-{spec}")
    germs = 0
    while germs < 4:
        b1 = _random_reduced_germ(rng, fld)
        if b1 is None:
            continue
        germs += 1
        poly = b1.poly
        expected = _invariants(poly)
        assert _invariants(_substitute(poly, t, x)) == expected, poly.fmt()
        unit = BPoly.constant(fld, fld.one) + x
        assert _invariants(poly * unit) == expected, poly.fmt()
        shear = x + BPoly.constant(fld, fld.from_int(2)) * t
        assert _invariants(_substitute(poly, shear, t))[0] == expected[0], poly.fmt()


def _conjugate_pair(fp, big, m, n, c):
    """((x - s t)^m - t^n)((x + s t)^m - t^n) over F_p, with s^2 = c in
    F_{p^2}; its coefficients are codes below p, so they are F_p's."""
    s = u_roots(UPoly(big, [big.neg(c), big.zero, big.one]))[0]
    x, tn = BPoly.var_x(big), BPoly(big, {(0, n): big.one})
    st = BPoly(big, {(0, 1): s})
    minus = plus = BPoly.constant(big, big.one)
    for _ in range(m):
        minus, plus = minus * (x - st), plus * (x + st)
    poly = (minus - tn) * (plus - tn)
    assert all(code < fp.p for code in poly.terms.values())
    return BPoly(fp, poly.terms)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_base_change_to_fp2_keeps_invariants(p):
    # Points conjugate over F_p are rational over F_{p^2}: once the copies
    # of a conjugate site are counted, xi, the K^2 drop and the negligible
    # class do not depend on the field the germ is resolved over.
    fp, big = prime_field(p), extension_field(p, 2)
    embed = extension_embedding(fp, big)
    rng = random.Random(f"base-change-{p}")
    squares = {i * i % p for i in range(1, p)}
    non_squares = [c for c in range(2, p) if c not in squares]
    germs = [_conjugate_pair(fp, big, m, n, rng.choice(non_squares))
             for m, n in [(2, 5), (3, 5), (2, 7)]]
    while len(germs) < 7:
        b1 = _random_reduced_germ(rng, fp)
        if b1 is not None:
            germs.append(b1.poly)
    for i, poly in enumerate(germs):
        over_p = canonical_resolution(BranchGerm(poly))
        over_p2 = canonical_resolution(BranchGerm(poly.map_to(big, embed)))
        assert ((over_p.xi, over_p.k2_defect, over_p.negligible)
                == (over_p2.xi, over_p2.k2_defect, over_p2.negligible)), poly.fmt()
        if i < 3:  # a conjugate pair meets conjugate points over F_p only
            assert any(s.copies == 2 for s in over_p.steps), poly.fmt()
            assert all(s.copies == 1 for s in over_p2.steps), poly.fmt()


def _q_trace(poly):
    # everything a resolution over Q reports, or the message of its error
    try:
        trace = canonical_resolution(BranchGerm(poly))
    except IrrationalPointError as exc:
        return str(exc)
    return (trace.xi, trace.k2_defect, trace.negligible, trace.steps,
            trace.reduced.poly.fmt(), trace.even_part.poly.fmt())


def _q_value(v):
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def test_q_units_and_coefficient_types_keep_the_trace():
    # A constant factor is a unit: the trace of c*f, centre labels and
    # printed parts included, is that of f.  So is the trace of f with its
    # integral coefficients written as Fractions instead of ints.
    rng = random.Random("q-units")
    one = BPoly.constant(QQ, 1)
    errors = 0
    for _ in range(300):
        poly = one
        for _ in range(rng.randint(1, 3)):
            a = _q_value(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))))
            c = _q_value(Fraction(rng.choice((-2, -1, 1, 2, 3)), rng.choice((1, 1, 2))))
            line = BPoly(QQ, {(1, 0): 1, (0, 1): -a})
            poly = poly * (math.prod([line] * rng.randint(1, 3), start=one)
                           - BPoly(QQ, {(0, rng.randint(1, 5)): c}))
        want = _q_trace(poly)
        errors += isinstance(want, str)
        as_fractions = BPoly(QQ, {e: Fraction(c) for e, c in poly.terms.items()})
        assert _q_trace(as_fractions) == want, poly.fmt()
        for unit in (2, -3, Fraction(5, 7)):
            assert _q_trace(poly.scale(unit)) == want, (unit, poly.fmt())
    assert 0 < errors < 100  # irrational singular points raise alike


def _family_product(fld, a, b, m, n, c, k, e1, e2):
    # x^a t^b (x^m - t^n) after x -> x + c t^k, times the unit 1 + e1 x + e2 t
    xc = BPoly(fld, {(1, 0): fld.one, (0, k): fld.from_int(c)})
    one = BPoly.constant(fld, fld.one)
    poly = math.prod([xc] * m, start=one) - BPoly(fld, {(0, n): fld.one})
    poly = poly * math.prod([xc] * a, start=BPoly(fld, {(0, b): fld.one}))
    unit = {(0, 0): fld.one, (1, 0): fld.from_int(e1), (0, 1): fld.from_int(e2)}
    return poly * BPoly(fld, unit)


def test_integral_q_germs_resolve_on_ints(monkeypatch):
    # A Q value is an int when it is integral, so a germ whose reduced part
    # and centres are integral reaches every blow-up with int coefficients.
    # Germs with a centre such as tau = -1/2, or a reduced part scaled by
    # 1/3, rightly carry Fractions and are left out.
    seen = []
    sites = covergeo.resolution._sites_on_exceptional

    def spy(poly, m, flags):
        seen.extend(poly.terms.values())
        return sites(poly, m, flags)

    monkeypatch.setattr(covergeo.resolution, "_sites_on_exceptional", spy)
    pairs = [(m, n) for m in range(1, 8) for n in range(1, 8) if math.gcd(m, n) == 1]
    shifts = ((0, 1), (1, 1), (2, 1), (1, 2), (3, 2))
    units = ((0, 0), (1, 2), (3, 1))
    kept = coefficients = 0
    for a, b, (m, n), (c, k), (e1, e2) in itertools.product((0, 1), (0, 1), pairs,
                                                            shifts, units):
        seen.clear()
        poly = _family_product(QQ, a, b, m, n, c, k, e1, e2)
        trace = canonical_resolution(BranchGerm(poly))
        if (any(Fraction(v).denominator > 1 for v in trace.reduced.poly.terms.values())
                or any("/" in step.center for step in trace.steps)):
            continue
        kept += 1
        coefficients += len(seen)
        assert all(type(v) is int for v in seen), poly.fmt()
    assert (kept, coefficients) == (1204, 84238)


# -- invariants and properties ------------------------------------------------

SAMPLE_GERMS = [
    "x*t*(x-t)",
    "x^5-t^4",
    "(x^2-t^3)*(x^2+t^3)",
    "x*t*(x^3-t^2)",
    "(x-t)*(x+t)*(x-2*t)*t",
    "x^7-t^5",
    "x*(x^2-t^5)",
    "t*(x^4-t^3)*(x-t)",
    "(x^2-t^2)*(x^3-t^2)",
    "x^6-x*t^5",
    "x^9-t^7",
    "t*(x^5-t^3)",
    "x*(x^4-t^7)",
    "(x-t^2)*(x-t^3)",
    "x^8-t^3",
    "(x^3-t^2)*(x^2-t^3)",
    "x*t*(x^2-t^5)",
    "x^4-t^11",
    "t*(x^3-t^4)*(x+t)",
    "x^10-t^9",
]


def test_order_independence_of_totals():
    # swapping x and t reorders the sites on each exceptional line
    for expr in SAMPLE_GERMS:
        for spec in ("Q", "F13"):
            g = germ(expr, spec)
            fld = g.field
            swapped = BranchGerm(_substitute(g.poly, BPoly.var_t(fld), BPoly.var_x(fld)))
            forward = canonical_resolution(g)
            backward = canonical_resolution(swapped)
            assert (forward.xi, forward.k2_defect) == (
                backward.xi,
                backward.k2_defect,
            ), (expr, spec)


def test_determinism():
    for expr in SAMPLE_GERMS[:6]:
        a = canonical_resolution(germ(expr, "F13"))
        b = canonical_resolution(germ(expr, "F13"))
        assert a == b


def test_characteristic_independence_on_family():
    for m in range(1, 9):
        for n in range(1, 9):
            if math.gcd(m, n) != 1:
                continue
            for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
                seqs = []
                for fld in (QQ, prime_field(11), prime_field(13)):
                    if fld.char and fld.char <= max(m, n):
                        continue
                    trace = canonical_resolution(family_germ(fld, a, b, m, n))
                    seqs.append(
                        sorted((s.multiplicity, s.half) for s in trace.steps)
                    )
                assert len({tuple(map(tuple, s)) for s in map(tuple, seqs)}) <= 1


def test_family_oracle_small():
    for m in range(1, 9):
        for n in range(1, 9):
            if math.gcd(m, n) != 1:
                continue
            for a, b in ((0, 0), (1, 1)):
                expected = xi_family(a, b, m, n)
                assert canonical_resolution(
                    family_germ(QQ, a, b, m, n)
                ).xi == expected
                assert canonical_resolution(
                    family_germ(prime_field(11), a, b, m, n)
                ).xi == expected
