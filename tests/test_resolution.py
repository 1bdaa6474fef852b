import math
import random

import pytest

from covergeo.fields import QQ, prime_field
from covergeo.parsing import parse_field_spec, parse_polynomial
from covergeo.polynomials import BPoly, b_squarefree
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
    multiplicity_at_origin,
    normalize_branch,
)
from covergeo.xi import xi_family


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
    assert multiplicity_at_origin(germ("x^3 - t^2")) == 2
    assert multiplicity_at_origin(germ("x^5 - t^4")) == 4
    assert multiplicity_at_origin(germ("x*t*(x-t)")) == 3


def test_multiplicity_zero_equation():
    with pytest.raises(ValueError):
        BranchGerm(BPoly.zero(QQ))


# -- normalization -----------------------------------------------------------

def test_normalize_monomial_parity():
    b1, b0 = normalize_branch(germ("x^2*t^3"))
    assert b1.fmt() == "t"
    assert b0.fmt() == "x*t"


def test_normalize_squarefree_input():
    b1, b0 = normalize_branch(germ("x^5 - t^4", "F5"))
    assert b1.fmt() == "x^5 + 4*t^4"
    assert b0.poly.is_constant()


def test_normalize_mixed():
    b1, b0 = normalize_branch(germ("(x-t)^2*(x+t)", "F7"))
    assert b1.fmt() == "x + t"
    assert b0.fmt() == "x + 6*t"


# -- single blow-up ----------------------------------------------------------

def test_blowup_quartic():
    result = blowup_once(germ("x^5 - t^4"))
    assert (result.multiplicity, result.half) == (4, 2)
    by_name = {c.name: c for c in result.charts}
    # chart with exceptional line x = 0 carries the strict transform x - t^4
    assert by_name["x"].strict.fmt() == "x - t^4"
    assert by_name["x"].branch == by_name["x"].strict  # even multiplicity
    # the other chart misses the origin entirely
    assert by_name["t"].strict.eval_origin() != QQ.zero
    assert result.singular_sites == ()


def test_blowup_normal_crossing():
    result = blowup_once(germ("x*t"))
    assert (result.multiplicity, result.half) == (2, 1)
    by_name = {c.name: c for c in result.charts}
    assert by_name["x"].branch.fmt() == "t"
    assert by_name["t"].branch.fmt() == "x"
    assert result.singular_sites == ()  # both lines now regular and disjoint


def test_blowup_cusp():
    result = blowup_once(germ("x^3 - t^2"))
    assert (result.multiplicity, result.half) == (2, 1)
    by_name = {c.name: c for c in result.charts}
    assert by_name["x"].strict.fmt() == "x - t^2"
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
    assert trace.chi_defect == 0


def test_resolution_quartic():
    trace = canonical_resolution(germ("x^5 - t^4"))
    assert trace.xi == 1
    assert trace.k2_defect == 2
    assert [(s.multiplicity, s.half) for s in trace.steps] == [(4, 2)]
    assert trace.chi_defect == -1


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
    assert trace.reduced_equation == "x + 4*t"
    assert trace.even_part_equation == "x^2 + 3*x*t + t^2"


def test_resolution_depth_guard():
    with pytest.raises(ResolutionDepthError, match="depth exceeded"):
        canonical_resolution(germ("x*t*(x-t)"), depth_limit=2)


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


def test_resolution_wild_branch():
    # x*(x^5 - (t^5 + t^6)) over F_5: wild pole shape with j=1, R=5
    trace = canonical_resolution(germ("x*(x^5 - t^5 - t^6)", "F5"))
    assert trace.xi == 3


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
    from covergeo.fields import extension_field

    f25 = extension_field(5, 2)
    gen = BPoly.constant(f25, f25.decode(5))  # non-square in F_25
    x, t = BPoly.var_x(f25), BPoly.var_t(f25)
    g = BranchGerm(t * (x * x - gen * t * t))
    trace = canonical_resolution(g)
    assert trace.xi == 0
    assert sorted(s.copies for s in trace.steps) == [1, 1, 2]
    assert any("F625" in s.center for s in trace.steps)
    assert is_negligible(g) == NEGLIGIBLE_SECOND


def test_trace_totals_recompute():
    trace = canonical_resolution(germ("x*t*(x^3-t^2)", "F7"))
    assert trace.recompute_totals() == (trace.xi, trace.k2_defect)
    assert trace.chi_defect == -trace.xi


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
    with pytest.raises(ValueError, match="reduced"):
        is_negligible(germ("x^2*t"))


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
    if b1.poly.eval_origin() != fld.zero or b1.poly.total_valuation() < 2:
        return None
    return b1


def _degree(poly):
    return max(i + j for i, j in poly.terms)


def _is_reduced(poly):
    return all(e == 1 for _, e in b_squarefree(poly))


def _walk_sites(germ_, depth):
    """Blow up the germ and every singular site above it; returns the number
    of re-centred germs seen, asserting that each is reduced."""
    assert depth < 64
    seen = 0
    for site in blowup_once(germ_).singular_sites:
        assert _is_reduced(site.germ.poly), (germ_.fmt(), site.location)
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
        sites += _walk_sites(b1, 0)
        germs += 1
    assert sites > 0


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
    for expr in SAMPLE_GERMS:
        for spec in ("Q", "F13"):
            g = germ(expr, spec)
            forward = canonical_resolution(g, point_order="canonical")
            backward = canonical_resolution(g, point_order="reversed")
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
