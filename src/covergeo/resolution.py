"""Canonical resolution of a double-cover branch germ at the origin.

The input is an effective divisor germ div(f) in local coordinates (x, t)
over Q or F_{p^k} with p odd.  The cover is first normalized, splitting the
branch as a reduced part plus twice an even part; the reduced part is then
resolved by iterated point blow-ups.  A blow-up at a point of multiplicity m
replaces the branch by its strict transform plus (m mod 2) copies of the
exceptional line, and contributes

    (l^2 - l)/2   to the chi drop,      l = floor(m/2),
    2 (l - 1)^2   to the K^2 drop.

The sum of the chi contributions over all blow-ups lying above the origin is
the singularity invariant xi of the germ.

Only singular points on the exceptional line need the field to contain
them.  One that is not rational over F_{p^k} is handled by extending to the
canonical field containing it, with k at most MAX_EXTENSION_DEGREE
(ExtensionDegreeError beyond); it stands for its orbit of conjugates, so its
subtree is counted with multiplicity (``copies``).  Over Q such points would
require number-field arithmetic and raise ``IrrationalPointError`` instead.
"""

from __future__ import annotations

from collections import namedtuple

from .fields import (
    DEFAULT_DEPTH_LIMIT,
    MAX_EXTENSION_DEGREE,
    ExtensionDegreeError,
    IrrationalPointError,
    ResolutionDepthError,
    extension_field,
)
from .polynomials import (
    BPoly,
    UPoly,
    b_squarefree,
    extension_embedding,
    u_factor,
    u_rational_roots,
    u_roots,
    ugcd,
)

NEGLIGIBLE_FIRST = "first_kind"
NEGLIGIBLE_SECOND = "second_kind"
NOT_NEGLIGIBLE = "not_negligible"


class BranchGerm(namedtuple("BranchGerm", "poly")):
    """A nonzero branch equation in the local variables (x, t)."""

    __slots__ = ()

    def __new__(cls, poly: BPoly):
        if poly.is_zero():
            raise ValueError("branch germ must be a nonzero polynomial")
        return super().__new__(cls, poly)

    @property
    def field(self):
        return self.poly.field


def normalize_branch(germ: BranchGerm) -> tuple[BranchGerm, BranchGerm]:
    """Split div(f) = B1 + 2*B0 with B1 reduced: returns (B1, B0).

    B1 collects the odd-multiplicity squarefree parts, B0 everything that can
    be pulled out of the cover by normalization.  Either part may be the unit
    germ 1.  Both come out normalized with no scaling: the parts are, and the
    lexicographically greatest monomial of a product is the product of those
    of its factors.
    """
    b1 = b0 = None
    for part, e in b_squarefree(germ.poly):
        if e % 2:
            b1 = part if b1 is None else b1 * part
        for _ in range(e // 2):
            b0 = part if b0 is None else b0 * part
    one = BPoly.constant(germ.field, germ.field.one)
    return BranchGerm(one if b1 is None else b1), BranchGerm(one if b0 is None else b0)


SingularSite = namedtuple("SingularSite", [
    "chart",  # "x" (x = x, t = x*t) or "t" (x = x*t, t = t)
    "location",  # printed coordinate of the center on the exceptional line
    "germ",  # BPoly: branch re-centered at the point (field may be larger)
    "copies",  # number of conjugate points this representative stands for
    "multiplicity",  # of the germ at the point, >= 2
    "flags",  # whether x = 0 and t = 0 through the point are exceptional
])

# singular_sites: a tuple of SingularSite
BlowupResult = namedtuple("BlowupResult", "multiplicity half singular_sites")


class BlowupStep(namedtuple("BlowupStep", "index center multiplicity half copies")):
    __slots__ = ()

    @property
    def chi_drop_each(self) -> int:
        return (self.half * self.half - self.half) // 2

    @property
    def k2_drop_each(self) -> int:
        return 2 * (self.half - 1) ** 2


class ResolutionTrace(namedtuple("ResolutionTrace", [
    "reduced",  # BranchGerm B1 of normalize_branch
    "even_part",  # BranchGerm B0 of normalize_branch
    "steps",  # tuple of BlowupStep
    "xi",  # = the chi drop, sum of (l^2 - l)/2 over all blow-ups
    "k2_defect",  # = sum of 2(l-1)^2 over all blow-ups
    "negligible",
])):
    __slots__ = ()

    def recompute_totals(self) -> tuple[int, int]:
        xi = sum(s.copies * s.chi_drop_each for s in self.steps)
        k2 = sum(s.copies * s.k2_drop_each for s in self.steps)
        return xi, k2


def blowup_once(germ: BranchGerm) -> BlowupResult:
    """Blow up the origin of a reduced branch germ of multiplicity >= 2.

    Returns the multiplicity, its half and the singular points of the branch
    of the normalized pulled-back cover on the exceptional line, re-centered
    and ready for further blow-ups.

    The germ is checked to be reduced here (ValueError otherwise); the sites
    returned are reduced again, so blowing them up needs no new check.
    """
    _require_reduced(normalize_branch(germ)[1])
    m = germ.poly.total_valuation()
    if m < 2:
        raise ValueError("blow-up center must be a singular point (mult >= 2)")
    sites, _ = _sites_on_exceptional(germ.poly, m, (False, False))
    return BlowupResult(m, m // 2, tuple(sites))


def _chart(poly: BPoly, name: str, e: int) -> BPoly:
    """The pull-back of ``poly`` to chart ``name`` over the e-th power of
    the line's variable: e = m gives the strict transform, e = m - 1 at odd
    m the branch, which adds the line once more."""
    # Chart "x" maps the monomial x^i t^j to x^(i+j) t^j and chart "t" to
    # x^i t^(i+j).  Both maps are injective, so no two terms meet and every
    # coefficient is one of ``poly``, nonzero: the chart adopts its dict.
    if name == "x":
        terms = {(i + j - e, j): c for (i, j), c in poly.terms.items()}
    else:
        terms = {(i, i + j - e): c for (i, j), c in poly.terms.items()}
    return BPoly._adopt(poly.field, terms)


def _require_reduced(even_part: BranchGerm) -> None:
    # a germ is reduced exactly when the even part of normalize_branch is 1
    if not even_part.poly.is_constant():
        raise ValueError(
            "branch is not reduced; normalize_branch must be applied first"
        )


def _sites_on_exceptional(poly: BPoly, m: int, flags: tuple[bool, bool]):
    """Singular points on the exceptional line of the blow-up of ``poly``
    at the origin, where it has multiplicity m, and the number of branch
    ends on the line.  Each site comes as a SingularSite.

    Chart "x" sees every point of the line except the origin of chart "t";
    candidates are the zeros of the strict transform restricted to the line,
    taken a factor at a time.  At even m a simple factor is a transversal
    crossing of the branch, so its points are regular wherever they lie;
    only the other points are re-centred, over the field containing them.
    ``flags`` say whether the lines x = 0 and t = 0 through the blown-up
    point are exceptional.  At a site the new line is flagged, and the old
    line through it (t = 0 at tau = 0 in chart "x", x = 0 at the origin of
    chart "t") keeps its flag.  A branch end is a regular point of the branch
    where the strict transform meets the line, off the old lines; each
    conjugate counts.

    Skipping ends on old lines loses no smooth branch: a smooth branch
    meets each exceptional line transversally, so it never leaves at the
    crossing of two of them.  A germ with a singular branch has fewer
    branches than its multiplicity, so a lower count leaves its class as it
    is.

    Everything but a re-centred site is read off the terms of ``poly``, and
    a chart is built only to re-centre a site in it.  The germ is reduced,
    and so is each branch: x does not divide the chart "x" strict transform
    (its restriction to x = 0 is the nonzero tangent cone), the same holds
    for t in chart "t", and translating or extending the field (all fields
    here are perfect) keeps a polynomial squarefree.
    """
    fld = poly.field
    terms = poly.terms
    on_x, on_t = flags
    odd = m % 2  # the branch contains the line
    # the strict transform on the line x = 0 of chart "x": the tangent cone,
    # sum of c t^j over the terms c x^i t^j with i + j = m, never empty
    cone = {j: c for (i, j), c in terms.items() if i + j == m}
    # each factor is (tau, 1, simple) at a rational point, else
    # (factor, degree, simple)
    if len(cone) == 1:
        # a monomial c*t^v vanishes on the line only at tau = 0
        (v,) = cone
        factors = [(fld.zero, 1, v == 1)] if v else []
    else:
        line = UPoly._adopt(fld, [cone.get(j, fld.zero) for j in range(max(cone) + 1)])
        if fld.char:
            factors = [(fld.neg(irr.coeffs[0]) if irr.degree == 1 else irr,
                        irr.degree, e == 1)
                       for irr, e in u_factor(line)[1]]
        else:
            roots, cofactor = u_rational_roots(line)
            factors = [(tau, 1, e == 1) for tau, e in roots]
            if not cofactor.is_constant():
                simple = ugcd(cofactor, cofactor.deriv()).is_constant()
                factors.append((cofactor, cofactor.degree, simple))
    sites: list[SingularSite] = []
    ends = 0
    branch_x = None
    for tau, degree, simple in factors:
        old = on_t and degree == 1 and not tau
        if simple and not odd:
            # a transversal crossing of the branch: its points are regular
            if not old:
                ends += degree
            continue
        if branch_x is None:
            branch_x = _chart(poly, "x", m - odd)
        if degree == 1:
            local, label = branch_x.translate_t(tau), fld.fmt(tau)
        elif not fld.char:
            if odd:
                raise IrrationalPointError(
                    "singular point with irrational coordinates; rerun over a "
                    "finite field, extensions of Q are not supported"
                )
            raise IrrationalPointError(
                "multiple branch point with irrational coordinates; rerun "
                "over a finite field, extensions of Q are not supported"
            )
        elif fld.k * degree > MAX_EXTENSION_DEGREE:
            raise ExtensionDegreeError(
                f"conjugate points need F{fld.p}^{fld.k * degree}, past "
                f"the extension degree bound {MAX_EXTENSION_DEGREE}"
            )
        else:
            big = extension_field(fld.p, fld.k * degree)
            embed = extension_embedding(fld, big)
            tau = u_roots(UPoly(big, [embed(c) for c in tau.coeffs]))[0]
            local = branch_x.map_to(big, embed).translate_t(tau)
            label = f"{big.fmt(tau)} in {big.name}"
        mult = local.total_valuation()
        if mult >= 2:
            sites.append(SingularSite("x", label, local, degree, mult, (True, old)))
        elif not old:
            ends += degree
    # origin of chart "t" = the one direction chart "x" misses; there the
    # branch x^i t^(i+j-m+odd) has multiplicity min(2i + j) - m + odd, and
    # the strict transform x^i t^(i+j-m) meets the line iff it has no
    # constant term, i.e. iff t^m is not a term of ``poly``
    mult = min(2 * i + j for i, j in terms) - m + odd
    if mult >= 2:
        sites.append(SingularSite("t", "0", _chart(poly, "t", m - odd), 1, mult, (on_x, True)))
    elif (0, m) not in terms and not on_x:
        ends += 1
    return sites, ends


# A germ of multiplicity m is a union of m smooth branches iff it has m
# formal branches.  The walk counts them at their ends: each branch passes
# through a chain of blown-up points and leaves the last exceptional line it
# meets at a point that is not blown up, where the branch divisor is regular
# and so carries that branch alone.  The flags on each stack entry mark the
# exceptional lines through its point; no end on them is counted, which keeps
# the exceptional lines of the branch divisor out of the count.

def canonical_resolution(germ: BranchGerm, *,
                         depth_limit: int = DEFAULT_DEPTH_LIMIT) -> ResolutionTrace:
    """Resolve the branch germ at the origin and collect the invariants.

    The branch is normalized first; blow-ups then continue until the branch
    divisor is regular above the origin.  Point choice is deterministic
    (chart "x" points in coordinate order, then the chart "t" origin, depth
    first); totals do not depend on the order.  Reducedness is established
    once, by normalization; blow-ups keep it, so it is not checked again.

    The blow-up tree is walked once, from an explicit stack, so the only
    limit on its depth is ``depth_limit``: at most that many blow-ups
    (ResolutionDepthError beyond, naming the first centre left unresolved).
    A singular point that needs F_{p^k} with k > MAX_EXTENSION_DEGREE raises
    ExtensionDegreeError, naming the centre blown up; regular points need no
    field.  The negligible class is read off the same walk.  The trace holds
    germs and numbers; nothing here formats a polynomial.
    """
    b1, b0 = normalize_branch(germ)
    m = b1.poly.total_valuation()
    steps: list[BlowupStep] = []
    branches = directions = 0
    # (germ, multiplicity, centre, copies, flags), flags as in SingularSite
    stack = [(b1.poly, m, "origin", 1, (False, False))] if m >= 2 else []
    while stack:
        poly, mult, center, copies, flags = stack.pop()
        if len(steps) >= depth_limit:
            raise ResolutionDepthError(
                f"resolution depth exceeded ({depth_limit} blow-ups) "
                f"(blow-up centre: {center})"
            )
        try:
            sites, ends = _sites_on_exceptional(poly, mult, flags)
        except ExtensionDegreeError as exc:
            raise ExtensionDegreeError(f"{exc} (blow-up centre: {center})") from None
        if not steps:
            # tangent directions; at odd m every one of them is a site
            directions = sum(site.copies for site in sites)
        steps.append(BlowupStep(
            index=len(steps),
            center=center,
            multiplicity=mult,
            half=mult // 2,
            copies=copies,
        ))
        branches += copies * ends
        # pushed in reverse, so the sites are blown up depth first in order
        for site in reversed(sites):
            label = f"{center} -> chart {site.chart} @ {site.location}"
            stack.append((site.germ, site.multiplicity, label,
                          copies * site.copies, site.flags))
    if m == 2 and branches == 2:
        negligible = NEGLIGIBLE_FIRST
    elif m == 3 and branches == 3 and directions >= 2:
        negligible = NEGLIGIBLE_SECOND
    else:
        negligible = NOT_NEGLIGIBLE
    return ResolutionTrace(
        reduced=b1,
        even_part=b0,
        steps=tuple(steps),
        xi=sum(s.copies * s.chi_drop_each for s in steps),
        k2_defect=sum(s.copies * s.k2_drop_each for s in steps),
        negligible=negligible,
    )


def is_negligible(germ: BranchGerm, *, depth_limit: int = DEFAULT_DEPTH_LIMIT) -> str:
    """Classify the germ: union of two smooth branches (first kind), union of
    three smooth branches not all mutually tangent (second kind), or neither.

    The germ must be reduced; this is checked here (ValueError otherwise).
    A germ of multiplicity 2 or 3 is resolved by ``canonical_resolution``
    and raises what that raises: ResolutionDepthError beyond ``depth_limit``
    blow-ups, and IrrationalPointError over Q for a germ of multiplicity 3
    with irrational tangents.  Its reducedness is read off the walk's own
    normalization: a non-reduced germ of multiplicity 2 or 3 has a reduced
    part of multiplicity at most 1, so nothing is blown up before the check.
    """
    if germ.poly.total_valuation() not in (2, 3):
        _require_reduced(normalize_branch(germ)[1])
        return NOT_NEGLIGIBLE
    trace = canonical_resolution(germ, depth_limit=depth_limit)
    _require_reduced(trace.even_part)
    return trace.negligible
