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

Singular points living on the exceptional line but not rational over the
current coefficient field are handled by extending F_{p^k} to the canonical
field containing them; each representative point stands for its full orbit
of conjugates, so its subtree is counted with multiplicity (``copies``).
Over Q such points would require number-field arithmetic and raise
``IrrationalPointError`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import QQ
from .polynomials import (
    BPoly,
    UPoly,
    b_normalize,
    b_squarefree,
    extension_embedding,
    splitting_extension,
    u_factor,
    u_rational_roots,
    u_roots,
    ugcd,
)

DEFAULT_DEPTH_LIMIT = 256

NEGLIGIBLE_FIRST = "first_kind"
NEGLIGIBLE_SECOND = "second_kind"
NOT_NEGLIGIBLE = "not_negligible"


class ResolutionDepthError(RuntimeError):
    pass


class IrrationalPointError(ValueError):
    """A singular point on the exceptional line is not rational over Q."""


@dataclass(frozen=True)
class BranchGerm:
    """A nonzero branch equation in the local variables (x, t)."""

    poly: BPoly

    def __post_init__(self):
        if self.poly.is_zero():
            raise ValueError("branch germ must be a nonzero polynomial")

    @property
    def field(self):
        return self.poly.field

    def fmt(self) -> str:
        return self.poly.fmt()


def multiplicity_at_origin(germ: BranchGerm | BPoly) -> int:
    poly = germ.poly if isinstance(germ, BranchGerm) else germ
    if poly.is_zero():
        raise ValueError("zero equation has no multiplicity")
    return poly.total_valuation()


def normalize_branch(germ: BranchGerm) -> tuple[BranchGerm, BranchGerm]:
    """Split div(f) = B1 + 2*B0 with B1 reduced: returns (B1, B0).

    B1 collects the odd-multiplicity squarefree parts, B0 everything that can
    be pulled out of the cover by normalization.  Either part may be the unit
    germ 1.
    """
    poly = germ.poly
    fld = poly.field
    b1 = BPoly.constant(fld, fld.one)
    b0 = BPoly.constant(fld, fld.one)
    for part, e in b_squarefree(poly):
        if e % 2:
            b1 = b1 * part
        for _ in range(e // 2):
            b0 = b0 * part
    return BranchGerm(b_normalize(b1)), BranchGerm(b_normalize(b0))


@dataclass(frozen=True)
class BlowupChart:
    name: str  # "x" or "t"
    substitution: str
    strict: BPoly
    branch: BPoly


@dataclass(frozen=True)
class SingularSite:
    chart: str
    location: str  # printed coordinate of the center on the exceptional line
    germ: BranchGerm  # branch re-centered at the point (field may be larger)
    multiplicity: int
    copies: int  # number of conjugate points this representative stands for


@dataclass(frozen=True)
class BlowupResult:
    multiplicity: int
    half: int
    charts: tuple[BlowupChart, BlowupChart]
    singular_sites: tuple[SingularSite, ...]


@dataclass(frozen=True)
class BlowupStep:
    index: int
    center: str
    multiplicity: int
    half: int
    copies: int
    chart_branches: tuple[str, str]

    @property
    def chi_drop_each(self) -> int:
        return (self.half * self.half - self.half) // 2

    @property
    def k2_drop_each(self) -> int:
        return 2 * (self.half - 1) ** 2


@dataclass(frozen=True)
class ResolutionTrace:
    field_name: str
    input_equation: str
    reduced_equation: str
    even_part_equation: str
    steps: tuple[BlowupStep, ...]
    xi: int
    chi_defect: int  # = -xi
    k2_defect: int  # = sum of 2(l-1)^2 over all blow-ups
    negligible: str

    def recompute_totals(self) -> tuple[int, int]:
        xi = sum(s.copies * s.chi_drop_each for s in self.steps)
        k2 = sum(s.copies * s.k2_drop_each for s in self.steps)
        return xi, k2


def blowup_once(germ: BranchGerm, multiplicity: int | None = None, *,
                point_order: str = "canonical") -> BlowupResult:
    """Blow up the origin of a reduced branch germ of multiplicity >= 2.

    Returns both standard charts (chart "x": x = x, t = x*t with exceptional
    line x = 0; chart "t": x = x*t, t = t with exceptional line t = 0), the
    branch of the normalized pulled-back cover in each, and the singular
    points of that branch on the exceptional line, re-centered and ready for
    further blow-ups.

    The germ is checked to be reduced here (ValueError otherwise); the sites
    returned are reduced again, so blowing them up needs no new check.
    """
    _require_reduced(germ.poly)
    return _blowup(germ, multiplicity, point_order)


def _blowup(germ: BranchGerm, multiplicity: int | None,
            point_order: str) -> BlowupResult:
    # The germ is reduced.  So is each branch built here: x does not divide
    # strict_x (its restriction to x = 0 is the nonzero tangent cone), the
    # same holds for t and strict_t, and translating or extending the field
    # (all fields here are perfect) keeps a polynomial squarefree.
    poly = germ.poly
    m = poly.total_valuation()
    if multiplicity is not None and multiplicity != m:
        raise ValueError(f"stated multiplicity {multiplicity} != actual {m}")
    if m < 2:
        raise ValueError("blow-up center must be a singular point (mult >= 2)")
    fld = poly.field
    parity = m % 2

    strict_x = poly.subst_x_xt().divide_x_power(m)
    branch_x = strict_x
    if parity:
        branch_x = branch_x * BPoly.var_x(fld)
    strict_t = poly.subst_xt_t().divide_t_power(m)
    branch_t = strict_t
    if parity:
        branch_t = branch_t * BPoly.var_t(fld)

    charts = (
        BlowupChart("x", "x=x, t=x*t", strict_x, branch_x),
        BlowupChart("t", "x=x*t, t=t", strict_t, branch_t),
    )
    sites = _sites_on_exceptional(strict_x, branch_x, branch_t)
    if point_order == "reversed":
        sites = tuple(reversed(sites))
    elif point_order != "canonical":
        raise ValueError(f"unknown point order {point_order!r}")
    return BlowupResult(m, m // 2, charts, tuple(sites))


def _require_reduced(poly: BPoly) -> None:
    parts = b_squarefree(poly)
    if any(e > 1 for _, e in parts):
        raise ValueError(
            "branch is not reduced; normalize_branch must be applied first"
        )


def _sites_on_exceptional(strict_x: BPoly, branch_x: BPoly,
                          branch_t: BPoly) -> list[SingularSite]:
    """Singular points of the new branch lying on the exceptional line.

    Chart "x" sees every point of the line except the origin of chart "t";
    candidates are the zeros of the strict transform restricted to the line.
    """
    fld = strict_x.field
    sites: list[SingularSite] = []
    restriction = strict_x.restrict_x0()  # never zero: x does not divide strict_x
    if fld.char == 0:
        sites.extend(_rational_sites(restriction, branch_x))
    else:
        sites.extend(_finite_field_sites(restriction, branch_x))
    # origin of chart "t" = the one direction chart "x" misses
    if branch_t.eval_origin() == fld.zero:
        mult = branch_t.total_valuation()
        if mult >= 2:
            sites.append(
                SingularSite("t", "0", BranchGerm(branch_t), mult, 1)
            )
    return sites


def _finite_field_sites(restriction: UPoly, branch: BPoly) -> list[SingularSite]:
    fld = branch.field
    sites = []
    _, factors = u_factor(restriction)
    for irr, _mult in factors:
        if irr.degree == 1:
            tau = fld.neg(irr.coeffs[0])
            local = branch.translate_t(tau)
            copies = 1
            label = fld.fmt(tau)
        else:
            big = splitting_extension(fld, irr.degree)
            embed = extension_embedding(fld, big)
            irr_big = UPoly(big, [embed(c) for c in irr.coeffs])
            tau = u_roots(irr_big)[0]
            local = branch.map_to(big, embed).translate_t(tau)
            copies = irr.degree
            label = f"{big.fmt(tau)} in {big.name}"
        mult = 0 if local.eval_origin() != local.field.zero else local.total_valuation()
        if mult >= 2:
            sites.append(SingularSite("x", label, BranchGerm(local), mult, copies))
    return sites


def _rational_sites(restriction: UPoly, branch: BPoly) -> list[SingularSite]:
    roots, cofactor = u_rational_roots(restriction)
    exceptional_in_branch = branch.x_valuation() > 0
    if not cofactor.is_constant():
        if exceptional_in_branch:
            # every intersection with the line is singular, including the
            # irrational ones we cannot re-center over Q
            raise IrrationalPointError(
                "singular point with irrational coordinates; rerun over a "
                "finite field, extensions of Q are not supported"
            )
        if not ugcd(cofactor, cofactor.deriv()).is_constant():
            raise IrrationalPointError(
                "multiple branch point with irrational coordinates; rerun "
                "over a finite field, extensions of Q are not supported"
            )
    sites = []
    for tau, _mult in roots:
        local = branch.translate_t(tau)
        mult = 0 if local.eval_origin() != QQ.zero else local.total_valuation()
        if mult >= 2:
            sites.append(SingularSite("x", str(tau), BranchGerm(local), mult, 1))
    return sites


def canonical_resolution(germ: BranchGerm, *, depth_limit: int = DEFAULT_DEPTH_LIMIT,
                         point_order: str = "canonical") -> ResolutionTrace:
    """Resolve the branch germ at the origin and collect the invariants.

    The branch is normalized first; blow-ups then continue until the branch
    divisor is regular above the origin.  Point choice is deterministic
    (chart "x" points in coordinate order, then the chart "t" origin, depth
    first); totals do not depend on the order.  Reducedness is established
    once, by normalization; blow-ups keep it, so it is not checked again.
    """
    b1, b0 = normalize_branch(germ)
    steps: list[BlowupStep] = []
    poly = b1.poly
    negligible = NOT_NEGLIGIBLE
    if (
        not poly.is_constant()
        and poly.eval_origin() == poly.field.zero
        and poly.total_valuation() >= 2
    ):
        negligible = _classify(poly, depth_limit)
        _resolve(b1, "origin", 1, steps, depth_limit, point_order)
    xi = sum(s.copies * s.chi_drop_each for s in steps)
    k2 = sum(s.copies * s.k2_drop_each for s in steps)
    return ResolutionTrace(
        field_name=germ.field.name,
        input_equation=germ.fmt(),
        reduced_equation=b1.fmt(),
        even_part_equation=b0.fmt(),
        steps=tuple(steps),
        xi=xi,
        chi_defect=-xi,
        k2_defect=k2,
        negligible=negligible,
    )


def _resolve(germ: BranchGerm, center: str, copies: int,
             steps: list[BlowupStep], depth_limit: int, point_order: str) -> None:
    if len(steps) >= depth_limit:
        raise ResolutionDepthError(
            f"resolution depth exceeded ({depth_limit} blow-ups)"
        )
    result = _blowup(germ, None, point_order)
    steps.append(
        BlowupStep(
            index=len(steps),
            center=center,
            multiplicity=result.multiplicity,
            half=result.half,
            copies=copies,
            chart_branches=tuple(c.branch.fmt() for c in result.charts),
        )
    )
    for site in result.singular_sites:
        label = f"{center} -> chart {site.chart} @ {site.location}"
        _resolve(site.germ, label, copies * site.copies, steps, depth_limit,
                 point_order)


# ---------------------------------------------------------------------------
# Negligible singularity classification via formal branch analysis.
#
# A reduced germ is split into formal branches by following strict transforms
# through blow-ups.  For each branch we compute its intersection numbers with
# the two coordinate lines; the minimum of the two is the multiplicity of the
# branch at the origin (some coordinate line is transversal to it), so the
# branch is smooth iff that minimum is 1.  Tangent directions come from the
# position of the branch on the first exceptional line.

_INF = 10**9  # sentinel contact for a branch equal to the reference line


def is_negligible(germ: BranchGerm, *, depth_limit: int = DEFAULT_DEPTH_LIMIT) -> str:
    """Classify the germ: union of two smooth branches (first kind), union of
    three smooth branches not all mutually tangent (second kind), or neither.

    The germ must be reduced; this is checked here (ValueError otherwise).
    """
    _require_reduced(germ.poly)
    return _classify(germ.poly, depth_limit)


def _classify(poly: BPoly, depth_limit: int) -> str:
    # poly is reduced: is_negligible checks it, canonical_resolution gets it
    # from normalize_branch
    if poly.is_constant() or poly.eval_origin() != poly.field.zero:
        return NOT_NEGLIGIBLE
    m = poly.total_valuation()
    if m not in (2, 3):
        return NOT_NEGLIGIBLE
    branches = _axis_contacts(poly, [depth_limit])
    if len(branches) != m:
        return NOT_NEGLIGIBLE  # some branch is singular
    if m == 2:
        return NEGLIGIBLE_FIRST
    directions = {d for _, _, d in branches}
    return NEGLIGIBLE_SECOND if len(directions) >= 2 else NOT_NEGLIGIBLE


def _axis_contacts(poly: BPoly, budget: list[int]) -> list[tuple[int, int, tuple]]:
    """Formal branches of a reduced germ through the origin.

    Returns one record (cx, ct, direction) per branch, where cx and ct are
    the intersection numbers with the lines {x = 0} and {t = 0} (the sentinel
    _INF when the branch is that line), and direction tags the tangent
    direction as a point of the first exceptional line.
    """
    if budget[0] <= 0:
        raise ResolutionDepthError("branch analysis depth exceeded")
    budget[0] -= 1
    fld = poly.field
    out: list[tuple[int, int, tuple]] = []
    a = poly.x_valuation()
    b = poly.t_valuation()
    w = poly
    if a:
        w = w.divide_x_power(a)
        out.append((_INF, 1, ("inf",)))
    if b:
        w = w.divide_t_power(b)
        out.append((1, _INF, ("fin", fld.name, 0, 0)))
    if w.is_constant() or w.eval_origin() != fld.zero:
        return out
    m = w.total_valuation()
    if m == 1:
        cx = w.restrict_x0().valuation()
        ct = w.restrict_t0().valuation()
        out.append((cx, ct, _smooth_direction(w, cx, ct)))
        return out
    strict_x = w.subst_x_xt().divide_x_power(m)
    strict_t = w.subst_xt_t().divide_t_power(m)
    restriction = strict_x.restrict_x0()
    for local, copies, dir_tag in _branch_points(restriction, strict_x):
        if local is None:
            # simple transversal intersection at an irrational point: one
            # smooth branch, transversal to both coordinate lines
            out.append((1, 1, dir_tag))
            continue
        at_t_direction = dir_tag[2] == 0 and dir_tag[3] == 0
        for scx, sct, _ in _axis_contacts(local, budget):
            m_b = scx
            ct_extra = sct if at_t_direction else 0
            for conj in range(copies):
                out.append((m_b, m_b + ct_extra,
                            (dir_tag[0], dir_tag[1], dir_tag[2], conj)))
    if strict_t.eval_origin() == fld.zero:
        for scx, sct, _ in _axis_contacts(strict_t, budget):
            out.append((sct + scx, sct, ("inf",)))
    return out


def _smooth_direction(w: BPoly, cx: int, ct: int) -> tuple:
    # tangent line of a smooth branch: c1*x + c2*t = 0
    if cx > 1:
        return ("inf",)
    fld = w.field
    c1 = w.terms.get((1, 0), fld.zero)
    c2 = w.terms.get((0, 1), fld.zero)
    tau = fld.neg(fld.div(c1, c2))  # ct > 1 would mean c2 = 0, cx = 1 covers it
    return ("fin", fld.name, fld.sort_key(tau), 0)


def _branch_points(restriction: UPoly, strict_x: BPoly):
    """Points of the strict transform on the exceptional line of chart "x",
    re-centered; yields (local poly, conjugate count, direction tag)."""
    fld = strict_x.field
    if fld.char == 0:
        roots, cofactor = u_rational_roots(restriction)
        if not cofactor.is_constant():
            if not ugcd(cofactor, cofactor.deriv()).is_constant():
                raise IrrationalPointError(
                    "branch analysis needs an irrational multiple point; "
                    "rerun over a finite field"
                )
            # distinct irrational simple intersections: each is a smooth
            # transversal branch, one per root of the cofactor
            for idx in range(cofactor.degree):
                yield (None, 1, ("fin", "Qbar", 1, idx))
        for tau, _ in roots:
            local = strict_x.translate_t(tau)
            yield (local, 1, ("fin", "Q", tau, 0))
    else:
        _, factors = u_factor(restriction)
        for irr, _ in factors:
            if irr.degree == 1:
                tau = fld.neg(irr.coeffs[0])
                yield (strict_x.translate_t(tau), 1,
                       ("fin", fld.name, fld.sort_key(tau), 0))
            else:
                big = splitting_extension(fld, irr.degree)
                embed = extension_embedding(fld, big)
                irr_big = UPoly(big, [embed(c) for c in irr.coeffs])
                tau = u_roots(irr_big)[0]
                local = strict_x.map_to(big, embed).translate_t(tau)
                yield (local, irr.degree,
                       ("fin", big.name, big.sort_key(tau), 0))
