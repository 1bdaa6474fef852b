"""Verification suites: every quantitative claim the package implements,
bundled as named sweeps returning (check name, passed, detail) triples.

The CLI `verify` command runs these and sets the exit code; the acceptance
tests assert them.  All comparisons are exact.  The resolution and
fibration layers are imported by the suites that use them, so the closed
form suites run without loading them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fields import QQ, prime_field, primes_between
from .genus import (
    GenusChangeRecord,
    quasi_hyperelliptic_genus_ok,
    rational_curve_torsion,
    tate_divisibility,
    torsion_degree,
)
from .geography import (
    c2_floor_check,
    kappa_conjectural,
    kappa_proven_lower,
    noether_check,
    raynaud_invariants,
)
from .xi import (
    RamificationType,
    SingularityClass,
    xi_bound_family,
    xi_family,
    xi_inequality_slack,
)

DEFAULT_SEED = 1729

Check = tuple[str, bool, str]


def _sweep(name: str, bad: list[str], summary: str) -> Check:
    """A sweep's check: it passes on no bad case and names the first five."""
    return name, not bad, "; ".join(bad[:5]) if bad else summary


def family_germ(field, a: int, b: int, m: int, n: int):
    """The branch germ x^a t^b (x^m - t^n) over the given field."""
    from .polynomials import BPoly
    from .resolution import BranchGerm

    terms = {(m + a, b): field.one, (a, n + b): field.neg(field.one)}
    return BranchGerm(BPoly(field, terms))


def coprime_pairs(limit: int):
    for m in range(1, limit + 1):
        for n in range(1, limit + 1):
            if math.gcd(m, n) == 1:
                yield m, n


def suite_oracle() -> list[Check]:
    """Blow-up engine vs closed recursion on the monomial family with m, n
    <= 12, over Q and over each of F5, F7, F13 larger than the exponents."""
    from .resolution import canonical_resolution

    out: list[Check] = []
    for a in (0, 1):
        for b in (0, 1):
            mismatches = []
            total = 0
            for m, n in coprime_pairs(12):
                fields = [QQ] + [
                    prime_field(p) for p in (5, 7, 13) if p > max(m, n)
                ]
                expected = xi_family(a, b, m, n)
                for fld in fields:
                    total += 1
                    trace = canonical_resolution(family_germ(fld, a, b, m, n))
                    if trace.xi != expected:
                        mismatches.append(f"(m={m},n={n},{fld.name})")
            out.append(_sweep(f"oracle a={a} b={b}", mismatches, f"{total} germs"))
    return out


def suite_app1() -> list[Check]:
    """Closed bound dominates the recursion for odd m, with m, n <= 31;
    equality is witnessed at (1,1,3,2)."""
    out: list[Check] = []
    violations = []
    total = 0
    for m in range(1, 32, 2):
        for n in range(1, 32):
            if math.gcd(m, n) != 1:
                continue
            for a in (0, 1):
                for b in (0, 1):
                    total += 1
                    if xi_family(a, b, m, n) > xi_bound_family(a, b, m, n):
                        violations.append(f"({a},{b},{m},{n})")
    out.append(_sweep("xi-upper-bound", violations, f"{total} tuples"))
    out.append(
        (
            "xi-bound-equality-(1,1,3,2)",
            xi_family(1, 1, 3, 2) == xi_bound_family(1, 1, 3, 2) == 1,
            f"xi = {xi_family(1, 1, 3, 2)}, bound = {xi_bound_family(1, 1, 3, 2)}",
        )
    )
    return out


EVIDENCE_COUNT = 500


def suite_evidence(seed: int = DEFAULT_SEED) -> list[Check]:
    """Generated consistent fibration data all meet the chi lower bound; the
    hand instance (p=5, q=2, five I points R=1, one tame III R=1) has chi 3."""
    from .fibration import (
        BranchPointDatum,
        FibrationDatum,
        chi_smooth_model,
        evidence_bound_check,
        iter_random_data,
    )

    failures = []
    for datum in iter_random_data(seed, EVIDENCE_COUNT):
        result = evidence_bound_check(datum)
        if not result.passed:
            failures.append(f"p={datum.p} q={datum.q}")
    out = [_sweep(f"evidence-bound-sweep(seed={seed})", failures,
                  f"{EVIDENCE_COUNT} data")]
    hand = FibrationDatum(
        5,
        2,
        tuple(
            [BranchPointDatum(SingularityClass.I, RamificationType.tame(1))] * 5
            + [BranchPointDatum(SingularityClass.III, RamificationType.tame(1))]
        ),
    )
    chi = chi_smooth_model(hand)
    result = evidence_bound_check(hand)
    out.append(
        (
            "evidence-hand-instance",
            chi == 3 and result.passed and result.bound == Fraction(1, 5),
            f"chi = {chi}, bound = {result.bound}",
        )
    )
    return out


def suite_raynaud() -> list[Check]:
    """chi/K^2 equals the conjectural ratio and 12chi - K^2 = c2 = -4(q-1)
    on the ruled-surface family, at its three smallest l for p = 5..13."""
    out: list[Check] = []
    for p in (5, 7, 11, 13):
        ok = True
        details = []
        for l in (2, 4, 6):
            inv = raynaud_invariants(p, l)
            ratio_ok = Fraction(inv.chi, inv.K2) == kappa_conjectural(p)
            chern_ok = (
                noether_check(inv)
                and inv.c2 == -4 * (inv.q - 1)
                and c2_floor_check(inv)
            )
            ok = ok and ratio_ok and chern_ok
            details.append(f"l={l}: chi={inv.chi} K2={inv.K2} c2={inv.c2}")
        out.append((f"raynaud-identities p={p}", ok, "; ".join(details)))
    return out


def suite_xi_inequalities() -> list[Check]:
    """Per-class linear bounds have non-negative slack over the stated ranges
    for p = 5, 7, 11; equality is witnessed at (III, wild j=1, R=p)."""
    out: list[Check] = []
    for p in (5, 7, 11):
        violations = []
        total = 0
        for cls in SingularityClass:
            for r in range(0 if cls is not SingularityClass.I else 1, 4 * p + 1):
                if (r + 1) % p == 0:
                    continue
                total += 1
                if xi_inequality_slack(cls, RamificationType.tame(r), p) < 0:
                    violations.append(f"{cls.value} tame R={r}")
            for j in (1, 2, 3):
                for r in range(p * j, p * j + p - 1):
                    if (r + 1) % p == 0:
                        continue
                    total += 1
                    lam = RamificationType.wild(j, r)
                    if xi_inequality_slack(cls, lam, p) < 0:
                        violations.append(f"{cls.value} wild j={j} R={r}")
        out.append(_sweep(f"xi-slack p={p}", violations, f"{total} cases"))
        eq = xi_inequality_slack(
            SingularityClass.III, RamificationType.wild(1, p), p
        )
        out.append((f"xi-slack-equality p={p}", eq == 0, f"slack = {eq}"))
    return out


def suite_kappa() -> list[Check]:
    out: list[Check] = []
    out.append(
        (
            "kappa-conjectural-5",
            kappa_conjectural(5) == Fraction(1, 32),
            str(kappa_conjectural(5)),
        )
    )
    out.append(
        (
            "kappa-exact-5",
            kappa_proven_lower(5) == Fraction(1, 32),
            str(kappa_proven_lower(5)),
        )
    )
    bad = [
        f"p={p}"
        for p in primes_between(7, 199)
        if not kappa_conjectural(p) > kappa_proven_lower(p)
    ]
    out.append(_sweep("kappa-conjectural-dominates-7..199", bad, "ok"))
    bad = [
        f"p={p}"
        for p in primes_between(100, 999)
        if not abs(kappa_conjectural(p) - Fraction(1, 12)) < Fraction(1, p)
    ]
    out.append(_sweep("kappa-limit-100..999", bad, "ok"))
    return out


def suite_genus() -> list[Check]:
    out: list[Check] = []
    bad = []
    total = rc_total = 0
    for p in (3, 5, 7, 11):
        for g in range(1, 61):
            if (2 * g) % (p - 1):
                continue
            total += 1
            expected = 2 * p * g // (p - 1)
            rec = GenusChangeRecord(p, g, 0)
            if not tate_divisibility(rec) or torsion_degree(rec) != expected:
                bad.append(f"(p={p},g={g})")
            if 2 * g >= p - 1 and g < (p * p - 1) // 2:
                rc_total += 1
                if rational_curve_torsion(g, p) != expected:
                    bad.append(f"rational(p={p},g={g})")
    out.append(_sweep("torsion-degree-formula", bad,
                      f"{total} drops, {rc_total} rational-curve pairs"))
    bad = []
    for p in (3, 5, 7):
        for g in range(0, 201):
            if quasi_hyperelliptic_genus_ok(g, p):
                rec = GenusChangeRecord(p, g, 0)
                if not tate_divisibility(rec):
                    bad.append(f"(p={p},g={g})")
    out.append(_sweep("quasi-hyperelliptic-implies-divisible", bad, "g <= 200"))
    return out


SUITES = {
    "oracle": suite_oracle,
    "app1": suite_app1,
    "evidence": suite_evidence,
    "raynaud": suite_raynaud,
    "xi-ineq": suite_xi_inequalities,
    "kappa": suite_kappa,
    "genus": suite_genus,
}


def run_suite(name: str, seed: int = DEFAULT_SEED) -> list[Check]:
    if name != "all" and name not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; pick from {', '.join(SUITES)} or all"
        )
    out: list[Check] = []
    for key in SUITES if name == "all" else (name,):
        out.extend(suite_evidence(seed) if key == "evidence" else SUITES[key]())
    return out
