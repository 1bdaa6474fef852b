"""Hyperelliptic-fibration datum: combinatorial branch data and chi bounds.

A datum records p >= 5, the base genus q >= 2, and a list of branch points,
each carrying a singularity class I-IV and a ramification type.  From these
the pole degree alpha, the count d of vertical branch components, and the
holomorphic Euler characteristics of the normalized cover and of the smooth
model are integers:

    chi_cover  = (p-3)(q-1)/2 + (p-1)(alpha+d)/4
    chi_smooth = chi_cover - sum_b xi_b

Consistency asks for the degree identity 2*alpha + 2(q-1) = sum_b R_b, for
alpha + d even, and for alpha >= 1.  Every consistent datum satisfies
chi_smooth >= (p^2-4p-1)(q-1)/4p; the generator below samples consistent
data for sweep tests of exactly that bound.
"""

from __future__ import annotations

import json
import random
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

from .fields import is_prime
from .xi import RamificationType, SingularityClass, xi_type


class InvalidDatumError(ValueError):
    pass


class BranchPointDatum(namedtuple("BranchPointDatum", "cls ramification")):
    """A branch point: its class and its ramification data.  Whether the two
    fit together is asked by ``validate``, through ``xi_type``."""

    __slots__ = ()

    def alpha_term(self, p: int) -> int:
        """The point's share of alpha: R + 1 at a tame pole (class III or
        IV), p*j at a wild one, 0 elsewhere."""
        if not self.cls.counts_as_pole:
            return 0
        lam = self.ramification
        return p * lam.j if lam.is_wild else lam.R + 1


class FibrationDatum(namedtuple("FibrationDatum", "p q points")):
    __slots__ = ()

    def __new__(cls, p: int, q: int, points: tuple[BranchPointDatum, ...]):
        if p < 5 or not is_prime(p):
            raise ValueError("fibration data need a prime p >= 5")
        if q < 2:
            raise ValueError("base genus q must be >= 2")
        return super().__new__(cls, p, q, points)


# checks: a tuple of (name, passed, detail); alpha, d and the two chi values
# are read off the same pass over the points, the chi values None unless ok
class ValidationReport(namedtuple(
        "ValidationReport", "datum checks alpha d chi_cover chi_smooth")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def failures(self) -> list[str]:
        return [name for name, passed, _ in self.checks if not passed]


def validate(datum: FibrationDatum) -> ValidationReport:
    """Consistency checks, reported not raised, and the invariants of a
    consistent datum, from one pass over the points.

    Each point passes ``xi_type``, the one per-point rule, or fails the
    ramification-data check.  Exact in integers: p is odd, and the checks
    ask that the quarter term (p-1)(alpha+d)/4 is."""
    p, q = datum.p, datum.q
    alpha = d = total_r = total_xi = 0
    bad_point = ""
    for i, pt in enumerate(datum.points):
        alpha += pt.alpha_term(p)
        d += pt.cls.d_b
        total_r += pt.ramification.R
        if not bad_point:
            try:
                total_xi += xi_type(pt.cls, pt.ramification, p)
            except ValueError as exc:
                bad_point = f"point {i}: {exc}"
    hurwitz_lhs = 2 * alpha + 2 * (q - 1)
    quarter = Fraction((p - 1) * (alpha + d), 4)
    report = ValidationReport(datum, (
        ("ramification-data", not bad_point, bad_point),
        ("hurwitz-degree", hurwitz_lhs == total_r,
         f"2*alpha + 2(q-1) = {hurwitz_lhs}, sum R = {total_r}"),
        ("alpha-d-parity", (alpha + d) % 2 == 0, f"alpha+d = {alpha + d}"),
        ("alpha-positive", alpha >= 1, f"alpha = {alpha}"),
        ("quarter-term-integral", quarter.denominator == 1,
         f"(p-1)(alpha+d)/4 = {quarter}"),
    ), alpha, d, None, None)
    if not report.ok:
        return report
    # chi of the normalized double cover X0 of the ruled surface; the smooth
    # model's is that minus all local invariants
    chi_cover = (p - 3) * (q - 1) // 2 + int(quarter)
    return report._replace(chi_cover=chi_cover, chi_smooth=chi_cover - total_xi)


EvidenceResult = namedtuple("EvidenceResult", "chi bound passed")


def evidence_bound_check(report: ValidationReport) -> EvidenceResult:
    """chi(smooth model) of a validated datum against the lower bound
    (p^2-4p-1)(q-1)/4p; InvalidDatumError if the datum is inconsistent."""
    if not report.ok:
        raise InvalidDatumError(
            "inconsistent fibration datum: " + ", ".join(report.failures())
        )
    p, q = report.datum.p, report.datum.q
    bound = Fraction((p * p - 4 * p - 1) * (q - 1), 4 * p)
    return EvidenceResult(report.chi_smooth, bound, report.chi_smooth >= bound)


# ---------------------------------------------------------------------------
# Serialization: canonical JSON with fields p, q, points.


def datum_to_json(datum: FibrationDatum) -> str:
    points = []
    for pt in datum.points:
        rec = {"class": pt.cls.value, "kind": pt.ramification.kind,
               "R": pt.ramification.R}
        if pt.ramification.is_wild:
            rec["j"] = pt.ramification.j
        points.append(rec)
    data = {"p": datum.p, "q": datum.q, "points": points}
    return json.dumps(data, indent=2) + "\n"


def datum_from_json(text: str) -> FibrationDatum:
    try:
        data = json.loads(text)
        points = []
        for rec in data["points"]:
            cls = SingularityClass(rec["class"])
            j = _json_int(rec["j"], "j") if "j" in rec else None
            lam = RamificationType(rec["kind"], _json_int(rec["R"], "R"), j)
            points.append(BranchPointDatum(cls, lam))
        return FibrationDatum(_json_int(data["p"], "p"), _json_int(data["q"], "q"),
                              tuple(points))
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise InvalidDatumError(f"malformed fibration datum: {exc}") from exc


def _json_int(value, key: str) -> int:
    if type(value) is not int:  # not a bool, a float or a string
        raise ValueError(f"{key} must be a JSON integer")
    return value


def load_datum(path: str | Path) -> FibrationDatum:
    return datum_from_json(Path(path).read_text(encoding="utf-8"))


def save_datum(datum: FibrationDatum, path: str | Path) -> None:
    Path(path).write_text(datum_to_json(datum), encoding="utf-8")


# ---------------------------------------------------------------------------
# Generator of consistent data for sweep tests.


def _tame_indexes(p: int, lo: int, hi: int) -> list[int]:
    return [r for r in range(lo, hi + 1) if (r + 1) % p]


RANDOM_Q_MAX = 20


def random_datum(rng: random.Random, p: int) -> FibrationDatum:
    """One consistent datum: sample pole and vertical points, then choose q
    and pad with simple class I points to satisfy the degree identity.

    Consistent by construction: the R ranges skip p | R+1, the added II point
    makes alpha + d even, and the III or IV points make alpha >= 1."""
    for _ in range(64):
        points: list[BranchPointDatum] = []
        for _ in range(rng.randint(1, 3)):  # points of class III / IV
            cls = rng.choice((SingularityClass.III, SingularityClass.IV))
            if rng.random() < 0.5:
                j = rng.randint(1, 3)
                lam = RamificationType.wild(j, rng.choice(
                    _tame_indexes(p, p * j, p * j + p - 2)))
            else:
                lam = RamificationType.tame(rng.choice(_tame_indexes(p, 0, 3 * p)))
            points.append(BranchPointDatum(cls, lam))
        for _ in range(rng.randint(0, 2)):  # extra vertical components
            points.append(BranchPointDatum(
                SingularityClass.II,
                RamificationType.tame(rng.choice(_tame_indexes(p, 0, 2 * p)))))
        for _ in range(rng.randint(0, 2)):  # larger horizontal ramification
            points.append(BranchPointDatum(
                SingularityClass.I,
                RamificationType.tame(rng.choice(_tame_indexes(p, 1, 2 * p)))))
        alpha = sum(pt.alpha_term(p) for pt in points)
        d = sum(pt.cls.d_b for pt in points)
        if (alpha + d) % 2:
            points.append(BranchPointDatum(
                SingularityClass.II, RamificationType.tame(0)))
        total_r = sum(pt.ramification.R for pt in points)
        q_min = max(2, (total_r - 2 * alpha) // 2 + 1)
        if q_min > RANDOM_Q_MAX:
            continue
        q = rng.randint(q_min, RANDOM_Q_MAX)
        fill = 2 * alpha + 2 * (q - 1) - total_r
        if fill < 0:
            continue
        points.extend(
            BranchPointDatum(SingularityClass.I, RamificationType.tame(1))
            for _ in range(fill)
        )
        return FibrationDatum(p, q, tuple(points))
    raise RuntimeError("datum generator failed to converge")  # pragma: no cover


def iter_random_data(seed: int, count: int):
    """count seeded data, with p cycling through 5, 7 and 11."""
    rng = random.Random(seed)
    for i in range(count):
        yield random_datum(rng, p=(5, 7, 11)[i % 3])
