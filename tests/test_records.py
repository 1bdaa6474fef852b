"""The library's records are immutable named tuples: keyword construction,
field access and the Name(field=value, ...) repr, and the checks that
reject bad values on construction."""

from fractions import Fraction

import pytest

from covergeo import fibration, genus, geography, resolution, xi
from covergeo.fields import QQ, prime_field
from covergeo.parsing import parse_polynomial
from covergeo.polynomials import BPoly

POLY = parse_polynomial("x^3 - t^2", QQ)
ONE = BPoly.constant(QQ, QQ.one)
TAME = xi.RamificationType("tame", 1)
POINT = fibration.BranchPointDatum(xi.SingularityClass.III, TAME)
STEP_VALUES = dict(index=1, center="O", multiplicity=2, half=1, copies=1)
STEP = resolution.BlowupStep(**STEP_VALUES)

# each record type with keyword values that pass its checks
RECORDS = [
    (resolution.BranchGerm, dict(poly=POLY)),
    (resolution.SingularSite,
     dict(chart="x", location="0", germ=POLY, copies=1, multiplicity=2,
          flags=(True, False))),
    (resolution.BlowupResult, dict(multiplicity=2, half=1, singular_sites=())),
    (resolution.BlowupStep, STEP_VALUES),
    (resolution.ResolutionTrace,
     dict(reduced=resolution.BranchGerm(POLY), even_part=resolution.BranchGerm(ONE),
          steps=(STEP,), xi=0, k2_defect=2, negligible=resolution.NEGLIGIBLE_FIRST)),
    (fibration.BranchPointDatum,
     dict(cls=xi.SingularityClass.I, ramification=TAME)),
    (fibration.FibrationDatum, dict(p=5, q=2, points=(POINT,))),
    (fibration.ValidationReport,
     dict(datum=fibration.FibrationDatum(5, 2, (POINT,)),
          checks=(("alpha-positive", True, "alpha = 2"),),
          alpha=2, d=0, chi_cover=2, chi_smooth=1)),
    (fibration.EvidenceResult, dict(chi=3, bound=Fraction(1, 5), passed=True)),
    (geography.SurfaceInvariants, dict(p=5, K2=16, c2=-20, chi=2, q=6, g=2)),
    (geography.KappaReport,
     dict(p=5, conjectural=Fraction(1, 24), proven_lower=Fraction(1, 32))),
    (geography.Char3Example, dict(n=2, q=41, m=8, c2_upper=-136)),
    (genus.GenusChangeRecord, dict(p=5, g_upper=2, g_lower=0)),
    (xi.RamificationType, dict(kind="wild", R=5, j=1)),
]


@pytest.mark.parametrize("record_type, values", RECORDS,
                         ids=[t.__name__ for t, _ in RECORDS])
def test_record_is_an_immutable_named_tuple(record_type, values):
    rec = record_type(**values)
    assert {name: getattr(rec, name) for name in values} == values
    assert record_type(*values.values()) == rec
    assert repr(rec) == (f"{record_type.__name__}("
                         + ", ".join(f"{k}={v!r}" for k, v in values.items()) + ")")
    for name in values:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    # a record compares equal to the plain tuple of its values
    assert rec == tuple(values.values())


def test_record_defaults():
    assert geography.SurfaceInvariants(5, 16, -20, 2) == (5, 16, -20, 2, None, None)
    assert xi.RamificationType("tame", 1).j is None


@pytest.mark.parametrize("build, message", [
    (lambda: resolution.BranchGerm(BPoly.zero(prime_field(5))), "nonzero polynomial"),
    (lambda: xi.RamificationType("foo", 1), "unknown ramification kind 'foo'"),
    (lambda: fibration.FibrationDatum(3, 2, (POINT,)), "prime p >= 5"),
    (lambda: genus.GenusChangeRecord(5, 2, -1), "g_upper >= g_lower >= 0"),
    # a class I point with R = 0 is built; the per-point rule that validate
    # runs is what rejects it
    (lambda: xi.xi_type(xi.SingularityClass.I, xi.RamificationType.tame(0), 5),
     "class I requires R >= 1"),
], ids=["zero-germ", "unknown-kind", "p=3", "negative-g_lower", "class-I-R=0"])
def test_record_checks_still_raise(build, message):
    with pytest.raises(ValueError, match=message):
        build()
