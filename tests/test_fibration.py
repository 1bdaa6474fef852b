from fractions import Fraction

import pytest

from covergeo.fibration import (
    BranchPointDatum,
    FibrationDatum,
    InvalidDatumError,
    datum_from_json,
    datum_to_json,
    evidence_bound_check,
    iter_random_data,
    load_datum,
    random_datum,
    save_datum,
    validate,
)
from covergeo.xi import RamificationType, SingularityClass, xi_type

I, II, III, IV = (
    SingularityClass.I,
    SingularityClass.II,
    SingularityClass.III,
    SingularityClass.IV,
)


def point(cls, lam):
    return BranchPointDatum(cls, lam)


def hand_datum():
    """p=5, q=2: five simple class I points and one tame class III point."""
    return FibrationDatum(
        5,
        2,
        tuple(
            [point(I, RamificationType.tame(1))] * 5
            + [point(III, RamificationType.tame(1))]
        ),
    )


def test_alpha():
    assert validate(hand_datum()).alpha == 2
    wild = FibrationDatum(
        5, 4,
        tuple([point(IV, RamificationType.wild(1, 5))]
              + [point(I, RamificationType.tame(1))] * 11),
    )
    assert (validate(wild).alpha, validate(wild).d) == (5, 1)
    no_pole = validate(FibrationDatum(5, 2, (point(I, RamificationType.tame(1)),)))
    assert no_pole.alpha == 0 and "alpha-positive" in no_pole.failures()
    assert (no_pole.chi_cover, no_pole.chi_smooth) == (None, None)


def test_validation_passes_on_hand_datum():
    report = validate(hand_datum())
    assert report.ok
    names = [name for name, _, _ in report.checks]
    assert "hurwitz-degree" in names and "alpha-d-parity" in names


def test_validation_catches_hurwitz_failure():
    datum = FibrationDatum(5, 3, hand_datum().points)
    report = validate(datum)
    assert not report.ok
    assert report.failures() == ["hurwitz-degree"]


def test_validation_catches_missing_pole():
    datum = FibrationDatum(
        5, 2, tuple([point(I, RamificationType.tame(2))] * 3)
    )
    report = validate(datum)
    assert "alpha-positive" in report.failures()


def test_validation_catches_bad_ramification():
    datum = FibrationDatum(
        5, 2, tuple([point(III, RamificationType.tame(4))])  # p | R+1
    )
    assert "ramification-data" in validate(datum).failures()


def test_class_i_requires_ramification():
    # the point is built; validate refuses it through xi_type, the one
    # per-point rule, and still runs the other checks
    datum = FibrationDatum(5, 2, hand_datum().points[1:]
                           + (point(I, RamificationType.tame(0)),))
    report = validate(datum)
    assert report.failures() == ["ramification-data", "hurwitz-degree"]
    assert report.checks[0] == ("ramification-data", False,
                                "point 5: class I requires R >= 1")
    assert report.chi_smooth is None


def test_chi_values():
    report = validate(hand_datum())
    assert (report.chi_cover, report.chi_smooth) == (3, 3)
    result = evidence_bound_check(report)
    assert (result.chi, result.bound, result.passed) == (3, Fraction(1, 5), True)


def test_chi_wild_instance():
    datum = FibrationDatum(
        5, 4,
        tuple([point(IV, RamificationType.wild(1, 5))]
              + [point(I, RamificationType.tame(1))] * 11),
    )
    report = validate(datum)
    assert report.ok
    assert (report.chi_cover, report.chi_smooth) == (9, 6)
    assert evidence_bound_check(report).passed


def test_chi_rejects_invalid():
    datum = FibrationDatum(5, 3, hand_datum().points)
    with pytest.raises(InvalidDatumError, match="hurwitz-degree"):
        evidence_bound_check(validate(datum))


def test_cover_minus_smooth_is_total_xi():
    for datum in iter_random_data(99, 60):
        p, q = datum.p, datum.q
        report = validate(datum)
        alpha = sum(pt.alpha_term(p) for pt in datum.points)
        d = sum(pt.cls.d_b for pt in datum.points)
        assert (report.alpha, report.d) == (alpha, d)
        cover = report.chi_cover
        assert type(cover) is int
        assert cover == Fraction((p - 3) * (q - 1), 2) + Fraction((p - 1) * (alpha + d), 4)
        assert cover - report.chi_smooth == sum(
            xi_type(pt.cls, pt.ramification, p) for pt in datum.points)


def test_p7_cover_chi():
    datum = FibrationDatum(
        7, 2,
        tuple([point(I, RamificationType.tame(1))] * 5
              + [point(III, RamificationType.tame(1))]),
    )
    report = validate(datum)
    assert report.ok  # sum R = 6 = 2*2 + 2, alpha + d = 2
    assert report.chi_cover == 2 + 3
    assert evidence_bound_check(report).bound == Fraction(20, 28)


def test_serialization_roundtrip(tmp_path):
    datum = FibrationDatum(
        5, 4,
        tuple([point(IV, RamificationType.wild(1, 5))]
              + [point(I, RamificationType.tame(1))] * 11),
    )
    text = datum_to_json(datum)
    assert datum_from_json(text) == datum
    assert datum_to_json(datum_from_json(text)) == text  # bit-exact
    path = tmp_path / "datum.json"
    save_datum(datum, path)
    assert load_datum(path) == datum
    assert path.read_text(encoding="utf-8") == text


def test_serialization_rejects_malformed():
    with pytest.raises(InvalidDatumError):
        datum_from_json("{not json")
    with pytest.raises(InvalidDatumError):
        datum_from_json('{"p": 5, "q": 2}')
    with pytest.raises(InvalidDatumError):
        datum_from_json(
            '{"p": 5, "q": 2, "points": [{"class": "V", "kind": "tame", "R": 1}]}'
        )


def test_datum_validation_at_construction():
    with pytest.raises(ValueError):
        FibrationDatum(4, 2, ())
    with pytest.raises(ValueError):
        FibrationDatum(3, 2, ())
    with pytest.raises(ValueError):
        FibrationDatum(5, 1, ())


def test_generator_consistency_and_determinism():
    import random

    first = [random_datum(random.Random(5), p=7) for _ in range(5)]
    second = [random_datum(random.Random(5), p=7) for _ in range(5)]
    assert first == second
    for datum in iter_random_data(123, 120):
        assert validate(datum).ok
        assert datum.q <= 20 and datum.p in (5, 7, 11)


def test_evidence_sweep():
    for datum in iter_random_data(2024, 200):
        assert evidence_bound_check(validate(datum)).passed
