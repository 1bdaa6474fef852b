"""Acceptance criteria, one test per criterion, zero tolerance throughout.

Every check is an exact integer or rational comparison.  Each test prints a
single PASS line on success (visible with pytest -s); a failure carries the
offending cases in the assertion message.
"""

from fractions import Fraction
from pathlib import Path

from covergeo.fibration import (
    BranchPointDatum,
    FibrationDatum,
    evidence_bound_check,
    validate,
)
from covergeo.geography import SurfaceInvariants, char3_example, noether_check
from covergeo.verify import (
    suite_app1,
    suite_evidence,
    suite_genus,
    suite_kappa,
    suite_oracle,
    suite_raynaud,
    suite_xi_inequalities,
)
from covergeo.xi import RamificationType, SingularityClass, xi_family
from test_cli import run_cli

GOLDEN_DIR = Path(__file__).parent / "goldens"


def _assert_suite(checks, label):
    failed = [(name, detail) for name, ok, detail in checks if not ok]
    assert not failed, f"{label}: {failed}"
    print(f"ACCEPTANCE {label} PASS: " + "; ".join(name for name, _, _ in checks))


def test_criterion_1_oracle_equivalence():
    # blow-up engine == closed recursion on x^a t^b (x^m - t^n), coprime
    # m, n <= 12, over Q and over F_5, F_7, F_13 where p > max(m, n)
    _assert_suite(suite_oracle(), "1-oracle-equivalence")


def test_criterion_2_bound_sweep():
    # xi <= closed bound for odd m <= 31, coprime n <= 31, with equality
    # observed at (1, 1, 3, 2)
    _assert_suite(suite_app1(), "2-bound-sweep")


def test_criterion_3_kappa_values():
    # conjectural and proven values at p=5 are 1/32; conjectural dominates
    # the proven bound for primes 7..199; gap to 1/12 below 1/p for 100..999
    _assert_suite(suite_kappa(), "3-kappa-values")


def test_criterion_4_raynaud_identities():
    # chi/K^2 equals the conjectural ratio and 12chi - K^2 = c2 = -4(q-1)
    # for p in {5,7,11,13}, three smallest admissible l each
    _assert_suite(suite_raynaud(), "4-raynaud-identities")


def test_criterion_5_evidence_sweep():
    # >= 500 generated consistent fibration data meet the chi lower bound;
    # the hand instance (p=5, q=2, five I points, one tame III) has chi = 3
    checks = suite_evidence(seed=1729)
    _assert_suite(checks, "5-evidence-sweep")
    hand = FibrationDatum(
        5,
        2,
        tuple(
            [BranchPointDatum(SingularityClass.I, RamificationType.tame(1))] * 5
            + [BranchPointDatum(SingularityClass.III, RamificationType.tame(1))]
        ),
    )
    result = evidence_bound_check(validate(hand))
    assert (result.chi, result.bound) == (3, Fraction(1, 5))


def test_criterion_6_xi_inequality_sweep():
    # slack >= 0 for all four classes, p in {5,7,11}, tame R <= 4p with
    # p not dividing R+1, wild 1 <= j <= 3 with pj <= R <= pj+p-2;
    # equality witnessed at (III, wild j=1, R=p)
    _assert_suite(suite_xi_inequalities(), "6-xi-inequalities")


def test_criterion_7_genus_change_suite():
    # torsion formulas reproduce 2pg/(p-1) for p in {3,5,7,11}, g <= 60;
    # membership enumeration consistent with divisibility for g <= 200
    _assert_suite(suite_genus(), "7-genus-change")


def test_criterion_8_resolution_goldens():
    cases = {
        "cusp_q": (["resolve", "x^3 - t^2", "--field", "Q"], 0),
        "quartic_q": (["resolve", "x^5 - t^4", "--field", "Q"], 1),
        "node_q": (["resolve", "x*t", "--field", "Q"], 0),
        "three_lines_q": (["resolve", "x*t*(x-t)", "--field", "Q"], 0),
        "quartic_f5": (["resolve", "x^5 - t^4", "--field", "F5"], 1),
    }
    for name, (argv, xi) in cases.items():
        code, out, _ = run_cli(argv + ["--no-timestamp", "--format", "records"])
        assert code == 0, name
        golden = (GOLDEN_DIR / f"{name}.records").read_text(encoding="utf-8")
        assert out == golden, f"{name}: output drifted from golden"
        assert f"total\txi\t{xi}\n" in out, name
    print("ACCEPTANCE 8-resolution-goldens PASS: " + ", ".join(cases))


def test_criterion_9_known_datum_regressions():
    assert noether_check(SurfaceInvariants(p=2, K2=14, c2=-2, chi=1))
    ex = char3_example(2)
    assert (ex.q - 1, ex.m, ex.c2_upper) == (20, 8, -56)
    # the bound-sweep equality case again, as a direct regression
    assert xi_family(1, 1, 3, 2) == 1
    print("ACCEPTANCE 9-known-datum-regressions PASS: noether(1,14,-2); char3(2)")
