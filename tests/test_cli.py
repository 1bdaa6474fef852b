import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from covergeo.cli import main

GOLDEN_DIR = Path(__file__).parent / "goldens"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_resolve_table_output():
    code, out, _ = run_cli(["resolve", "x^5 - t^4", "--field", "F5",
                            "--no-timestamp"])
    assert code == 0
    assert "xi" in out and "K2-drop" in out
    assert "total    xi            1" in out or "xi" in out


def test_resolve_reports_negligible():
    code, out, _ = run_cli(["resolve", "x*t", "--no-timestamp"])
    assert code == 0
    assert "first_kind" in out


def test_resolve_reports_even_part():
    code, out, _ = run_cli(["resolve", "x^5 - t^5", "--field", "F5",
                            "--no-timestamp"])
    assert code == 0
    assert "x + 4*t" in out  # reduced part
    assert "x^2 + 3*x*t + t^2" in out  # split-off even part


def test_resolve_parse_error_exit_2():
    code, _, err = run_cli(["resolve", "x^5 -", "--no-timestamp"])
    assert code == 2
    assert "position" in err


def test_resolve_bad_field_exit_2():
    code, _, err = run_cli(["resolve", "x*t", "--field", "F4"])
    assert code == 2
    code, _, err = run_cli(["resolve", "x*t", "--field", "F2"])
    assert code == 2


def test_resolve_depth_guard_exit_1():
    code, _, err = run_cli(["resolve", "x*t*(x-t)", "--depth-limit", "2"])
    assert code == 1
    assert "depth exceeded" in err


def test_resolve_negative_depth_limit_exit_2():
    code, out, err = run_cli(["resolve", "x^2 - t^3", "--field", "F5",
                              "--depth-limit", "-1"])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "--depth-limit" in err


def test_usage_error_exit_2():
    code, _, _ = run_cli(["frobnicate"])
    assert code == 2


@pytest.mark.parametrize(
    "name,argv",
    [
        ("cusp_q", ["resolve", "x^3 - t^2", "--field", "Q"]),
        ("quartic_q", ["resolve", "x^5 - t^4", "--field", "Q"]),
        ("node_q", ["resolve", "x*t", "--field", "Q"]),
        ("three_lines_q", ["resolve", "x*t*(x-t)", "--field", "Q"]),
        ("quartic_f5", ["resolve", "x^5 - t^4", "--field", "F5"]),
    ],
)
def test_resolve_goldens(name, argv):
    code, out, _ = run_cli(argv + ["--no-timestamp", "--format", "records"])
    assert code == 0
    golden = (GOLDEN_DIR / f"{name}.records").read_text(encoding="utf-8")
    assert out == golden


def test_golden_xis_are_expected():
    expected = {
        "cusp_q": 0,
        "quartic_q": 1,
        "node_q": 0,
        "three_lines_q": 0,
        "quartic_f5": 1,
    }
    for name, xi in expected.items():
        golden = (GOLDEN_DIR / f"{name}.records").read_text(encoding="utf-8")
        assert f"total\txi\t{xi}\n" in golden


def test_reports_deterministic_without_timestamp():
    first = run_cli(["resolve", "x^7 - t^5", "--no-timestamp"])
    second = run_cli(["resolve", "x^7 - t^5", "--no-timestamp"])
    assert first == second
    with_ts = run_cli(["resolve", "x^7 - t^5"])
    assert "time" in with_ts[1] or "timestamp" in with_ts[1]


def test_xi_family_command():
    code, out, _ = run_cli(["xi", "--family", "0", "0", "5", "4",
                            "--no-timestamp", "--format", "records"])
    assert code == 0
    assert "xi\tfamily\tx^0*t^0*(x^5-t^4)\t1" in out


def test_xi_family_gcd_error():
    code, _, err = run_cli(["xi", "--family", "0", "0", "4", "2"])
    assert code == 2
    assert "coprime" in err


def test_xi_type_command():
    code, out, _ = run_cli(["xi", "--type", "III", "--wild", "j=1", "R=5",
                            "--p", "5", "--no-timestamp", "--format", "records"])
    assert code == 0
    assert "xi\ttype\tIII\twild j=1 R=5\t3" in out
    assert "xi\tslack\t0" in out


def test_xi_needs_exactly_one_mode():
    code, _, _ = run_cli(["xi", "--no-timestamp"])
    assert code == 2
    code, _, _ = run_cli(["xi", "--type", "I", "--p", "5"])
    assert code == 2  # missing --tame/--wild


def test_fibration_command(tmp_path):
    datum = {
        "p": 5,
        "q": 2,
        "points": [{"class": "I", "kind": "tame", "R": 1}] * 5
        + [{"class": "III", "kind": "tame", "R": 1}],
    }
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum), encoding="utf-8")
    code, out, _ = run_cli(["fibration", str(path), "--no-timestamp",
                            "--format", "records"])
    assert code == 0
    assert "invariant\tchi-smooth\t3" in out
    assert "check\tchi-lower-bound\tPASS\t3 >= 1/5" in out


def test_fibration_inconsistent_datum_fails(tmp_path):
    datum = {
        "p": 5,
        "q": 3,
        "points": [{"class": "I", "kind": "tame", "R": 1}] * 5
        + [{"class": "III", "kind": "tame", "R": 1}],
    }
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum), encoding="utf-8")
    code, out, _ = run_cli(["fibration", str(path), "--no-timestamp"])
    assert code == 1
    assert "hurwitz-degree: FAIL" in out


def test_fibration_missing_file():
    code, _, err = run_cli(["fibration", "/nonexistent/datum.json"])
    assert code == 2


def test_raynaud_command():
    code, out, _ = run_cli(["raynaud", "--p", "5", "--l", "4",
                            "--no-timestamp", "--format", "records"])
    assert code == 0
    assert "invariant\tchi\t2" in out
    assert "invariant\tK2\t64" in out
    assert "invariant\tc2\t-40" in out
    assert "invariant\tq\t11" in out
    code, _, err = run_cli(["raynaud", "--p", "5", "--l", "1"])
    assert code == 2


def test_char3_command():
    code, out, _ = run_cli(["char3", "--n", "2", "--no-timestamp",
                            "--format", "records"])
    assert code == 0
    assert "invariant\tq-1\t20" in out
    assert "invariant\tm\t8" in out
    assert "invariant\tc2-upper-bound\t-56" in out


def test_kappa_command():
    code, out, _ = run_cli(["kappa", "--min", "5", "--max", "13",
                            "--no-timestamp", "--format", "records"])
    assert code == 0
    assert "kappa\t5\t1/32\t1/32\texact value" in out


def test_genus_command():
    code, out, _ = run_cli(["genus", "--p", "5", "--upper", "2", "--g", "2",
                            "--tower", "7,2,1", "--no-timestamp",
                            "--format", "records"])
    assert code == 0
    assert "genus-change\ttorsion-degree\t5" in out
    assert "check\ttower-drops-shrink\tPASS" in out


def test_verify_command_suites():
    code, out, _ = run_cli(["verify", "kappa", "--no-timestamp",
                            "--format", "records"])
    assert code == 0
    assert "check\tkappa-conjectural-5\tPASS\t1/32" in out
    code, _, err = run_cli(["verify", "nonsense"])
    assert code == 2


def test_verify_seed_changes_digest():
    _, out1, _ = run_cli(["verify", "app1", "--no-timestamp",
                          "--format", "records"])
    _, out2, _ = run_cli(["verify", "app1", "--seed", "7", "--no-timestamp",
                          "--format", "records"])
    assert out1.splitlines()[1] != out2.splitlines()[1]  # digest differs
