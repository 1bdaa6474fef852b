import io
import json
import signal
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import covergeo.cli
import covergeo.fibration
import covergeo.xi
from covergeo.cli import main
from covergeo.fields import MAX_CHARACTERISTIC
from covergeo.geography import MAX_CHAR3_N, MAX_KAPPA_P
from covergeo.parsing import MAX_NESTING
from covergeo.resolution import MAX_EXTENSION_DEGREE

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


def run_cli_within(seconds, argv, what):
    """run_cli under an alarm, so that a hang fails instead of stalling.  The
    alarm calls pytest.fail: a TimeoutError is an OSError, which main would
    print as a clean exit 2."""
    def too_slow(*_):
        pytest.fail(f"{what} took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(seconds)
    try:
        return run_cli(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_hang_under_the_alarm_escapes_main(monkeypatch):
    monkeypatch.setitem(covergeo.cli._DISPATCH, "kappa", lambda args: time.sleep(5))
    with pytest.raises(pytest.fail.Exception, match="took over 1 s"):
        run_cli_within(1, ["kappa"], "a sleeping command")


def test_resolve_parse_error_exit_2():
    code, _, err = run_cli(["resolve", "x^5 -", "--no-timestamp"])
    assert code == 2
    assert "position" in err


def test_resolve_bad_field_exit_2():
    for spec in ("F4", "F2", "F9", "F5^0"):
        code, _, err = run_cli(["resolve", "x*t", "--field", spec])
        assert code == 2
        assert len(err.splitlines()) == 1, spec


def test_resolve_degree_bound_exit_2():
    # checked before x^100000000 is expanded: an x-list of that degree would
    # need gigabytes
    code, out, err = run_cli_within(
        3, ["resolve", "x^100000000 - t^3", "--field", "F5"],
        "parsing past the degree bound")
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "covergeo resolve: total degree 100000000 exceeds the bound 10000 (at position 11)"]


def test_resolve_characteristic_bound_exit_2():
    # checked before the primality test, which divides by every odd number
    # up to sqrt(p)
    code, out, err = run_cli_within(
        2, ["resolve", "x*t", "--field", "F100000000000000000039"],
        "a characteristic past the bound")
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "covergeo resolve: field characteristic 100000000000000000039 exceeds "
        f"the bound {MAX_CHARACTERISTIC}"]
    code, out, _ = run_cli_within(
        2, ["resolve", "x*t", "--field", f"F{MAX_CHARACTERISTIC}", "--no-timestamp"],
        "the largest admitted characteristic")
    assert code == 0 and "first_kind" in out


def test_resolve_nesting_bound_exit_2():
    # recursive descent would hit Python's recursion limit before depth 300
    deep = "(" * 300 + "x*t" + ")" * 300
    code, out, err = run_cli_within(2, ["resolve", deep], "a germ nested 300 deep")
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"covergeo resolve: parentheses nest deeper than the bound {MAX_NESTING} "
        f"(at position {MAX_NESTING})"]


def test_resolve_extension_degree_bound_exit_1():
    # the points of x^23 = 2 t^23 on the first exceptional line need F5^22
    code, out, err = run_cli_within(
        1, ["resolve", "x^23 - 2*t^23", "--field", "F5"],
        "a germ past the extension degree bound")
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "covergeo resolve: conjugate points need F5^22, past the extension "
        f"degree bound {MAX_EXTENSION_DEGREE} (blow-up centre: origin)"]


def test_resolve_large_characteristic_conjugate_points():
    # the points' field F10007^4 took 9 s to build: its binomials x^4 + c are
    # all reducible, as 10007 = 3 mod 4, and each was factored first
    code, out, err = run_cli_within(
        3, ["resolve", "x*(t^4+t^3*x+t*x^3+2*x^4)", "--field", "F10007",
            "--no-timestamp", "--format", "records"],
        "conjugate points over F10007")
    assert code == 0 and err == ""
    assert "\t4\torigin -> chart x @ 232g^3+1427g^2+7299g+7679 in F10028029413722401\n" in out
    assert "total\txi\t1\n" in out


def test_resolve_regular_conjugate_points_need_no_field():
    # the 16 tangents of x^16 = 2 t^16 are conjugate over F5 but each is a
    # transversal crossing, so no field F5^16 is built for them
    code, out, _ = run_cli_within(
        1, ["resolve", "x^16 - 2*t^16", "--field", "F5", "--no-timestamp"],
        "x^16 - 2*t^16 over F5")
    assert code == 0
    assert "total    xi            28" in out
    assert "total    K2-drop       98" in out
    code, out, _ = run_cli_within(
        1, ["resolve", "x^28 - 2*t^28", "--field", "F5", "--no-timestamp"],
        "x^28 - 2*t^28 over F5")
    assert code == 0 and "summary: PASS" in out


def test_resolve_depth_guard_exit_1():
    code, _, err = run_cli(["resolve", "x*t*(x-t)", "--depth-limit", "2"])
    assert code == 1
    assert err == ("covergeo resolve: resolution depth exceeded (2 blow-ups) "
                   "(blow-up centre: origin -> chart x @ 1)\n")


def test_resolve_long_chain_exit_0():
    code, out, err = run_cli(["resolve", "x^2 - t^2100", "--field", "F5",
                              "--depth-limit", "5000", "--no-timestamp",
                              "--format", "records"])
    assert code == 0 and err == ""
    assert "summary\tPASS" in out


def test_resolve_branch_analysis_depth_exit_1():
    # the negligible class is read off the blow-ups, so the blow-up count is
    # the only limit: this chain needs 500 of them
    code, out, err = run_cli(["resolve", "x^2 - t^1000", "--field", "Q"])
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert "resolution depth exceeded (256 blow-ups)" in err


def test_resolve_negative_depth_limit_exit_2():
    code, out, err = run_cli(["resolve", "x^2 - t^3", "--field", "F5",
                              "--depth-limit", "-1"])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "--depth-limit" in err


def test_usage_error_exit_2():
    code, _, _ = run_cli(["frobnicate"])
    assert code == 2


@pytest.mark.parametrize("argv,message", [
    (["resolve", "x", "--format", "json"],
     "covergeo resolve: argument --format: invalid choice: 'json' "
     "(choose from 'table', 'records')"),
    (["resolve"], "covergeo resolve: the following arguments are required: germ"),
    (["resolve", "x*t", "--bogus"], "covergeo resolve: unrecognized arguments: --bogus"),
    (["frobnicate"], "covergeo: argument command: invalid choice: 'frobnicate' "
     "(choose from 'resolve', 'xi', 'fibration', 'raynaud', 'char3', 'kappa', "
     "'genus', 'verify')"),
    # one input error per command, each raised into the same path of main
    (["resolve", "x", "--field", "F3^200"],
     f"covergeo resolve: extension degree 200 exceeds the bound {MAX_EXTENSION_DEGREE}"),
    (["xi"], "covergeo xi: pick exactly one of --family or --type"),
    (["fibration", "/nonexistent/datum.json"],
     "covergeo fibration: [Errno 2] No such file or directory: "
     "'/nonexistent/datum.json'"),
    (["raynaud", "--p", "5", "--l", "3"],
     "covergeo raynaud: l = 3 is inadmissible: l must be positive and even for "
     "chi = (p^2-4p-1)l/8 and q = pl/2 + 1 to be integers"),
    (["char3", "--n", "1"], "covergeo char3: the family is of general type only for n >= 2"),
    (["kappa", "--max", "300000"],
     f"covergeo kappa: primes up to 300000 exceed the bound {MAX_KAPPA_P}"),
    (["genus", "--p", "5", "--tower", "1,,2"],
     "covergeo genus: invalid literal for int() with base 10: ''"),
    (["verify", "nosuch"],
     "covergeo verify: unknown suite 'nosuch'; pick from oracle, app1, evidence, "
     "raynaud, xi-ineq, kappa, genus or all"),
    # an empty tower is checked too, not skipped
    (["genus", "--p", "5", "--tower", ""],
     "covergeo genus: invalid literal for int() with base 10: ''"),
])
def test_usage_errors_one_line(argv, message):
    # within 2 s: F3^200 used to search for its modulus for minutes
    code, out, err = run_cli_within(2, argv, " ".join(argv))
    assert code == 2 and out == ""
    assert err.splitlines() == [message]


@pytest.mark.parametrize(
    "name,argv",
    [
        ("cusp_q", ["resolve", "x^3 - t^2", "--field", "Q"]),
        ("quartic_q", ["resolve", "x^5 - t^4", "--field", "Q"]),
        ("node_q", ["resolve", "x*t", "--field", "Q"]),
        ("three_lines_q", ["resolve", "x*t*(x-t)", "--field", "Q"]),
        ("quartic_f5", ["resolve", "x^5 - t^4", "--field", "F5"]),
        ("conjugate_nested_f5",
         ["resolve", "(x^2-2*t^2)^2*x + t^7", "--field", "F5"]),
    ],
)
def test_resolve_goldens(name, argv):
    code, out, _ = run_cli(argv + ["--no-timestamp", "--format", "records"])
    assert code == 0
    golden = (GOLDEN_DIR / f"{name}.records").read_text(encoding="utf-8")
    assert out == golden


def test_xi_type_golden():
    # each class with tame and with wild data, the wild pole reduced by layers
    out = "".join(
        run_cli(["xi", "--type", cls, *data, "--p", "7",
                 "--no-timestamp", "--format", "records"])[1]
        for cls in ("I", "II", "III", "IV")
        for data in (["--tame", "R=9"], ["--wild", "j=2", "R=16"]))
    assert out == (GOLDEN_DIR / "xi_types.records").read_text(encoding="utf-8")


def test_golden_xis_are_expected():
    expected = {
        "cusp_q": 0,
        "quartic_q": 1,
        "node_q": 0,
        "three_lines_q": 0,
        "quartic_f5": 1,
        "conjugate_nested_f5": 1,
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


def test_xi_type_large_p_is_fast():
    # the tame base x^a t^b (x^p - t^4) took one recursion step per
    # subtraction of 4 from p, about 2.5e8 at this p
    code, out, err = run_cli_within(
        2, ["xi", "--type", "I", "--tame", "R=3", "--p", "1000000007",
            "--no-timestamp", "--format", "records"],
        "xi --type at p = 10^9 + 7")
    assert code == 0 and err == ""
    assert "summary\tPASS" in out


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


@pytest.mark.parametrize("extra", [
    ["--tame", "5"], ["--wild", "j=1", "R=5"], ["--p", "7"],
    ["--tame", "5", "--p", "7"],
])
def test_xi_family_refuses_type_flags(extra):
    code, out, err = run_cli(["xi", "--family", "0", "0", "3", "2", *extra])
    assert code == 2 and out == ""
    assert err == "covergeo xi: --family takes none of --tame, --wild or --p\n"


def readme_datum(point=(), **top):
    """The README's example datum as JSON, with the first point's fields and
    the top-level fields updated."""
    points = ([{"class": "I", "kind": "tame", "R": 1}] * 5
              + [{"class": "III", "kind": "tame", "R": 1}])
    points[0] = {**points[0], **dict(point)}
    return json.dumps({"p": 5, "q": 2, "points": points, **top})


def test_fibration_command(tmp_path):
    path = tmp_path / "datum.json"
    path.write_text(readme_datum(), encoding="utf-8")
    code, out, _ = run_cli(["fibration", str(path), "--no-timestamp",
                            "--format", "records"])
    assert code == 0
    assert "invariant\tchi-smooth\t3" in out
    assert "check\tchi-lower-bound\tPASS\t3 >= 1/5" in out


def _count_calls(monkeypatch, owners):
    """Wrap each owner's named function to count its calls; owners maps a
    name to the module or class that holds it."""
    calls = dict.fromkeys(owners, 0)
    for name, owner in owners.items():
        def counted(*args, _fn=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_fibration_computes_chi_once(tmp_path, monkeypatch):
    # one validation gives the checks, alpha, d and both chi values, and it
    # runs the one per-point rule once per point
    datum = next(covergeo.fibration.iter_random_data(3, 1))
    assert len(datum.points) == 46
    path = tmp_path / "datum.json"
    covergeo.fibration.save_datum(datum, path)
    calls = _count_calls(monkeypatch, {
        "validate": covergeo.fibration, "xi_type": covergeo.fibration,
        "check": covergeo.xi.RamificationType})
    code, out, _ = run_cli(["fibration", str(path), "--no-timestamp",
                            "--format", "records"])
    assert code == 0 and "invariant\tchi-smooth\t" in out
    assert calls == {"validate": 1, "xi_type": 46, "check": 46}


def test_xi_type_reduces_the_point_once(monkeypatch):
    calls = _count_calls(monkeypatch, {
        "_family_form": covergeo.xi, "xi_family": covergeo.xi})
    code, out, _ = run_cli(["xi", "--type", "III", "--wild", "j=1", "R=5",
                            "--p", "5", "--no-timestamp", "--format", "records"])
    assert code == 0 and "xi\tslack\t0" in out
    assert calls == {"_family_form": 1, "xi_family": 1}


def test_fibration_inconsistent_datum_fails(tmp_path):
    path = tmp_path / "datum.json"
    path.write_text(readme_datum(q=3), encoding="utf-8")
    code, out, _ = run_cli(["fibration", str(path), "--no-timestamp"])
    assert code == 1
    assert "hurwitz-degree: FAIL" in out


def test_fibration_wild_point_at_minus_one_fails_with_report(tmp_path):
    # validate accepted the wild R = 9 = -1 mod 5, and xi_type then rejected
    # it with exit 2 and no report
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"p": 5, "q": 2, "points": [
        {"class": "III", "kind": "wild", "j": 1, "R": 9},
        {"class": "I", "kind": "tame", "R": 1},
        {"class": "I", "kind": "tame", "R": 1},
        {"class": "I", "kind": "tame", "R": 1},
        {"class": "II", "kind": "tame", "R": 0},
    ]}), encoding="utf-8")
    code, out, err = run_cli(["fibration", str(path), "--no-timestamp",
                              "--format", "records"])
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert any(line.startswith("check\tramification-data\tFAIL\tpoint 0:")
               for line in lines)
    assert lines[-1] == "summary\tFAIL\t4/5"


def test_fibration_class_i_without_ramification_fails_with_report(tmp_path):
    # R >= 1 for class I is one of the per-point rules, so the datum is
    # well formed and gets its whole report
    path = tmp_path / "datum.json"
    path.write_text(readme_datum({"R": 0}), encoding="utf-8")
    code, out, err = run_cli(["fibration", str(path), "--no-timestamp",
                              "--format", "records"])
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert ("check\tramification-data\tFAIL\tpoint 0: class I requires R >= 1"
            in lines)
    assert "check\thurwitz-degree\tFAIL\t2*alpha + 2(q-1) = 6, sum R = 5" in lines
    assert not any(line.startswith("invariant\t") for line in lines)
    assert lines[-1] == "summary\tFAIL\t3/5"


def test_fibration_missing_file():
    code, _, err = run_cli(["fibration", "/nonexistent/datum.json"])
    assert code == 2


def test_fibration_overflowing_number_exit_2(tmp_path):
    # 1e400 parses to the float inf, which is not a JSON integer
    path = tmp_path / "datum.json"
    path.write_text('{"p": 5, "q": 2, "points": '
                    '[{"class": "I", "kind": "tame", "R": 1e400}]}',
                    encoding="utf-8")
    code, out, err = run_cli(["fibration", str(path)])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "malformed fibration datum" in err


@pytest.mark.parametrize("text", [
    "[" * 100_000,
    readme_datum({"kind": "foo"}),
    readme_datum({"kind": "WILD", "j": 1}),
    readme_datum({"j": 1}),
    readme_datum(p=5.9),
    readme_datum({"R": 1.7}),
    readme_datum({"R": "1"}),
    readme_datum({"R": True}),
], ids=["nested", "kind-foo", "kind-WILD", "tame-j", "float-p", "float-R",
        "string-R", "bool-R"])
def test_fibration_malformed_datum_exit_2(tmp_path, text):
    # json.loads raised RecursionError on the nested arrays, and the others
    # loaded as the README example: an unknown kind as tame, a tame j
    # ignored, and p, q, R through int()
    path = tmp_path / "datum.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(["fibration", str(path)])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "malformed fibration datum" in err


def test_xi_type_large_ramification_is_closed_form(tmp_path):
    # one loop pass per degree-p layer took over 10 s on each of these
    code, out, _ = run_cli_within(
        2, ["xi", "--type", "I", "--tame", "R=10000000000", "--p", "5",
            "--no-timestamp", "--format", "records"], "xi at tame R = 10^10")
    assert code == 0 and "xi\ttype\tI\ttame R=10000000000\t4000000000" in out
    code, out, _ = run_cli_within(
        2, ["xi", "--type", "III", "--wild", "j=100000000", "R=500000000", "--p", "5",
            "--no-timestamp", "--format", "records"], "xi at wild j = 10^8")
    assert code == 0 and "xi\ttype\tIII\twild j=100000000 R=500000000\t300000000" in out
    datum = {
        "p": 5,
        "q": 2,
        "points": [{"class": "IV", "kind": "tame", "R": 10**10},
                   {"class": "I", "kind": "tame", "R": 1},
                   {"class": "I", "kind": "tame", "R": 10**10 + 3}],
    }
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum), encoding="utf-8")
    code, out, _ = run_cli_within(
        2, ["fibration", str(path), "--no-timestamp", "--format", "records"],
        "a fibration with a point at R = 10^10")
    assert code == 0 and "invariant\tchi-smooth\t2" in out


def test_fibration_large_p_tests_primality_once(tmp_path):
    # xi_type tests p for primality at every point, about 2 ms each at
    # 2^31 - 1: these 4,002 points took 8 s before the test was cached
    q = 2000
    datum = {
        "p": MAX_CHARACTERISTIC,
        "q": q,
        "points": [{"class": "III", "kind": "tame", "R": 1}]
        + [{"class": "I", "kind": "tame", "R": 1}] * (2 * q + 1),
    }
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum), encoding="utf-8")
    code, out, _ = run_cli_within(
        2, ["fibration", str(path), "--no-timestamp", "--format", "records"],
        f"a fibration with p = {MAX_CHARACTERISTIC}")
    assert code == 0 and "summary\tPASS\t" in out


@pytest.mark.parametrize("argv", [
    ["raynaud", "--p", "1000000000000000003", "--l", "2"],
    ["xi", "--type", "I", "--tame", "R=3", "--p", "1000000000000000003"],
    ["genus", "--p", "1000000000000000003", "--upper", "4"],
])
def test_characteristic_bound_for_every_command(argv):
    # the primality test rejects a characteristic past the bound before its
    # trial division, which took over 10 s on each of these
    code, out, err = run_cli_within(2, argv, f"{argv[0]} past the bound")
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"covergeo {argv[0]}: field characteristic 1000000000000000003 exceeds "
        f"the bound {MAX_CHARACTERISTIC}"]


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


def test_char3_bound_exit_2():
    # checked before 3^n: at n = 5000 the printed q - 1 would pass the 4,300
    # digits Python converts to a string, and 3^100000000 takes minutes
    for n in (MAX_CHAR3_N + 1, 5000, 100000000):
        code, out, err = run_cli_within(2, ["char3", "--n", str(n)],
                                        "char3 past its bound")
        assert code == 2 and out == ""
        assert err.splitlines() == [
            f"covergeo char3: n = {n} exceeds the bound {MAX_CHAR3_N}"]
    code, out, _ = run_cli_within(2, ["char3", "--n", str(MAX_CHAR3_N), "--no-timestamp"],
                                  "char3 at its bound")
    assert code == 0 and "summary: PASS" in out


def test_kappa_bound_exit_2():
    # the table tests every integer up to --max for primality: 1,000,000
    # took 10.8 s
    for top in (MAX_KAPPA_P + 1, 1000000, 100000000):
        code, out, err = run_cli_within(2, ["kappa", "--min", "5", "--max", str(top)],
                                        "kappa past its bound")
        assert code == 2 and out == ""
        assert err.splitlines() == [
            f"covergeo kappa: primes up to {top} exceed the bound {MAX_KAPPA_P}"]


@pytest.mark.parametrize("lo, hi", [(10, 5), (24, 28), (0, 2)])
def test_kappa_range_without_primes_exit_2(lo, hi):
    # an empty table used to pass both checks on no rows and exit 0
    code, out, err = run_cli(["kappa", "--min", str(lo), "--max", str(hi),
                              "--no-timestamp"])
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"covergeo kappa: no prime p >= 3 between --min {lo} and --max {hi}"]


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


def test_genus_answers_large_exponents():
    # 2g + 2 = 5^13 + 1; a search bounded at exponent 12 printed
    # "unknown-at-bound" here
    code, out, _ = run_cli(["genus", "--p", "5", "--g", "610351562",
                            "--format", "records", "--no-timestamp"])
    assert code == 0
    assert "rational-curve\tquasi-hyperelliptic-genus\tyes" in out.splitlines()


@pytest.mark.parametrize("argv,message", [
    (["genus", "--p", "9", "--g", "3"], "p must be an odd prime"),
    (["genus", "--p", "1", "--tower", "7,2,1"], "p must be an odd prime"),
    (["genus", "--p", "1000000000000000003", "--g", "3"],
     f"field characteristic 1000000000000000003 exceeds the bound "
     f"{MAX_CHARACTERISTIC}"),
    # a negative genus used to print "quasi-hyperelliptic-genus no" and exit 0
    (["genus", "--p", "5", "--g", "-1"], "genus must be >= 0, got g=-1"),
    (["genus", "--p", "5", "--upper", "2", "--g", "-1"],
     "genus must be >= 0, got g=-1"),
])
def test_genus_validates_p_before_any_row(argv, message):
    # --g alone used to print a torsion row "n/a (...)" and exit 0
    code, out, err = run_cli_within(2, argv + ["--no-timestamp"], "genus")
    assert code == 2 and out == ""
    assert err.splitlines() == [f"covergeo genus: {message}"]


def test_verify_command_suites():
    code, out, _ = run_cli(["verify", "kappa", "--no-timestamp",
                            "--format", "records"])
    assert code == 0
    assert "check\tkappa-conjectural-5\tPASS\t1/32" in out
    code, _, err = run_cli(["verify", "nonsense"])
    assert code == 2


def test_verify_failing_sweep_names_five_cases(monkeypatch):
    import covergeo.verify

    monkeypatch.setattr(covergeo.verify, "xi_bound_family", lambda *args: -1)
    checks = {name: (ok, detail) for name, ok, detail in covergeo.verify.suite_app1()}
    ok, detail = checks["xi-upper-bound"]
    assert not ok and len(detail.split("; ")) == 5


def test_verify_seed_changes_digest():
    _, out1, _ = run_cli(["verify", "app1", "--no-timestamp",
                          "--format", "records"])
    _, out2, _ = run_cli(["verify", "app1", "--seed", "7", "--no-timestamp",
                          "--format", "records"])
    assert out1.splitlines()[1] != out2.splitlines()[1]  # digest differs


def test_verify_all_golden():
    code, out, _ = run_cli(["verify", "all", "--no-timestamp", "--format", "records"])
    assert code == 0
    assert out == (GOLDEN_DIR / "verify_all.records").read_text(encoding="utf-8")
