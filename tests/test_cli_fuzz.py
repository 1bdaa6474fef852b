"""Fuzz the closed-form commands through cli.main, in process.

The exit-code contract: 0 or 1 with a report on stdout and nothing on
stderr, or 2 with no stdout and the one line "covergeo <command>: ..." on
stderr.  A fibration datum that datum_from_json accepts, consistent or not,
exits 0 or 1 with its whole report, summary last.  resolve is left out: its
known hangs would stall the fuzzer.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from covergeo.fibration import InvalidDatumError, datum_from_json
from test_cli import run_cli

FUZZ = settings(derandomize=True, database=None, deadline=1000, max_examples=150,
                suppress_health_check=[HealthCheck.too_slow])

ints = st.integers(min_value=-3, max_value=40)
# a value as the shell passes it: mostly a number, sometimes not one
token = st.one_of(ints.map(str), ints.map(str), ints.map(str),
                  st.sampled_from(["", "x", "1.5", "R=3", "j=1", "0x5"]))
primes = st.sampled_from(["5", "5", "7", "7", "11", "13", "101", "3", "4", "-5"])
flags = st.tuples(st.sampled_from([[], ["--format", "records"]]),
                  st.sampled_from([[], ["--no-timestamp"]]))


def _option(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


exponent = st.sampled_from(["0", "1", "0", "1", "2"])
xi_family_argv = st.tuples(exponent, exponent, token, token).map(
    lambda args: ["xi", "--family", *args])
tame, wild = token.map(lambda r: ["--tame", r]), st.tuples(token, token).map(
    lambda jr: ["--wild", *jr])
xi_type_argv = st.tuples(
    st.sampled_from(["I", "II", "III", "IV", "I", "II", "III", "IV", "V"]),
    st.one_of(tame, wild, tame, wild, st.just([])),
    st.one_of(*[primes.map(lambda v: ["--p", v])] * 3, st.just([])),
).map(lambda args: ["xi", "--type", args[0], *args[1], *args[2]])
raynaud_argv = st.tuples(primes, token).map(
    lambda args: ["raynaud", "--p", args[0], "--l", args[1]])
char3_argv = token.map(lambda n: ["char3", "--n", n])
kappa_argv = st.tuples(_option("--min", token), _option("--max", token)).map(
    lambda args: ["kappa", *args[0], *args[1]])
genus_argv = st.tuples(
    primes, _option("--upper", token), _option("--lower", token),
    _option("--g", token),
    _option("--tower", st.lists(ints, max_size=5).map(
        lambda gs: ",".join(map(str, gs)))),
).map(lambda args: ["genus", "--p", args[0], *[a for opt in args[1:] for a in opt]])


def _point(draw, p, classes):
    cls = draw(st.sampled_from(classes))
    if draw(st.booleans()):
        return {"class": cls, "kind": "tame", "R": draw(st.integers(min_value=0, max_value=30))}
    j = draw(st.integers(min_value=1, max_value=3))
    # mostly R >= p*j, as wild data need
    return {"class": cls, "kind": "wild", "j": j,
            "R": p * j + draw(st.integers(min_value=-2, max_value=2 * p))}


stray_point = st.fixed_dictionaries(
    {"class": st.sampled_from(["I", "V"]), "kind": st.sampled_from(["tame", "wild"])},
    optional={"j": st.integers(min_value=-1, max_value=2), "R": st.sampled_from([-1, 0, 1])})


@st.composite
def datum(draw):
    """A datum dict, most often padded as random_datum pads: a II point for
    the parity of alpha + d and class I points for the degree identity.  Five
    in 24 have a stray point, p = 4 or q = 1."""
    p, q = draw(st.sampled_from([5, 7, 11])), draw(st.integers(min_value=2, max_value=6))
    points = [_point(draw, p, ["III", "IV"])]  # a pole, for alpha >= 1
    points += [_point(draw, p, ["I", "II", "III", "IV"])
               for _ in range(draw(st.integers(min_value=0, max_value=4)))]
    if draw(st.integers(min_value=0, max_value=3)):
        poles = [pt for pt in points if pt["class"] in ("III", "IV")]
        alpha = sum(p * pt["j"] if pt["kind"] == "wild" else pt["R"] + 1
                    for pt in poles)
        if (alpha + sum(pt["class"] in ("II", "IV") for pt in points)) % 2:
            points.append({"class": "II", "kind": "tame", "R": 0})
        fill = 2 * alpha + 2 * (q - 1) - sum(pt["R"] for pt in points)
        points += [{"class": "I", "kind": "tame", "R": 1}] * max(0, fill)
    # away from 0, which hypothesis draws far more often than 1 in 24
    flaw = draw(st.integers(min_value=0, max_value=23))
    if flaw in (10, 11, 12):
        points.insert(draw(st.integers(min_value=0, max_value=len(points))),
                      draw(stray_point))
    return {"p": 4 if flaw == 13 else p, "q": 1 if flaw == 14 else q, "points": points}


def _assert_contract(argv, code, out, err):
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert out == "", argv
        assert err.count("\n") == 1 and err.startswith(f"covergeo {argv[0]}: "), (argv, err)
    else:
        assert err == "", (argv, err)


@FUZZ
@given(st.one_of(xi_family_argv, xi_type_argv, raynaud_argv, char3_argv,
                 kappa_argv, genus_argv), flags)
def test_closed_form_commands_keep_the_exit_contract(argv, flag_pair):
    argv = argv + flag_pair[0] + flag_pair[1]
    _assert_contract(argv, *run_cli(argv))


@FUZZ
@given(datum(), flags)
def test_fibration_keeps_the_exit_contract(tmp_path_factory, data, flag_pair):
    text = json.dumps(data)
    path = tmp_path_factory.getbasetemp() / "fuzz_datum.json"
    path.write_text(text, encoding="utf-8")
    argv = ["fibration", str(path), *flag_pair[0], *flag_pair[1]]
    code, out, err = run_cli(argv)
    _assert_contract(argv, code, out, err)
    try:
        datum_from_json(text)
    except InvalidDatumError:
        return
    assert code in (0, 1), (data, err)
    lead = "summary\t" if flag_pair[0] else "summary: "
    assert out.splitlines()[-1].startswith(lead + ("PASS" if code == 0 else "FAIL")), (data, out)
