"""Each covergeo command loads only the modules it runs, and the package
re-exports its names lazily.  Module sets are read in fresh interpreters,
since this test process has long since imported everything."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import covergeo

SRC = Path(__file__).resolve().parent.parent / "src"

CLOSED_FORM_COMMANDS_SKIP = {"polynomials", "univariate", "resolution", "parsing", "fibration"}
RESOLVE_SKIPS = {"geography", "genus", "fibration", "verify", "xi"}
# slow to import, and no command needs them without a timestamp
STARTUP_SKIPS = {"dataclasses", "inspect", "datetime"}

CLOSED_FORM_ARGVS = [
    ["kappa", "--max", "50"],
    ["raynaud", "--p", "5", "--l", "2"],
    ["char3", "--n", "3"],
    ["genus", "--p", "5", "--upper", "2", "--g", "2"],
    ["xi", "--family", "1", "1", "3", "2"],
    ["xi", "--type", "III", "--wild", "j=1", "R=5", "--p", "5"],
    ["verify", "app1"],
    ["verify", "raynaud"],
    ["verify", "xi-ineq"],
    ["verify", "kappa"],
    ["verify", "genus"],
]
RESOLVE_ARGV = ["resolve", "x^5 - t^4", "--field", "F5"]
HAND_DATUM = json.dumps({"p": 5, "q": 2, "points": (
    [{"class": "I", "kind": "tame", "R": 1}] * 5
    + [{"class": "III", "kind": "tame", "R": 1}])})

# main(argv), then the exit code and every module that importing the cli and
# running main added: the interpreter's site may have preloaded others
RUN_MAIN = """\
import contextlib, io, sys
before = set(sys.modules)
from covergeo.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(set(sys.modules) - before))
"""


def _python(code, *args):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _added(argv):
    code, *modules = _python(RUN_MAIN, *argv, "--no-timestamp").split()
    assert code == "0", argv
    return set(modules)


def _loaded(argv):
    return {m.removeprefix("covergeo.") for m in _added(argv) if m.startswith("covergeo.")}


@pytest.mark.parametrize("argv", CLOSED_FORM_ARGVS, ids=" ".join)
def test_closed_form_commands_skip_the_resolution_stack(argv):
    loaded = _loaded(argv)
    assert not loaded & CLOSED_FORM_COMMANDS_SKIP, sorted(loaded & CLOSED_FORM_COMMANDS_SKIP)


def test_kappa_loads_exactly_its_modules():
    assert _loaded(["kappa", "--max", "50"]) == {"cli", "reports", "fields", "geography"}


def test_reports_loads_no_other_module():
    out = _python("import sys, covergeo.reports; "
                  "print(*sorted(m for m in sys.modules if m.startswith('covergeo.')))")
    assert out.split() == ["covergeo.reports"]


def test_resolve_skips_the_closed_forms():
    loaded = _loaded(RESOLVE_ARGV)
    assert not loaded & RESOLVE_SKIPS, sorted(loaded & RESOLVE_SKIPS)
    assert {"resolution", "parsing"} <= loaded


@pytest.mark.parametrize("argv", CLOSED_FORM_ARGVS + [RESOLVE_ARGV, ["fibration", "DATUM"]],
                         ids=" ".join)
def test_commands_start_without_dataclasses_or_datetime(argv, tmp_path):
    datum = tmp_path / "datum.json"
    datum.write_text(HAND_DATUM, encoding="utf-8")
    added = _added([str(datum) if arg == "DATUM" else arg for arg in argv])
    assert not added & STARTUP_SKIPS, sorted(added & STARTUP_SKIPS)


def test_every_exported_name_imports_from_the_package():
    assert covergeo.__all__
    for name in covergeo.__all__:
        namespace = {}
        exec(f"from covergeo import {name}", namespace)
        assert namespace[name] is getattr(covergeo, name)
    assert covergeo.canonical_resolution is covergeo.resolution.canonical_resolution


def test_submodules_are_attributes_after_importing_the_cli():
    out = _python("import covergeo.cli; "
                  "print(callable(covergeo.fields.extension_field.cache_info))")
    assert out.split() == ["True"]
