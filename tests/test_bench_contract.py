"""The benchmark's tracer wraps covergeo functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_to_callables():
    traced = _load_tracing().TRACED
    assert traced
    for module, attr in traced:
        target = importlib.import_module(module)
        for part in attr.split("."):
            target = getattr(target, part, None)
        assert callable(target), f"{module}.{attr}"
