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


def test_field_bench_names_exist():
    # what the benchmark's field timings and cache ratio call
    from covergeo import fields

    assert callable(fields.extension_field.cache_info)
    assert callable(fields.QQ.mul)
    assert callable(fields.prime_field(13).mul)
    fpk = fields.extension_field(13, 2)
    assert callable(fpk.mul) and callable(fpk.decode)
    assert fpk.inv.__name__ == "inv"
    assert fpk.mul(fpk.decode(14), fpk.inv(fpk.decode(14))) == fpk.one


def test_trace_fields_the_benchmark_reads():
    # the benchmark checks answers by these fields and counts F_{p^k} sites
    # by step copies; a rename would fail every benchmark operation
    from covergeo.resolution import BlowupStep, ResolutionTrace

    assert {"xi", "k2_defect", "negligible", "steps"} <= set(ResolutionTrace._fields)
    assert "copies" in BlowupStep._fields
