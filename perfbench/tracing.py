"""Span tracing of covergeo's layers from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in every
loaded covergeo module namespace that binds it (``resolution`` imports
``b_squarefree`` by name, ``cli`` imports ``run_suite``, and so on), so
calls through any path are seen.  Each call becomes a span (name, start,
end, parent span, operation id) kept in memory; ``write_spans`` writes them
out once the run is over.  A span's self time is its duration minus the
time covered by its direct child spans.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

TRACED = (
    ("covergeo.resolution", "canonical_resolution"),
    ("covergeo.resolution", "blowup_once"),
    ("covergeo.resolution", "normalize_branch"),
    ("covergeo.resolution", "is_negligible"),
    ("covergeo.polynomials", "b_squarefree"),
    ("covergeo.polynomials", "b_gcd"),
    ("covergeo.polynomials", "b_exact_div"),
    ("covergeo.polynomials", "ugcd"),
    ("covergeo.polynomials", "u_factor"),
    ("covergeo.polynomials", "u_roots"),
    ("covergeo.polynomials", "u_rational_roots"),
    ("covergeo.polynomials", "extension_embedding"),
    ("covergeo.parsing", "parse_polynomial"),
    ("covergeo.parsing", "parse_field_spec"),
    ("covergeo.reports", "Report.render"),
    ("covergeo.cli", "main"),
    ("covergeo.verify", "run_suite"),
    ("covergeo.fibration", "validate"),
    ("covergeo.fibration", "evidence_bound_check"),
)

OP = "op"  # root span of one benchmark operation


def _short(module: str, attr: str) -> str:
    return f"{module.rpartition('.')[2]}.{attr}"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, op)
        self.ext_sites = 0  # blow-up steps standing for conjugate points
        self.embeddings: set = set()
        self._stack: list[int] = []
        self._op = -1
        self._ops = 0

    def install(self) -> None:
        """Wrap every traced function that is loaded; call after import."""
        loaded = {name: mod for name, mod in sys.modules.items()
                  if name == "covergeo" or name.startswith("covergeo.")}
        for module, attr in TRACED:
            if module not in loaded:
                continue
            name = _short(module, attr)
            owner = loaded[module]
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in loaded.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        hook = _HOOKS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._op)
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def op(self, op_id: int | None = None):
        """Root span for one benchmark operation, numbered in call order
        unless `op_id` is given."""
        op_id = self._ops if op_id is None else op_id
        self._op = op_id
        self._ops += 1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (OP, start, end, -1, op_id)
            self._op = -1


def _count_ext_sites(tracer, args, trace) -> None:
    tracer.ext_sites += sum(1 for s in trace.steps if s.copies > 1)


def _record_embedding(tracer, args, embed) -> None:
    small, big = args[:2]
    tracer.embeddings.add((small.name, big.name))


_HOOKS = {
    "resolution.canonical_resolution": _count_ext_sites,
    "polynomials.extension_embedding": _record_embedding,
}


def layer_totals(spans) -> dict[str, list]:
    """name -> [calls, self seconds], over finished spans."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, list] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = totals.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += end - start - covered[i]
    return totals


def write_spans(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name\tstart\tend\tparent\top\n")
        for name, start, end, parent, op in spans:
            fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
