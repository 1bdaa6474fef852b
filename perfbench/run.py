"""covergeo benchmark: seeded closed-loop workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload family_grid --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads are family_grid, ext_dense and cli_mix (see workloads.py); "all"
runs each in its own process and prints every table, then one combined
result.  Each workload is one caller in a closed loop: the next operation
starts when the previous one has finished.  An operation is one
``canonical_resolution`` call (family_grid, ext_dense) or one ``covergeo``
process, timed from launch to exit (cli_mix).  Every answer is checked
outside the timed region, and a wrong answer counts as failed.

With --trace 0 the run measures for about --seconds in PASSES passes (see
``measure``) and reports ops_per_s (operations per second of busy time),
op_p50_ms, op_p90_ms, peak_rss_mb and setup_s, the median time of a set-up
(fresh import of covergeo, input generation, warm-up).  With --trace 1 it
runs a fixed, seeded list of operations twice, untraced and then traced
(tracing.py), and reports per-layer calls, self times and counts,
field-operation timings and the tracing overhead; the spans are written to
.perfbench_out/.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import deque
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "goldens"
OUT = ROOT / ".perfbench_out"

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("family_grid", "ext_dense", "cli_mix")
# A timed run makes PASSES passes over the same operations, seconds apart,
# and keeps each operation's fastest time.  covergeo keeps no results
# between calls (only its field constructors are cached); a change that did
# would show as a faster second pass.
PASSES = 2
SETUPS_PER_PASS = 4
# The shared host's speed swings by up to 1.8x for a minute or more, which
# no repetition inside one run removes.  So every timing of a timed run is
# scaled to a nominal host: multiplied by PROBE_NOMINAL_S over the median of
# the last PROBE_WINDOW timings of a fixed pure-Python probe that runs no
# covergeo code, one taken before each operation and set-up.  Measured over
# 2 s windows, probe and resolution times moved together (correlation 0.93)
# and their ratio spread 0.04 where the raw times spread 0.13.
PROBE_NOMINAL_S = 0.002
PROBE_WINDOW = 25
# blocks in the fixed operation list of a traced run
TRACE_BLOCKS = {"family_grid": 12, "ext_dense": 2, "cli_mix": 1}
DATUM_FILES = 16
CMD_TIMEOUT_S = 120
CLI_BOOT = "import sys; from covergeo.cli import main; sys.exit(main())"
FIELD_BENCH_CALLS = 20000
FIELD_BENCH_REPEATS = 5

# metric -> (unit, its name for the resolving workloads, for cli_mix)
END_TO_END = {
    "ops_per_s": ("1/s", "germs_per_s", "cmds_per_s"),
    "op_p50_ms": ("ms", "germ_p50_ms", "cmd_p50_ms"),
    "op_p90_ms": ("ms", "germ_p90_ms", "cmd_p90_ms"),
    "peak_rss_mb": ("MB", None, None),
    "setup_s": ("s", None, None),
}


def _alias(name, workload):
    _, resolving, cli = END_TO_END[name]
    return cli if workload == "cli_mix" else resolving


def fresh_covergeo():
    """Import covergeo from scratch, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "covergeo" or n.startswith("covergeo.")]:
        del sys.modules[name]
    mods = ("fields", "polynomials", "resolution", "xi", "fibration")
    return SimpleNamespace(**{m: importlib.import_module(f"covergeo.{m}") for m in mods})


def _quantiles(samples):
    cuts = statistics.quantiles(samples, n=10, method="inclusive")
    return statistics.median(samples), cuts[8]


# ---------------------------------------------------------------------------
# Resolving workloads: family_grid, ext_dense


class Stream:
    """Endless seeded operations, one block at a time; make_block(rng, i)
    gives block i."""

    def __init__(self, make_block, rng):
        self.make_block, self.rng = make_block, rng
        self.blocks = 0
        self.pending = []

    def _block(self):
        self.blocks += 1
        return self.make_block(self.rng, self.blocks - 1)

    def next(self):
        if not self.pending:
            self.pending = self._block()
        return self.pending.pop()

    def take_blocks(self, n):
        return [op for _ in range(n) for op in self._block()]


class Resolver:
    """Fresh covergeo import, the seeded task stream and its fields."""

    def __init__(self, workload, seed):
        self.cov = fresh_covergeo()
        self.fields = {}
        if workload == "family_grid":
            make = wl.family_grid_block
        else:
            make = lambda rng, _: wl.ext_dense_block(rng)  # noqa: E731
        self.stream = Stream(make, random.Random(seed))
        self.warmup = wl.warmup_tasks(workload)

    def germ(self, task, key):
        if key not in self.fields:
            self.fields[key] = wl.field_of(self.cov, key)
        fld = self.fields[key]
        terms = {e: fld.from_int(c) for e, c in task.model}
        return self.cov.resolution.BranchGerm(self.cov.polynomials.BPoly(fld, terms))

    def run(self, task, tracer=None):
        """Resolve the task's germ over each of its fields; returns the times
        and the number of resolutions that raised or gave a wrong answer."""
        traces, times = [], []
        for key in task.fields:
            germ = self.germ(task, key)
            op = tracer.op() if tracer else nullcontext()
            start = time.perf_counter()
            try:
                with op:
                    traces.append(self.cov.resolution.canonical_resolution(germ))
            except Exception:
                traceback.print_exc(file=sys.stderr)
            times.append(time.perf_counter() - start)
        if len(traces) < len(task.fields):
            return times, len(task.fields)
        return times, wl.task_wrong(self.cov, task, traces)


def setup_resolving(workload, seed):
    start = time.perf_counter()
    res = Resolver(workload, seed)
    wrong = sum(res.run(task)[1] for task in res.warmup)
    if wrong:
        raise RuntimeError(f"{wrong} warm-up resolutions gave a wrong answer")
    return time.perf_counter() - start, res


def _probe_work():
    acc = {}
    for i in range(4000):
        key = (i % 37, i % 11)
        acc[key] = (acc.get(key, 0) + i * 7919) % 1000003
    f = Fraction(1)
    for i in range(1, 120):
        f = f * Fraction(i % 13 + 1, i % 7 + 1) + 1
    return acc, f


class HostClock:
    """Scales durations to the nominal host speed (see PROBE_NOMINAL_S)."""

    def __init__(self):
        self.recent = deque(maxlen=PROBE_WINDOW)
        self.probes = []
        for _ in range(PROBE_WINDOW):
            self.probe()

    def probe(self):
        start = time.perf_counter()
        _probe_work()
        self.recent.append(time.perf_counter() - start)
        self.probes.append(self.recent[-1])

    def scale(self, seconds):
        return seconds * PROBE_NOMINAL_S / statistics.median(self.recent)


def measure(setup, seconds):
    """Set up and measure for about `seconds`, in PASSES passes that each
    follow SETUPS_PER_PASS fresh set-ups.  The first pass runs seeded
    operations for 1/PASSES of the time; later passes run the same
    operations again, and each operation keeps its fastest scaled time.
    Returns (latencies, failed, set-up times, probe times), all but the
    probe times scaled by HostClock."""
    clock = HostClock()
    setups, ops, best, failed = [], [], [], []
    for n in range(PASSES):
        for _ in range(SETUPS_PER_PASS):
            target = None  # let the previous set-up's modules be collected
            gc.collect()
            clock.probe()
            elapsed, target = setup()
            setups.append(clock.scale(elapsed))
        if n == 0:
            deadline = time.perf_counter() + seconds / PASSES
            while time.perf_counter() < deadline:
                clock.probe()
                ops.append(target.stream.next())
                times, wrong = target.run(ops[-1])
                best.append([clock.scale(t) for t in times])
                failed.append(wrong)
            continue
        for i, op in enumerate(ops):
            clock.probe()
            times, wrong = target.run(op)
            best[i] = [min(a, clock.scale(b)) for a, b in zip(best[i], times)]
            failed[i] = max(failed[i], wrong)
    return [t for times in best for t in times], sum(failed), setups, clock.probes


def run_resolving(workload, seed, seconds):
    result = measure(lambda: setup_resolving(workload, seed), seconds)
    return _end_to_end(*result, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def trace_resolving(workload, seed):
    _, res = setup_resolving(workload, seed)
    field_ns = field_bench(res.cov, seed)
    tasks = res.stream.take_blocks(TRACE_BLOCKS[workload])
    plain, traced, failed = [], [], 0
    for task in tasks:
        times, wrong = res.run(task)
        plain += times
        failed += wrong
    cache = res.cov.fields.extension_field
    before = cache.cache_info()
    tracer = tracing.Tracer()
    tracer.install()
    for task in tasks:
        times, wrong = res.run(task, tracer)
        traced += times
        failed += wrong
    after = cache.cache_info()
    counts = {
        "ext_sites": tracer.ext_sites,
        "embeddings": len(tracer.embeddings),
        "cache_hits": after.hits - before.hits,
        "cache_misses": after.misses - before.misses,
        "import_s": [],
    }
    path = _write_spans(workload, seed, tracer.spans)
    metrics = layer_metrics(tracer.spans, counts, field_ns, plain, traced)
    return len(plain) + len(traced), failed, metrics, path


# ---------------------------------------------------------------------------
# cli_mix


class CliMix:
    """Fresh covergeo import (for the generators), datum files, goldens and
    the seeded command stream."""

    def __init__(self, seed, workdir):
        self.cov = fresh_covergeo()
        goldens = {name: (GOLDEN_DIR / f"{name}.records").read_text(encoding="utf-8")
                   for name in wl.GOLDENS}
        fib = self.cov.fibration
        paths = []
        for i, datum in enumerate(fib.iter_random_data(seed, DATUM_FILES)):
            path = workdir / f"datum_{i:02d}.json"
            fib.save_datum(datum, path)
            paths.append(path.relative_to(ROOT).as_posix())
        xi_family = self.cov.xi.xi_family
        self.stream = Stream(
            lambda rng, _: wl.cli_mix_block(rng, goldens, paths, xi_family),
            random.Random(seed))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.workdir = workdir

    def trace_file(self, op):
        return self.workdir / f"trace_{op}.json"

    def run(self, cmd, op=None):
        """Run the command as its own process; returns ([launch-to-exit
        time], 1 if it failed else 0)."""
        argv = [sys.executable, "-c", CLI_BOOT, *cmd.argv]
        if op is not None:
            argv[1:3] = [str(HERE / "traced_cli.py"), str(self.trace_file(op)), str(op)]
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, encoding="utf-8", timeout=CMD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"failed: covergeo {' '.join(cmd.argv)}: timed out", file=sys.stderr)
            return [time.perf_counter() - start], 1
        elapsed = time.perf_counter() - start
        if not wl.check_command(cmd, proc.returncode, proc.stdout):
            print(f"failed: covergeo {' '.join(cmd.argv)}\n{proc.stderr}", file=sys.stderr)
            return [elapsed], 1
        return [elapsed], 0


def setup_cli(seed, workdir):
    start = time.perf_counter()
    mix = CliMix(seed, workdir)
    if mix.run(wl.Command(("kappa",) + wl.RECORDS, "pass"))[1]:
        raise RuntimeError("warm-up command failed")
    return time.perf_counter() - start, mix


def run_cli_mix(seed, seconds, workdir):
    result = measure(lambda: setup_cli(seed, workdir), seconds)
    return _end_to_end(*result, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def trace_cli_mix(seed, workdir):
    _, mix = setup_cli(seed, workdir)
    field_ns = field_bench(mix.cov, seed)
    cmds = mix.stream.take_blocks(TRACE_BLOCKS["cli_mix"])
    plain, traced, spans, failed = [], [], [], 0
    for cmd in cmds:
        times, wrong = mix.run(cmd)
        plain += times
        failed += wrong
    counts = {"ext_sites": 0, "embeddings": 0, "cache_hits": 0, "cache_misses": 0,
              "import_s": []}
    for op, cmd in enumerate(cmds):
        times, wrong = mix.run(cmd, op)
        traced += times
        failed += wrong
        path = mix.trace_file(op)
        if not path.exists():  # the child ended before writing its trace
            failed += 0 if wrong else 1
            continue
        child = json.loads(path.read_text(encoding="utf-8"))
        path.unlink()
        base = len(spans)
        spans.extend((name, start, end, parent + base if parent >= 0 else -1, op_id)
                     for name, start, end, parent, op_id in child["spans"])
        counts["import_s"].append(child["import_s"])
        for key in ("ext_sites", "embeddings", "cache_hits", "cache_misses"):
            counts[key] += child[key]
    path = _write_spans("cli_mix", seed, spans)
    metrics = layer_metrics(spans, counts, field_ns, plain, traced)
    return len(plain) + len(traced), failed, metrics, path


# ---------------------------------------------------------------------------
# Metrics


def _end_to_end(latencies, failed, setups, probes, rss_kb):
    p50, p90 = _quantiles(latencies)
    metrics = {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": p50 * 1e3,
        "op_p90_ms": p90 * 1e3,
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": statistics.median(setups),
    }
    samples = {"ops_per_s": len(latencies), "op_p50_ms": len(latencies),
               "op_p90_ms": len(latencies), "peak_rss_mb": 1,
               "setup_s": len(setups)}
    return len(latencies), failed, metrics, samples, probes


def field_bench(cov, seed):
    """ns per call of QQ.mul, F_13 mul, F_{13^2} mul and inv on seeded operands."""
    rng = random.Random(seed)
    fields = cov.fields
    fp, fpk = fields.prime_field(13), fields.extension_field(13, 2)
    q_ops = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(256)]
    p_ops = [rng.randrange(1, 13) for _ in range(256)]
    k_ops = [fpk.decode(rng.randrange(1, 169)) for _ in range(256)]
    cases = {
        "fields.q_mul_ns": (fields.QQ.mul, q_ops),
        "fields.fp_mul_ns": (fp.mul, p_ops),
        "fields.fpk_mul_ns": (fpk.mul, k_ops),
        "fields.fpk_inv_ns": (fpk.inv, k_ops),
    }
    out = {}
    for name, (fn, ops) in cases.items():
        pairs = [(ops[i % 256], ops[(7 * i + 3) % 256]) for i in range(FIELD_BENCH_CALLS)]
        unary = fn.__name__ == "inv"
        runs = []
        for _ in range(FIELD_BENCH_REPEATS):
            start = time.perf_counter()
            if unary:
                for a, _ in pairs:
                    fn(a)
            else:
                for a, b in pairs:
                    fn(a, b)
            runs.append((time.perf_counter() - start) / FIELD_BENCH_CALLS * 1e9)
        out[name] = statistics.median(runs)
    return out


LAYER_CALLS = (
    "resolution.canonical_resolution", "resolution.blowup_once",
    "resolution.normalize_branch", "resolution.is_negligible",
    "polynomials.b_squarefree", "polynomials.b_gcd", "polynomials.b_exact_div",
    "polynomials.ugcd", "polynomials.u_factor", "polynomials.u_roots",
    "polynomials.u_rational_roots",
    "fibration.validate", "fibration.evidence_bound_check",
)
LAYER_SELF = (
    "cli.main", "parsing.parse_polynomial", "parsing.parse_field_spec",
    "reports.Report.render", "verify.run_suite",
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counts, field_ns, plain, traced):
    """Per-layer metrics as {name: (value, unit)}; the same keys on every
    workload, zero where the workload does not reach the layer."""
    totals = tracing.layer_totals(spans)

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    out = {}
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    for name in LAYER_SELF:
        out[f"{name}.self_s"] = (self_s(name), "s")
    germs = calls("resolution.canonical_resolution")
    out["resolution.blowups_per_germ"] = (_ratio(calls("resolution.blowup_once"), germs), "count/germ")
    out["resolution.sqf_per_germ"] = (_ratio(calls("polynomials.b_squarefree"), germs), "count/germ")
    out["resolution.ext_sites"] = (counts["ext_sites"], "count")
    embeds = calls("polynomials.extension_embedding")
    out["polynomials.extension_embedding.calls"] = (embeds, "count")
    out["polynomials.extension_embedding.distinct_ratio"] = (_ratio(counts["embeddings"], embeds), "ratio")
    lookups = counts["cache_hits"] + counts["cache_misses"]
    out["fields.extension_field.hit_ratio"] = (_ratio(counts["cache_hits"], lookups), "ratio")
    for name, value in field_ns.items():
        out[name] = (value, "ns")
    imports = counts["import_s"]
    out["cli.import_s"] = (statistics.median(imports) if imports else 0.0, "s")
    plain_rate = len(plain) / sum(plain)
    traced_rate = len(traced) / sum(traced)
    out["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    out["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    out["trace.overhead_ratio"] = (plain_rate / traced_rate, "ratio")
    out["trace.spans"] = (len(spans), "count")
    return out


def _write_spans(workload, seed, spans):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans_{workload}_seed{seed}.tsv"
    tracing.write_spans(path, spans)
    return path


# ---------------------------------------------------------------------------
# Driver


def run_workload(args):
    if args.workload == "cli_mix":
        OUT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="cli_mix_", dir=OUT))
        try:
            if args.trace:
                return trace_cli_mix(args.seed, workdir)
            return run_cli_mix(args.seed, args.seconds, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        return trace_resolving(args.workload, args.seed)
    return run_resolving(args.workload, args.seed, args.seconds)


def report(args):
    """Run one workload, print its table and return the result object."""
    print(f"# covergeo perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        attempted, failed, layers, path = run_workload(args)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items()}
        for name, (value, unit) in layers.items():
            print(f"{args.workload:12s} {name:48s} {value:>14.6g} {unit}")
        print(f"{args.workload:12s} spans written to {path.relative_to(ROOT)}")
    else:
        attempted, failed, values, samples, probes = run_workload(args)
        print(f"{args.workload:12s} {'host probe (raw median)':34s} "
              f"{statistics.median(probes) * 1e3:>12.6g} {'ms':5s} n={len(probes)}"
              f"  (times below are scaled to {PROBE_NOMINAL_S * 1e3:g} ms)")
        metrics = {}
        for name, value in values.items():
            unit = END_TO_END[name][0]
            metrics[name] = {"value": value, "unit": unit}
            alias = _alias(name, args.workload)
            label = f"{name} ({alias})" if alias else name
            print(f"{args.workload:12s} {label:34s} {value:>12.6g} {unit:5s} "
                  f"n={samples[name]}")
    print(f"{args.workload:12s} {'failed_frac':34s} {failed / attempted:>12.6g} "
          f"{'':5s} n={attempted} ({failed} failed)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args):
    """Every workload in its own process, so that peak RSS and imports stay
    per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode or not lines:
            print(f"{workload}: benchmark exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "covergeo" / "__init__.py", GOLDEN_DIR) if not p.exists()]
    if missing:
        print(f"perfbench: run from a covergeo checkout; missing {missing[0]}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result = report(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
