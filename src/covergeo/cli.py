"""Command line front end.

Subcommands: resolve, xi, fibration, raynaud, char3, kappa, genus, verify.
Exit codes: 0 all checks passed, 1 a check failed or a computation could not
finish, 2 usage or parse errors.  Output is exact; --format picks the
table or the tab-separated records rendering, --no-timestamp makes reruns
byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import fibration as fib
from . import geography as geo
from . import genus as gen
from .parsing import ParseError, parse_field_spec, parse_polynomial
from .reports import Report
from .resolution import (
    DEFAULT_DEPTH_LIMIT,
    BranchGerm,
    IrrationalPointError,
    ResolutionDepthError,
    canonical_resolution,
)
from .verify import DEFAULT_SEED, run_suite
from .xi import RamificationType, SingularityClass, xi_bound_family, xi_family, xi_inequality_slack, xi_type

USAGE_ERROR = 2


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("table", "records"), default="table")
    sub.add_argument("--no-timestamp", action="store_true",
                     help="omit the timestamp line for byte-identical reruns")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covergeo",
        description="exact singularity invariants of flat double covers and "
                    "surface geography checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_res = sub.add_parser("resolve", help="resolve a branch germ at the origin")
    p_res.add_argument("germ", help="polynomial in x and t, e.g. 'x^5 - t^4'")
    p_res.add_argument("--field", default="Q", help="Q, F<p> or F<p>^<k>")
    p_res.add_argument("--depth-limit", type=int, default=DEFAULT_DEPTH_LIMIT)
    _common_flags(p_res)

    p_xi = sub.add_parser("xi", help="closed-form branch point invariants")
    p_xi.add_argument("--family", nargs=4, type=int, metavar=("A", "B", "M", "N"),
                      help="invariant of x^A t^B (x^M - t^N)")
    p_xi.add_argument("--type", dest="cls", choices=("I", "II", "III", "IV"))
    p_xi.add_argument("--tame", metavar="R", help="tame ramification index")
    p_xi.add_argument("--wild", nargs=2, metavar=("J", "R"),
                      help="wild ramification data (accepts j=1 R=5)")
    p_xi.add_argument("--p", type=int, help="residue characteristic (type mode)")
    _common_flags(p_xi)

    p_fib = sub.add_parser("fibration", help="evaluate a fibration datum file")
    p_fib.add_argument("datum", help="path to a JSON datum {p, q, points}")
    _common_flags(p_fib)

    p_ray = sub.add_parser("raynaud", help="ruled-surface double cover invariants")
    p_ray.add_argument("--p", type=int, required=True)
    p_ray.add_argument("--l", type=int, required=True)
    _common_flags(p_ray)

    p_c3 = sub.add_parser("char3", help="characteristic-3 negative-c2 family")
    p_c3.add_argument("--n", type=int, required=True)
    _common_flags(p_c3)

    p_kap = sub.add_parser("kappa", help="chi/c1^2 lower bound table")
    p_kap.add_argument("--min", type=int, default=3)
    p_kap.add_argument("--max", type=int, default=199)
    _common_flags(p_kap)

    p_gen = sub.add_parser("genus", help="genus-change validators")
    p_gen.add_argument("--p", type=int, required=True)
    p_gen.add_argument("--upper", type=int, help="genus upstairs")
    p_gen.add_argument("--lower", type=int, default=0, help="genus downstairs")
    p_gen.add_argument("--g", type=int,
                       help="genus of a geometrically rational curve")
    p_gen.add_argument("--tower", help="comma-separated genus tower, e.g. 7,2,1")
    _common_flags(p_gen)

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("suite", nargs="?", default="all",
                       help="oracle, app1, evidence, raynaud, xi-ineq, kappa, "
                            "genus or all")
    p_ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _common_flags(p_ver)

    return parser


def cmd_resolve(args) -> int:
    if args.depth_limit < 0:
        print(f"covergeo resolve: --depth-limit must be >= 0, got {args.depth_limit}",
              file=sys.stderr)
        return USAGE_ERROR
    try:
        field = parse_field_spec(args.field)
        poly = parse_polynomial(args.germ, field)
    except (ParseError, ValueError) as exc:
        print(f"covergeo resolve: {exc}", file=sys.stderr)
        return USAGE_ERROR
    report = Report(
        f"resolve {args.germ!r} --field {args.field}",
        f"resolve|{poly.fmt()}|{field.name}|{args.depth_limit}",
        timestamp=not args.no_timestamp,
    )
    try:
        trace = canonical_resolution(
            BranchGerm(poly), depth_limit=args.depth_limit
        )
    except (ResolutionDepthError, IrrationalPointError) as exc:
        print(f"covergeo resolve: {exc}", file=sys.stderr)
        return 1
    report.add("germ", "input", trace.input_equation)
    report.add("germ", "field", trace.field_name)
    report.add("germ", "reduced-part", trace.reduced_equation)
    report.add("germ", "even-part", trace.even_part_equation)
    report.add("germ", "negligible", trace.negligible)
    report.add("columns", "step", "m", "l", "copies", "center")
    for step in trace.steps:
        report.add("step", step.index, step.multiplicity, step.half,
                   step.copies, step.center)
    report.add("total", "xi", trace.xi)
    report.add("total", "chi-drop", -trace.chi_defect)
    report.add("total", "K2-drop", trace.k2_defect)
    recomputed = trace.recompute_totals()
    report.check("trace-consistency",
                 recomputed == (trace.xi, trace.k2_defect),
                 f"xi={trace.xi} K2-drop={trace.k2_defect}")
    print(report.render(args.format), end="")
    return report.exit_code


def _parse_kv(token: str, key: str) -> int:
    if "=" in token:
        k, _, v = token.partition("=")
        if k != key:
            raise ValueError(f"expected {key}=<int>, got {token!r}")
        return int(v)
    return int(token)


def cmd_xi(args) -> int:
    modes = sum(1 for flag in (args.family, args.cls) if flag)
    if modes != 1:
        print("covergeo xi: pick exactly one of --family or --type",
              file=sys.stderr)
        return USAGE_ERROR
    try:
        if args.family:
            a, b, m, n = args.family
            report = Report(
                f"xi --family {a} {b} {m} {n}",
                f"xi-family|{a}|{b}|{m}|{n}",
                timestamp=not args.no_timestamp,
            )
            value = xi_family(a, b, m, n)
            report.add("xi", "family", f"x^{a}*t^{b}*(x^{m}-t^{n})", value)
            if m % 2:
                bound = xi_bound_family(a, b, m, n)
                report.add("xi", "upper-bound", bound)
                report.check("xi-within-bound", value <= bound,
                             f"{value} <= {bound}")
        else:
            if args.p is None:
                print("covergeo xi: --type needs --p", file=sys.stderr)
                return USAGE_ERROR
            if (args.tame is None) == (args.wild is None):
                print("covergeo xi: --type needs exactly one of --tame/--wild",
                      file=sys.stderr)
                return USAGE_ERROR
            cls = SingularityClass(args.cls)
            if args.tame is not None:
                lam = RamificationType.tame(_parse_kv(args.tame, "R"))
            else:
                lam = RamificationType.wild(
                    _parse_kv(args.wild[0], "j"), _parse_kv(args.wild[1], "R")
                )
            report = Report(
                f"xi --type {cls.value} ({lam.fmt()}) p={args.p}",
                f"xi-type|{cls.value}|{lam.fmt()}|{args.p}",
                timestamp=not args.no_timestamp,
            )
            value = xi_type(cls, lam, args.p)
            slack = xi_inequality_slack(cls, lam, args.p)
            report.add("xi", "type", cls.value, lam.fmt(), value)
            report.add("xi", "slack", slack)
            report.check("slack-non-negative", slack >= 0, slack)
    except ValueError as exc:
        print(f"covergeo xi: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(report.render(args.format), end="")
    return report.exit_code


def cmd_fibration(args) -> int:
    try:
        datum = fib.load_datum(args.datum)
    except (OSError, fib.InvalidDatumError, ValueError) as exc:
        print(f"covergeo fibration: {exc}", file=sys.stderr)
        return USAGE_ERROR
    report = Report(
        f"fibration {args.datum}",
        fib.datum_to_json(datum),
        timestamp=not args.no_timestamp,
    )
    report.add("datum", "p", datum.p)
    report.add("datum", "q", datum.q)
    report.add("datum", "points", len(datum.points))
    validation = fib.validate(datum)
    for name, ok, detail in validation.checks:
        report.check(name, ok, detail)
    if validation.ok:
        alpha, d = fib.alpha_of(datum), fib.d_of(datum)
        report.add("invariant", "alpha", alpha)
        report.add("invariant", "d", d)
        report.add("invariant", "chi-cover", fib.chi_normalized_cover(datum))
        chi = fib.chi_smooth_model(datum)
        report.add("invariant", "chi-smooth", chi)
        result = fib.evidence_bound_check(datum)
        report.add("invariant", "chi-bound", result.bound)
        report.check("chi-lower-bound", result.passed,
                     f"{result.chi} >= {result.bound}")
    print(report.render(args.format), end="")
    return report.exit_code


def cmd_raynaud(args) -> int:
    report = Report(
        f"raynaud --p {args.p} --l {args.l}",
        f"raynaud|{args.p}|{args.l}",
        timestamp=not args.no_timestamp,
    )
    try:
        inv = geo.raynaud_invariants(args.p, args.l)
    except ValueError as exc:
        print(f"covergeo raynaud: {exc}", file=sys.stderr)
        return USAGE_ERROR
    report.add("invariant", "chi", inv.chi)
    report.add("invariant", "K2", inv.K2)
    report.add("invariant", "c2", inv.c2)
    report.add("invariant", "q", inv.q)
    report.add("invariant", "fiber-genus", inv.g)
    report.add("invariant", "chi/K2", Fraction(inv.chi, inv.K2))
    report.check("noether", geo.noether_check(inv),
                 f"12*{inv.chi} = {inv.K2} + {inv.c2}")
    report.check("c2-floor-equality", inv.c2 == -4 * (inv.q - 1),
                 f"c2 = -4(q-1) = {-4 * (inv.q - 1)}")
    report.check("ratio-is-conjectural",
                 Fraction(inv.chi, inv.K2) == geo.kappa_conjectural(args.p),
                 geo.kappa_conjectural(args.p))
    print(report.render(args.format), end="")
    return report.exit_code


def cmd_char3(args) -> int:
    report = Report(
        f"char3 --n {args.n}",
        f"char3|{args.n}",
        timestamp=not args.no_timestamp,
    )
    try:
        ex = geo.char3_example(args.n)
    except ValueError as exc:
        print(f"covergeo char3: {exc}", file=sys.stderr)
        return USAGE_ERROR
    report.add("invariant", "q-1", ex.q - 1)
    report.add("invariant", "m", ex.m)
    report.add("invariant", "c2-upper-bound", ex.c2_upper)
    report.add("invariant", "bound/(q-1)", ex.ratio)
    report.check("c2-floor", ex.c2_upper >= -4 * (ex.q - 1),
                 f"{ex.c2_upper} >= {-4 * (ex.q - 1)}")
    print(report.render(args.format), end="")
    return report.exit_code


def cmd_kappa(args) -> int:
    report = Report(
        f"kappa --min {args.min} --max {args.max}",
        f"kappa|{args.min}|{args.max}",
        timestamp=not args.no_timestamp,
    )
    report.add("columns", "p", "conjectural", "proven-lower", "note",
               "gap-to-1/12")
    rows = geo.kappa_table(args.min, args.max)
    for row in rows:
        gap = geo.kappa_limit_gap(row.p) if row.p >= 5 else None
        report.add("kappa", row.p, row.conjectural, row.proven_lower,
                   row.note, gap)
    dominated = all(
        row.conjectural > row.proven_lower
        for row in rows
        if row.p >= 7
    )
    report.check("conjectural-dominates-proven", dominated)
    shrinking = all(
        geo.kappa_limit_gap(row.p) < Fraction(1, row.p)
        for row in rows
        if row.p >= 11
    )
    report.check("gap-below-1/p(p>=11)", shrinking)
    print(report.render(args.format), end="")
    return report.exit_code


def cmd_genus(args) -> int:
    report = Report(
        f"genus --p {args.p}",
        f"genus|{args.p}|{args.upper}|{args.lower}|{args.g}|{args.tower}",
        timestamp=not args.no_timestamp,
    )
    try:
        if args.upper is not None:
            rec = gen.GenusChangeRecord(args.p, args.upper, args.lower)
            divisible = gen.tate_divisibility(rec)
            report.add("genus-change", "drop", rec.drop)
            report.check("tate-divisibility", divisible,
                         f"{args.p - 1} | {2 * rec.drop}")
            if divisible:
                report.add("genus-change", "torsion-degree",
                           gen.torsion_degree(rec))
        if args.g is not None:
            member = gen.quasi_hyperelliptic_genus_ok(args.g, args.p)
            report.add("rational-curve", "quasi-hyperelliptic-genus",
                       "unknown-at-bound" if member is None else member)
            try:
                report.add("rational-curve", "torsion-degree",
                           gen.rational_curve_torsion(args.g, args.p))
            except ValueError as exc:
                report.add("rational-curve", "torsion-degree", f"n/a ({exc})")
        if args.tower:
            genera = [int(v) for v in args.tower.split(",")]
            report.check("tower-drops-shrink",
                         gen.tower_monotonicity(genera, args.p),
                         args.tower)
    except ValueError as exc:
        print(f"covergeo genus: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(report.render(args.format), end="")
    return report.exit_code


def cmd_verify(args) -> int:
    report = Report(
        f"verify {args.suite}",
        f"verify|{args.suite}|{args.seed}",
        timestamp=not args.no_timestamp,
    )
    try:
        checks = run_suite(args.suite, seed=args.seed)
    except ValueError as exc:
        print(f"covergeo verify: {exc}", file=sys.stderr)
        return USAGE_ERROR
    for name, ok, detail in checks:
        report.check(name, ok, detail)
    print(report.render(args.format), end="")
    return report.exit_code


_DISPATCH = {
    "resolve": cmd_resolve,
    "xi": cmd_xi,
    "fibration": cmd_fibration,
    "raynaud": cmd_raynaud,
    "char3": cmd_char3,
    "kappa": cmd_kappa,
    "genus": cmd_genus,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return _DISPATCH[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
