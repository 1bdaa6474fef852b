"""Command line front end.

Subcommands: resolve, xi, fibration, raynaud, char3, kappa, genus, verify.
Exit codes: 0 all checks passed, 1 a check failed or a computation could not
finish, 2 usage or parse errors.  Each cmd_* returns its Report or raises a
ValueError on bad input; main alone prints the one error line and picks the
exit code.  Output is exact; --format picks the table or the tab-separated
records rendering, --no-timestamp makes reruns byte-identical.  Each cmd_*
imports the modules it runs, so a command loads only its own layers.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .fields import (
    DEFAULT_DEPTH_LIMIT,
    ExtensionDegreeError,
    IrrationalPointError,
    ResolutionDepthError,
)
from .reports import Report

USAGE_ERROR = 2
# a computation that could not finish exits 1, like a failed check;
# IrrationalPointError is a ValueError, so it is told apart from usage errors
_UNFINISHED = (ResolutionDepthError, IrrationalPointError, ExtensionDegreeError)


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with a one-line usage error, "covergeo <command>: <message>",
    as every other usage error; subparsers inherit the class."""

    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: {message}\n")


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("table", "records"), default="table")
    sub.add_argument("--no-timestamp", action="store_true",
                     help="omit the timestamp line for byte-identical reruns")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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
    # default None: verify.DEFAULT_SEED, read when the command runs
    p_ver.add_argument("--seed", type=int)
    _common_flags(p_ver)

    return parser


def cmd_resolve(args) -> Report:
    from .parsing import parse_field_spec, parse_polynomial
    from .resolution import BranchGerm, canonical_resolution

    if args.depth_limit < 0:
        raise ValueError(f"--depth-limit must be >= 0, got {args.depth_limit}")
    field = parse_field_spec(args.field)
    poly = parse_polynomial(args.germ, field)
    equation = poly.fmt()
    report = Report(
        f"resolve {args.germ!r} --field {args.field}",
        f"resolve|{equation}|{field.name}|{args.depth_limit}",
    )
    trace = canonical_resolution(
        BranchGerm(poly), depth_limit=args.depth_limit
    )
    report.add("germ", "input", equation)
    report.add("germ", "field", field.name)
    report.add("germ", "reduced-part", trace.reduced.poly.fmt())
    report.add("germ", "even-part", trace.even_part.poly.fmt())
    report.add("germ", "negligible", trace.negligible)
    report.add("columns", "step", "m", "l", "copies", "center")
    for step in trace.steps:
        report.add("step", step.index, step.multiplicity, step.half,
                   step.copies, step.center)
    report.add("total", "xi", trace.xi)
    report.add("total", "chi-drop", trace.xi)
    report.add("total", "K2-drop", trace.k2_defect)
    recomputed = trace.recompute_totals()
    report.check("trace-consistency",
                 recomputed == (trace.xi, trace.k2_defect),
                 f"xi={trace.xi} K2-drop={trace.k2_defect}")
    return report


def _parse_kv(token: str, key: str) -> int:
    if "=" in token:
        k, _, v = token.partition("=")
        if k != key:
            raise ValueError(f"expected {key}=<int>, got {token!r}")
        return int(v)
    return int(token)


def cmd_xi(args) -> Report:
    from .xi import (
        RamificationType,
        SingularityClass,
        xi_and_slack,
        xi_bound_family,
        xi_family,
    )

    modes = sum(1 for flag in (args.family, args.cls) if flag)
    if modes != 1:
        raise ValueError("pick exactly one of --family or --type")
    if args.family:
        if any(flag is not None for flag in (args.tame, args.wild, args.p)):
            raise ValueError("--family takes none of --tame, --wild or --p")
        a, b, m, n = args.family
        report = Report(
            f"xi --family {a} {b} {m} {n}",
            f"xi-family|{a}|{b}|{m}|{n}",
        )
        value = xi_family(a, b, m, n)
        report.add("xi", "family", f"x^{a}*t^{b}*(x^{m}-t^{n})", value)
        if m % 2:
            bound = xi_bound_family(a, b, m, n)
            report.add("xi", "upper-bound", bound)
            report.check("xi-within-bound", value <= bound,
                         f"{value} <= {bound}")
        return report
    if args.p is None:
        raise ValueError("--type needs --p")
    if (args.tame is None) == (args.wild is None):
        raise ValueError("--type needs exactly one of --tame/--wild")
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
    )
    value, slack = xi_and_slack(cls, lam, args.p)
    report.add("xi", "type", cls.value, lam.fmt(), value)
    report.add("xi", "slack", slack)
    report.check("slack-non-negative", slack >= 0, slack)
    return report


def cmd_fibration(args) -> Report:
    from . import fibration as fib

    datum = fib.load_datum(args.datum)
    report = Report(
        f"fibration {args.datum}",
        fib.datum_to_json(datum),
    )
    report.add("datum", "p", datum.p)
    report.add("datum", "q", datum.q)
    report.add("datum", "points", len(datum.points))
    validation = fib.validate(datum)
    for name, ok, detail in validation.checks:
        report.check(name, ok, detail)
    if validation.ok:
        report.add("invariant", "alpha", validation.alpha)
        report.add("invariant", "d", validation.d)
        report.add("invariant", "chi-cover", validation.chi_cover)
        result = fib.evidence_bound_check(validation)
        report.add("invariant", "chi-smooth", result.chi)
        report.add("invariant", "chi-bound", result.bound)
        report.check("chi-lower-bound", result.passed,
                     f"{result.chi} >= {result.bound}")
    return report


def cmd_raynaud(args) -> Report:
    from . import geography as geo

    report = Report(
        f"raynaud --p {args.p} --l {args.l}",
        f"raynaud|{args.p}|{args.l}",
    )
    inv = geo.raynaud_invariants(args.p, args.l)
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
    return report


def cmd_char3(args) -> Report:
    from . import geography as geo

    report = Report(
        f"char3 --n {args.n}",
        f"char3|{args.n}",
    )
    ex = geo.char3_example(args.n)
    report.add("invariant", "q-1", ex.q - 1)
    report.add("invariant", "m", ex.m)
    report.add("invariant", "c2-upper-bound", ex.c2_upper)
    report.add("invariant", "bound/(q-1)", ex.ratio)
    report.check("c2-floor", ex.c2_upper >= -4 * (ex.q - 1),
                 f"{ex.c2_upper} >= {-4 * (ex.q - 1)}")
    return report


def cmd_kappa(args) -> Report:
    from . import geography as geo

    report = Report(
        f"kappa --min {args.min} --max {args.max}",
        f"kappa|{args.min}|{args.max}",
    )
    rows = geo.kappa_table(args.min, args.max)
    if not rows:  # the checks below would pass on no rows
        raise ValueError(f"no prime p >= 3 between --min {args.min} and "
                         f"--max {args.max}")
    report.add("columns", "p", "conjectural", "proven-lower", "note",
               "gap-to-1/12")
    gaps = [Fraction(1, 12) - row.conjectural if row.p >= 5 else None for row in rows]
    for row, gap in zip(rows, gaps):
        report.add("kappa", row.p, row.conjectural, row.proven_lower,
                   row.note, gap)
    dominated = all(
        row.conjectural > row.proven_lower
        for row in rows
        if row.p >= 7
    )
    report.check("conjectural-dominates-proven", dominated)
    shrinking = all(
        gap < Fraction(1, row.p)
        for row, gap in zip(rows, gaps)
        if row.p >= 11
    )
    report.check("gap-below-1/p(p>=11)", shrinking)
    return report


def cmd_genus(args) -> Report:
    from . import genus as gen

    report = Report(
        f"genus --p {args.p}",
        f"genus|{args.p}|{args.upper}|{args.lower}|{args.g}|{args.tower}",
    )
    gen.require_odd_prime(args.p)  # before any row
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
        report.add("rational-curve", "quasi-hyperelliptic-genus",
                   gen.quasi_hyperelliptic_genus_ok(args.g, args.p))
        try:
            report.add("rational-curve", "torsion-degree",
                       gen.rational_curve_torsion(args.g, args.p))
        except ValueError as exc:
            report.add("rational-curve", "torsion-degree", f"n/a ({exc})")
    if args.tower is not None:
        genera = [int(v) for v in args.tower.split(",")]
        report.check("tower-drops-shrink",
                     gen.tower_monotonicity(genera, args.p),
                     args.tower)
    return report


def cmd_verify(args) -> Report:
    from .verify import DEFAULT_SEED, run_suite

    seed = DEFAULT_SEED if args.seed is None else args.seed
    report = Report(
        f"verify {args.suite}",
        f"verify|{args.suite}|{seed}",
    )
    checks = run_suite(args.suite, seed=seed)
    for name, ok, detail in checks:
        report.check(name, ok, detail)
    return report


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
    args, unknown = build_parser().parse_known_args(argv)
    try:
        if unknown:
            # argparse would report these from the top-level parser, without
            # the command
            raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
        report = _DISPATCH[args.command](args)
    except (*_UNFINISHED, ValueError, OSError) as exc:
        print(f"covergeo {args.command}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, _UNFINISHED) else USAGE_ERROR
    print(report.render(args.format, timestamp=not args.no_timestamp), end="")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
