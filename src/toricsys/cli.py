"""Command-line interface.

Profiles are given either as a file path (see profile_io) or as an
inline family spec like ``ellipsoid:1,4,1``, ``polydisk:1,2``,
``ball:2``, ``fc:1,0.5,8`` (``geometry.FAMILIES``).

Each subcommand takes only the flags it reads.  Output flags:
``--csv PATH`` on ``invariants``, ``orbits`` and ``sweep``; ``--svg PATH``
on ``invariants``, ``strangulate``, ``strain`` and ``sweep``; ``--out
PATH`` (the output profile) on ``strangulate`` and ``strain``.
``--oracle-n`` (brute-force cutoff) is taken by ``tmin`` only.

Exit codes: 0 success, 2 validation/usage error, 3 finding (a verified
bound fails in a verification mode).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .errors import ParamOutOfRange, ToricError
from .geometry import FAMILIES, MomentProfile, classify, fc_c_min
from . import experiments, invariants, profile_io, reeb, surgery

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_FINDING = 3


def resolve_profile(spec: str) -> MomentProfile:
    if Path(spec).exists():
        return profile_io.load(spec)
    family, colon, argstr = spec.partition(":")
    if colon and family in FAMILIES:
        build, required, optional = FAMILIES[family]
        try:
            args = [float(x) for x in argstr.split(",") if x]
        except ValueError:
            raise ParamOutOfRange(f"{family} takes numbers; got {argstr!r}") from None
        if not all(map(math.isfinite, args)):
            raise ParamOutOfRange(f"{family} takes finite numbers; got {argstr!r}")
        if not len(required) <= len(args) <= len(required) + len(optional):
            names = ",".join(required) + "".join(f"[,{o}]" for o in optional)
            raise ParamOutOfRange(
                f"{family} takes arguments {names}; got {len(args)} in {spec!r}"
            )
        return build(*args)
    raise ToricError(f"cannot resolve profile {spec!r} (no such file or family spec)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="toricsys",
        description="Contact/symplectic invariants of star-shaped toric domains in R^4.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for name in ("classify", "invariants", "tmin", "verify-ruelle"):
        sub.add_parser(name).add_argument("profile")
    sub.choices["tmin"].add_argument("--method", choices=("fast", "oracle"), default="fast")
    sub.choices["tmin"].add_argument("--oracle-n", type=int, default=200,
                                     help="brute-force cutoff")
    sub.choices["verify-ruelle"].add_argument("--n", type=int, default=8,
                                              help="quadrature points per segment, 2 to 100")

    sp = sub.add_parser("orbits")
    sp.add_argument("profile")
    sp.add_argument("--cutoff", type=float, required=True)

    sp = sub.add_parser("strangulate")
    sp.add_argument("profile")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--ray", type=float, default=math.pi / 4, help="ray angle (radians)")
    sp.add_argument("--out", default=None, help="write the output profile here")

    sp = sub.add_parser("strain")
    sp.add_argument("profile")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--flatten", type=float, default=0.0,
                    help="flatten this w1-radius near the intercept first")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("sweep")
    sp.add_argument("--op", choices=("strangulate", "strain"), required=True)
    sp.add_argument("--profile", required=True)
    sp.add_argument("--eps-grid", required=True, help="comma-separated epsilons")

    sp = sub.add_parser("bounds")
    sp.add_argument("--corpus", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("fc-scan")
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--grid", default=None, help="comma-separated c values")
    sp.add_argument("--grid-n", type=int, default=20)

    for name in ("invariants", "orbits", "sweep"):
        sub.choices[name].add_argument("--csv", default=None,
                                       help="write CSV output to this path")
    for name in ("invariants", "strangulate", "strain", "sweep"):
        sub.choices[name].add_argument("--svg", default=None,
                                       help="write SVG output to this path")
    return ap


def _print_outcome(out: surgery.SurgeryOutcome):
    print(f"volume_delta = {out.volume_delta:.17g}")
    print(f"volume_delta_bound = {out.volume_delta_bound:.17g}")
    for o in out.new_orbit_witnesses:
        print(
            f"witness_orbit = ({o.mn[0]},{o.mn[1]}) at "
            f"({o.base_point[0]:.17g},{o.base_point[1]:.17g}) action {o.action:.17g}"
        )
    c = out.preserved_flags
    print(
        "flags = "
        f"monotone={c.monotone} strictly_monotone={c.strictly_monotone} "
        f"convex_4d={c.convex_4d}"
    )
    print(f"spec = {out.spec}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ToricError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "classify":
        p = resolve_profile(args.profile)
        c = classify(p)
        for name in ("star_shaped", "monotone", "strictly_monotone", "convex_4d"):
            print(f"{name} = {getattr(c, name)}")
        if c.witnesses:
            print(f"witnesses = {c.witnesses}")
        return EXIT_OK

    if cmd == "invariants":
        p = resolve_profile(args.profile)
        rep = invariants.report(p)
        sys.stdout.write(invariants.report_to_text(rep))
        if args.csv:
            Path(args.csv).write_text(
                experiments.CSV_SCHEMA_LINE + "\n"
                + invariants.report_csv_header() + "\n"
                + invariants.report_to_csv_row(rep) + "\n"
            )
        if args.svg:
            experiments.emit_profile_svg(p, args.svg)
        return EXIT_OK

    if cmd == "orbits":
        p = resolve_profile(args.profile)
        rows = reeb.orbit_csv_rows(reeb.orbits_below(p, args.cutoff))
        print("\n".join(rows))
        if args.csv:
            Path(args.csv).write_text("\n".join(rows) + "\n")
        return EXIT_OK

    if cmd == "tmin":
        p = resolve_profile(args.profile)
        action, witness = reeb.t_min(p, method=args.method, n_oracle=args.oracle_n)
        print(f"t_min = {action:.17g}")
        print(
            f"witness = ({witness.mn[0]},{witness.mn[1]}) at "
            f"({witness.base_point[0]:.17g},{witness.base_point[1]:.17g}) "
            f"[{witness.location_kind} {witness.location_index}]"
        )
        return EXIT_OK

    if cmd == "verify-ruelle":
        p = resolve_profile(args.profile)
        closed = invariants.ruelle_closed_form(p)
        quad = invariants.ruelle_quadrature(p, n=args.n)
        rel = abs(quad - closed) / closed
        print(f"ruelle_closed_form = {closed:.17g}")
        print(f"ruelle_quadrature = {quad:.17g}")
        print(f"relative_error = {rel:.3g}")
        return EXIT_OK if rel <= 1e-6 else EXIT_FINDING

    if cmd == "strangulate":
        p = resolve_profile(args.profile)
        out = surgery.strangulate(p, args.eps, args.ray)
        _print_outcome(out)
        if args.out:
            profile_io.save(out.profile, args.out)
        if args.svg:
            experiments.emit_profile_svg(out.profile, args.svg)
        return EXIT_OK

    if cmd == "strain":
        p = resolve_profile(args.profile)
        if args.flatten != 0:
            p, _ = surgery.flatten_near_intercept(p, args.flatten)
        out = surgery.strain(p, args.eps)
        _print_outcome(out)
        if args.out:
            profile_io.save(out.profile, args.out)
        if args.svg:
            experiments.emit_profile_svg(out.profile, args.svg)
        return EXIT_OK

    if cmd == "sweep":
        p = resolve_profile(args.profile)
        grid = tuple(float(x) for x in args.eps_grid.split(",") if x)
        config = experiments.RunConfig(
            profile=p, op=args.op, eps_grid=grid, csv_path=args.csv, svg_path=args.svg
        )
        records = experiments.run_sweep(config)
        for r in records:
            print(r.csv_row())
        bad = any((not r.bound_holds) and not r.error for r in records)
        return EXIT_FINDING if bad else EXIT_OK

    if cmd == "bounds":
        config = experiments.RunConfig(seed=args.seed, corpus_size=args.corpus)
        summary = experiments.run_corpus_bounds(config)
        for key in (
            "n", "seed", "monotone_min_product", "monotone_max_product",
            "convex_min_product", "convex_max_product",
        ):
            print(f"{key} = {summary[key]}")
        for v in summary["violations"]:
            print(f"violation = {v}")
        return EXIT_FINDING if summary["violations"] else EXIT_OK

    if cmd == "fc-scan":
        lo = fc_c_min(args.b)
        if args.grid:
            grid = [float(x) for x in args.grid.split(",") if x]
        elif args.grid_n < 2:
            raise ParamOutOfRange(f"--grid-n must be at least 2; got {args.grid_n}")
        else:
            grid = [lo + (1 - 1e-6 - lo) * i / (args.grid_n - 1) for i in range(args.grid_n)]
        summary = experiments.run_fc_scan(args.b, grid)
        print("c,vol_quad,vol_closed,c_gr,ratio")
        for r in summary["records"]:
            print(
                f"{r['c']:.17g},{r['vol_quad']:.17g},{r['vol_closed']:.17g},"
                f"{r['c_gr']:.17g},{r['ratio']:.17g}"
            )
        print(f"argmax_c = {summary['argmax_c']:.17g}")
        print(f"max_ratio = {summary['max_ratio']:.17g}")
        mismatch = any(r["vol_abs_err"] > 1e-8 for r in summary["records"])
        return EXIT_FINDING if mismatch else EXIT_OK

    raise ToricError(f"unknown command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main())
