"""Command-line interface.

Profiles are given either as a file path (see profile_io) or as an
inline family spec like ``ellipsoid:1,4,1``, ``polydisk:1,2``,
``ball:2``, ``fc:1,0.5,8`` (``geometry.FAMILIES``).

Each subcommand is declared once, by ``@command`` on its handler, with
the flags that handler reads; the parser is built once per process.
Output flags, written by the handlers: ``--csv PATH`` on ``invariants``,
``orbits`` and ``sweep``; ``--svg PATH`` on ``invariants``,
``strangulate``, ``strain`` and ``sweep``; ``--out PATH`` (the output
profile) on ``strangulate`` and ``strain``.  ``--oracle-n`` (brute-force
cutoff, default 200) is read only with ``tmin --method oracle``;
``fc-scan`` takes ``--grid`` or ``--grid-n``, not both.

Exit codes: 0 success, 2 validation/usage error, 3 finding (a verified
bound fails in a verification mode), 141 standard output closed before
the command finished (128 + SIGPIPE, what a shell reports for a tool
stopped by a closed pipe).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

from .errors import ParamOutOfRange, ToricError
from .geometry import FAMILIES, MomentProfile, classify, fc_c_min
from . import experiments, invariants, profile_io, reeb, surgery

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_FINDING = 3
EXIT_PIPE = 141


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


# Subcommands: name -> (flags, handler).  A flag is (names, add_argument
# keywords); a list of flags is one mutually exclusive group.  A handler
# takes the parsed arguments and the resolved profile (None for commands
# without one) and returns the exit code.
COMMANDS = {}


def _flag(*names, **kw):
    return names, kw


def command(name, *flags):
    def register(run):
        COMMANDS[name] = (flags, run)
        return run
    return register


def _grid(text: str, flag: str, what: str) -> tuple[float, ...]:
    """The numbers of a comma-separated grid flag, of which there must be one."""
    try:
        grid = tuple(float(x) for x in text.split(",") if x)
    except ValueError:
        raise ParamOutOfRange(f"{flag} takes comma-separated numbers; got {text!r}") from None
    if not grid:
        raise ParamOutOfRange(f"the {what} grid is empty ({flag})")
    return grid


PROFILE = _flag("profile")
EPS = _flag("--eps", type=float, required=True)
CSV = _flag("--csv", help="write CSV output to this path")
SVG = _flag("--svg", help="write SVG output to this path")
OUT = _flag("--out", help="write the output profile here")


@command("classify", PROFILE)
def _classify(args, p) -> int:
    c = classify(p)
    for name in ("star_shaped", "monotone", "strictly_monotone", "convex_4d"):
        print(f"{name} = {getattr(c, name)}")
    if c.witnesses:
        print(f"witnesses = {c.witnesses}")
    return EXIT_OK


@command("invariants", PROFILE, CSV, SVG)
def _invariants(args, p) -> int:
    rep = invariants.report(p)
    sys.stdout.write(invariants.report_to_text(rep))
    if args.csv:
        rows = (experiments.CSV_SCHEMA_LINE, invariants.report_csv_header(),
                invariants.report_to_csv_row(rep))
        Path(args.csv).write_text("\n".join(rows) + "\n")
    if args.svg:
        experiments.emit_profile_svg(p, args.svg)
    return EXIT_OK


@command("tmin", PROFILE, _flag("--method", choices=("fast", "oracle"), default="fast"),
         _flag("--oracle-n", type=int, help="brute-force cutoff (default 200), oracle only"))
def _tmin(args, p) -> int:
    if args.oracle_n is not None and args.method != "oracle":
        raise ParamOutOfRange("--oracle-n is read only with --method oracle")
    cutoff = {} if args.oracle_n is None else {"n_oracle": args.oracle_n}
    action, witness = reeb.t_min(p, method=args.method, **cutoff)
    (m, n), (w1, w2) = witness.mn, witness.base_point
    print(f"t_min = {action:.17g}")
    print(f"witness = ({m},{n}) at ({w1:.17g},{w2:.17g}) "
          f"[{witness.location_kind} {witness.location_index}]")
    return EXIT_OK


@command("verify-ruelle", PROFILE,
         _flag("--n", type=int, default=8, help="quadrature points per segment, 2 to 100"))
def _verify_ruelle(args, p) -> int:
    closed = invariants.ruelle_closed_form(p)
    quad = invariants.ruelle_quadrature(p, n=args.n)
    rel = abs(quad - closed) / closed
    print(f"ruelle_closed_form = {closed:.17g}")
    print(f"ruelle_quadrature = {quad:.17g}")
    print(f"relative_error = {rel:.3g}")
    return EXIT_OK if rel <= 1e-6 else EXIT_FINDING


@command("orbits", PROFILE, _flag("--cutoff", type=float, required=True), CSV)
def _orbits(args, p) -> int:
    rows = reeb.orbit_csv_rows(reeb.orbits_below(p, args.cutoff))
    print("\n".join(rows))
    if args.csv:
        Path(args.csv).write_text("\n".join(rows) + "\n")
    return EXIT_OK


def _surgery_output(out: surgery.SurgeryOutcome, args) -> int:
    print(f"volume_delta = {out.volume_delta:.17g}")
    print(f"volume_delta_bound = {out.volume_delta_bound:.17g}")
    for o in out.new_orbit_witnesses:
        (m, n), (w1, w2) = o.mn, o.base_point
        print(f"witness_orbit = ({m},{n}) at ({w1:.17g},{w2:.17g}) action {o.action:.17g}")
    c = out.preserved_flags
    print(f"flags = monotone={c.monotone} strictly_monotone={c.strictly_monotone} "
          f"convex_4d={c.convex_4d}")
    print(f"spec = {out.spec}")
    if args.out:
        profile_io.save(out.profile, args.out)
    if args.svg:
        experiments.emit_profile_svg(out.profile, args.svg)
    return EXIT_OK


@command("strangulate", PROFILE, EPS,
         _flag("--ray", type=float, default=math.pi / 4, help="ray angle (radians)"), OUT, SVG)
def _strangulate(args, p) -> int:
    return _surgery_output(surgery.strangulate(p, args.eps, args.ray), args)


@command("strain", PROFILE, EPS, _flag("--flatten", type=float, default=0.0,
         help="flatten this w1-radius near the intercept first"), OUT, SVG)
def _strain(args, p) -> int:
    if args.flatten != 0:
        p, _ = surgery.flatten_near_intercept(p, args.flatten)
    return _surgery_output(surgery.strain(p, args.eps), args)


@command("sweep", _flag("--op", choices=("strangulate", "strain"), required=True),
         _flag("--profile", required=True),
         _flag("--eps-grid", required=True, help="comma-separated epsilons"), CSV, SVG)
def _sweep(args, p) -> int:
    grid = _grid(args.eps_grid, "--eps-grid", "eps")
    records = experiments.run_sweep(experiments.RunConfig(profile=p, op=args.op, eps_grid=grid))
    if args.csv:
        experiments.write_sweep_csv(records, args.csv)
    if args.svg:
        experiments.emit_sweep_svg(records, args.svg)
    for r in records:
        print(r.csv_row())
    bad = any((not r.bound_holds) and not r.error for r in records)
    return EXIT_FINDING if bad else EXIT_OK


@command("bounds", _flag("--corpus", type=int, default=100), _flag("--seed", type=int, default=0))
def _bounds(args, p) -> int:
    summary = experiments.run_corpus_bounds(args.seed, args.corpus)
    for key in (
        "n", "seed", "monotone_min_product", "monotone_max_product",
        "convex_min_product", "convex_max_product",
    ):
        print(f"{key} = {summary[key]}")
    for v in summary["violations"]:
        print(f"violation = {v}")
    return EXIT_FINDING if summary["violations"] else EXIT_OK


@command("fc-scan", _flag("--b", type=float, required=True),
         [_flag("--grid", help="comma-separated c values"),
          _flag("--grid-n", type=int, help="number of evenly spaced c values (default 20)")])
def _fc_scan(args, p) -> int:
    lo = fc_c_min(args.b)
    n = 20 if args.grid_n is None else args.grid_n
    if args.grid is not None:
        grid = _grid(args.grid, "--grid", "c")
    elif n < 2:
        raise ParamOutOfRange(f"--grid-n must be at least 2; got {n}")
    else:
        grid = [lo + (1 - 1e-6 - lo) * i / (n - 1) for i in range(n)]
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="toricsys",
        description="Contact/symplectic invariants of star-shaped toric domains in R^4.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (flags, _) in COMMANDS.items():
        sp = sub.add_parser(name)
        for flag in flags:
            group = sp.add_mutually_exclusive_group() if isinstance(flag, list) else sp
            for names, kw in flag if isinstance(flag, list) else [flag]:
                group.add_argument(*names, **kw)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, run = COMMANDS[args.command]
    try:
        code = run(args, resolve_profile(args.profile) if "profile" in args else None)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed standard output; point it at devnull so the
        # interpreter's final flush of what is still buffered stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except ToricError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
