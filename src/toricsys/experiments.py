"""Experiment harness: epsilon sweeps over the two surgeries, randomized
bound-checking corpora, the extremal-family scan, and CSV/SVG emission.

All randomness is seeded; identical configurations produce byte-identical
CSV output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ParamOutOfRange, ToricError, integer
from .geometry import MomentProfile, classify, fc_c_min, fc_domain, from_vertices
from . import invariants, surgery

CSV_SCHEMA_LINE = "#schema=1"

@dataclass(frozen=True)
class SweepRecord:
    eps: float
    area: float = math.nan
    ruelle: float = math.nan
    t_min: float = math.nan
    sys: float = math.nan
    ru: float = math.nan
    product: float = math.nan
    bound_value: float = math.nan
    bound_holds: bool = False
    vol_delta: float = math.nan
    vol_delta_bound: float = math.nan
    error: str = ""

    def csv_row(self) -> str:
        vals = []
        for name in SWEEP_FIELDS:
            v = getattr(self, name)
            if isinstance(v, bool):
                vals.append("1" if v else "0")
            elif isinstance(v, float):
                vals.append(f"{v:.17g}")
            else:
                vals.append(str(v).replace(",", ";"))
        return ",".join(vals)


# The sweep CSV's columns: the record's fields, in order.
SWEEP_FIELDS = tuple(f.name for f in fields(SweepRecord))


@dataclass
class RunConfig:
    """The inputs of ``run_sweep``: the surgery ``op`` applied to
    ``profile`` at each epsilon of ``eps_grid``.  ``command`` is read by
    nothing; it stays while ``bench/workloads.py`` passes it."""

    profile: MomentProfile
    op: str
    eps_grid: tuple[float, ...]
    command: str = ""


def _sweep_one(op: str, p: MomentProfile, eps: float) -> SweepRecord:
    """One sweep point.  The input's area (``invariants.area``) and T_min
    (``surgery.input_t_min``) are computed once per profile."""
    vol_in = invariants.area(p)
    if op == "strangulate":
        out = surgery.strangulate(p, eps)
        rep = invariants.report(out.profile)
        spec = out.spec
        bound = 4 * eps * eps / vol_in
        side_ok = 16 * spec.w_star**2 * spec.theta < vol_in
        holds = (rep.sys <= bound + 1e-9) or not side_ok
    elif op == "strain":
        out = surgery.strain(p, eps)
        rep = invariants.report(out.profile)
        # Lower bound for the product: T_min(in)/(6 sqrt(eps) Vol(in)),
        # from Ru >= 1/sqrt(eps), T_min(out) >= T_min(in)/2 and
        # Vol(out) <= (3/2) Vol(in) for eps below the flatness window.
        bound = surgery.input_t_min(p) / (6 * math.sqrt(eps) * vol_in)
        holds = rep.product >= bound - 1e-9
    else:
        raise ParamOutOfRange(f"unknown sweep op {op!r}")
    return SweepRecord(
        eps=eps,
        area=rep.area,
        ruelle=rep.ruelle,
        t_min=rep.t_min,
        sys=rep.sys,
        ru=rep.ru,
        product=rep.product,
        bound_value=bound,
        bound_holds=holds,
        vol_delta=out.volume_delta,
        vol_delta_bound=out.volume_delta_bound,
    )


def run_sweep(config: RunConfig) -> list[SweepRecord]:
    """One record per epsilon, sorted descending; per-epsilon surgery
    errors are recorded in-row rather than raised.  Writes no file: see
    ``write_sweep_csv`` and ``emit_sweep_svg``."""
    records = []
    for eps in sorted(config.eps_grid, reverse=True):
        try:
            records.append(_sweep_one(config.op, config.profile, eps))
        except ToricError as exc:
            records.append(SweepRecord(eps=eps, error=f"{type(exc).__name__}: {exc}"))
    return records


def write_sweep_csv(records: list[SweepRecord], path) -> None:
    lines = [CSV_SCHEMA_LINE, ",".join(SWEEP_FIELDS)]
    lines.extend(r.csv_row() for r in records)
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Random profile corpora


def random_star_profile(rng: random.Random) -> MomentProfile:
    """Star-shaped but generally non-monotone: strictly increasing polar
    angles with arbitrary positive radii."""
    while True:
        k = rng.randint(2, 6)
        angles = sorted(rng.uniform(0.05, math.pi / 2 - 0.05) for _ in range(k))
        if any(b - a < 0.02 for a, b in zip(angles, angles[1:])):
            continue
        pts = [(rng.uniform(0.5, 2.0), 0.0)]
        for ang in angles:
            r = rng.uniform(0.3, 2.0)
            pts.append((r * math.cos(ang), r * math.sin(ang)))
        pts.append((0.0, rng.uniform(0.5, 2.0)))
        try:
            return from_vertices(pts)
        except ToricError:
            continue


def random_monotone_profile(rng: random.Random) -> MomentProfile:
    """Strictly monotone: w1 strictly decreasing, w2 strictly increasing
    along the path."""
    while True:
        k = rng.randint(4, 12)
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.5, 2.0)
        xs = sorted((rng.uniform(0.02, 0.98) * a for _ in range(k)), reverse=True)
        ys = sorted(rng.uniform(0.02, 0.98) * b for _ in range(k))
        pts = [(a, 0.0)] + list(zip(xs, ys)) + [(0.0, b)]
        try:
            p = from_vertices(pts)
        except ToricError:
            continue
        if classify(p).strictly_monotone:
            return p


def random_convex_monotone_profile(rng: random.Random) -> MomentProfile:
    """Monotone and 4D-convex: built as a concave decreasing chain in
    sqrt-coordinates (strictly decreasing slopes), then squared."""
    while True:
        k = rng.randint(3, 8)
        mu_a = rng.uniform(0.7, 1.5)
        mu_b = rng.uniform(0.7, 1.5)
        # Chain from (0, mu_b) to (mu_a, 0) with slopes decreasing.
        slopes = sorted((-rng.uniform(0.1, 4.0) for _ in range(k + 1)), reverse=True)
        widths = [rng.uniform(0.2, 1.0) for _ in range(k + 1)]
        wsum = sum(widths)
        widths = [w * mu_a / wsum for w in widths]
        xs, ys = [0.0], [0.0]
        for w, s in zip(widths, slopes):
            xs.append(xs[-1] + w)
            ys.append(ys[-1] + w * s)
        drop = -ys[-1]
        pts_mu = [(x, mu_b * (1 + y / drop)) for x, y in zip(xs, ys)]
        pts_mu[-1] = (mu_a, 0.0)
        # Path order runs from the w1-intercept to the w2-intercept.
        pts = [(x * x, y * y) for x, y in reversed(pts_mu)]
        try:
            p = from_vertices(pts)
        except ToricError:
            continue
        cls = classify(p)
        if cls.monotone and cls.convex_4d:
            return p


def run_corpus_bounds(seed: int, n: int) -> dict:
    """Evaluate the criterion product over seeded random corpora.

    Monotone corpus: product should stay >= 1/2.  Convex corpus: product
    should stay <= 3.  Violations are reported as findings, not raised,
    under the last key; ``toricsys bounds`` prints the others in order.
    """
    rng = random.Random(seed)
    n = integer(n, "corpus size")
    if n < 1:
        raise ParamOutOfRange(f"corpus size must be at least 1; got {n}")
    mono = [random_monotone_profile(rng) for _ in range(n)]
    conv = [random_convex_monotone_profile(rng) for _ in range(n)]
    mono_products = [invariants.report(p).product for p in mono]
    conv_products = [invariants.report(p).product for p in conv]
    violations = []
    for i, prod in enumerate(mono_products):
        if prod < 0.5 - 1e-9:
            violations.append(("monotone", i, prod))
    for i, prod in enumerate(conv_products):
        if prod > 3 + 1e-9:
            violations.append(("convex", i, prod))
    return {
        "n": n,
        "seed": seed,
        "monotone_min_product": min(mono_products),
        "monotone_max_product": max(mono_products),
        "convex_min_product": min(conv_products),
        "convex_max_product": max(conv_products),
        "violations": violations,
    }


# ---------------------------------------------------------------------------
# Extremal convex family scan


def run_fc_scan(b: float, grid) -> dict:
    """Per-c records of Gromov width / volume over the extremal family
    (16 segments per domain), with quadrature area cross-checked against
    the closed form."""
    lo = fc_c_min(b)
    if not grid:
        raise ParamOutOfRange("the c grid is empty")
    records = []
    for c in grid:
        p = fc_domain(b, c, n=16)
        vol_quad = invariants.area(p)
        vol_closed = invariants.vol_fc(b, c)
        c_gr = invariants.gromov_width_monotone(p)
        records.append(
            {
                "c": c,
                "vol_quad": vol_quad,
                "vol_closed": vol_closed,
                "vol_abs_err": abs(vol_quad - vol_closed),
                "c_gr": c_gr,
                "ratio": c_gr / vol_quad,
            }
        )
    best = max(records, key=lambda r: r["ratio"])
    return {
        "b": b,
        "records": records,
        "argmax_c": best["c"],
        "max_ratio": best["ratio"],
        "expected_argmax_c": lo,
        "expected_max_ratio": 6 / (1 + b),
    }


# ---------------------------------------------------------------------------
# SVG emission (hand-rolled static plots)


def _svg_header(w: float, h: float) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">'
    )


def emit_profile_svg(p: MomentProfile, path) -> None:
    """Profile path with axes; each tagged segment is drawn through eight
    points of its curve."""
    W = H = 400.0
    pad = 30.0
    x_max, y_max = p.xy.max(axis=0).tolist()
    scale = (W - 2 * pad) / max(x_max, y_max, 1e-12)

    def to_px(pt):
        return (pad + pt[0] * scale, H - pad - pt[1] * scale)

    def poly(points, color):
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in (to_px(q) for q in points))
        return f'<polyline points="{coords}" stroke="{color}" fill="none" stroke-width="1.5"/>'

    parts = [_svg_header(W, H)]
    parts.append(poly([(0, 0), (x_max * 1.05, 0)], "black"))
    parts.append(poly([(0, 0), (0, y_max * 1.05)], "black"))
    x, y = p.sample_curves(np.arange(8) / 8)
    curves = {i: list(zip(xs, ys)) for i, xs, ys in zip(p.tagged.tolist(), x.tolist(), y.tolist())}
    pts = [q for i, v in enumerate(p.vertices[:-1]) for q in curves.get(i, [v])]
    pts.append(p.vertices[-1])
    parts.append(poly(pts, "blue"))
    for v in (p.vertices[0], p.vertices[-1]):
        x, y = to_px(v)
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="blue"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def emit_sweep_svg(records: list[SweepRecord], path) -> None:
    """Log-log plot of the criterion product against epsilon."""
    W, H, pad = 480.0, 360.0, 45.0
    good = [r for r in records if not r.error and r.product > 0 and r.eps > 0]
    parts = [_svg_header(W, H)]
    parts.append(
        f'<rect x="{pad}" y="{pad}" width="{W - 2 * pad}" height="{H - 2 * pad}" '
        'fill="none" stroke="black"/>'
    )
    if good:
        lx = [math.log10(r.eps) for r in good]
        ly = [math.log10(r.product) for r in good]
        x0, x1 = min(lx), max(lx)
        y0, y1 = min(ly), max(ly)
        xr = (x1 - x0) or 1.0
        yr = (y1 - y0) or 1.0

        def to_px(px, py):
            return (
                pad + (px - x0) / xr * (W - 2 * pad),
                H - pad - (py - y0) / yr * (H - 2 * pad),
            )

        coords = " ".join(
            f"{x:.2f},{y:.2f}" for x, y in (to_px(a, b) for a, b in zip(lx, ly))
        )
        parts.append(
            f'<polyline points="{coords}" stroke="blue" fill="none" stroke-width="1.5"/>'
        )
        for a, b in zip(lx, ly):
            x, y = to_px(a, b)
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="blue"/>')
    parts.append(
        f'<text x="{W / 2:.0f}" y="{H - 10:.0f}" text-anchor="middle" '
        'font-size="12">log10(eps)</text>'
    )
    parts.append(
        f'<text x="14" y="{H / 2:.0f}" font-size="12" '
        f'transform="rotate(-90 14 {H / 2:.0f})" text-anchor="middle">log10(product)</text>'
    )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
