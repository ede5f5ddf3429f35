"""Scalar invariants of a moment profile.

Area in moment coordinates equals the 4D symplectic volume; the contact
volume of the boundary is twice that.  The Ruelle invariant equals
a + b in closed form; an independent quadrature of the rotation-density
line integral is kept as a cross-check.  The convexity-criterion product
is ru * sqrt(sys) = Ru * T_min / contact_volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadThresholds, DegenerateDenominator, NotMonotone, ParamOutOfRange
from .geometry import Classification, MomentProfile, _gl_nodes, classify
from . import reeb

GL_ORDER = 8


def area(p: MomentProfile, gl_order: int = GL_ORDER) -> float:
    """Area between the profile and the axes: shoelace on straight
    segments, Gauss-Legendre on the tagged curves."""
    xy = p.xy
    doubled = xy[:-1, 0] * xy[1:, 1] - xy[:-1, 1] * xy[1:, 0]
    straight = np.ones(p.n_segments, dtype=bool)
    straight[p.tagged] = False
    total = doubled[straight].sum()
    if p.tagged.size:
        _, weights = _gl_nodes(gl_order)
        pt, dv = p.curve_samples(gl_order)
        total += (weights * (pt[..., 0] * dv[..., 1] - pt[..., 1] * dv[..., 0])).sum()
    return float(0.5 * total)


def contact_volume(p: MomentProfile, gl_order: int = GL_ORDER) -> float:
    return 2 * area(p, gl_order)


def ruelle_closed_form(p: MomentProfile) -> float:
    return p.a_intercept + p.b_intercept


def ruelle_quadrature(p: MomentProfile, n: int = GL_ORDER) -> float:
    """Composite quadrature of the rotation-density line integral
    rho(w) (w1 dw2 - w2 dw1) along the profile, n Gauss-Legendre points
    per segment.  Telescopes exactly on straight segments."""
    if n < 2:
        raise ParamOutOfRange(f"need at least 2 quadrature points per segment; got {n}")
    nodes, weights = _gl_nodes(n)
    # nu.w, nu1 + nu2 and cross(w, w') at every node of every segment, as
    # (segments, n) arrays: along the chord on straight segments, from the
    # shared curve samples on tagged ones.
    a, d, nu = p.xy[:-1], p.directions, p.normals
    x = a[:, :1] + nodes * d[:, :1]
    y = a[:, 1:] + nodes * d[:, 1:]
    denom = nu[:, :1] * x + nu[:, 1:] * y
    crs = x * d[:, 1:] - y * d[:, :1]
    nsum = np.repeat((nu[:, 0] + nu[:, 1])[:, None], n, axis=1)
    if p.tagged.size:
        cpt, cdv = p.curve_samples(n)
        speed = np.hypot(cdv[..., 0], cdv[..., 1])
        nu1, nu2 = cdv[..., 1] / speed, -cdv[..., 0] / speed
        denom[p.tagged] = nu1 * cpt[..., 0] + nu2 * cpt[..., 1]
        crs[p.tagged] = cpt[..., 0] * cdv[..., 1] - cpt[..., 1] * cdv[..., 0]
        nsum[p.tagged] = nu1 + nu2
    bad = ~(denom > p.tol)
    if bad.any():
        i = int(bad.any(axis=1).argmax())
        j = int(bad[i].argmax())
        raise DegenerateDenominator(f"nu.w = {float(denom[i, j])} on segment {i}")
    return float((weights * (nsum / denom) * crs).sum())


@dataclass(frozen=True)
class InvariantReport:
    area: float
    contact_volume: float
    ruelle: float
    ruelle_quadrature: float
    t_min: float
    sys: float
    ru: float
    product: float
    classification: Classification

    def flags_string(self) -> str:
        c = self.classification
        on = [
            name
            for name, val in (
                ("star_shaped", c.star_shaped),
                ("monotone", c.monotone),
                ("strictly_monotone", c.strictly_monotone),
                ("convex_4d", c.convex_4d),
            )
            if val
        ]
        return ";".join(on)


REPORT_FIELDS = (
    "area",
    "contact_volume",
    "ruelle",
    "ruelle_quadrature",
    "t_min",
    "sys",
    "ru",
    "product",
    "flags",
)


def report(p: MomentProfile) -> InvariantReport:
    vol = area(p)
    cv = 2 * vol
    ru_cf = ruelle_closed_form(p)
    tmin, _ = reeb.t_min(p)
    sys_ratio = tmin * tmin / cv
    ru_ratio = ru_cf / math.sqrt(cv)
    return InvariantReport(
        area=vol,
        contact_volume=cv,
        ruelle=ru_cf,
        ruelle_quadrature=ruelle_quadrature(p),
        t_min=tmin,
        sys=sys_ratio,
        ru=ru_ratio,
        product=ru_cf * tmin / cv,
        classification=classify(p),
    )


def report_to_text(r: InvariantReport) -> str:
    lines = []
    for name in REPORT_FIELDS:
        if name == "flags":
            lines.append(f"flags = {r.flags_string()}")
        else:
            lines.append(f"{name} = {getattr(r, name):.17g}")
    return "\n".join(lines) + "\n"


def report_csv_header() -> str:
    return ",".join(REPORT_FIELDS)


def report_to_csv_row(r: InvariantReport) -> str:
    vals = [f"{getattr(r, name):.17g}" for name in REPORT_FIELDS[:-1]]
    vals.append(r.flags_string())
    return ",".join(vals)


def gromov_width_monotone(p: MomentProfile) -> float:
    """First-touch value of the antidiagonal line w1 + w2 = L: the
    minimum of w1 + w2 over the boundary path (monotone profiles only),
    taken at the vertices and at t = j/64 (0 < j < 64) on each curve."""
    cls = classify(p)
    if not cls.monotone:
        raise NotMonotone(f"witness segment {cls.witnesses.get('monotone')}")
    pts, _ = p.sample_curves(np.arange(1, 64) / 64)
    return float(np.concatenate((p.xy, pts.reshape(-1, 2))).sum(axis=1).min())


def vol_gr_bound_check(p: MomentProfile) -> tuple[float, float, bool]:
    """Volume vs (larger intercept) * (Gromov width): (lhs, rhs, holds).

    Intercepts are swapped when needed so the larger one is used; the
    reflection w1 <-> w2 leaves both sides unchanged otherwise.
    """
    vol = area(p)
    b = max(p.a_intercept, p.b_intercept)
    rhs = b * gromov_width_monotone(p)
    return vol, rhs, vol <= rhs + 1e-9 * max(1.0, rhs)


@dataclass(frozen=True)
class CriterionVerdict:
    product: float
    lower: float
    upper: float
    verdict: str  # 'BelowLower' | 'AboveUpper' | 'Inconclusive'
    note: str


_CRITERION_NOTE = (
    "BelowLower/AboveUpper rule out symplectic convexity only relative to "
    "the supplied thresholds; the true criterion constants are unknown "
    "(lower <= 1/2, upper >= 3)."
)


def criterion_verdict(
    p: MomentProfile, c_threshold: float = 0.5, C_threshold: float = 3.0
) -> CriterionVerdict:
    """Compare the convexity-criterion product against thresholds."""
    if not (0 < c_threshold <= C_threshold):
        raise BadThresholds(f"need 0 < {c_threshold} <= {C_threshold}")
    prod = report(p).product
    if prod < c_threshold:
        verdict = "BelowLower"
    elif prod > C_threshold:
        verdict = "AboveUpper"
    else:
        verdict = "Inconclusive"
    return CriterionVerdict(prod, c_threshold, C_threshold, verdict, _CRITERION_NOTE)


def vol_fc(b: float, c: float) -> float:
    """Closed-form volume of the extremal convex domain with parameters
    (b, c): c^2/2 + (b-c)^2 c/(6b) + c(1-c)^2/6."""
    return c * c / 2 + (b - c) ** 2 * c / (6 * b) + c * (1 - c) ** 2 / 6
