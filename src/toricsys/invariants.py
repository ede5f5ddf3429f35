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

from .errors import DegenerateDenominator, NotMonotone, ParamOutOfRange
from .geometry import Classification, MomentProfile, _gl_nodes, classify
from . import reeb

GL_ORDER = 8


def _straight(p: MomentProfile) -> np.ndarray:
    straight = np.ones(p.n_segments, dtype=bool)
    straight[p.tagged] = False
    return straight


def area(p: MomentProfile) -> float:
    """Area between the profile and the axes: shoelace on straight
    segments (their ``cross_products``), Gauss-Legendre on the tagged
    curves; computed once per profile (``MomentProfile.memo``)."""
    return p.memo("area", lambda: _area(p))


def _area(p: MomentProfile) -> float:
    total = p.cross_products[_straight(p)].sum()
    if p.tagged.size:
        _, weights = _gl_nodes(GL_ORDER)
        pt, dv = p.curve_samples(GL_ORDER)
        total += (weights * (pt[..., 0] * dv[..., 1] - pt[..., 1] * dv[..., 0])).sum()
    return float(0.5 * total)


def contact_volume(p: MomentProfile) -> float:
    return 2 * area(p)


def ruelle_closed_form(p: MomentProfile) -> float:
    return p.a_intercept + p.b_intercept


def ruelle_quadrature(p: MomentProfile, n: int = GL_ORDER) -> float:
    """The rotation-density line integral rho(w) (w1 dw2 - w2 dw1) along
    the profile.

    On a straight segment with vector d = (dw1, dw2) the integrand is
    constant, (nu1 + nu2) * cross(w, d) / (nu . w) = dw2 - dw1, so those
    segments are summed in closed form and, over a polygon, the result
    telescopes to a + b.  Tagged (curved) pieces take n Gauss-Legendre
    points each, 2 <= n <= 100 (numpy's ``leggauss`` is tested only up to
    degree 100); only there is this an independent check of
    ``ruelle_closed_form``.  On a validated straight segment
    nu . w = cross(a, b) / |b - a| > 0, so nu . w is checked at the tag
    nodes only."""
    if n < 2:
        raise ParamOutOfRange(f"need at least 2 quadrature points per segment; got {n}")
    if n > 100:
        raise ParamOutOfRange(f"at most 100 quadrature points per segment; got {n}")
    d = p.directions[_straight(p)]
    total = (d[:, 1] - d[:, 0]).sum()
    if p.tagged.size:
        _, weights = _gl_nodes(n)
        pt, dv = p.curve_samples(n)
        speed = np.hypot(dv[..., 0], dv[..., 1])
        nu1, nu2 = dv[..., 1] / speed, -dv[..., 0] / speed
        denom = nu1 * pt[..., 0] + nu2 * pt[..., 1]
        bad = ~(denom > p.tol)
        if bad.any():
            i = int(bad.any(axis=1).argmax())
            j = int(bad[i].argmax())
            raise DegenerateDenominator(
                f"nu.w = {float(denom[i, j])} on segment {int(p.tagged[i])}"
            )
        crs = pt[..., 0] * dv[..., 1] - pt[..., 1] * dv[..., 0]
        total += (weights * ((nu1 + nu2) / denom) * crs).sum()
    return float(total)


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


def vol_fc(b: float, c: float) -> float:
    """Closed-form volume of the extremal convex domain with parameters
    (b, c): c^2/2 + (b-c)^2 c/(6b) + c(1-c)^2/6."""
    return c * c / 2 + (b - c) ** 2 * c / (6 * b) + c * (1 - c) ** 2 / 6
