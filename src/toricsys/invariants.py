"""Scalar invariants of a moment profile.

Area in moment coordinates equals the 4D symplectic volume; the contact
volume of the boundary is twice that.  The Ruelle invariant equals
a + b in closed form; an independent quadrature of the rotation-density
line integral is kept as a cross-check.  The convexity-criterion product
is ru * sqrt(sys) = Ru * T_min / contact_volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import NotMonotone, ParamOutOfRange, integer
from .geometry import FLAGS, Classification, MomentProfile, _gl_nodes, _quiet, classify
from . import reeb

GL_ORDER = 8


def _straight(p: MomentProfile, column: np.ndarray) -> np.ndarray:
    """The rows of a per-segment array on the untagged segments: all of
    them, unmasked, on a profile without tags."""
    if not len(p.tagged):
        return column
    straight = np.ones(p.n_segments, dtype=bool)
    straight[p.tagged] = False
    return column[straight]


def area(p: MomentProfile) -> float:
    """Area between the profile and the axes: shoelace on straight
    segments (their ``cross_products``, summed by ``math.fsum`` so that
    their order does not matter), Gauss-Legendre on the tagged curves;
    computed once per profile (``MomentProfile.memo``)."""
    return p.memo("area", lambda: _area(p))


def _area(p: MomentProfile) -> float:
    total = math.fsum(_straight(p, p.cross_products).tolist())
    if p.tagged.size:
        _, weights = _gl_nodes(GL_ORDER)
        x, y, dx, dy = p.curve_samples(GL_ORDER)
        total += (weights * (x * dy - y * dx)).sum()
    return float(0.5 * total)


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
    n = integer(n, "quadrature points per segment")
    if n < 2:
        raise ParamOutOfRange(f"need at least 2 quadrature points per segment; got {n}")
    if n > 100:
        raise ParamOutOfRange(f"at most 100 quadrature points per segment; got {n}")
    d = _straight(p, p.directions)
    total = (d[:, 1] - d[:, 0]).sum()
    if p.tagged.size:
        _, weights = _gl_nodes(n)
        x, y, dx, dy = p.curve_samples(n)
        speed = np.hypot(dx, dy)
        # A curve stationary at a node has nu = 0/0 = nan there, which the
        # nu . w check below refuses without a numpy warning.
        with _quiet():
            nu1, nu2 = dy / speed, -dx / speed
        denom = reeb.nu_dot_w(
            p, (x, y), (nu1, nu2),
            lambda k, value: f"nu.w = {value} on segment {int(p.tagged[k[0]])}",
        )
        crs = x * dy - y * dx
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
        """The names of the classification's true flags, joined by ';'."""
        return ";".join(name for name in FLAGS if getattr(self.classification, name))


# The report's columns: its numbers in field order, then the classification
# written as ``flags``.
REPORT_FIELDS = (*(f.name for f in fields(InvariantReport)[:-1]), "flags")


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


def _report_values(r: InvariantReport) -> list[str]:
    """The text of each of ``REPORT_FIELDS``."""
    return [f"{getattr(r, name):.17g}" for name in REPORT_FIELDS[:-1]] + [r.flags_string()]


def report_to_text(r: InvariantReport) -> str:
    return "".join(f"{name} = {v}\n" for name, v in zip(REPORT_FIELDS, _report_values(r)))


def report_csv_header() -> str:
    return ",".join(REPORT_FIELDS)


def report_to_csv_row(r: InvariantReport) -> str:
    return ",".join(_report_values(r))


def gromov_width_monotone(p: MomentProfile) -> float:
    """First-touch value of the antidiagonal line w1 + w2 = L: the
    minimum of w1 + w2 over the boundary path (monotone profiles only),
    taken at the vertices and at t = j/64 (0 < j < 64) on each curve,
    whose points alone are sampled."""
    cls = classify(p)
    if not cls.monotone:
        raise NotMonotone(f"witness segment {cls.witnesses.get('monotone')}")
    xy = p.xy
    low = (xy[:, 0] + xy[:, 1]).min()
    if len(p.tagged):
        x, y = p.sample_curves(np.arange(1, 64) / 64)
        low = np.minimum(low, (x + y).min())
    return float(low)


def vol_fc(b: float, c: float) -> float:
    """Closed-form volume of the extremal convex domain with parameters
    (b, c): c^2/2 + (b-c)^2 c/(6b) + c(1-c)^2/6."""
    return c * c / 2 + (b - c) ** 2 * c / (6 * b) + c * (1 - c) ** 2 / 6
