"""Profile surgeries: strangulation (pinch a thin sector toward a ray,
creating a short orbit) and strain (glue a long thin spike along the
w1-axis, inflating the Ruelle invariant).

Both operate on the polyline.  ``strain`` and ``flatten_near_intercept``
keep the tags of the segments they keep; ``strangulate`` still drops every
tag, so its ``volume_delta`` of a tagged input compares curve area with
chord area.  That C0 volume fault stays open until the benchmark's
expected failure count is updated with the fix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import (
    ClippingBreaksStarShape,
    EpsTooLarge,
    EpsTooLargeForNeighborhood,
    NotFlattened,
    NotStarShaped,
    ParamOutOfRange,
    RadiusTooLarge,
    RayMissesBoundary,
    ValidityConditionFails,
)
from .geometry import (
    Classification,
    MomentProfile,
    Point,
    classify,
    cross,
    normal_cone,
    ray_hit,
)
from .lattice import nearest_in_cone
from . import invariants, reeb


@dataclass(frozen=True)
class StrangulationSpec:
    eps: float
    ray_angle: float
    theta: float
    w_star: float


@dataclass(frozen=True)
class StrainSpec:
    eps: float
    k: float
    w_star_eps: float
    spike_intercept: float


@dataclass(frozen=True)
class SurgeryOutcome:
    profile: MomentProfile
    volume_delta: float
    volume_delta_bound: float
    new_orbit_witnesses: list
    preserved_flags: Classification
    spec: object


def input_area(p: MomentProfile) -> float:
    """Area of a surgery input, computed once per profile instance
    (``MomentProfile.memo``), so a sweep of surgeries on one input and
    the sweep itself share it."""
    return p.memo("area", lambda: invariants.area(p))


def input_t_min(p: MomentProfile) -> float:
    """T_min of a surgery input, computed once per profile instance."""
    return p.memo("t_min", lambda: reeb.t_min(p)[0])


def _rot(u: Point, ang: float) -> Point:
    c, s = math.cos(ang), math.sin(ang)
    return (c * u[0] - s * u[1], s * u[0] + c * u[1])


def _sector_interval(
    seg: tuple[Point, Point], apex: Point, d_right: Point, d_left: Point
) -> Optional[tuple[float, float]]:
    """Sub-interval of the segment (as parameters in [0,1]) lying inside
    the sector bounded by the two rays from the apex, or None."""
    a, b = seg
    lo, hi = 0.0, 1.0
    for bound, sign in ((d_right, 1.0), (d_left, -1.0)):
        # keep sign * cross(bound, x - apex) >= 0, linear in s
        f0 = sign * cross(bound, (a[0] - apex[0], a[1] - apex[1]))
        f1 = sign * cross(bound, (b[0] - apex[0], b[1] - apex[1]))
        if f0 < 0 and f1 < 0:
            return None
        if f0 < 0 or f1 < 0:
            s = f0 / (f0 - f1)
            if f0 < 0:
                lo = max(lo, s)
            else:
                hi = min(hi, s)
    if lo >= hi - 1e-15:
        return None
    return lo, hi


def _point_on(seg: tuple[Point, Point], s: float) -> Point:
    a, b = seg
    return (a[0] + s * (b[0] - a[0]), a[1] + s * (b[1] - a[1]))


def strangulate(
    p: MomentProfile, eps: float, ray_angle: float = math.pi / 4
) -> SurgeryOutcome:
    """Remove a thin sector with apex at distance-parameter eps along the
    ray, pinching the domain toward the ray.

    The half-angle theta(eps) is the largest (by 60-step bisection) such
    that the sector meets the boundary only inside the eps-box around the
    ray's hit point.  Intercepts are untouched, so the closed-form Ruelle
    invariant is preserved; the apex vertex carries a new short orbit
    (for the diagonal ray: (1, 1) with action 2*eps).
    """
    if not eps > 0:
        raise ParamOutOfRange(f"eps must be positive; got {eps}")
    if not (0 < ray_angle < math.pi / 2):
        raise RayMissesBoundary("ray must point into the open quadrant")
    u = (math.cos(ray_angle), math.sin(ray_angle))
    t_hit, _, _ = ray_hit(p, u)
    umax = max(u)
    d_norm = (u[0] / umax, u[1] / umax)
    w_star = t_hit * umax
    hit = (w_star * d_norm[0], w_star * d_norm[1])
    if eps >= w_star:
        raise EpsTooLarge(f"eps {eps} >= ray hit parameter {w_star}")
    apex = (eps * d_norm[0], eps * d_norm[1])

    box = eps * (1 + 1e-12)

    def sector_ok(theta: float) -> bool:
        d_left = _rot(u, theta)
        d_right = _rot(u, -theta)
        for i in range(p.n_segments):
            iv = _sector_interval(p.segment(i), apex, d_right, d_left)
            if iv is None:
                continue
            for s in iv:
                x, y = _point_on(p.segment(i), s)
                if abs(x - hit[0]) > box or abs(y - hit[1]) > box:
                    return False
        return True

    hi = min(math.pi / 4, ray_angle, math.pi / 2 - ray_angle)
    lo = 0.0
    if sector_ok(hi):
        lo = hi
    else:
        for _ in range(60):
            mid = (lo + hi) / 2
            if sector_ok(mid):
                lo = mid
            else:
                hi = mid
    theta = lo
    if theta <= 0:
        raise EpsTooLarge("no positive sector half-angle keeps the cut local")

    d_left = _rot(u, theta)
    d_right = _rot(u, -theta)
    intervals = [
        (i, _sector_interval(p.segment(i), apex, d_right, d_left))
        for i in range(p.n_segments)
    ]
    inside = [(i, iv) for i, iv in intervals if iv is not None]
    if not inside:
        raise EpsTooLarge("sector does not reach the boundary")
    i0, (s0, _) = inside[0]
    i1, (_, s1) = inside[-1]
    entry = _point_on(p.segment(i0), s0)
    exit_ = _point_on(p.segment(i1), s1)

    tol = p.tol
    verts: list[Point] = list(p.vertices[: i0 + 1])

    def push(pt: Point):
        if verts and math.hypot(pt[0] - verts[-1][0], pt[1] - verts[-1][1]) <= tol:
            return
        verts.append(pt)

    push(entry)
    push(apex)
    apex_index = len(verts) - 1
    push(exit_)
    for v in p.vertices[i1 + 1 :]:
        push(v)

    try:
        out = MomentProfile(tuple(verts))
    except NotStarShaped as exc:
        raise ClippingBreaksStarShape(str(exc)) from exc

    # Witness orbit: the primitive integer direction in the apex normal
    # cone closest to the ray.
    cone = normal_cone(out, apex_index)
    mn = nearest_in_cone(cone, u)
    witnesses = []
    if mn is not None:
        witnesses.append(
            reeb.OrbitDatum(
                mn, apex, mn[0] * apex[0] + mn[1] * apex[1], "vertex", apex_index
            )
        )

    vol_in = input_area(p)
    vol_out = invariants.area(out)
    return SurgeryOutcome(
        profile=out,
        volume_delta=vol_in - vol_out,
        volume_delta_bound=8 * w_star * w_star * theta,
        new_orbit_witnesses=witnesses,
        preserved_flags=classify(out),
        spec=StrangulationSpec(eps=eps, ray_angle=ray_angle, theta=theta, w_star=w_star),
    )


def flatten_near_intercept(p: MomentProfile, radius: float) -> tuple[MomentProfile, float]:
    """Replace the boundary within ``radius`` (in w1) of the w1-intercept
    by a single straight segment from (a, 0) to the first path vertex at
    w1 <= a - radius, keeping the intercept fixed.  Returns the new
    profile and the resulting constant slope k.

    Polygonal profiles whose first vertex is already past the window are
    returned unchanged.
    """
    if not radius >= 0:
        raise RadiusTooLarge(f"radius must be nonnegative; got {radius}")
    a = p.a_intercept
    j = None
    for idx in range(1, len(p.vertices)):
        if p.vertices[idx][0] <= a - radius:
            j = idx
            break
        if idx < len(p.vertices) - 1 and p.vertices[idx + 1][0] > p.vertices[idx][0]:
            break  # w1 stopped decreasing before clearing the window
    if j is None:
        raise RadiusTooLarge(f"no path vertex with w1 <= {a - radius}")
    target = p.vertices[j]
    if abs(target[0] - a) <= p.tol:
        raise RadiusTooLarge("flattening window has zero width in w1")
    k = (target[1] - 0.0) / (target[0] - a)
    if j == 1 and p.tag(0) is None:
        return p, k
    verts = (p.vertices[0],) + p.vertices[j:]
    tags = ((None,) + p.tags[j:]) if p.tags else ()
    return MomentProfile(verts, tags), k


def strain(p: MomentProfile, eps: float, k: Optional[float] = None) -> SurgeryOutcome:
    """Glue the thin triangular spike with vertices (0,0), (w*(eps), eps),
    (1/sqrt(eps), 0) onto the profile; the (0,0) corner is interior, so
    the boundary gains the spike tip and a new w1-intercept 1/sqrt(eps).

    Requires a straight first segment (see flatten_near_intercept) of
    slope k with eps inside its height range; for k < 0 the spike's upper
    edge must be shallower than k so the result stays (strictly) monotone.

    The witnesses are every orbit at the tip with action <= 2*T_min of the
    input, about 2/eps of them.  The input's T_min and area are computed
    once per profile (``input_t_min``, ``input_area``).
    """
    if not eps > 0:
        raise ParamOutOfRange(f"eps must be positive; got {eps}")
    if p.tag(0) is not None:
        raise NotFlattened("first segment carries an analytic tag")
    a = p.a_intercept
    v1 = p.vertices[1]
    d = (v1[0] - a, v1[1])
    if abs(d[0]) <= p.tol:
        raise NotFlattened("first segment is vertical; slope is not finite")
    k_seg = d[1] / d[0]
    if k is None:
        k = k_seg
    if k == 0:
        raise ParamOutOfRange("slope k must be nonzero")
    if eps > v1[1] + p.tol:
        raise EpsTooLargeForNeighborhood(
            f"eps {eps} exceeds the flattened height {v1[1]}"
        )
    w_star = eps / k + a
    spike = 1 / math.sqrt(eps)
    if spike <= w_star:
        raise EpsTooLarge(f"spike intercept {spike} does not clear w*(eps) {w_star}")
    if k < 0 and not (-eps / (spike - w_star) > k):
        raise ValidityConditionFails(
            f"spike upper-edge slope {-eps / (spike - w_star)} not above k = {k}"
        )

    tip = (w_star, eps)
    rest, tags = p.vertices[1:], (None,) + p.tags[1:]
    if math.hypot(tip[0] - v1[0], tip[1] - v1[1]) <= p.tol:
        # The tip coincides with the old first vertex: the segment out of
        # the tip is the old second segment and keeps its tag.
        rest = rest[1:]
    else:
        tags = (None,) + tags
    out = MomentProfile(((spike, 0.0), tip, *rest), tags if p.tags else ())

    tmin_in = input_t_min(p)
    witnesses = reeb.orbits_at_vertex(out, 1, action_cutoff=2 * tmin_in)
    vol_in = input_area(p)
    vol_out = invariants.area(out)
    return SurgeryOutcome(
        profile=out,
        volume_delta=vol_out - vol_in,
        volume_delta_bound=math.sqrt(eps) / 2,
        new_orbit_witnesses=witnesses,
        preserved_flags=classify(out),
        spec=StrainSpec(eps=eps, k=k, w_star_eps=w_star, spike_intercept=spike),
    )
