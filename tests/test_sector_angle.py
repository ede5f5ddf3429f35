"""Strangulation's closed-form sector angle against the bisection it replaced.

``_old_rot``, ``_old_sector_interval``, ``_old_point_on`` and
``_old_strangulate`` are verbatim copies (renamed only) of the
strangulation that found the half-angle theta by a 60-step bisection of
``sector_ok``, less ``_old_strangulate``'s witness lines (its witness
search is gone from the library), and with its empty witness list passed
as the ``find_witnesses`` callable that ``SurgeryOutcome`` now takes.
``strangulate`` now computes theta in closed form.  On every input below
both must give theta within 1e-15 (the bisection's own interval and
rounding of the angles) and raise the same exception class whenever
either raises.
"""

import math
import random
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from toricsys import ball, ellipsoid, fc_domain, polydisk, strangulate
from toricsys.errors import (
    ClippingBreaksStarShape,
    EpsTooLarge,
    NotStarShaped,
    ParamOutOfRange,
    RayMissesBoundary,
    ToricError,
)
from toricsys.experiments import random_monotone_profile, random_star_profile
from toricsys.geometry import (
    MomentProfile,
    Point,
    classify,
    cross,
    ray_hit,
)
from toricsys import invariants
from toricsys.invariants import area as input_area  # the copy's name for the input's area
from toricsys.surgery import StrangulationSpec, SurgeryOutcome


# ---------------------------------------------------------------------------
# The replaced strangulation, verbatim


def _old_rot(u: Point, ang: float) -> Point:
    c, s = math.cos(ang), math.sin(ang)
    return (c * u[0] - s * u[1], s * u[0] + c * u[1])


def _old_sector_interval(
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


def _old_point_on(seg: tuple[Point, Point], s: float) -> Point:
    a, b = seg
    return (a[0] + s * (b[0] - a[0]), a[1] + s * (b[1] - a[1]))


def _old_strangulate(
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
        d_left = _old_rot(u, theta)
        d_right = _old_rot(u, -theta)
        for i in range(p.n_segments):
            iv = _old_sector_interval(p.segment(i), apex, d_right, d_left)
            if iv is None:
                continue
            for s in iv:
                x, y = _old_point_on(p.segment(i), s)
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

    d_left = _old_rot(u, theta)
    d_right = _old_rot(u, -theta)
    intervals = [
        (i, _old_sector_interval(p.segment(i), apex, d_right, d_left))
        for i in range(p.n_segments)
    ]
    inside = [(i, iv) for i, iv in intervals if iv is not None]
    if not inside:
        raise EpsTooLarge("sector does not reach the boundary")
    i0, (s0, _) = inside[0]
    i1, (_, s1) = inside[-1]
    entry = _old_point_on(p.segment(i0), s0)
    exit_ = _old_point_on(p.segment(i1), s1)

    tol = p.tol
    verts: list[Point] = list(p.vertices[: i0 + 1])

    def push(pt: Point):
        if verts and math.hypot(pt[0] - verts[-1][0], pt[1] - verts[-1][1]) <= tol:
            return
        verts.append(pt)

    push(entry)
    push(apex)
    push(exit_)
    for v in p.vertices[i1 + 1 :]:
        push(v)

    try:
        out = MomentProfile(tuple(verts))
    except NotStarShaped as exc:
        raise ClippingBreaksStarShape(str(exc)) from exc

    vol_in = input_area(p)
    vol_out = invariants.area(out)
    return SurgeryOutcome(
        profile=out,
        volume_delta=vol_in - vol_out,
        volume_delta_bound=8 * w_star * w_star * theta,
        find_witnesses=list,
        preserved_flags=classify(out),
        spec=StrangulationSpec(eps=eps, ray_angle=ray_angle, theta=theta, w_star=w_star),
    )


# ---------------------------------------------------------------------------
# Both against each other


def _outcome(f, p, eps, ray):
    try:
        return f(p, eps, ray).spec.theta
    except ToricError as exc:
        return type(exc)


def _same_theta(p, eps, ray):
    new, old = _outcome(strangulate, p, eps, ray), _outcome(_old_strangulate, p, eps, ray)
    if isinstance(new, type) or isinstance(old, type):
        assert new is old
    else:
        assert abs(new - old) <= 1e-15


PROFILES = {
    "ball": lambda: ball(2),
    "ellipsoid": lambda: ellipsoid(1, 4, 1),
    "polydisk": lambda: polydisk(1, 2),
    "fc:2,0.7,16": lambda: fc_domain(2, 0.7, 16),
    "fc:1,0.5,8": lambda: fc_domain(1, 0.5, 8),
}
RAYS = (0.3, math.pi / 4, 1.2)
EPS = tuple(10 ** (-k / 2) for k in range(2, 9))


@pytest.mark.parametrize("eps", EPS)
@pytest.mark.parametrize("ray", RAYS)
@pytest.mark.parametrize("name", PROFILES)
def test_theta_on_family_grid(name, ray, eps):
    _same_theta(PROFILES[name](), eps, ray)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(RAYS), st.floats(-4, -1))
def test_theta_on_star_profiles(seed, ray, log_eps):
    _same_theta(random_star_profile(random.Random(seed)), 10**log_eps, ray)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(RAYS), st.floats(-4, -1))
def test_theta_on_monotone_profiles(seed, ray, log_eps):
    _same_theta(random_monotone_profile(random.Random(seed)), 10**log_eps, ray)


@pytest.mark.parametrize(
    "eps, ray, error",
    [
        (2.0, math.pi / 4, EpsTooLarge),
        (0.1, -0.3, RayMissesBoundary),
        (0.0, 0.3, ParamOutOfRange),
    ],
)
def test_same_exceptions(eps, ray, error):
    assert _outcome(strangulate, ball(2), eps, ray) is error
    _same_theta(ball(2), eps, ray)
