"""Reeb dynamics on the boundary of a star-shaped toric domain.

In moment/angle coordinates (w1, th1, w2, th2) the Reeb field at a
boundary point p with outward unit normal nu rotates the two angles with
velocities 2*pi*nu_i / (nu . p); the w-coordinates are constant.  A
trajectory over p is closed iff the normal direction is rational, and the
period of the primitive closed orbit with integer normal (m, n) is
m*w1 + n*w2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateDenominator, OracleCutoffInsufficient, ParamOutOfRange, StepTooLarge
from .geometry import (
    RATIONAL_CAP,
    MomentProfile,
    NormalCone,
    Point,
    dot,
    normal_cone,
    ray_hit,
)
from .lattice import clear_of_axes, enumerate_in_cone, in_cone_mask, min_in_cone

# Where an orbit lives, in tie-break order.
LOCATION_KINDS = ("axis", "segment", "vertex")


@dataclass(frozen=True)
class OrbitDatum:
    """A primitive closed Reeb orbit."""

    mn: tuple[int, int]
    base_point: Point
    action: float
    location_kind: str  # one of LOCATION_KINDS
    location_index: int

    def sort_key(self):
        rank = LOCATION_KINDS.index(self.location_kind)
        return (self.action, rank, self.mn[0], self.mn[1], self.location_index)


def reeb_angular_velocities(p: MomentProfile, point: Point, normal: Point) -> Point:
    """Angular velocities (Theta1, Theta2) of the Reeb flow over ``point``."""
    denom = normal[0] * point[0] + normal[1] * point[1]
    if denom <= p.tol:
        raise DegenerateDenominator(f"nu.p = {denom} at {point}")
    return (2 * math.pi * normal[0] / denom, 2 * math.pi * normal[1] / denom)


def rotation_density(p: MomentProfile, point: Point, normal: Point) -> float:
    """Asymptotic rotation density (nu1 + nu2)/(nu1 w1 + nu2 w2)."""
    denom = normal[0] * point[0] + normal[1] * point[1]
    if denom <= p.tol:
        raise DegenerateDenominator(f"nu.p = {denom} at {point}")
    return (normal[0] + normal[1]) / denom


# ---------------------------------------------------------------------------
# Rational normals and segment orbits


def primitive_normal(p: MomentProfile, segment_index: int) -> Optional[tuple[int, int]]:
    """Primitive integer vector parallel to the outward normal of a
    segment, or None when the reconstruction exceeds RATIONAL_CAP
    (``MomentProfile.primitive_normal``, computed once per segment)."""
    return p.primitive_normal(segment_index)


def closed_orbit_on_segment(p: MomentProfile, segment_index: int) -> Optional[OrbitDatum]:
    """The primitive closed orbit family over a rational-normal segment.

    The action m*w1 + n*w2 is constant along the segment; the midpoint is
    reported as base point.
    """
    got = _segment_orbit(p, segment_index)
    if got is None:
        return None
    action, mn, mid = got
    return OrbitDatum(mn, mid, action, "segment", segment_index)


def _segment_orbit(
    p: MomentProfile, i: int
) -> Optional[tuple[float, tuple[int, int], Point]]:
    """(action, (m, n), midpoint) of segment i's orbit family, or None."""
    mn = p.primitive_normal(i)
    if mn is None:
        return None
    (x0, y0), (x1, y1) = p.segment(i)
    mid = ((x0 + x1) / 2, (y0 + y1) / 2)
    return mn[0] * mid[0] + mn[1] * mid[1], mn, mid


# ---------------------------------------------------------------------------
# Vertex cones


def orbits_at_vertex(
    p: MomentProfile, vertex_index: int, action_cutoff: float
) -> list[OrbitDatum]:
    """All primitive closed orbits at a vertex with action <= cutoff,
    sorted by action, then lexicographically by (m, n).

    Covers interior vertices; at a collinear vertex the cone degenerates
    to the incident segment's normal ray.  The cone's lattice points come
    from ``lattice.enumerate_in_cone``, which scans only the lattice lines
    along the shorter side of the cone's bounding box, so time and memory
    grow with the number of orbits returned rather than with the box's
    area.  At a strain tip that number is about 2/eps: ``strain`` still
    lists every tip orbit as a witness (reporting the minimal one plus a
    count is a planned API change).
    """
    cone = normal_cone(p, vertex_index)
    v = cone.vertex
    if cone.width <= 1e-12:
        mn = primitive_normal(p, vertex_index - 1)
        if mn is None:
            return []
        action = mn[0] * v[0] + mn[1] * v[1]
        if action > action_cutoff * (1 + 1e-12):
            return []
        return [OrbitDatum(mn, v, action, "vertex", vertex_index)]
    m, n, action = enumerate_in_cone(cone, action_cutoff)
    order = np.lexsort((n, m, action))
    return [
        OrbitDatum((mi, ni), v, a, "vertex", vertex_index)
        for mi, ni, a in zip(m[order].tolist(), n[order].tolist(), action[order].tolist())
    ]


# ---------------------------------------------------------------------------
# Minimal action: lattice descent (fast) and brute force (oracle)

_PRIMITIVE_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

# Angular slack around a cone's arc when slicing the oracle's table: it
# covers the band of about CONE_TOL rad that ``in_cone`` admits beyond
# each boundary, and the rounding of atan2.  Vectors inside the slack but
# outside the cone are rejected by ``in_cone_mask`` as before.
_ORACLE_SLACK = 1e-7


def _primitive_vectors(n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Primitive integer vectors (m, n) with max norm <= n_max and their
    angles atan2(n, m) in (-pi, pi], sorted by angle; built once per n_max."""
    if n_max not in _PRIMITIVE_CACHE:
        rng = np.arange(-n_max, n_max + 1)
        mm, nn = np.meshgrid(rng, rng, indexing="ij")
        mm, nn = mm.ravel(), nn.ravel()
        mask = np.gcd(np.abs(mm), np.abs(nn)) == 1
        mm, nn = mm[mask], nn[mask]
        angle = np.arctan2(nn, mm)
        order = np.argsort(angle)
        _PRIMITIVE_CACHE[n_max] = (mm[order], nn[order], angle[order])
    return _PRIMITIVE_CACHE[n_max]


def _cone_slice(cone: NormalCone, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The vectors of ``_primitive_vectors(n_max)`` whose angle lies within
    ``_ORACLE_SLACK`` of the cone's arc: a superset of those ``in_cone``
    admits.  The arc from start to start + width is one slice of the table,
    or two where it crosses the angle pi.  A cone narrower than twice the
    slack takes the whole table: ``in_cone``'s tolerance then also admits
    the directions opposite to it.  So does one within 1e-6 of a half
    turn, whose slice would be most of the table anyway."""
    mm, nn, angle = _primitive_vectors(n_max)
    if not 2 * _ORACLE_SLACK <= cone.width <= math.pi - 1e-6:
        return mm, nn
    lo = math.atan2(cone.start[1], cone.start[0]) - _ORACLE_SLACK
    hi = lo + cone.width + 2 * _ORACLE_SLACK
    if lo < -math.pi:
        bounds = ((lo + 2 * math.pi, math.inf), (-math.inf, hi))
    elif hi > math.pi:
        bounds = ((lo, math.inf), (-math.inf, hi - 2 * math.pi))
    else:
        bounds = ((lo, hi),)
    pieces = [slice(*np.searchsorted(angle, b).tolist()) for b in bounds]
    return tuple(np.concatenate([a[s] for s in pieces]) for a in (mm, nn))


def _cone_candidates_oracle(
    cone: NormalCone, n_max: int
) -> Optional[tuple[float, tuple[int, int]]]:
    """Exact per-cone minimum over primitive vectors with max norm <= n_max,
    brute force over the cone's slice of the angle-sorted table."""
    mm, nn = _cone_slice(cone, n_max)
    member = in_cone_mask(cone, mm, nn)
    if not member.any():
        return None
    v = cone.vertex
    actions = mm[member] * v[0] + nn[member] * v[1]
    amin = actions.min()
    ties = np.flatnonzero(actions == amin)
    cand = sorted((int(mm[member][i]), int(nn[member][i])) for i in ties)
    return float(amin), cand[0]


def _base_candidates(p: MomentProfile) -> list[OrbitDatum]:
    """Axis-intercept and rational-segment orbits (shared by both methods)."""
    a, b = p.a_intercept, p.b_intercept
    out = [
        OrbitDatum((1, 0), (a, 0.0), a, "axis", 0),
        OrbitDatum((0, 1), (0.0, b), b, "axis", 1),
    ]
    for i, mn in enumerate(p.primitive_normals):
        if mn is not None:
            out.append(closed_orbit_on_segment(p, i))
    return out


def orbits_below(p: MomentProfile, cutoff: float) -> list[OrbitDatum]:
    """Every primitive closed orbit with action <= cutoff: axis and
    rational-segment orbits, then the orbits at each interior vertex,
    sorted by ``OrbitDatum.sort_key``.  The cutoff must be finite."""
    if not math.isfinite(cutoff):
        raise ParamOutOfRange(f"action cutoff must be finite; got {cutoff}")
    orbits = [o for o in _base_candidates(p) if o.action <= cutoff]
    for vi in range(1, len(p.vertices) - 1):
        orbits.extend(orbits_at_vertex(p, vi, cutoff))
    orbits.sort(key=OrbitDatum.sort_key)
    return orbits


def t_min(
    p: MomentProfile, method: str = "fast", n_oracle: int = 200
) -> tuple[float, OrbitDatum]:
    """Minimal closed-orbit action and a minimizing orbit, the least by
    ``OrbitDatum.sort_key``.

    ``fast`` is a best-first pass (branch and bound): every segment and
    vertex cone gets a float lower bound on its action, and they are
    visited in bound order until a bound exceeds the best action found
    (ties are visited).  The two axis orbits are the first incumbent.  A
    segment whose direction has dw1 < 0 < dw2 is bounded by mid1 + mid2:
    shortest round-trip decimals keep the order of floats, so its
    primitive normal has m, n >= 1, and m*mid1 + n*mid2 >= mid1 + mid2
    after rounding.  A vertex cone between two unit normals that are
    ``lattice.clear_of_axes`` is bounded by v1 + v2, the sum
    ``min_in_cone`` prunes it by in its first step.  Every other segment
    or cone is bounded by -inf and always visited.  A visited segment
    computes its primitive normal (``MomentProfile.primitive_normal``); a
    visited cone is searched by ``lattice.min_in_cone``, a Stern-Brocot
    descent with pruning that takes each continued-fraction run in one
    step.  The result does not depend on the visiting order.

    ``oracle`` brute-forces all primitive integer vectors with max-norm
    <= n_oracle over every cone and raises OracleCutoffInsufficient when
    larger vectors could still win.  The N vectors are sorted by angle
    once per n_oracle (``_primitive_vectors``), and each cone checks only
    its angular slice of them (``_cone_slice``), found by binary search:
    O(log N + width/2pi * N) per cone instead of O(N), with the same
    result as a scan of the whole table.
    """
    if method == "fast":
        return _t_min_fast(p)
    if method != "oracle":
        raise ValueError("method must be 'fast' or 'oracle'")
    if n_oracle < 1:
        raise ParamOutOfRange(f"oracle cutoff must be at least 1; got {n_oracle}")
    candidates = _base_candidates(p)
    cones = [
        (vi, normal_cone(p, vi))
        for vi, turn in enumerate(p.normal_turns, start=1)
        if abs(turn) > 1e-12
    ]
    for vi, cone in cones:
        got = _cone_candidates_oracle(cone, n_oracle)
        if got is None:
            continue
        action, mn = got
        candidates.append(OrbitDatum(mn, cone.vertex, action, "vertex", vi))
    best = min(o.action for o in candidates)
    # Vectors beyond the cutoff have euclidean norm > n_oracle; over a
    # cone arc shorter than pi the unit-direction action is minimized
    # at one of the boundary rays.
    uncovered = math.inf
    for _, cone in cones:
        v = cone.vertex
        unit_min = min(dot(cone.start, v), dot(cone.end, v))
        uncovered = min(uncovered, (n_oracle + 1) * unit_min)
    if uncovered < best * (1 + 1e-9):
        raise OracleCutoffInsufficient(
            f"best action {best} not certified: cutoff-{n_oracle} bound is {uncovered}"
        )
    winner = min(candidates, key=OrbitDatum.sort_key)
    return winner.action, winner


def _candidate_bounds(p: MomentProfile) -> np.ndarray:
    """Float lower bounds on the action of each candidate of ``t_min``'s
    best-first pass: entry i < n for segment i, entry n + j for the cone
    at vertex j + 1 (n segments)."""
    xy, d = p.xy, p.directions
    mid = (xy[:-1] + xy[1:]) / 2
    seg = np.where((d[:, 0] < 0) & (d[:, 1] > 0), mid[:, 0] + mid[:, 1], -np.inf)
    clear = clear_of_axes(p.normals)
    cone = np.where(clear[:-1] & clear[1:], xy[1:-1, 0] + xy[1:-1, 1], -np.inf)
    return np.concatenate((seg, cone))


def _t_min_fast(p: MomentProfile) -> tuple[float, OrbitDatum]:
    """The best-first pass of ``t_min``; see there."""
    a, b = p.a_intercept, p.b_intercept
    # The winner so far, as its sort key (action, rank, m, n, index).
    best = min((a, 0, 1, 0, 0), (b, 0, 0, 1, 1))
    n, turns = p.n_segments, p.normal_turns
    bounds = _candidate_bounds(p)
    # The incumbent only falls: nothing bounded above it now is visited.
    live = np.flatnonzero(bounds <= best[0])
    live = live[np.argsort(bounds[live], kind="stable")]
    for bound, k in zip(bounds[live].tolist(), live.tolist()):
        if bound > best[0]:
            break
        if k < n:
            got = _segment_orbit(p, k)
            if got is not None:
                action, (m1, m2), _ = got
                best = min(best, (action, 1, m1, m2, k))
        elif abs(turns[k - n]) > 1e-12:
            vi = k - n + 1
            for action, (m1, m2) in min_in_cone(normal_cone(p, vi), best[0])[0]:
                best = min(best, (action, 2, m1, m2, vi))

    action, rank, m1, m2, i = best
    if rank == 1:
        return action, closed_orbit_on_segment(p, i)
    if rank == 0:
        base = (a, 0.0) if i == 0 else (0.0, b)
    else:
        base = p.vertices[i]
    return action, OrbitDatum((m1, m2), base, action, LOCATION_KINDS[rank], i)


# ---------------------------------------------------------------------------
# Shear structure of the linearized flow


@dataclass(frozen=True)
class ShearCheckResult:
    base_point: Point
    time: float
    monodromy: tuple[tuple[float, float], tuple[float, float]]
    shear_over_t: float
    residual: float
    step: float


def project_radial(p: MomentProfile, x: Point) -> tuple[Point, int]:
    """Intersection of the ray from the origin through x with the profile
    polyline, and the index of the segment containing it."""
    _, s, i = ray_hit(p, x)
    (a1, a2), (b1, b2) = p.segment(i)
    return (a1 + s * (b1 - a1), a2 + s * (b2 - a2)), i


def shear_monodromy_check(
    p: MomentProfile, point: Point, T: float, h: float = 1e-6
) -> ShearCheckResult:
    """Difference-quotient the time-T linearized flow in the contact frame
    (e1, e2) = (-nu2 d/dw1 + nu1 d/dw2, -w2 d/dth1 + w1 d/dth2).

    The toric flow is exact (w frozen, angles linear in t), so only the
    boundary projection of the e1-perturbation is discretized.  Expected
    monodromy: unit lower-triangular; ``residual`` collects the deviation
    of the three non-shear entries.
    """
    base, seg = project_radial(p, point)
    nu = p.segment_normal(seg)
    theta = reeb_angular_velocities(p, base, nu)
    e1 = (-nu[1], nu[0])

    def decompose_theta(dth: Point) -> tuple[float, float]:
        # dth = beta * (-w2, w1) + gamma * (Theta1, Theta2)
        w1, w2 = base
        det = -w2 * theta[1] - w1 * theta[0]
        beta = (dth[0] * theta[1] - dth[1] * theta[0]) / det
        gamma = (-w2 * dth[1] - w1 * dth[0]) / det
        return beta, gamma

    # Column 1: perturb along e1, project back to the boundary radially.
    pert = (base[0] + h * e1[0], base[1] + h * e1[1])
    moved, seg_m = project_radial(p, pert)
    nu_m = p.segment_normal(seg_m)
    theta_m = reeb_angular_velocities(p, moved, nu_m)
    dw = (moved[0] - base[0], moved[1] - base[1])
    m11 = dot(dw, e1) / h
    dth = ((theta_m[0] - theta[0]) * T, (theta_m[1] - theta[1]) * T)
    m21, _ = decompose_theta(dth)
    m21 /= h

    # Column 2: perturb the angles along e2; w is untouched so the flow
    # displacement is exactly the initial displacement.
    m12 = 0.0
    m22 = 1.0

    residual = max(abs(m11 - 1), abs(m12), abs(m22 - 1))
    if residual > 1e-2:
        raise StepTooLarge(f"shear residual {residual} with h={h}, T={T}")
    shear_over_t = m21 / T if T > 0 else 0.0
    return ShearCheckResult(
        base_point=base,
        time=T,
        monodromy=((m11, m12), (m21, m22)),
        shear_over_t=shear_over_t,
        residual=residual,
        step=h,
    )


def orbit_csv_rows(orbits: list[OrbitDatum]) -> list[str]:
    """CSV rows (with header) for an orbit list, 17 significant digits."""
    rows = ["m,n,w1,w2,action,location_kind,location_index"]
    for o in orbits:
        rows.append(
            f"{o.mn[0]},{o.mn[1]},{o.base_point[0]:.17g},{o.base_point[1]:.17g},"
            f"{o.action:.17g},{o.location_kind},{o.location_index}"
        )
    return rows
