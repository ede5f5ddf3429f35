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

from .errors import DegenerateDenominator, OracleCutoffInsufficient, StepTooLarge
from .geometry import (
    RATIONAL_CAP,
    MomentProfile,
    NormalCone,
    Point,
    cross,
    dot,
    normal_cone,
)

# Relative tolerance for cone membership of integer directions.
CONE_TOL = 1e-9


@dataclass(frozen=True)
class OrbitDatum:
    """A primitive closed Reeb orbit."""

    mn: tuple[int, int]
    base_point: Point
    action: float
    location_kind: str  # 'axis' | 'segment' | 'vertex'
    location_index: int
    on_cone_boundary: bool = False

    def sort_key(self):
        rank = {"axis": 0, "segment": 1, "vertex": 2}[self.location_kind]
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
    (``MomentProfile.primitive_normals``, computed once per profile)."""
    return p.primitive_normals[segment_index]


def closed_orbit_on_segment(p: MomentProfile, segment_index: int) -> Optional[OrbitDatum]:
    """The primitive closed orbit family over a rational-normal segment.

    The action m*w1 + n*w2 is constant along the segment; the midpoint is
    reported as base point.
    """
    mn = primitive_normal(p, segment_index)
    if mn is None:
        return None
    (x0, y0), (x1, y1) = p.segment(segment_index)
    mid = ((x0 + x1) / 2, (y0 + y1) / 2)
    action = mn[0] * mid[0] + mn[1] * mid[1]
    return OrbitDatum(mn, mid, action, "segment", segment_index)


# ---------------------------------------------------------------------------
# Vertex cones


def _in_cone(cone: NormalCone, d: tuple[float, float]) -> bool:
    norm = math.hypot(d[0], d[1])
    tol = CONE_TOL * norm
    return cross(cone.start, d) >= -tol and cross(d, cone.end) >= -tol


def _on_boundary(cone: NormalCone, d: tuple[float, float]) -> bool:
    norm = math.hypot(d[0], d[1])
    tol = CONE_TOL * norm
    return abs(cross(cone.start, d)) <= tol or abs(cross(d, cone.end)) <= tol


def orbits_at_vertex(
    p: MomentProfile, vertex_index: int, action_cutoff: float
) -> list[OrbitDatum]:
    """All primitive closed orbits at a vertex with action <= cutoff,
    sorted by action, then lexicographically by (m, n).

    Covers interior vertices; at a collinear vertex the cone degenerates
    to the incident segment's normal ray.
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
        return [OrbitDatum(mn, v, action, "vertex", vertex_index, on_cone_boundary=True)]
    out = []
    for m, n, action in _enumerate_cone(cone, action_cutoff):
        out.append(
            OrbitDatum(
                (m, n), v, action, "vertex", vertex_index,
                on_cone_boundary=_on_boundary(cone, (m, n)),
            )
        )
    out.sort(key=lambda o: (o.action, o.mn))
    return out


def _enumerate_cone(cone: NormalCone, cutoff: float):
    """Integer primitive (m, n) in the closed cone with m*w1 + n*w2 <= cutoff."""
    v = cone.vertex
    corners = [(0.0, 0.0)]
    for r in (cone.start, cone.end):
        f = r[0] * v[0] + r[1] * v[1]
        if f <= 0:
            raise DegenerateDenominator("cone boundary has nonpositive action")
        corners.append((r[0] * cutoff / f, r[1] * cutoff / f))
    m_lo = math.floor(min(c[0] for c in corners)) - 1
    m_hi = math.ceil(max(c[0] for c in corners)) + 1
    n_lo = math.floor(min(c[1] for c in corners)) - 1
    n_hi = math.ceil(max(c[1] for c in corners)) + 1
    for m in range(m_lo, m_hi + 1):
        for n in range(n_lo, n_hi + 1):
            if (m, n) == (0, 0) or math.gcd(abs(m), abs(n)) != 1:
                continue
            if not _in_cone(cone, (m, n)):
                continue
            action = m * v[0] + n * v[1]
            if action <= cutoff * (1 + 1e-12):
                yield m, n, action


# ---------------------------------------------------------------------------
# Minimal action: Stern-Brocot descent (fast) and brute force (oracle)

_QUADRANT_PAIRS = (
    ((1, 0), (0, 1)),
    ((0, 1), (-1, 0)),
    ((-1, 0), (0, -1)),
    ((0, -1), (1, 0)),
)


def _arcs_intersect(L, R, cone: NormalCone) -> bool:
    """Does the (unimodular) arc L->R intersect the target cone arc?

    Both arcs are shorter than pi, so intersection happens iff either arc
    contains an endpoint of the other.
    """
    if _in_cone(cone, L) or _in_cone(cone, R):
        return True

    def in_lr(d):
        norm = math.hypot(d[0], d[1])
        tol = CONE_TOL * norm
        return cross(L, d) >= -tol and cross(d, R) >= -tol

    return in_lr(cone.start) or in_lr(cone.end)


def _min_in_cone_fast(cone: NormalCone, incumbent: float) -> list[tuple[float, tuple[int, int]]]:
    """Candidates (action, (m, n)) in the cone with action <= incumbent,
    found by mediant descent with pruning by the running best.

    The pruning bound uses f(a*L + b*R) = a*f(L) + b*f(R) >= f(L) + f(R)
    for interior vectors of a subtree with both endpoint values positive;
    ties with the incumbent are never pruned, so tie-breaking matches the
    brute-force oracle.
    """
    v = cone.vertex

    def f(d):
        return d[0] * v[0] + d[1] * v[1]

    best = incumbent
    found: list[tuple[float, tuple[int, int]]] = []
    seen: set[tuple[int, int]] = set()

    def consider(d):
        nonlocal best
        if d in seen:
            return
        seen.add(d)
        a = f(d)
        if a <= best:
            best = min(best, a)
            found.append((a, d))

    stack = [
        (L, R)
        for L, R in _QUADRANT_PAIRS
        if _arcs_intersect(L, R, cone)
    ]
    steps = 0
    while stack:
        steps += 1
        if steps > 2_000_000:
            raise RuntimeError("mediant search failed to converge")
        L, R = stack.pop()
        if _in_cone(cone, L):
            consider(L)
        if _in_cone(cone, R):
            consider(R)
        fL, fR = f(L), f(R)
        if fL > 0 and fR > 0 and fL + fR > best:
            continue
        M = (L[0] + R[0], L[1] + R[1])
        if _arcs_intersect(L, M, cone):
            stack.append((L, M))
        if _arcs_intersect(M, R, cone):
            stack.append((M, R))
    return [(a, d) for a, d in found if a <= best]


_PRIMITIVE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _primitive_vectors(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    if n_max not in _PRIMITIVE_CACHE:
        rng = np.arange(-n_max, n_max + 1)
        mm, nn = np.meshgrid(rng, rng, indexing="ij")
        mm, nn = mm.ravel(), nn.ravel()
        mask = np.gcd(np.abs(mm), np.abs(nn)) == 1
        _PRIMITIVE_CACHE[n_max] = (mm[mask], nn[mask])
    return _PRIMITIVE_CACHE[n_max]


def _cone_candidates_oracle(
    cone: NormalCone, n_max: int
) -> Optional[tuple[float, tuple[int, int]]]:
    """Exact per-cone minimum over primitive vectors with max norm <= n_max."""
    mm, nn = _primitive_vectors(n_max)
    norm = np.hypot(mm, nn)
    tol = CONE_TOL * norm
    sx, sy = cone.start
    ex, ey = cone.end
    member = (sx * nn - sy * mm >= -tol) & (mm * ey - nn * ex >= -tol)
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


def t_min(
    p: MomentProfile, method: str = "fast", n_oracle: int = 200
) -> tuple[float, OrbitDatum]:
    """Minimal closed-orbit action and a minimizing orbit.

    ``fast`` minimizes the linear form over each vertex normal cone by
    Stern-Brocot mediant descent with pruning; ``oracle`` brute-forces all
    primitive integer vectors with max-norm <= n_oracle and raises
    OracleCutoffInsufficient when larger vectors could still win.
    """
    if method not in ("fast", "oracle"):
        raise ValueError("method must be 'fast' or 'oracle'")
    candidates = list(_base_candidates(p))
    best = min(o.action for o in candidates)

    cones = [
        (vi, normal_cone(p, vi))
        for vi, turn in enumerate(p.normal_turns, start=1)
        if abs(turn) > 1e-12
    ]

    if method == "fast":
        for vi, cone in cones:
            for action, mn in _min_in_cone_fast(cone, best):
                candidates.append(
                    OrbitDatum(
                        mn, cone.vertex, action, "vertex", vi,
                        on_cone_boundary=_on_boundary(cone, mn),
                    )
                )
                best = min(best, action)
    else:
        for vi, cone in cones:
            got = _cone_candidates_oracle(cone, n_oracle)
            if got is None:
                continue
            action, mn = got
            candidates.append(
                OrbitDatum(
                    mn, cone.vertex, action, "vertex", vi,
                    on_cone_boundary=_on_boundary(cone, mn),
                )
            )
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
    best = None
    for i in range(p.n_segments):
        a, b = p.segment(i)
        denom = cross((b[0] - a[0], b[1] - a[1]), x)
        if abs(denom) < 1e-300:
            continue
        s = cross((x[0] - a[0], x[1] - a[1]), x) / denom
        if -1e-9 <= s <= 1 + 1e-9:
            pt = (a[0] + s * (b[0] - a[0]), a[1] + s * (b[1] - a[1]))
            if dot(pt, x) > 0:
                best = (pt, i)
                break
    if best is None:
        raise DegenerateDenominator(f"radial projection of {x} misses the profile")
    return best


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
