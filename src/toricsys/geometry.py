"""Moment-plane profiles of star-shaped toric domains in R^4.

A profile is the boundary arc in the open positive quadrant, stored as an
ordered piecewise-linear path from the w1-intercept (a, 0) to the
w2-intercept (0, b).  Segments may carry an analytic tag (a parametrized
curve) so that area and line integrals can be evaluated on the true curve
instead of the chord; all geometric predicates run on the polyline.

Coordinates are moment-map coordinates w_i = pi |z_i|^2, so plane area of
the region under the profile equals the 4D symplectic volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from functools import cache, cached_property
from typing import Callable, Optional

import numpy as np

from .errors import (
    AxisViolation,
    NotStarShaped,
    ParamOutOfRange,
    RadiusTooLarge,
    RayMissesBoundary,
    SelfIntersection,
    SmoothingBreaksStarShape,
)

Point = tuple[float, float]

# Relative tolerance for geometric predicates, scaled by profile diameter.
TOL_REL = 1e-9

# Primitive integer normals with components beyond this cap are treated as
# irrational: their orbits' actions exceed the axis-orbit bound by orders
# of magnitude, so they can never realize T_min.
RATIONAL_CAP = 10**6


def cross(u: Point, v: Point) -> float:
    return u[0] * v[1] - u[1] * v[0]


def dot(u: Point, v: Point) -> float:
    return u[0] * v[0] + u[1] * v[1]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@cache
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [0, 1], read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    return _read_only((x + 1) / 2), _read_only(w / 2)


def _decimal_ratio(x: float) -> tuple[int, int]:
    # repr() is the shortest decimal that round-trips, so this recovers the
    # intended decimal value rather than the raw binary expansion.
    return Decimal(repr(x)).as_integer_ratio()


def _primitive_normal(
    p0: tuple[tuple[int, int], tuple[int, int]],
    p1: tuple[tuple[int, int], tuple[int, int]],
) -> Optional[tuple[int, int]]:
    """Primitive integer vector along the outward normal (dw2, -dw1) of the
    segment between two vertices given as exact (numerator, denominator)
    coordinates, or None when a component exceeds RATIONAL_CAP."""
    (nx0, dx0), (ny0, dy0) = p0
    (nx1, dx1), (ny1, dy1) = p1
    # Both components scaled by the positive common denominator
    # dx0*dx1*dy0*dy1, which the gcd reduction removes again.
    a1 = (ny1 * dy0 - ny0 * dy1) * dx0 * dx1
    a2 = (nx0 * dx1 - nx1 * dx0) * dy0 * dy1
    if a1 == 0 and a2 == 0:
        return None
    g = math.gcd(a1, a2)
    m, n = a1 // g, a2 // g
    if max(abs(m), abs(n)) > RATIONAL_CAP:
        return None
    return (m, n)


@dataclass(frozen=True)
class CurveSegment:
    """Analytic description of one profile segment.

    ``point(t)`` traces the true curve for t in [0, 1] between the
    segment's two polyline vertices; ``deriv(t)`` is d(point)/dt.
    """

    point: Callable[[float], Point]
    deriv: Callable[[float], Point]
    kind: str = "analytic"


@dataclass(frozen=True)
class MomentProfile:
    """Closure of the positive-quadrant boundary arc, (a,0) -> (0,b).

    Valid by construction: the coordinates are converted to float and
    checked by ``_validate`` (axis endpoints, star shape, no zero-length
    segment), axis endpoints within tolerance are snapped onto the axes,
    and a non-empty ``tags`` must hold one entry per segment.

    Derived geometry is computed on first use and then cached on the
    instance: ``diameter`` and ``tol``; the read-only arrays ``xy``
    (vertices), ``directions`` and ``normals`` (per segment) and
    ``tagged`` (indices of tagged segments); ``normal_turns`` at the
    interior vertices; ``primitive_normals`` per segment; and the tag
    samples at the Gauss-Legendre nodes of each order
    (``curve_samples``); and the results callers store with ``memo``.
    Every cache assumes the instance never changes, so a profile must not
    be mutated (not even through ``object.__setattr__``); build a new one
    instead.
    """

    vertices: tuple[Point, ...]
    tags: tuple[Optional[CurveSegment], ...] = ()
    family: str = "custom"
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        verts = _validate(tuple((float(x), float(y)) for x, y in self.vertices))
        object.__setattr__(self, "vertices", verts)
        if self.tags and len(self.tags) != len(verts) - 1:
            raise ParamOutOfRange(
                f"{len(self.tags)} tags for a profile with {len(verts) - 1} segments"
            )

    @property
    def a_intercept(self) -> float:
        return self.vertices[0][0]

    @property
    def b_intercept(self) -> float:
        return self.vertices[-1][1]

    @property
    def n_segments(self) -> int:
        return len(self.vertices) - 1

    @cached_property
    def diameter(self) -> float:
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return max(max(xs) - min(xs), max(ys) - min(ys), max(xs), max(ys))

    @cached_property
    def tol(self) -> float:
        return TOL_REL * self.diameter

    @cached_property
    def xy(self) -> np.ndarray:
        """Vertices as an (n + 1, 2) array."""
        return _read_only(np.array(self.vertices, dtype=float).reshape(-1, 2))

    @cached_property
    def directions(self) -> np.ndarray:
        """Segment vectors (end minus start) as an (n, 2) array."""
        return _read_only(np.diff(self.xy, axis=0))

    @cached_property
    def normals(self) -> np.ndarray:
        """Unit outward segment normals as an (n, 2) array.

        The path runs counterclockwise around the region (polar angle
        increasing), so the outward normal of direction (d1, d2) is
        (d2, -d1) normalized.
        """
        d = self.directions
        # math.hypot, not np.hypot: the two differ in the last bit for
        # some inputs, and cone and flag decisions compare these values.
        length = np.array([math.hypot(d1, d2) for d1, d2 in d.tolist()])
        return _read_only(np.column_stack((d[:, 1], -d[:, 0])) / length.reshape(-1, 1))

    @cached_property
    def normal_turns(self) -> tuple[float, ...]:
        """Signed turning angle of the outward normal at each interior
        vertex 1..n-1, positive at convex corners."""
        a, b = self.normals[:-1], self.normals[1:]
        c = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        d = a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]
        return tuple(map(math.atan2, c.tolist(), d.tolist()))

    @cached_property
    def primitive_normals(self) -> tuple[Optional[tuple[int, int]], ...]:
        """Per segment, the primitive integer vector parallel to the
        outward normal, rebuilt from the shortest round-trip decimals of
        the vertex coordinates, or None beyond RATIONAL_CAP."""
        exact = [(_decimal_ratio(x), _decimal_ratio(y)) for x, y in self.vertices]
        return tuple(map(_primitive_normal, exact[:-1], exact[1:]))

    @cached_property
    def tagged(self) -> np.ndarray:
        """Indices of the segments that carry an analytic tag."""
        idx = [i for i, t in enumerate(self.tags) if t is not None]
        return _read_only(np.array(idx, dtype=np.intp))

    @cached_property
    def _curve_samples(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        return {}

    @cached_property
    def _memo(self) -> dict[str, object]:
        return {}

    def memo(self, key: str, compute: Callable[[], object]):
        """``compute()``, evaluated once per profile instance and key.  For
        whole-profile results that several callers need, such as the
        input's area and T_min in a surgery sweep."""
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def curve_samples(self, order: int) -> tuple[np.ndarray, np.ndarray]:
        """Points and derivatives of the tagged segments (in the order of
        ``tagged``) at the ``order`` Gauss-Legendre nodes on [0, 1], as
        two (k, order, 2) arrays; sampled once per order."""
        cache = self._curve_samples
        if order not in cache:
            nodes = _gl_nodes(order)[0].tolist()
            curves = [self.tags[i] for i in self.tagged.tolist()]
            shape, count, pair = (len(curves), order, 2), len(curves) * order, np.dtype((float, 2))
            pts = np.fromiter((c.point(t) for c in curves for t in nodes), pair, count)
            ders = np.fromiter((c.deriv(t) for c in curves for t in nodes), pair, count)
            cache[order] = (_read_only(pts.reshape(shape)), _read_only(ders.reshape(shape)))
        return cache[order]

    def segment(self, i: int) -> tuple[Point, Point]:
        return self.vertices[i], self.vertices[i + 1]

    def segment_direction(self, i: int) -> Point:
        (x0, y0), (x1, y1) = self.segment(i)
        return (x1 - x0, y1 - y0)

    def segment_normal(self, i: int) -> Point:
        """Unit outward normal of segment i (a row of ``normals``)."""
        n1, n2 = self.normals[i].tolist()
        return (n1, n2)

    def tag(self, i: int) -> Optional[CurveSegment]:
        if not self.tags:
            return None
        return self.tags[i]

    def scaled(self, s: float) -> "MomentProfile":
        """All vertex coordinates (and tag curves) multiplied by s > 0."""
        if s <= 0:
            raise ParamOutOfRange("scale factor must be positive")
        verts = tuple((s * x, s * y) for x, y in self.vertices)
        tags = tuple(_scale_tag(t, s) for t in self.tags) if self.tags else ()
        return MomentProfile(verts, tags, family="custom")


def _scale_tag(tag: Optional[CurveSegment], s: float) -> Optional[CurveSegment]:
    if tag is None:
        return None
    pt, dv = tag.point, tag.deriv
    return CurveSegment(
        point=lambda t, pt=pt, s=s: (s * pt(t)[0], s * pt(t)[1]),
        deriv=lambda t, dv=dv, s=s: (s * dv(t)[0], s * dv(t)[1]),
        kind=tag.kind,
    )


def _validate(vertices: tuple[Point, ...]) -> tuple[Point, ...]:
    """Check the profile invariants, snapping axis endpoints exactly.

    Returns the (possibly snapped) vertex tuple or raises.
    """
    if len(vertices) < 2:
        raise AxisViolation("a profile needs at least two vertices")
    diam = max(max(abs(x), abs(y)) for x, y in vertices)
    tol = TOL_REL * diam

    first, last = vertices[0], vertices[-1]
    if abs(first[1]) > tol or first[0] <= tol:
        raise AxisViolation(f"first vertex {first} must lie on the positive w1-axis")
    if abs(last[0]) > tol or last[1] <= tol:
        raise AxisViolation(f"last vertex {last} must lie on the positive w2-axis")
    verts = list(vertices)
    verts[0] = (first[0], 0.0)
    verts[-1] = (0.0, last[1])

    for i, (x, y) in enumerate(verts[1:-1], start=1):
        if x <= tol or y <= tol:
            raise AxisViolation(f"interior vertex {i} at {(x, y)} touches an axis")

    for i in range(len(verts) - 1):
        p, q = verts[i], verts[i + 1]
        if math.hypot(q[0] - p[0], q[1] - p[1]) <= tol:
            raise SelfIntersection(f"zero-length segment at index {i}")
        # cross(p, q) equals (nu . p)|q - p| on the segment; positivity is
        # simultaneously the strictly-increasing-polar-angle condition and
        # the transversality of rays from the origin.
        if cross(p, q) <= tol * diam:
            raise NotStarShaped(i)

    return tuple(verts)


def from_vertices(points) -> MomentProfile:
    """Build and validate a polygonal profile from (w1, w2) pairs."""
    return MomentProfile(tuple(points))


def ellipsoid(a: float, b: float, n: int = 1) -> MomentProfile:
    """Profile of E(a, b): the segment from (a, 0) to (0, b), subdivided."""
    if a <= 0 or b <= 0:
        raise ParamOutOfRange("ellipsoid requires a, b > 0")
    if n < 1:
        raise ParamOutOfRange("ellipsoid requires n >= 1")
    verts = tuple(
        (a * (1 - i / n), b * (i / n)) for i in range(n + 1)
    )
    return MomentProfile(verts, family="ellipsoid", params=(("a", a), ("b", b), ("n", n)))


def polydisk(a: float, b: float) -> MomentProfile:
    """Profile of P(a, b): the rectangle path (a,0) -> (a,b) -> (0,b)."""
    if a <= 0 or b <= 0:
        raise ParamOutOfRange("polydisk requires a, b > 0")
    verts = ((a, 0.0), (a, b), (0.0, b))
    return MomentProfile(verts, family="polydisk", params=(("a", a), ("b", b)))


def ball(c: float, n: int = 1) -> MomentProfile:
    """Profile of the ball B^4(c) = E(c, c)."""
    return ellipsoid(c, c, n)


def _fc_breakpoints(b: float, c: float) -> tuple[float, float]:
    return c * (b - c) / b, c * c


def fc_domain(b: float, c: float, n: int = 8) -> MomentProfile:
    """Extremal convex family: boundary w2 = f_c(w1) with a = 1, built from
    a linear piece in sqrt-coordinates, the straight piece w2 = c - w1, and
    a second sqrt-linear piece.

    Samples n points per piece; the curved pieces carry analytic tags
    parametrized linearly in mu1 = sqrt(w1).
    """
    if b < 1:
        raise ParamOutOfRange("fc_domain requires b >= 1")
    lo = b / (1 + b)
    if not (lo - 1e-12 <= c < 1):
        raise ParamOutOfRange(f"fc_domain requires c in [{lo}, 1)")
    if n < 2:
        raise ParamOutOfRange("fc_domain requires n >= 2")
    w_break1, w_break2 = _fc_breakpoints(b, c)

    # Piece near the w2-axis, in mu-coordinates: mu2 = sqrt(b) - s*mu1.
    s1 = math.sqrt((b - c) / c)

    def curve1(m0: float, m1: float) -> CurveSegment:
        def point(t: float) -> Point:
            m = m0 + (m1 - m0) * t
            g = math.sqrt(b) - s1 * m
            return (m * m, g * g)

        def deriv(t: float) -> Point:
            m = m0 + (m1 - m0) * t
            dm = m1 - m0
            g = math.sqrt(b) - s1 * m
            return (2 * m * dm, 2 * g * (-s1) * dm)

        return CurveSegment(point, deriv, kind="fc1")

    # Piece near the w1-axis: mu2 = sqrt(c/(1-c)) * (1 - mu1).
    s3 = math.sqrt(c / (1 - c))

    def curve3(m0: float, m1: float) -> CurveSegment:
        def point(t: float) -> Point:
            m = m0 + (m1 - m0) * t
            g = s3 * (1 - m)
            return (m * m, g * g)

        def deriv(t: float) -> Point:
            m = m0 + (m1 - m0) * t
            dm = m1 - m0
            g = s3 * (1 - m)
            return (2 * m * dm, 2 * g * (-s3) * dm)

        return CurveSegment(point, deriv, kind="fc3")

    verts: list[Point] = []
    tags: list[Optional[CurveSegment]] = []

    # Path runs from (1, 0) toward (0, b): traverse piece 3 with mu1
    # decreasing from 1 to c, then the straight piece, then piece 1 with
    # mu1 decreasing from sqrt(w_break1) to 0.
    mus3 = [1 - (1 - c) * i / n for i in range(n + 1)]
    for i in range(n):
        m0, m1 = mus3[i], mus3[i + 1]
        seg = curve3(m0, m1)
        verts.append(seg.point(0.0))
        tags.append(seg)
    mid_degenerate = w_break2 - w_break1 <= 1e-12 * max(1.0, b)
    if not mid_degenerate:
        verts.append((w_break2, c - w_break2))
        tags.append(None)  # straight piece w2 = c - w1
    mu_hi = math.sqrt(w_break1)
    mus1 = [mu_hi * (1 - i / n) for i in range(n + 1)]
    for i in range(n):
        m0, m1 = mus1[i], mus1[i + 1]
        seg = curve1(m0, m1)
        verts.append(seg.point(0.0))
        tags.append(seg)
    verts.append((0.0, b))

    return MomentProfile(
        tuple(verts), tuple(tags), family="fc", params=(("b", b), ("c", c), ("n", n))
    )


# Named families for inline specs and profile files: builder, then the
# required and optional parameter names in call order.  The builders look
# the constructors up by module name at call time, so a wrapper installed
# on a constructor (as the benchmark's tracer does) sees these calls too.
FAMILIES = {
    "ellipsoid": (lambda a, b, n=1: ellipsoid(a, b, int(n)), ("a", "b"), ("n",)),
    "polydisk": (lambda a, b: polydisk(a, b), ("a", "b"), ()),
    "ball": (lambda c, n=1: ball(c, int(n)), ("c",), ("n",)),
    "fc": (lambda b, c, n=8: fc_domain(b, c, int(n)), ("b", "c"), ("n",)),
}


def ray_hit(p: MomentProfile, u: Point) -> tuple[float, float, int]:
    """Where the ray t*u (t > 0) from the origin crosses the profile
    polyline: the ray parameter t, the parameter s in [0, 1] along the
    crossed segment, and that segment's index (the first in path order)."""
    for i in range(p.n_segments):
        a, b = p.segment(i)
        d = (b[0] - a[0], b[1] - a[1])
        denom = cross(u, d)
        if abs(denom) < 1e-300:
            continue
        s = cross(u, a) / -denom
        if -1e-12 <= s <= 1 + 1e-12:
            t = cross(a, d) / denom
            if t > 0:
                return t, s, i
    raise RayMissesBoundary(f"ray direction {u} does not hit the profile")


# ---------------------------------------------------------------------------
# Classification


@dataclass(frozen=True)
class Classification:
    star_shaped: bool
    monotone: bool
    strictly_monotone: bool
    convex_4d: bool
    # Index of the violating segment (in path order) for each False flag.
    witnesses: dict = field(default_factory=dict)


@dataclass(frozen=True)
class NormalCone:
    """Angular interval of admissible outward normals at a vertex.

    ``start`` -> ``end`` counterclockwise, width in [0, pi).  At a convex
    corner this runs from the incoming to the outgoing segment normal; at a
    reflex corner the smoothed boundary sweeps the normals backwards, so
    the interval runs from the outgoing to the incoming normal.  ``convex``
    records which case holds; a degenerate (collinear) vertex has width 0.
    """

    vertex: Point
    start: Point
    end: Point
    width: float
    convex: bool


def normal_cone(p: MomentProfile, vertex_index: int) -> NormalCone:
    """Normal cone at interior vertex ``vertex_index`` (1..n-1)."""
    if not (1 <= vertex_index <= len(p.vertices) - 2):
        raise IndexError("normal_cone is defined at interior vertices")
    nu_in = p.segment_normal(vertex_index - 1)
    nu_out = p.segment_normal(vertex_index)
    turn = p.normal_turns[vertex_index - 1]
    v = p.vertices[vertex_index]
    if turn >= 0:
        return NormalCone(v, nu_in, nu_out, turn, convex=True)
    return NormalCone(v, nu_out, nu_in, -turn, convex=False)


def endpoint_cone(p: MomentProfile, which: str) -> NormalCone:
    """Normal cone at an axis intercept, bounded by the axis normal.

    The closed boundary of the region continues along the axes; the
    outward normal of the w1-axis piece is (0, -1) and of the w2-axis
    piece is (-1, 0).
    """
    if which == "a":
        nu_in = (0.0, -1.0)
        nu_out = p.segment_normal(0)
        v = p.vertices[0]
    elif which == "b":
        nu_in = p.segment_normal(p.n_segments - 1)
        nu_out = (-1.0, 0.0)
        v = p.vertices[-1]
    else:
        raise ValueError("which must be 'a' or 'b'")
    turn = math.atan2(cross(nu_in, nu_out), dot(nu_in, nu_out))
    if turn >= 0:
        return NormalCone(v, nu_in, nu_out, turn, convex=True)
    return NormalCone(v, nu_out, nu_in, -turn, convex=False)


def classify(p: MomentProfile) -> Classification:
    witnesses: dict = {}
    nu = p.normals
    decreasing = (nu < -TOL_REL).any(axis=1)
    flat = (nu <= TOL_REL).any(axis=1)
    monotone = not decreasing.any()
    if not monotone:
        witnesses["monotone"] = int(decreasing.argmax())
    strictly = not flat.any()
    if not strictly:
        witnesses["strictly_monotone"] = int(flat.argmax())
    strictly = strictly and monotone

    convex = _convex_4d(p, monotone, witnesses)
    return Classification(
        star_shaped=True,
        monotone=monotone,
        strictly_monotone=strictly,
        convex_4d=convex,
        witnesses=witnesses,
    )


def _convex_4d(p: MomentProfile, monotone: bool, witnesses: dict) -> bool:
    """Concave chain test in sqrt-coordinates.

    A convex toric domain is monotone, and traversed with mu1 increasing
    (reverse of path order) every consecutive triple of its square-root
    chain turns clockwise or stays straight; vertical steps (polydisk
    sides) are allowed.  A non-monotone profile takes the monotone
    witness.
    """
    if not monotone:
        witnesses["convex_4d"] = witnesses["monotone"]
        return False
    mu = np.sqrt(p.xy[::-1])
    tol = TOL_REL * (mu[:, 0] + mu[:, 1]).max()
    step = np.diff(mu, axis=0)
    turn = step[:-1, 0] * step[1:, 1] - step[:-1, 1] * step[1:, 0]
    ccw = turn > tol
    if ccw.any():
        witnesses["convex_4d"] = p.n_segments - 2 - int(ccw.argmax())
        return False
    return True


def sqrt_transform(p: MomentProfile) -> list[Point]:
    """Pointwise square root of the vertex list."""
    return [(math.sqrt(x), math.sqrt(y)) for x, y in p.vertices]


# ---------------------------------------------------------------------------
# Corner rounding


def total_turning(p: MomentProfile) -> float:
    """Total turning of the outward normal along the profile: sum of
    signed exterior angles at interior vertices plus, for arc-tagged
    segments, nothing extra (chord turning already accounts for it)."""
    total = 0.0
    for i in range(1, p.n_segments):
        d1 = p.segment_direction(i - 1)
        d2 = p.segment_direction(i)
        total += math.atan2(cross(d1, d2), dot(d1, d2))
    return total


def smooth_corners(p: MomentProfile, r: float, arc_points: int = 16) -> MomentProfile:
    """Replace every convex interior corner by a circular arc tangent to
    both incident segments.  Reflex corners are left sharp.

    The arc is sampled into ``arc_points`` sub-segments, each carrying an
    analytic arc tag for exact quadrature.
    """
    if r < 0:
        raise RadiusTooLarge("radius must be nonnegative")
    if r == 0:
        return p
    if any(t is not None for t in p.tags):
        raise ValueError("smooth_corners expects a purely polygonal profile")

    seg_len = [
        math.hypot(*(p.segment_direction(i))) for i in range(p.n_segments)
    ]
    verts: list[Point] = [p.vertices[0]]
    tags: list[Optional[CurveSegment]] = []

    for i in range(1, p.n_segments):
        v = p.vertices[i]
        d1 = p.segment_direction(i - 1)
        d2 = p.segment_direction(i)
        l1, l2 = seg_len[i - 1], seg_len[i]
        u1 = (d1[0] / l1, d1[1] / l1)
        u2 = (d2[0] / l2, d2[1] / l2)
        turn = math.atan2(cross(u1, u2), dot(u1, u2))
        if turn <= p.tol:
            # collinear or reflex: keep the vertex
            tags.append(p.tag(i - 1))
            verts.append(v)
            continue
        tangent = r * math.tan(turn / 2)
        if tangent > min(l1, l2) / 2 or r > min(l1, l2) / 2:
            raise RadiusTooLarge(
                f"radius {r} too large for corner {i} (incident lengths {l1:.3g}, {l2:.3g})"
            )
        # Arc center: offset from the tangent point on the incoming segment
        # along its inward normal (the left-hand side of the traversal).
        t1 = (v[0] - tangent * u1[0], v[1] - tangent * u1[1])
        left1 = (-u1[1], u1[0])
        center = (t1[0] + r * left1[0], t1[1] + r * left1[1])
        ang0 = math.atan2(t1[1] - center[1], t1[0] - center[0])
        # Normal rotates CCW by `turn` across a convex corner.
        tags.append(p.tag(i - 1))
        verts.append(t1)
        for j in range(arc_points):
            a0 = ang0 + turn * j / arc_points
            a1 = ang0 + turn * (j + 1) / arc_points

            def point(t: float, a0=a0, a1=a1, c=center) -> Point:
                a = a0 + (a1 - a0) * t
                return (c[0] + r * math.cos(a), c[1] + r * math.sin(a))

            def deriv(t: float, a0=a0, a1=a1) -> Point:
                a = a0 + (a1 - a0) * t
                da = a1 - a0
                return (-r * math.sin(a) * da, r * math.cos(a) * da)

            verts.append((center[0] + r * math.cos(a1), center[1] + r * math.sin(a1)))
            tags.append(CurveSegment(point, deriv, kind="arc"))
    tags.append(p.tag(p.n_segments - 1))
    verts.append(p.vertices[-1])

    try:
        return MomentProfile(tuple(verts), tuple(tags), family="custom")
    except NotStarShaped as exc:
        raise SmoothingBreaksStarShape(str(exc)) from exc
