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
from typing import Callable, ClassVar, Optional, Union

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
class Arc:
    """Circular arc ``center + r (cos a, sin a)``, the angle a running
    linearly in t from a0 to a1 (counterclockwise when a1 > a0); the arcs
    of ``smooth_corners``."""

    center: Point
    r: float
    a0: float
    a1: float
    kind: ClassVar[str] = "arc"

    @classmethod
    def from_numbers(cls, numbers) -> "Arc":
        cx, cy, r, a0, a1 = numbers
        return cls((cx, cy), r, a0, a1)

    def numbers(self) -> tuple[float, ...]:
        return (*self.center, self.r, self.a0, self.a1)

    def sample(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Points and derivatives at the parameters ``t``, stacked on a
        last axis of length 2; the fields may be arrays that broadcast
        with ``t``."""
        (cx, cy), r, da = self.center, self.r, self.a1 - self.a0
        a = self.a0 + da * t
        cos, sin = r * np.cos(a), r * np.sin(a)
        return np.stack((cx + cos, cy + sin), -1), np.stack((-da * sin, da * cos), -1)

    def scaled(self, s: float) -> "Arc":
        return Arc((s * self.center[0], s * self.center[1]), s * self.r, self.a0, self.a1)


@dataclass(frozen=True)
class SquaredSegment:
    """The curve w = (mu1^2, mu2^2), mu running linearly in t from mu0 to
    mu1: a straight segment in square-root coordinates, as in both curved
    pieces of ``fc_domain``."""

    mu0: Point
    mu1: Point
    kind: ClassVar[str] = "squared"

    @classmethod
    def from_numbers(cls, numbers) -> "SquaredSegment":
        p0, q0, p1, q1 = numbers
        return cls((p0, q0), (p1, q1))

    def numbers(self) -> tuple[float, ...]:
        return (*self.mu0, *self.mu1)

    def sample(self, t) -> tuple[np.ndarray, np.ndarray]:
        """As ``Arc.sample``."""
        (p0, q0), (p1, q1) = self.mu0, self.mu1
        dp, dq = p1 - p0, q1 - q0
        p, q = p0 + dp * t, q0 + dq * t
        return np.stack((p * p, q * q), -1), np.stack((2 * p * dp, 2 * q * dq), -1)

    def scaled(self, s: float) -> "SquaredSegment":
        return SquaredSegment.from_numbers([math.sqrt(s) * x for x in self.numbers()])


Tag = Union[Arc, SquaredSegment]
# Tag types by the name profile files give them.
TAG_KINDS: dict[str, type] = {cls.kind: cls for cls in (Arc, SquaredSegment)}


@dataclass(frozen=True)
class MomentProfile:
    """Closure of the positive-quadrant boundary arc, (a,0) -> (0,b).

    Valid by construction: the coordinates are converted to float and
    checked by ``_validate`` (finite coordinates, axis endpoints, star
    shape, no zero-length segment), axis endpoints within tolerance are
    snapped onto the axes, and a non-empty ``tags`` must hold one entry
    per segment, each tag's curve starting and ending at its segment's
    vertices.

    Derived geometry is computed on first use and then cached on the
    instance: ``diameter`` and ``tol``; the read-only arrays ``xy``
    (vertices), ``directions`` and ``normals`` (per segment) and
    ``tagged`` (indices of tagged segments); ``normal_turns`` at the
    interior vertices; the primitive integer normal of each segment
    (``primitive_normal``, memoised per segment, so that a caller that
    needs only a few segments, like ``reeb.t_min``, pays only for those;
    ``primitive_normals`` lists all of them); the tag samples at the
    Gauss-Legendre nodes of each order (``curve_samples``); and the
    results callers store with ``memo``.
    Every cache assumes the instance never changes, so a profile must not
    be mutated (not even through ``object.__setattr__``); build a new one
    instead.
    """

    vertices: tuple[Point, ...]
    tags: tuple[Optional[Tag], ...] = ()
    family: str = "custom"
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        verts = _validate(tuple((float(x), float(y)) for x, y in self.vertices))
        object.__setattr__(self, "vertices", verts)
        if self.tags and len(self.tags) != len(verts) - 1:
            raise ParamOutOfRange(
                f"{len(self.tags)} tags for a profile with {len(verts) - 1} segments"
            )
        if len(self.tagged):
            self._check_tag_ends()

    def _check_tag_ends(self) -> None:
        """Every tag's curve must start and end at its segment's vertices,
        within the profile's tolerance; sampled at t = 0 and 1 in one numpy
        call per tag type."""
        ends, _ = self.sample_curves(np.array([0.0, 1.0]))
        idx, xy = self.tagged, self.xy
        gap = np.maximum(np.abs(ends[:, 0] - xy[idx]), np.abs(ends[:, 1] - xy[idx + 1]))
        off = ~(gap.max(axis=1) <= self.tol)
        if off.any():
            k = int(off.argmax())
            i = int(idx[k])
            (s0, s1), (e0, e1) = ends[k].tolist()
            raise ParamOutOfRange(
                f"tag of segment {i} runs from {(s0, s1)} to {(e0, e1)}, not from "
                f"vertex {i} at {self.vertices[i]} to vertex {i + 1} at {self.vertices[i + 1]}"
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
        lo, hi = self.xy.min(axis=0), self.xy.max(axis=0)
        return max(*(hi - lo).tolist(), *hi.tolist())

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
        """``primitive_normal`` of every segment."""
        return tuple(map(self.primitive_normal, range(self.n_segments)))

    @cached_property
    def _primitive_normals(self) -> dict[int, Optional[tuple[int, int]]]:
        return {}

    def primitive_normal(self, i: int) -> Optional[tuple[int, int]]:
        """The primitive integer vector parallel to the outward normal of
        segment i, rebuilt from the shortest round-trip decimals of its
        two vertices' coordinates, or None beyond RATIONAL_CAP; computed
        once per segment, when first asked for."""
        memo = self._primitive_normals
        if i not in memo:
            (x0, y0), (x1, y1) = self.segment(i)
            memo[i] = _primitive_normal(
                (_decimal_ratio(x0), _decimal_ratio(y0)), (_decimal_ratio(x1), _decimal_ratio(y1))
            )
        return memo[i]

    @cached_property
    def tagged(self) -> np.ndarray:
        """Indices of the segments that carry an analytic tag."""
        idx = [i for i, t in enumerate(self.tags) if t is not None]
        return _read_only(np.array(idx, dtype=np.intp))

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

    @cached_property
    def _stacked_tags(self) -> list[tuple[np.ndarray, Tag]]:
        """Per tag type: the positions of its tags in ``tagged``, and one
        instance of the type whose fields are columns holding those tags'
        fields."""
        tags = [self.tags[i] for i in self.tagged.tolist()]
        out = []
        for cls in set(map(type, tags)):
            rows = [k for k, tag in enumerate(tags) if type(tag) is cls]
            columns = np.array([tags[k].numbers() for k in rows]).T[..., None]
            out.append((np.array(rows, dtype=np.intp), cls.from_numbers(columns)))
        return out

    def sample_curves(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Points and derivatives of the tagged segments (in the order of
        ``tagged``) at the parameters ``t``, as two (k, len(t), 2) arrays;
        each tag type is sampled in one numpy call (``_stacked_tags``)."""
        pts = np.empty((len(self.tagged), len(t), 2))
        ders = np.empty_like(pts)
        for rows, stacked in self._stacked_tags:
            pts[rows], ders[rows] = stacked.sample(t)
        return pts, ders

    def curve_samples(self, order: int) -> tuple[np.ndarray, np.ndarray]:
        """``sample_curves`` at the ``order`` Gauss-Legendre nodes on
        [0, 1], read-only; sampled once per order (``memo``)."""
        return self.memo(
            f"curve_samples {order}",
            lambda: tuple(map(_read_only, self.sample_curves(_gl_nodes(order)[0]))),
        )

    def segment(self, i: int) -> tuple[Point, Point]:
        return self.vertices[i], self.vertices[i + 1]

    def segment_direction(self, i: int) -> Point:
        (x0, y0), (x1, y1) = self.segment(i)
        return (x1 - x0, y1 - y0)

    def segment_normal(self, i: int) -> Point:
        """Unit outward normal of segment i (a row of ``normals``)."""
        n1, n2 = self.normals[i].tolist()
        return (n1, n2)

    def tag(self, i: int) -> Optional[Tag]:
        return self.tags[i] if self.tags else None

    def scaled(self, s: float) -> "MomentProfile":
        """All vertex coordinates (and tag curves) multiplied by s > 0."""
        if s <= 0:
            raise ParamOutOfRange("scale factor must be positive")
        verts = tuple((s * x, s * y) for x, y in self.vertices)
        tags = tuple(t and t.scaled(s) for t in self.tags)
        return MomentProfile(verts, tags, family="custom")


def _validate(vertices: tuple[Point, ...]) -> tuple[Point, ...]:
    """Check the profile invariants, snapping axis endpoints exactly.

    Returns the (possibly snapped) vertex tuple or raises.
    """
    if len(vertices) < 2:
        raise AxisViolation("a profile needs at least two vertices")
    for i, (x, y) in enumerate(vertices):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParamOutOfRange(f"vertex {i} at {(x, y)} is not finite")
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


def fc_c_min(b: float) -> float:
    """The least c of the extremal family with parameter b >= 1: b/(1+b)."""
    if not b >= 1:
        raise ParamOutOfRange(f"fc_domain requires b >= 1; got b = {b}")
    return b / (1 + b)


def fc_domain(b: float, c: float, n: int = 8) -> MomentProfile:
    """Extremal convex family: boundary w2 = f_c(w1) with a = 1, built from
    a linear piece in sqrt-coordinates, the straight piece w2 = c - w1, and
    a second sqrt-linear piece.

    Samples n points per piece; the curved pieces carry ``SquaredSegment``
    tags, linear in mu = sqrt(w).
    """
    lo = fc_c_min(b)
    if not (lo - 1e-12 <= c < 1):
        raise ParamOutOfRange(f"fc_domain requires c in [{lo}, 1); got c = {c}")
    if n < 2:
        raise ParamOutOfRange("fc_domain requires n >= 2")
    w_break1, w_break2 = c * (b - c) / b, c * c
    # Piece near the w1-axis: mu2 = sqrt(c/(1-c)) * (1 - mu1); piece near
    # the w2-axis: mu2 = sqrt(b) - sqrt((b-c)/c) * mu1.
    s3 = math.sqrt(c / (1 - c))
    s1, sb = math.sqrt((b - c) / c), math.sqrt(b)

    verts: list[Point] = []
    tags: list[Optional[Tag]] = []

    def piece(mus: list[Point]):
        for mu0, mu1 in zip(mus, mus[1:]):
            verts.append((mu0[0] * mu0[0], mu0[1] * mu0[1]))
            tags.append(SquaredSegment(mu0, mu1))

    # Path runs from (1, 0) toward (0, b): traverse piece 3 with mu1
    # decreasing from 1 to c, then the straight piece, then piece 1 with
    # mu1 decreasing from sqrt(w_break1) to 0.
    piece([(m, s3 * (1 - m)) for m in (1 - (1 - c) * i / n for i in range(n + 1))])
    mid_degenerate = w_break2 - w_break1 <= 1e-12 * max(1.0, b)
    if not mid_degenerate:
        verts.append((w_break2, c - w_break2))
        tags.append(None)  # straight piece w2 = c - w1
    mu_hi = math.sqrt(w_break1)
    piece([(m, sb - s1 * m) for m in (mu_hi * (1 - i / n) for i in range(n + 1))])
    verts.append((0.0, b))

    return MomentProfile(
        tuple(verts), tuple(tags), family="fc", params=(("b", b), ("c", c), ("n", n))
    )


def _whole(n: float) -> int:
    """A family's subdivision count, read as a number: it must be whole."""
    if n != int(n):
        raise ParamOutOfRange(f"n must be a whole number; got {n}")
    return int(n)


# Named families for inline specs and profile files: builder, then the
# required and optional parameter names in call order.  The builders look
# the constructors up by module name at call time, so a wrapper installed
# on a constructor (as the benchmark's tracer does) sees these calls too.
FAMILIES = {
    "ellipsoid": (lambda a, b, n=1: ellipsoid(a, b, _whole(n)), ("a", "b"), ("n",)),
    "polydisk": (lambda a, b: polydisk(a, b), ("a", "b"), ()),
    "ball": (lambda c, n=1: ball(c, _whole(n)), ("c",), ("n",)),
    "fc": (lambda b, c, n=8: fc_domain(b, c, _whole(n)), ("b", "c"), ("n",)),
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
    """Total turning of the outward normal along the profile: the sum of
    ``normal_turns``, the signed exterior angles at interior vertices
    (an arc's turning is already in the turns between its chords)."""
    return sum(p.normal_turns)


def smooth_corners(p: MomentProfile, r: float, arc_points: int = 16) -> MomentProfile:
    """Replace every convex interior corner by a circular arc tangent to
    both incident segments.  Reflex corners are left sharp.

    The arc is sampled into ``arc_points`` sub-segments, each carrying an
    ``Arc`` tag for exact quadrature.  A corner whose normal turns by at
    most 1e-12 rad counts as collinear and stays, whatever the profile's
    scale; so does one whose arc, of length r * turn, is too short to
    split into ``arc_points`` chords above the profile's tolerance.
    """
    if r < 0:
        raise RadiusTooLarge("radius must be nonnegative")
    if arc_points < 1:
        raise ParamOutOfRange(f"arc_points must be at least 1; got {arc_points}")
    if r == 0:
        return p
    if any(t is not None for t in p.tags):
        raise ParamOutOfRange("smooth_corners expects a purely polygonal profile")

    seg_len = [
        math.hypot(*(p.segment_direction(i))) for i in range(p.n_segments)
    ]
    verts: list[Point] = [p.vertices[0]]
    tags: list[Optional[Tag]] = []

    for i in range(1, p.n_segments):
        v = p.vertices[i]
        d1 = p.segment_direction(i - 1)
        d2 = p.segment_direction(i)
        l1, l2 = seg_len[i - 1], seg_len[i]
        u1 = (d1[0] / l1, d1[1] / l1)
        u2 = (d2[0] / l2, d2[1] / l2)
        turn = math.atan2(cross(u1, u2), dot(u1, u2))
        if turn <= 1e-12 or r * turn <= arc_points * p.tol:
            # collinear or reflex, or too little turn for arc chords longer
            # than the zero-length tolerance of _validate: keep the vertex
            tags.append(None)
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
        tags.append(None)
        verts.append(t1)
        for j in range(arc_points):
            a0 = ang0 + turn * j / arc_points
            a1 = ang0 + turn * (j + 1) / arc_points
            verts.append((center[0] + r * math.cos(a1), center[1] + r * math.sin(a1)))
            tags.append(Arc(center, r, a0, a1))
    tags.append(None)
    verts.append(p.vertices[-1])

    try:
        return MomentProfile(tuple(verts), tuple(tags), family="custom")
    except NotStarShaped as exc:
        raise SmoothingBreaksStarShape(str(exc)) from exc
