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
import operator
from contextlib import nullcontext
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

# An interior vertex whose outward normal turns by at most this many
# radians counts as collinear: it is no corner, whatever the profile's scale.
COLLINEAR_TURN = 1e-12

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


# ``tagged`` of every profile without tags.
_UNTAGGED = _read_only(np.empty(0, dtype=np.intp))


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


class _ColumnTags(tuple):
    """A family builder's tags, handed to ``MomentProfile`` together with
    their ``_stacked_tags`` built from the same arrays, so that the profile
    need not rebuild the columns from each tag's ``numbers()``."""

    def __new__(cls, tags, stacked: list):
        self = super().__new__(cls, tags)
        self.stacked = stacked
        return self


@dataclass(frozen=True)
class MomentProfile:
    """Closure of the positive-quadrant boundary arc, (a,0) -> (0,b).

    Valid by construction: the vertices are read once into an (n + 1, 2)
    float array and checked by ``_validate`` in one numpy pass (finite
    coordinates, axis endpoints, star shape, no zero-length segment), axis
    endpoints within tolerance are snapped onto the axes, and a non-empty
    ``tags`` must hold one entry per segment, each tag's curve starting and
    ending at its segment's vertices.  The checked array is kept as the
    read-only ``xy``, with the ``diameter`` (largest coordinate) and ``tol``
    the checks used and the segment measures they compared, read-only:
    ``directions`` (end minus start), their ``lengths`` and the
    ``cross_products`` x0 y1 - y0 x1 of the segments' ends.  ``vertices``
    is rebuilt from ``xy`` as float pairs.

    Derived geometry is computed on first use and then cached on the
    instance: the read-only arrays ``normals`` (per segment) and
    ``tagged`` (indices of tagged segments, set on construction when there
    are no tags); ``normal_turns`` at the interior vertices; the primitive
    integer normal of each segment (``primitive_normal``, memoised per
    segment, so that a caller that needs only a few segments, like
    ``reeb.t_min``, pays only for those; ``primitive_normals`` lists all of
    them); the tag samples at the Gauss-Legendre nodes of each order
    (``curve_samples``); and the whole-profile results their owners store
    with ``memo``: ``classify`` and ``invariants.area``.
    Every cache assumes the instance never changes, so a profile must not
    be mutated (not even through ``object.__setattr__``); build a new one
    instead.
    """

    vertices: tuple[Point, ...]
    tags: tuple[Optional[Tag], ...] = ()
    family: str = "custom"
    params: tuple[tuple[str, float], ...] = ()
    # Set on construction from ``_validate``.
    xy: np.ndarray = field(init=False, repr=False, compare=False)
    diameter: float = field(init=False, repr=False, compare=False)
    tol: float = field(init=False, repr=False, compare=False)
    directions: np.ndarray = field(init=False, repr=False, compare=False)
    lengths: np.ndarray = field(init=False, repr=False, compare=False)
    cross_products: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        xy, diameter, *measures = _validate(self.vertices)
        # Frozen: the fields are set in the instance dict directly.
        self.__dict__.update(
            zip(("directions", "lengths", "cross_products"), measures),
            vertices=tuple(zip(*xy.T.tolist())), xy=xy, diameter=diameter, tol=TOL_REL * diameter,
        )
        if isinstance(self.tags, _ColumnTags):
            self.__dict__.update(_stacked_tags=self.tags.stacked, tags=tuple(self.tags))
        if not self.tags:
            self.__dict__["tagged"] = _UNTAGGED
            return
        if len(self.tags) != len(xy) - 1:
            raise ParamOutOfRange(
                f"{len(self.tags)} tags for a profile with {len(xy) - 1} segments"
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
    def normals(self) -> np.ndarray:
        """Unit outward segment normals as an (n, 2) array.

        The path runs counterclockwise around the region (polar angle
        increasing), so the outward normal of direction (d1, d2) is
        (d2, -d1) divided by its length.
        """
        d = self.directions
        return _read_only(np.column_stack((d[:, 1], -d[:, 0])) / self.lengths[:, None])

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
        whole-profile results that several callers need: ``classify``,
        ``invariants.area`` and a surgery input's T_min."""
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
        """Segment i's vector, end minus start (a row of ``directions``)."""
        return tuple(self.directions[i].tolist())

    def segment_normal(self, i: int) -> Point:
        """Unit outward normal of segment i (a row of ``normals``)."""
        return tuple(self.normals[i].tolist())

    def tag(self, i: int) -> Optional[Tag]:
        return self.tags[i] if self.tags else None

    def scaled(self, s: float) -> "MomentProfile":
        """All vertex coordinates (and tag curves) multiplied by s > 0."""
        if s <= 0:
            raise ParamOutOfRange("scale factor must be positive")
        tags = tuple(t and t.scaled(s) for t in self.tags)
        with _quiet():
            xy = s * self.xy
            if len(self.tagged):
                stacked = [(rows, st.scaled(s)) for rows, st in self._stacked_tags]
                tags = _ColumnTags(tags, stacked)
        return MomentProfile(xy, tags, family="custom")


def _quiet(needed: bool = True):
    """numpy arithmetic that turns overflow and inf * 0 into inf and nan
    without a warning, as Python float arithmetic does; a no-op unless
    ``needed``, since entering ``np.errstate`` costs about 2 µs."""
    return np.errstate(over="ignore", invalid="ignore") if needed else nullcontext()


def _validate(vertices) -> tuple[np.ndarray, float, np.ndarray, np.ndarray, np.ndarray]:
    """Check the profile invariants in one numpy pass that measures every
    segment, snapping axis endpoints exactly.

    The vertices are read once into an (n + 1, 2) float array.  Returns
    that array, snapped, the diameter max |coordinate| that scales the
    tolerance, and the segments' directions, lengths and cross products
    x0 y1 - y0 x1 (arrays read-only), or raises at the first violation in
    this order: input that is not (w1, w2) pairs of real numbers, fewer
    than two vertices, the first non-finite vertex, the first vertex off
    the positive w1-axis, the last off the positive w2-axis, the first
    interior vertex on an axis, and then segments in path order, a
    zero-length segment before a star-shape violation at the same index.
    """
    try:
        xy = np.array(vertices, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParamOutOfRange(f"vertices must be (w1, w2) pairs of real numbers: {exc}") from None
    if xy.shape[1:] != (2,) and xy.shape != (0,):
        raise ParamOutOfRange(f"vertices must be (w1, w2) pairs; got an array of shape {xy.shape}")
    if len(xy) < 2:
        raise AxisViolation("a profile needs at least two vertices")
    # Masks are searched with argmax, the first True (and the first nan of
    # a float array), which numpy runs without the overhead of any()/max().
    size = np.abs(xy)
    diam = size.item(size.argmax())
    if not diam < math.inf:
        # numpy reads None as nan: name it as float() would have.
        for x, y in vertices:
            if x is None or y is None:
                raise ParamOutOfRange(f"vertices must be (w1, w2) pairs of real numbers: {(x, y)}")
        i = int((~np.isfinite(xy)).any(axis=1).argmax())
        raise ParamOutOfRange(f"vertex {i} at {tuple(xy[i].tolist())} is not finite")
    tol = TOL_REL * diam

    (x0, y0), (xn, yn) = xy[0].tolist(), xy[-1].tolist()
    if abs(y0) > tol or x0 <= tol:
        raise AxisViolation(f"first vertex {(x0, y0)} must lie on the positive w1-axis")
    if abs(xn) > tol or yn <= tol:
        raise AxisViolation(f"last vertex {(xn, yn)} must lie on the positive w2-axis")
    xy[0, 1] = xy[-1, 0] = 0.0

    on_axis = xy[1:-1] <= tol
    if len(on_axis) and on_axis.item(k := on_axis.argmax()):
        i = k // 2 + 1
        raise AxisViolation(f"interior vertex {i} at {tuple(xy[i].tolist())} touches an axis")

    # math.hypot, not np.hypot: the two differ in the last bit for some
    # inputs, and cone and flag decisions compare the normals built on it.
    d = np.diff(xy, axis=0)
    length = np.array(list(map(math.hypot, d[:, 0].tolist(), d[:, 1].tolist())))
    # cross(p, q) equals (nu . p)|q - p| on the segment; positivity is
    # simultaneously the strictly-increasing-polar-angle condition and
    # the transversality of rays from the origin.  The coordinates lie in
    # [0, diam], so only products beyond diam^2 overflow (to inf, and
    # inf - inf to nan, which passes as in Python float arithmetic).
    with _quiet(math.isinf(diam * diam)):
        pq = xy[:-1] * xy[1:, ::-1]
        crs = pq[:, 0] - pq[:, 1]
    bad = (length <= tol) | (crs <= tol * diam)
    if bad.item(i := int(bad.argmax())):
        if length.item(i) <= tol:
            raise SelfIntersection(f"zero-length segment at index {i}")
        raise NotStarShaped(i)
    return _read_only(xy), diam, _read_only(d), _read_only(length), _read_only(crs)


def from_vertices(points) -> MomentProfile:
    """Build and validate a polygonal profile from (w1, w2) pairs."""
    return MomentProfile(tuple(points))


def ellipsoid(a: float, b: float, n: int = 1) -> MomentProfile:
    """Profile of E(a, b): the segment from (a, 0) to (0, b), subdivided."""
    if a <= 0 or b <= 0:
        raise ParamOutOfRange("ellipsoid requires a, b > 0")
    if n < 1:
        raise ParamOutOfRange("ellipsoid requires n >= 1")
    t = np.arange(operator.index(n) + 1) / n
    verts = np.empty((len(t), 2))
    with _quiet(math.isinf(a) or math.isinf(b)):
        verts[:, 0], verts[:, 1] = a * (1 - t), b * t
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
    """The least c of the extremal family with parameter 1 <= b < inf: b/(1+b)."""
    if not 1 <= b < math.inf:
        need = "a finite b" if b >= 1 else "b >= 1"
        raise ParamOutOfRange(f"fc_domain requires {need}; got b = {b}")
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

    # Path runs from (1, 0) toward (0, b): traverse piece 3 with mu1
    # decreasing from 1 to c, then the straight piece, then piece 1 with
    # mu1 decreasing from sqrt(w_break1) to 0.
    i = np.arange(operator.index(n) + 1)
    m3 = 1 - (1 - c) * i / n
    m1 = math.sqrt(w_break1) * (1 - i / n)
    mus = [np.column_stack((m3, s3 * (1 - m3))), np.column_stack((m1, sb - s1 * m1))]
    # Start and end of each tagged segment, piece 3's then piece 1's.
    mu0 = np.concatenate([mu[:-1] for mu in mus])
    mu1 = np.concatenate([mu[1:] for mu in mus])
    tags: list[Optional[Tag]] = list(
        map(SquaredSegment, zip(*mu0.T.tolist()), zip(*mu1.T.tolist()))
    )
    starts = mu0 * mu0
    pieces = [starts[:n], starts[n:], [(0.0, b)]]
    if not w_break2 - w_break1 <= 1e-12 * max(1.0, b):
        pieces.insert(1, [(w_break2, c - w_break2)])
        tags.insert(n, None)  # straight piece w2 = c - w1
    stacked = [(np.arange(2 * n), SquaredSegment.from_numbers(np.hstack((mu0, mu1)).T[..., None]))]
    return MomentProfile(
        np.concatenate(pieces), _ColumnTags(tags, stacked),
        family="fc", params=(("b", b), ("c", c), ("n", n)),
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
    for i, (a, d) in enumerate(zip(p.vertices, p.directions.tolist())):
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
    """The profile's monotonicity and 4D-convexity flags, computed once per
    profile (``MomentProfile.memo``) and shared by every caller."""
    return p.memo("classify", lambda: _classify(p))


def _classify(p: MomentProfile) -> Classification:
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
    ``Arc`` tag for exact quadrature.  A corner whose normal turns
    (``normal_turns``) by at most ``COLLINEAR_TURN`` counts as collinear
    and stays; so does one whose arc, of length r * turn, is too short to
    split into ``arc_points`` chords above the profile's tolerance.
    """
    if r < 0:
        raise RadiusTooLarge("radius must be nonnegative")
    if arc_points < 1:
        raise ParamOutOfRange(f"arc_points must be at least 1; got {arc_points}")
    if r == 0:
        return p
    if len(p.tagged):
        raise ParamOutOfRange("smooth_corners expects a purely polygonal profile")

    m = arc_points
    turns = np.array(p.normal_turns)
    # Collinear or reflex corners, and those with too little turn for arc
    # chords longer than the zero-length tolerance of _validate, stay.
    with _quiet():
        stay = (turns <= COLLINEAR_TURN) | (r * turns <= m * p.tol)
    rounded = (np.flatnonzero(~stay) + 1).tolist()
    if not rounded:
        return MomentProfile(p.xy, (None,) * p.n_segments, family="custom")
    t1s, centers, ang0s, corner_turns = [], [], [], []
    for i in rounded:
        (x, y), turn = p.vertices[i], p.normal_turns[i - 1]
        d1x, d1y = p.directions[i - 1].tolist()
        l1, l2 = p.lengths[i - 1 : i + 1].tolist()
        u1 = (d1x / l1, d1y / l1)
        tangent = r * math.tan(turn / 2)
        if tangent > min(l1, l2) / 2 or r > min(l1, l2) / 2:
            raise RadiusTooLarge(
                f"radius {r} too large for corner {i} (incident lengths {l1:.3g}, {l2:.3g})"
            )
        # Arc center: offset from the tangent point on the incoming segment
        # along its inward normal (the left-hand side of the traversal).
        t1 = (x - tangent * u1[0], y - tangent * u1[1])
        left1 = (-u1[1], u1[0])
        center = (t1[0] + r * left1[0], t1[1] + r * left1[1])
        t1s.append(t1)
        centers.append(center)
        ang0s.append(math.atan2(t1[1] - center[1], t1[0] - center[0]))
        corner_turns.append(turn)

    # Each of the k rounded corners becomes its tangent point t1 and m arc
    # points; the normal rotates CCW by `turn` across it, and angles[j, s]
    # is where the s-th arc of corner j starts.
    k = len(rounded)
    angles = np.reshape(ang0s, (k, 1)) + np.reshape(corner_turns, (k, 1)) * np.arange(m + 1) / m
    cx, cy = np.reshape(centers, (k, 2, 1)).transpose(1, 0, 2)
    blocks = np.empty((k, m + 1, 2))
    blocks[:, 0] = np.reshape(t1s, (k, 2))
    blocks[:, 1:, 0] = cx + r * np.cos(angles[:, 1:])
    blocks[:, 1:, 1] = cy + r * np.sin(angles[:, 1:])
    pieces, start = [], 0
    for i, block in zip(rounded, blocks):
        pieces += [p.xy[start:i], block]
        start = i + 1
    pieces.append(p.xy[start:])
    verts = np.concatenate(pieces)

    # Corner j's t1 replaces vertex rounded[j] after j earlier corners grew
    # by m vertices each; its m arcs are the segments that follow.
    a0, a1 = angles[:, :-1].ravel(), angles[:, 1:].ravel()
    arc_centers = [c for c in centers for _ in range(m)]
    arcs = list(map(Arc, arc_centers, [r] * len(a0), a0.tolist(), a1.tolist()))
    tags: list[Optional[Tag]] = [None] * (len(verts) - 1)
    for j, i in enumerate(rounded):
        tags[i + j * m : i + (j + 1) * m] = arcs[j * m : (j + 1) * m]
    columns = np.array([cx.repeat(m), cy.repeat(m), np.full(len(a0), r), a0, a1])
    stacked = [(np.arange(len(arcs)), Arc.from_numbers(columns[..., None]))]

    try:
        return MomentProfile(verts, _ColumnTags(tags, stacked), family="custom")
    except NotStarShaped as exc:
        raise SmoothingBreaksStarShape(str(exc)) from exc
