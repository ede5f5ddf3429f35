"""Moment-plane profiles of star-shaped toric domains in R^4.

A profile is the boundary arc in the open positive quadrant, stored as an
ordered piecewise-linear path from the w1-intercept (a, 0) to the
w2-intercept (0, b).  Segments may carry an analytic tag (a parametrized
curve) so that area and line integrals can be evaluated on the true curve
instead of the chord; all geometric predicates run on the polyline.

Coordinates are moment-map coordinates w_i = pi |z_i|^2, so plane area of
the region under the profile equals the 4D symplectic volume.

The per-profile rule.  Most profiles are small, so the Python-level cost
of each numpy call, not its arithmetic, sets the time of a profile's
construction, classification and report.  Code on that path writes the
direct array expression instead of numpy's Python-level helpers, with the
same bits: ``a[1:] - a[:-1]`` for ``np.diff``, a preallocated output or
``np.concatenate`` for ``np.stack``, ``np.column_stack`` and
``np.hstack``, and ``.nonzero()[0]`` and ``.argsort()`` for
``np.flatnonzero`` and ``np.argsort``.  It searches a mask with argmax,
the first True, read with ``.item``, rather than testing it with
``any()``.  A profile without tags does no tag work: no mask of its
straight segments and no curve samples.  Tag curves are sampled into
contiguous columns x and y, and their derivatives dx and dy are computed
only for a caller that reads them (area and the Ruelle quadrature); the
end check, the Gromov width and the SVG read points only.  And rows of
two numbers (points, normals) are never reduced along axis 1 by
``min``, ``max``, ``sum``, ``any`` or ``all``, which takes about 20 µs
on 512 rows: the columns are combined instead, as
``np.minimum(a[:, 0], a[:, 1])`` or ``x + y`` (about 1 µs).  Only error
reports, which run once on refused input, keep such a reduction, and
``surgery._clip``, whose rows of two or four planes come from the few
dozen segments a surgery is run on, where folding the columns one at a
time measured no faster.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from contextlib import nullcontext
from dataclasses import FrozenInstanceError, dataclass, field, fields
from decimal import Decimal
from functools import cache, cached_property
from types import MappingProxyType
from typing import Callable, ClassVar, Optional

import numpy as np

from .errors import (
    AxisViolation,
    NotStarShaped,
    ParamOutOfRange,
    RadiusTooLarge,
    RayMissesBoundary,
    SelfIntersection,
    SmoothingBreaksStarShape,
    arange,
    integer,
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


class Tag:
    """An analytic curve along one segment, ``Arc`` or ``SquaredSegment``,
    given by one row of floats (``numbers``).  Each type samples and
    scales columns of many tags' numbers at once (``sample_numbers`` and
    ``scale_factors``).  ``sample_numbers`` is the type's one sampling
    kernel: it returns the curve's points as the separate arrays x and y,
    and the derivatives dx and dy only when asked for them."""

    kind: ClassVar[str]
    n_numbers: ClassVar[int]


@dataclass(frozen=True)
class Arc(Tag):
    """Circular arc ``center + r (cos a, sin a)``, the angle a running
    linearly in t from a0 to a1 (counterclockwise when a1 > a0); the arcs
    of ``smooth_corners``.  Its ``numbers`` are cx, cy, r, a0, a1."""

    center: Point
    r: float
    a0: float
    a1: float
    kind: ClassVar[str] = "arc"
    n_numbers: ClassVar[int] = 5

    @classmethod
    def from_numbers(cls, numbers) -> "Arc":
        cx, cy, r, a0, a1 = numbers
        return cls((cx, cy), r, a0, a1)

    def numbers(self) -> tuple[float, ...]:
        return (*self.center, self.r, self.a0, self.a1)

    @staticmethod
    def sample_numbers(numbers, t, derivatives: bool = False) -> tuple[np.ndarray, ...]:
        """The arc's points at the parameters ``t`` as the columns
        ``(x, y)``, or ``(x, y, dx, dy)`` with the derivatives in t when
        ``derivatives`` is set; the derivatives are computed only then.
        Each number may be a float or an array that broadcasts with
        ``t``: the profile passes its (k, 1) column views of k arcs'
        numbers and a 1-D ``t``, and gets C-contiguous (k, len(t))
        arrays."""
        cx, cy, r, a0, a1 = numbers
        da = a1 - a0
        a = a0 + da * t
        cos, sin = r * np.cos(a), r * np.sin(a)
        if derivatives:
            return cx + cos, cy + sin, -da * sin, da * cos
        return cx + cos, cy + sin

    @staticmethod
    def scale_factors(s: float) -> tuple[float, ...]:
        """What each number is multiplied by when the plane is scaled by s."""
        return (s, s, s, 1.0, 1.0)


@dataclass(frozen=True)
class SquaredSegment(Tag):
    """The curve w = (mu1^2, mu2^2), mu running linearly in t from mu0 to
    mu1: a straight segment in square-root coordinates, as in both curved
    pieces of ``fc_domain``.  Its ``numbers`` are mu0 and then mu1."""

    mu0: Point
    mu1: Point
    kind: ClassVar[str] = "squared"
    n_numbers: ClassVar[int] = 4

    @classmethod
    def from_numbers(cls, numbers) -> "SquaredSegment":
        p0, q0, p1, q1 = numbers
        return cls((p0, q0), (p1, q1))

    def numbers(self) -> tuple[float, ...]:
        return (*self.mu0, *self.mu1)

    @staticmethod
    def sample_numbers(numbers, t, derivatives: bool = False) -> tuple[np.ndarray, ...]:
        """As ``Arc.sample_numbers``."""
        p0, q0, p1, q1 = numbers
        dp, dq = p1 - p0, q1 - q0
        p, q = p0 + dp * t, q0 + dq * t
        if derivatives:
            return p * p, q * q, 2 * p * dp, 2 * q * dq
        return p * p, q * q

    @staticmethod
    def scale_factors(s: float) -> tuple[float, ...]:
        """As ``Arc.scale_factors``."""
        return (math.sqrt(s),) * 4


# The parameters of a tag's two ends, and their vertices' offsets from the
# segment index.
_ENDS = _read_only(np.array([0.0, 1.0]))
_ENDS_INDEX = _read_only(np.array([0, 1]))

# Tag types by the name profile files give them.
TAG_KINDS: dict[str, type] = {cls.kind: cls for cls in (Arc, SquaredSegment)}
# Per tag type, the indices of its segments and one row of numbers each.
TagColumns = Mapping[type, tuple[np.ndarray, np.ndarray]]
_NO_COLUMNS: TagColumns = MappingProxyType({})


class MomentProfile:
    """Closure of the positive-quadrant boundary arc, (a,0) -> (0,b).

    ``MomentProfile(vertices, tags=(), family="custom", params=())``.
    Valid by construction: the vertices are read once into an (n + 1, 2)
    float array and checked by ``_validate`` in one numpy pass (finite
    coordinates, axis endpoints, star shape, no zero-length segment), axis
    endpoints within tolerance are snapped onto the axes, and the tags must
    lie on their segments: each tag's curve starts and ends at its
    segment's vertices.  ``tags`` is empty, one entry per segment (a tag or
    None), or already columns: a dict laid out as ``tag_columns``.  The
    family builders, ``scaled``, the surgeries and ``profile_io.loads``
    write columns.  A profile is its vertices, tagged segments, family and
    params, however it was built: a tag list of None only or an empty dict
    builds the untagged profile.

    The profile stores arrays, all read-only: the checked vertices ``xy``,
    with the ``diameter`` (largest coordinate) and ``tol`` the checks used
    and the segment measures they compared: ``directions`` (end minus
    start), their ``lengths`` and the ``cross_products`` x0 y1 - y0 x1 of
    the segments' ends; and ``tag_columns``, which maps each tag type to
    the indices of its segments (increasing) and its tags' ``numbers``, one
    row per segment.  ``tagged`` lists every tagged segment.  The tuples
    ``vertices`` (float pairs) and ``tags`` (one entry per segment, or
    empty when no segment is tagged) are made from the arrays on first read
    and cached; ``tag(i)`` makes one tag, and ``vertex(i)`` and
    ``segment(i)`` read one vertex or segment.  Equality, hashing and
    pickling go by the arrays, family and params.

    Derived geometry is computed on first use and then cached on the
    instance: the read-only array ``normals`` (per segment);
    ``normal_crosses``, ``normal_turns`` and the cone table
    ``vertex_cones`` at the interior vertices; the primitive integer
    normal of each segment (``primitive_normal``, memoised per segment,
    from each vertex's decimals read once, so that a caller that needs
    only a few segments, like ``reeb.t_min``, pays only for those);
    the tag samples at the Gauss-Legendre nodes of each order, points and
    derivatives as four (k, order) columns (``curve_samples``); and the
    whole-profile results their owners store
    with ``memo``: ``classify`` and ``invariants.area``.  Every cache
    assumes the instance never changes, so a profile refuses attribute
    assignment; build a new one instead.
    """

    xy: np.ndarray
    diameter: float
    tol: float
    directions: np.ndarray
    lengths: np.ndarray
    cross_products: np.ndarray
    family: str
    params: tuple[tuple[str, float], ...]
    # The class values are those of a profile without tags.
    tag_columns: TagColumns = _NO_COLUMNS
    tagged: np.ndarray = _UNTAGGED

    def __init__(self, vertices, tags=(), family: str = "custom", params=()):
        xy, diameter, *measures = _validate(vertices)
        # Frozen: the attributes are set in the instance dict directly.
        d = self.__dict__
        d.update(
            zip(("directions", "lengths", "cross_products"), measures),
            xy=xy, diameter=diameter, tol=TOL_REL * diameter, family=family, params=params,
        )
        if not tags:
            return
        n = len(xy) - 1
        if not isinstance(tags, dict):
            tags = _columns_of(tags, n)
        columns, tagged = _checked_columns(tags, n)
        if len(tagged):
            d.update(tag_columns=columns, tagged=tagged)
            self._check_tag_ends()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Pickled as the constructor's arguments: the stored arrays.
        return type(self), (self.xy, dict(self.tag_columns), self.family, self.params)

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(vertices={self.vertices!r}, tags={self.tags!r}, "
            f"family={self.family!r}, params={self.params!r})"
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        theirs = other.tag_columns
        return (
            (self.family, self.params) == (other.family, other.params)
            and np.array_equal(self.xy, other.xy)
            and self.tag_columns.keys() == theirs.keys()
            and all(
                np.array_equal(segs, theirs[cls][0]) and np.array_equal(nums, theirs[cls][1])
                for cls, (segs, nums) in self.tag_columns.items()
            )
        )

    def __hash__(self) -> int:
        # Equal arrays may differ in the sign of a zero (-0.0 == 0.0):
        # adding 0.0 makes every zero positive before the bytes are hashed.
        columns = tuple(
            (cls, segs.tobytes(), (nums + 0.0).tobytes())
            for cls, (segs, nums) in self.tag_columns.items()
        )
        return hash((self.family, self.params, (self.xy + 0.0).tobytes(), columns))

    def _check_tag_ends(self) -> None:
        """Every tag's curve must start and end at its segment's vertices,
        within the profile's tolerance; its points at t = 0 and 1 (no
        derivatives) are sampled in one numpy call per tag type.  Numbers
        that are not finite, or too large to square, give points that are
        inf or nan, which fail the check: the arithmetic is quieted
        (``_quiet``), so that they raise ParamOutOfRange and no warning.
        Entering ``np.errstate`` costs less than testing the numbers'
        size first."""
        idx, (x0, y0), tol = self.tagged, self.xy.T, self.tol
        # Row j of the (k, 2) columns is segment idx[j]'s start and end.
        ends = idx[:, None] + _ENDS_INDEX
        with _quiet():
            x, y = self.sample_curves(_ENDS)
            off = ~((np.abs(x - x0[ends]) <= tol) & (np.abs(y - y0[ends]) <= tol))
        if off.item(k := int(off.argmax())):
            k //= 2
            i = int(idx[k])
            (s0, e0), (s1, e1) = x[k].tolist(), y[k].tolist()
            v0, v1 = self.segment(i)
            raise ParamOutOfRange(
                f"tag of segment {i} runs from {(s0, s1)} to {(e0, e1)}, not from "
                f"vertex {i} at {v0} to vertex {i + 1} at {v1}"
            )

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        """The vertices as float pairs, made from ``xy`` on first read."""
        return tuple(zip(*self.xy.T.tolist()))

    @cached_property
    def tags(self) -> tuple[Optional[Tag], ...]:
        """Each segment's tag or None, made from ``tag_columns`` on first
        read; empty when no segment is tagged."""
        tags: list[Optional[Tag]] = [None] * self.n_segments
        for cls, (segs, nums) in self.tag_columns.items():
            for i, row in zip(segs.tolist(), nums.tolist()):
                tags[i] = cls.from_numbers(row)
        return tuple(tags) if len(self.tagged) else ()

    def tag(self, i: int) -> Optional[Tag]:
        """Segment i's tag or None, making only that tag."""
        i = range(self.n_segments)[i]
        for cls, (segs, nums) in self.tag_columns.items():
            k = int(segs.searchsorted(i))
            if k < len(segs) and segs[k] == i:
                return cls.from_numbers(nums[k].tolist())
        return None

    def tag_columns_from(self, j: int, at: int):
        """The tags of segments j, j + 1, ... as a dict laid out as
        ``tag_columns``, renumbered to start at segment ``at``, for a new
        path that keeps those segments from ``at`` on and has no tag
        before; a type none of them carries keeps an empty column."""
        return {
            cls: (segs[segs >= j] + (at - j), nums[segs >= j])
            for cls, (segs, nums) in self.tag_columns.items()
        }

    @property
    def a_intercept(self) -> float:
        return self.xy.item(0, 0)

    @property
    def b_intercept(self) -> float:
        return self.xy.item(-1, 1)

    @property
    def n_segments(self) -> int:
        return len(self.xy) - 1

    @cached_property
    def normals(self) -> np.ndarray:
        """Unit outward segment normals as an (n, 2) array.

        The path runs counterclockwise around the region (polar angle
        increasing), so the outward normal of direction (d1, d2) is
        (d2, -d1) divided by its length.
        """
        return _read_only(self.directions[:, ::-1] * (1.0, -1.0) / self.lengths[:, None])

    @cached_property
    def normal_crosses(self) -> np.ndarray:
        """Read-only: the cross product a0 b1 - a1 b0 of the unit normals
        a, b of the two segments at each interior vertex 1..n-1, the sine
        of the normal's turn there (up to rounding)."""
        pq = self.normals[:-1] * self.normals[1:, ::-1]
        return _read_only(pq[:, 0] - pq[:, 1])

    def _normal_dots(self) -> np.ndarray:
        """a . b for the same normals, the cosine of each turn."""
        a, b = self.normals[:-1], self.normals[1:]
        return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]

    @cached_property
    def normal_turns(self) -> tuple[float, ...]:
        """Signed turning angle of the outward normal at each interior
        vertex 1..n-1, positive at convex corners."""
        return tuple(map(math.atan2, self.normal_crosses.tolist(), self._normal_dots().tolist()))

    @cached_property
    def vertex_cones(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(cones, corner)``.  Row i - 1 of the (n - 1, 3, 2)
        array ``cones`` is the normal cone (start, end, vertex) of interior
        vertex i: outward normals from start counterclockwise to end, the
        incoming and outgoing segment normals, swapped where the normal
        turns backwards (``normal_turns`` < 0, a reflex vertex).
        ``corner`` marks turns beyond ``COLLINEAR_TURN``; the other
        vertices are collinear, with no cone to search.

        Both masks have the bits ``normal_turns`` would give, read from
        the cross product c (``normal_crosses``): where |c| > 1e-11 the
        turn has the sign of c and a size above 1e-11 / (1 + rounding) >
        COLLINEAR_TURN.  Only the other rows, the collinear vertices, ±0.0
        (whose turn is ±0 or ±pi by the sign of the dot product) and turns
        near the threshold, call ``math.atan2``."""
        c = self.normal_crosses
        swap, corner = c < 0, np.abs(c) > 1e-11
        near = (~corner).nonzero()[0]
        if len(near):
            d = self._normal_dots()[near]
            turns = np.array(list(map(math.atan2, c[near].tolist(), d.tolist())))
            swap[near], corner[near] = turns < 0, np.abs(turns) > COLLINEAR_TURN
        a, b = self.normals[:-1], self.normals[1:]
        swap = swap[:, None]
        cones = np.concatenate((np.where(swap, b, a), np.where(swap, a, b), self.xy[1:-1]), axis=1)
        return _read_only(cones.reshape(-1, 3, 2)), _read_only(corner)

    @cached_property
    def _primitive_normals(self) -> dict[int, Optional[tuple[int, int]]]:
        return {}

    @cached_property
    def _decimal_vertices(self) -> dict[int, tuple[tuple[int, int], tuple[int, int]]]:
        return {}

    def _decimal_vertex(self, i: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """Vertex i's coordinates as shortest round-trip decimals, exact
        (numerator, denominator) pairs; read once per vertex, since the
        two segments at a vertex share it."""
        memo = self._decimal_vertices
        if i not in memo:
            xy = self.xy
            memo[i] = _decimal_ratio(xy.item(i, 0)), _decimal_ratio(xy.item(i, 1))
        return memo[i]

    def primitive_normal(self, i: int) -> Optional[tuple[int, int]]:
        """The primitive integer vector parallel to the outward normal of
        segment i, rebuilt from the shortest round-trip decimals of its
        two vertices' coordinates, or None beyond RATIONAL_CAP; computed
        once per segment, when first asked for.  The index is checked as
        ``segment`` checks it, and nothing is memoized for a bad one."""
        memo = self._primitive_normals
        i = self._segment_index(i)
        if i not in memo:
            memo[i] = _primitive_normal(self._decimal_vertex(i), self._decimal_vertex(i + 1))
        return memo[i]

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

    def sample_curves(self, t: np.ndarray, derivatives: bool = False) -> tuple[np.ndarray, ...]:
        """The tagged segments' curves at the 1-D parameters ``t`` as
        C-contiguous (k, len(t)) columns, row j for segment ``tagged[j]``:
        ``(x, y)``, or ``(x, y, dx, dy)`` with the derivatives in t, which
        are computed only when ``derivatives`` is set.  Each tag type is
        sampled in one call of its ``sample_numbers`` on its numbers'
        column views; the arrays of a profile with one tag type are that
        call's, and only several types are scattered into shared rows."""
        columns = self.tag_columns
        if len(columns) == 1:
            ((cls, (_, nums)),) = columns.items()
            return cls.sample_numbers(nums.T[..., None], t, derivatives)
        out = np.empty((4 if derivatives else 2, len(self.tagged), len(t)))
        for cls, (segs, nums) in columns.items():
            rows = self.tagged.searchsorted(segs)
            for o, c in zip(out, cls.sample_numbers(nums.T[..., None], t, derivatives)):
                o[rows] = c
        return tuple(out)

    def curve_samples(self, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``sample_curves`` with derivatives at the ``order``
        Gauss-Legendre nodes on [0, 1], the read-only columns
        ``(x, y, dx, dy)``; sampled once per order (``memo``)."""
        return self.memo(
            f"curve_samples {order}",
            lambda: tuple(map(_read_only, self.sample_curves(_gl_nodes(order)[0], True))),
        )

    def vertex(self, i: int) -> Point:
        """Vertex i as a float pair (a row of ``xy``): i read through
        ``errors.integer`` (a plain int skips the call), which raises
        ParamOutOfRange for a non-integer; IndexError outside 0 to
        n_segments."""
        if type(i) is not int:
            i = integer(i, "vertex index")
        xy = self.xy
        if not 0 <= i < len(xy):
            raise IndexError("vertices are indexed 0 to n_segments")
        return xy.item(i, 0), xy.item(i, 1)

    def _segment_index(self, i) -> int:
        """i read through ``errors.integer`` (a plain int skips the call),
        which raises ParamOutOfRange for a non-integer; IndexError outside
        0 to n_segments - 1."""
        if type(i) is not int:
            i = integer(i, "segment index")
        if not 0 <= i < len(self.xy) - 1:
            raise IndexError("segments are indexed 0 to n_segments - 1")
        return i

    def segment(self, i: int) -> tuple[Point, Point]:
        """The end vertices of segment i (see ``_segment_index``)."""
        i = self._segment_index(i)
        return self.vertex(i), self.vertex(i + 1)

    def segment_normal(self, i: int) -> Point:
        """Unit outward normal of segment i (a row of ``normals``; see
        ``_segment_index``)."""
        return tuple(self.normals[self._segment_index(i)].tolist())

    def scaled(self, s: float) -> "MomentProfile":
        """All vertex coordinates (and tag curves) multiplied by s > 0."""
        if s <= 0:
            raise ParamOutOfRange("scale factor must be positive")
        with _quiet():
            xy = s * self.xy
            tags = {
                cls: (segs, nums * cls.scale_factors(s))
                for cls, (segs, nums) in self.tag_columns.items()
            }
        return MomentProfile(xy, tags, family="custom")


def _quiet(needed: bool = True):
    """numpy arithmetic that turns overflow and inf * 0 into inf and nan
    without a warning, as Python float arithmetic does; a no-op unless
    ``needed``, since entering ``np.errstate`` costs about 2 µs."""
    return np.errstate(over="ignore", invalid="ignore") if needed else nullcontext()


def _columns_of(tags, n: int) -> dict:
    """``tag_columns`` of a tag list with one entry per segment."""
    if len(tags) != n:
        raise ParamOutOfRange(f"{len(tags)} tags for a profile with {n} segments")
    rows: dict[type, tuple[list, list]] = {}
    for i, tag in enumerate(tags):
        if tag is None:
            continue
        if not isinstance(tag, Tag):
            raise ParamOutOfRange(
                f"tag of segment {i} is a {type(tag).__name__}, not an Arc, a SquaredSegment or None"
            )
        segs, nums = rows.setdefault(type(tag), ([], []))
        segs.append(i)
        nums.append(tag.numbers())
    return rows


def _checked_columns(columns: dict, n: int) -> tuple[TagColumns, np.ndarray]:
    """Tag columns copied into read-only arrays, keyed by tag type in the
    order of their ``kind`` names, without empty types, and the sorted
    indices of all the tagged segments; raises ParamOutOfRange unless every
    key is a tag type with one row of its numbers per segment, and the
    segments of a type increase and lie in range, with no segment in two
    types."""
    out = {}
    for cls in sorted(columns, key=lambda c: getattr(c, "kind", "")):
        if not (isinstance(cls, type) and issubclass(cls, Tag) and cls is not Tag):
            raise ParamOutOfRange(f"tag columns keyed by {cls!r}, not a tag type")
        segs, nums = columns[cls]
        try:
            segs, nums = np.array(segs), np.array(nums, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParamOutOfRange(f"{cls.kind} tags must be numbers: {exc}") from None
        if segs.size and segs.dtype.kind not in "iu":
            raise ParamOutOfRange(f"{cls.kind} tag segments must be integers; got {segs.tolist()}")
        segs = segs.astype(np.intp, copy=False)
        if segs.ndim != 1 or nums.shape != (len(segs), cls.n_numbers):
            raise ParamOutOfRange(
                f"{cls.kind} tag columns of shapes {segs.shape} and {nums.shape}; "
                f"need (k,) segments and (k, {cls.n_numbers}) numbers"
            )
        if len(segs) and not (0 <= segs[0] and segs[-1] < n and (segs[1:] > segs[:-1]).all()):
            raise ParamOutOfRange(
                f"{cls.kind} tag segments must increase within 0..{n - 1}; got {segs.tolist()}"
            )
        if len(segs):
            out[cls] = (_read_only(segs), _read_only(nums))
    if len(out) < 2:
        tagged = next(iter(out.values()))[0] if out else _UNTAGGED
    else:
        tagged = np.sort(np.concatenate([segs for segs, _ in out.values()]))
        if not (tagged[1:] > tagged[:-1]).all():
            i = tagged[1:][tagged[1:] == tagged[:-1]][0]
            raise ParamOutOfRange(f"segment {i} carries two tags")
        _read_only(tagged)
    return MappingProxyType(out), tagged


def _validate(vertices) -> tuple[np.ndarray, float, np.ndarray, np.ndarray, np.ndarray]:
    """Check the profile invariants in one numpy pass that measures every
    segment, snapping axis endpoints exactly.

    The vertices are read once into an (n + 1, 2) float array.  Returns
    that array, snapped, the diameter max |coordinate| that scales the
    tolerance, and the segments' directions, lengths and cross products
    x0 y1 - y0 x1 (arrays read-only), or raises at the first violation in
    this order: input that is not (w1, w2) pairs of real numbers, fewer
    than two vertices, the first non-finite vertex, coordinates so large
    that diam^2 overflows (ParamOutOfRange), the first vertex off
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
    # a float array), which numpy runs without the overhead of any()/max():
    # the per-profile rule of the module docstring.
    size = np.abs(xy)
    diam = size.item(size.argmax())
    if not diam < math.inf:
        # numpy reads None as nan: name it as float() would have.
        for x, y in vertices:
            if x is None or y is None:
                raise ParamOutOfRange(f"vertices must be (w1, w2) pairs of real numbers: {(x, y)}")
        i = int((~np.isfinite(xy)).any(axis=1).argmax())
        raise ParamOutOfRange(f"vertex {i} at {tuple(xy[i].tolist())} is not finite")
    if math.isinf(diam * diam):
        raise ParamOutOfRange("coordinates too large: squared diameter overflows")
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
    d = xy[1:] - xy[:-1]
    length = np.array(list(map(math.hypot, d[:, 0].tolist(), d[:, 1].tolist())))
    # cross(p, q) equals (nu . p)|q - p| on the segment; positivity is
    # simultaneously the strictly-increasing-polar-angle condition and
    # the transversality of rays from the origin.  The coordinates lie in
    # [0, diam] and diam^2 is finite, so no product overflows.
    pq = xy[:-1] * xy[1:, ::-1]
    crs = pq[:, 0] - pq[:, 1]
    bad = (length <= tol) | (crs <= tol * diam)
    if bad.item(i := int(bad.argmax())):
        if length.item(i) <= tol:
            raise SelfIntersection(f"zero-length segment at index {i}")
        raise NotStarShaped(i)
    return _read_only(xy), diam, _read_only(d), _read_only(length), _read_only(crs)


def from_vertices(points) -> MomentProfile:
    """Build and validate a polygonal profile from (w1, w2) pairs, or an
    (n + 1, 2) array of them."""
    return MomentProfile(points if isinstance(points, np.ndarray) else tuple(points))


def ellipsoid(a: float, b: float, n: int = 1) -> MomentProfile:
    """Profile of E(a, b): the segment from (a, 0) to (0, b), subdivided."""
    if a <= 0 or b <= 0:
        raise ParamOutOfRange("ellipsoid requires a, b > 0")
    n = integer(n, "ellipsoid subdivision n")
    if n < 1:
        raise ParamOutOfRange("ellipsoid requires n >= 1")
    # Every allocation, the profile's included, fails as the index array's.
    try:
        t = arange(n + 1, lambda: _too_fine("ellipsoid", n)) / n
        verts = np.empty((len(t), 2))
        with _quiet(math.isinf(a) or math.isinf(b)):
            verts[:, 0], verts[:, 1] = a * (1 - t), b * t
        return MomentProfile(verts, family="ellipsoid", params=(("a", a), ("b", b), ("n", n)))
    except MemoryError:
        raise _too_fine("ellipsoid", n) from None


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
        # nan is neither below 1 nor at or above it, and fails both bounds.
        need = "a finite b" if b >= 1 else "b >= 1" if b < 1 else "a finite b >= 1"
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
    n = integer(n, "fc_domain subdivision n")
    if n < 2:
        raise ParamOutOfRange("fc_domain requires n >= 2")
    w_break1, w_break2 = c * (b - c) / b, c * c
    # Piece near the w1-axis: mu2 = sqrt(c/(1-c)) * (1 - mu1); piece near
    # the w2-axis: mu2 = sqrt(b) - sqrt((b-c)/c) * mu1.
    s3 = math.sqrt(c / (1 - c))
    s1, sb = math.sqrt((b - c) / c), math.sqrt(b)

    # Path runs from (1, 0) toward (0, b): traverse piece 3 with mu1
    # decreasing from 1 to c, then the straight piece, then piece 1 with
    # mu1 decreasing from sqrt(w_break1) to 0.  Every allocation, the
    # profile's included, fails as the index array's.
    try:
        i = arange(n + 1, lambda: _too_fine("fc_domain", n))
        mus = np.empty((2, len(i), 2))
        mus[0, :, 0] = m3 = 1 - (1 - c) * i / n
        mus[0, :, 1] = s3 * (1 - m3)
        mus[1, :, 0] = m1 = math.sqrt(w_break1) * (1 - i / n)
        mus[1, :, 1] = sb - s1 * m1
        # Start and end of each tagged segment, piece 3's then piece 1's.
        mu0, mu1 = mus[:, :-1].reshape(-1, 2), mus[:, 1:].reshape(-1, 2)
        segs = np.arange(2 * n)
        starts = mu0 * mu0
        pieces = [starts[:n], starts[n:], [(0.0, b)]]
        if not w_break2 - w_break1 <= 1e-12 * max(1.0, b):
            pieces.insert(1, [(w_break2, c - w_break2)])
            segs[n:] += 1  # after the untagged straight piece w2 = c - w1
        return MomentProfile(
            np.concatenate(pieces), {SquaredSegment: (segs, np.concatenate((mu0, mu1), axis=1))},
            family="fc", params=(("b", b), ("c", c), ("n", n)),
        )
    except MemoryError:
        raise _too_fine("fc_domain", n) from None


def _too_fine(family: str, n: int) -> ParamOutOfRange:
    return ParamOutOfRange(f"{family} subdivision n = {n} is too large to allocate")


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
    for i, (a, d) in enumerate(zip(p.xy.tolist(), p.directions.tolist())):
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


# The names of the Classification flags, in field order.
FLAGS = tuple(f.name for f in fields(Classification) if f.name != "witnesses")


def classify(p: MomentProfile) -> Classification:
    """The profile's monotonicity and 4D-convexity flags, computed once per
    profile (``MomentProfile.memo``) and shared by every caller."""
    return p.memo("classify", lambda: _classify(p))


def _classify(p: MomentProfile) -> Classification:
    witnesses: dict = {}
    # A segment decreases where a normal component is below -TOL_REL and
    # is flat where one is at most TOL_REL: both read the lesser component.
    nu = p.normals
    low = np.minimum(nu[:, 0], nu[:, 1])
    decreasing, flat = low < -TOL_REL, low <= TOL_REL
    monotone = not decreasing.item(i := int(decreasing.argmax()))
    if not monotone:
        witnesses["monotone"] = i
    strictly = not flat.item(i := int(flat.argmax()))
    if not strictly:
        witnesses["strictly_monotone"] = i
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
    step = mu[1:] - mu[:-1]
    turn = step[:-1, 0] * step[1:, 1] - step[:-1, 1] * step[1:, 0]
    ccw = turn > tol
    if len(ccw) and ccw.item(k := int(ccw.argmax())):
        witnesses["convex_4d"] = p.n_segments - 2 - k
        return False
    return True


# ---------------------------------------------------------------------------
# Corner rounding


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
    arc_points = integer(arc_points, "arc_points")
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
    rounded = ((~stay).nonzero()[0] + 1).tolist()
    if not rounded:
        return MomentProfile(p.xy, family="custom")
    t1s, centers, ang0s, corner_turns = [], [], [], []
    for i in rounded:
        (x, y), turn = p.vertex(i), p.normal_turns[i - 1]
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
    angles = np.array(ang0s)[:, None] + np.array(corner_turns)[:, None] * np.arange(m + 1) / m
    cx, cy = np.array(centers).T[..., None]
    blocks = np.empty((k, m + 1, 2))
    blocks[:, 0] = t1s
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
    segs = (np.array(rounded) + m * np.arange(k))[:, None] + np.arange(m)
    numbers = np.empty((k * m, 5))
    numbers[:, 0], numbers[:, 1], numbers[:, 2] = cx.repeat(m), cy.repeat(m), r
    numbers[:, 3], numbers[:, 4] = angles[:, :-1].ravel(), angles[:, 1:].ravel()

    try:
        return MomentProfile(verts, {Arc: (segs.ravel(), numbers)}, family="custom")
    except NotStarShaped as exc:
        raise SmoothingBreaksStarShape(str(exc)) from exc
