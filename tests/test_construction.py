"""Profile construction from arrays against the per-vertex Python it replaced.

``_validate``, ``ellipsoid``, ``fc_domain``, ``smooth_corners`` and
``MomentProfile.scaled`` build and check profiles as numpy arrays.  The
functions below are verbatim copies of the per-vertex versions they
replaced; ``MomentProfile`` here is the construction those copies ran
(each coordinate through ``float``, then the copied ``_validate``), ending
in the library's profile on the checked vertices, with one check added
since (``_overflow_checked``).  Two calls of since-removed one-row
helpers are spelled out as what they returned: ``segment_direction(i)``
as the row ``directions[i]``, and ``Tag.scaled(s)`` as ``from_numbers``
of the tag's numbers times ``scale_factors(s)``.  The library must give
the same vertices, tags, area and Ruelle quadrature bit for bit, and raise
the same exception class with the same message.  The values a profile
seeds on construction (``xy``, ``diameter``, ``tol``, the per-segment
``directions``, ``lengths`` and ``cross_products``, and the tag columns)
must equal those recomputed from its vertices and tags, and its
``normals`` those of ``parent_normals``, the computation they replaced.
"""

import math
import random
import re
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toricsys import geometry
from toricsys.errors import (
    AxisViolation,
    NotStarShaped,
    ParamOutOfRange,
    RadiusTooLarge,
    SelfIntersection,
    SmoothingBreaksStarShape,
    ToricError,
)
from toricsys.geometry import (
    COLLINEAR_TURN,
    TOL_REL,
    Arc,
    Point,
    SquaredSegment,
    Tag,
    cross,
    fc_c_min,
)
from toricsys.experiments import random_star_profile, run_corpus_bounds
from toricsys.invariants import area, ruelle_quadrature
from toricsys.reeb import closed_orbit_on_segment, orbits_at_vertex

NAN, INF = math.nan, math.inf
# Coordinates for near-valid vertex lists.
NEAR = [0.3, 0.4, 0.5, 0.6, 0.8, 1.0, 2.0] * 3 + [0.0, 1e-12, -0.5]
ON_AXIS = [0.0] * 6 + [1e-12, -1e-12, 1e-6]

# ---------------------------------------------------------------------------
# The replaced construction, copied verbatim.


def MomentProfile(vertices, tags=(), family="custom", params=()):
    """The construction the copies ran: float() on every coordinate, then
    the copied ``_validate``; the result becomes a library profile."""
    verts = _overflow_checked(tuple((float(x), float(y)) for x, y in vertices))
    return geometry.MomentProfile(verts, tuple(tags), family, params)


def _overflow_checked(vertices: tuple[Point, ...]) -> tuple[Point, ...]:
    """The copied ``_validate`` behind the check added since: finite
    coordinates whose squared diameter overflows raise ParamOutOfRange.
    The copy let their cross products overflow to inf, and inf - inf to
    nan, which passed the star-shape test."""
    if len(vertices) >= 2 and all(math.isfinite(c) for v in vertices for c in v):
        diam = max(max(abs(x), abs(y)) for x, y in vertices)
        if math.isinf(diam * diam):
            raise ParamOutOfRange("coordinates too large: squared diameter overflows")
    return _validate(vertices)


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
    if any(t is not None for t in p.tags):
        raise ParamOutOfRange("smooth_corners expects a purely polygonal profile")

    seg_len = [
        math.hypot(*(p.directions[i].tolist())) for i in range(p.n_segments)
    ]
    verts: list[Point] = [p.vertices[0]]
    tags: list[Optional[Tag]] = []

    for i in range(1, p.n_segments):
        v = p.vertices[i]
        turn = p.normal_turns[i - 1]
        if turn <= COLLINEAR_TURN or r * turn <= arc_points * p.tol:
            # collinear or reflex, or too little turn for arc chords longer
            # than the zero-length tolerance of _validate: keep the vertex
            tags.append(None)
            verts.append(v)
            continue
        d1 = tuple(p.directions[i - 1].tolist())
        l1, l2 = seg_len[i - 1], seg_len[i]
        u1 = (d1[0] / l1, d1[1] / l1)
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


def scaled(self, s: float) -> "MomentProfile":
    """All vertex coordinates (and tag curves) multiplied by s > 0."""
    if s <= 0:
        raise ParamOutOfRange("scale factor must be positive")
    verts = tuple((s * x, s * y) for x, y in self.vertices)
    tags = tuple(
        t and t.from_numbers([f * x for f, x in zip(t.scale_factors(s), t.numbers())])
        for t in self.tags
    )
    return MomentProfile(verts, tags, family="custom")

def parent_normals(d: np.ndarray) -> np.ndarray:
    """``MomentProfile.normals`` of the segment vectors ``d`` as computed
    before ``_validate`` measured the segment lengths, copied verbatim."""
    # math.hypot, not np.hypot: the two differ in the last bit for
    # some inputs, and cone and flag decisions compare these values.
    length = np.array(list(map(math.hypot, d[:, 0].tolist(), d[:, 1].tolist())))
    return np.column_stack((d[:, 1], -d[:, 0])) / length.reshape(-1, 1)


# ---------------------------------------------------------------------------
# Comparison


def outcome(build, *args):
    """What ``build(*args)`` returns, or the class and message of the
    ToricError it raises."""
    try:
        return build(*args)
    except ToricError as exc:
        return type(exc), str(exc)


def recomputed_columns(p):
    """``tag_columns`` rebuilt from ``p.tags`` one tag at a time, as
    {type: (segment indices, numbers)}."""
    out = {}
    for i, tag in enumerate(p.tags):
        if tag is not None:
            segs, rows = out.setdefault(type(tag), ([], []))
            segs.append(i)
            rows.append(tag.numbers())
    return {cls: (np.array(segs, dtype=np.intp), np.array(rows)) for cls, (segs, rows) in out.items()}


def assert_seeded(p):
    xy = np.array(p.vertices, dtype=float).reshape(-1, 2)
    assert np.array_equal(p.xy, xy) and not p.xy.flags.writeable
    lo, hi = xy.min(axis=0), xy.max(axis=0)
    assert p.diameter == max(*(hi - lo).tolist(), *hi.tolist()) == np.abs(xy).max()
    assert p.tol == TOL_REL * p.diameter
    d = np.diff(xy, axis=0)
    for measured in (p.directions, p.lengths, p.cross_products):
        assert not measured.flags.writeable
    assert np.array_equal(p.directions, d)
    assert p.lengths.tolist() == list(map(math.hypot, *d.T.tolist()))
    crosses = [cross(u, v) for u, v in zip(p.vertices, p.vertices[1:])]
    assert np.array_equal(p.cross_products, crosses, equal_nan=True)
    assert np.array_equal(p.normals, parent_normals(d))
    assert p.tagged.tolist() == [i for i, t in enumerate(p.tags) if t is not None]
    assert p.tagged.dtype == np.intp and not p.tagged.flags.writeable
    got, want = p.tag_columns, recomputed_columns(p)
    assert got.keys() == want.keys()
    for cls, (segs, numbers) in want.items():
        assert got[cls][0].dtype == np.intp and np.array_equal(got[cls][0], segs)
        assert got[cls][1].dtype == float and np.array_equal(got[cls][1], numbers)
        assert not (got[cls][0].flags.writeable or got[cls][1].flags.writeable)


def assert_same(new, ref):
    if not isinstance(ref, geometry.MomentProfile):
        assert new == ref
        return
    assert isinstance(new, geometry.MomentProfile), new
    assert new.vertices == ref.vertices
    assert all(type(x) is float for v in new.vertices for x in v)
    assert new.tags == ref.tags
    assert [t and t.numbers() for t in new.tags] == [t and t.numbers() for t in ref.tags]
    assert (new.family, new.params) == (ref.family, ref.params)
    assert area(new) == area(ref)
    assert outcome(ruelle_quadrature, new) == outcome(ruelle_quadrature, ref)
    assert_seeded(new)


def assert_validates_same(vertices):
    """``geometry._validate`` and the copy agree on ``vertices``: the same
    snapped pairs and the diameter max |coordinate|, or the same error;
    and so do the library's and the copied construction."""
    want = outcome(_overflow_checked, tuple((float(x), float(y)) for x, y in vertices))
    got = outcome(geometry._validate, vertices)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
    else:
        xy, diam, *_ = got
        assert tuple(map(tuple, xy.tolist())) == want
        assert diam == max(max(abs(float(x)), abs(float(y))) for x, y in vertices)
    assert_same(outcome(geometry.MomentProfile, vertices), outcome(MomentProfile, vertices))


# ---------------------------------------------------------------------------
# Families


def fc_cs(b):
    lo = fc_c_min(b)
    return (lo - 1e-12, lo - 2e-12, lo, lo + 1e-9, lo + 1e-3, (lo + 1) / 2, 1 - 1e-3, 1 - 1e-6, 1)


class TestFamilies:
    @pytest.mark.parametrize("b", [1, 1.5, 2, 3.7])
    @pytest.mark.parametrize("n", [2, 3, 8, 64, 256])
    def test_fc_grid(self, b, n):
        for c in fc_cs(b):
            assert_same(outcome(geometry.fc_domain, b, c, n), outcome(fc_domain, b, c, n))

    def test_fc_bad_parameters(self):
        for args in [(0.5, 0.5, 8), (2, 0.5, 8), (2, 0.7, 1)]:
            assert_same(outcome(geometry.fc_domain, *args), outcome(fc_domain, *args))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 512])
    def test_ellipsoid_grid(self, n):
        for a in (0.5, 1, 3.7, 1e-6, 1e6):
            for b in (0.5, 2, 3.7):
                assert_same(outcome(geometry.ellipsoid, a, b, n), outcome(ellipsoid, a, b, n))

    @pytest.mark.parametrize(
        "build, family",
        [
            (lambda n: geometry.ellipsoid(1, 1, n), "ellipsoid"),
            (lambda n: geometry.ball(2, n), "ellipsoid"),
            (lambda n: geometry.fc_domain(2, 0.7, n), "fc_domain"),
        ],
        ids=["ellipsoid", "ball", "fc"],
    )
    @pytest.mark.parametrize("n", [10**15, 10**20])
    def test_subdivision_too_large_to_allocate(self, build, family, n):
        # 8 PB fails at allocation and touches no memory; 10**20 is beyond
        # numpy's sizes.
        with pytest.raises(
            ParamOutOfRange, match=f"^{family} subdivision n = {n} is too large to allocate$"
        ):
            build(n)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: geometry.ellipsoid(1, 2, 2.5), "ellipsoid subdivision n must be an integer; got 2.5"),
            (lambda: geometry.ball(2, 1.5), "ellipsoid subdivision n must be an integer; got 1.5"),
            (lambda: geometry.fc_domain(2, 0.7, 8.5), "fc_domain subdivision n must be an integer; got 8.5"),
            (
                lambda: geometry.smooth_corners(geometry.polydisk(1, 2), 0.2, 2.5),
                "arc_points must be an integer; got 2.5",
            ),
            (lambda: run_corpus_bounds(0, 2.5), "corpus size must be an integer; got 2.5"),
            (
                lambda: ruelle_quadrature(geometry.fc_domain(2, 0.7, 8), 2.5),
                "quadrature points per segment must be an integer; got 2.5",
            ),
            (
                lambda: orbits_at_vertex(geometry.polydisk(1, 2), 1.5, 3),
                "vertex index must be an integer; got 1.5",
            ),
            (
                lambda: closed_orbit_on_segment(geometry.polydisk(1, 2), 0.5),
                "segment index must be an integer; got 0.5",
            ),
        ],
        ids=[
            "ellipsoid", "ball", "fc", "smooth_corners", "corpus", "quadrature",
            "vertex_index", "segment_index",
        ],
    )
    def test_fractional_count_is_a_typed_error(self, call, message):
        """Each count or index once reached numpy or range() and raised an
        untyped TypeError."""
        with pytest.raises(ParamOutOfRange, match=f"^{re.escape(message)}$"):
            call()

    def test_counts_take_numpy_integers(self):
        i = np.int64
        assert_same(geometry.ellipsoid(1, 2, i(3)), geometry.ellipsoid(1, 2, 3))
        assert_same(geometry.fc_domain(2, 0.7, i(8)), geometry.fc_domain(2, 0.7, 8))
        p = geometry.polydisk(1, 2)
        assert_same(geometry.smooth_corners(p, 0.2, i(4)), geometry.smooth_corners(p, 0.2, 4))
        q = geometry.fc_domain(2, 0.7, 8)
        assert ruelle_quadrature(q, i(5)) == ruelle_quadrature(q, 5)
        assert run_corpus_bounds(0, i(2)) == run_corpus_bounds(0, 2)
        assert orbits_at_vertex(p, i(1), 3) == orbits_at_vertex(p, 1, 3)
        assert closed_orbit_on_segment(p, i(1)) == closed_orbit_on_segment(p, 1)

    @pytest.mark.parametrize(
        "index, error, message",
        [
            (-1, IndexError, "segments are indexed 0 to n_segments - 1"),
            (2, IndexError, "segments are indexed 0 to n_segments - 1"),
            (np.int64(-1), IndexError, "segments are indexed 0 to n_segments - 1"),
            (0.5, ParamOutOfRange, "segment index must be an integer; got 0.5"),
        ],
        ids=["minus_one", "n_segments", "numpy_minus_one", "fraction"],
    )
    @pytest.mark.parametrize(
        "call",
        [
            closed_orbit_on_segment,
            geometry.MomentProfile.primitive_normal,
            geometry.MomentProfile.segment,
            geometry.MomentProfile.segment_normal,
        ],
    )
    def test_segment_index_out_of_range(self, call, index, error, message):
        """polydisk(1, 2) has segments 0 and 1.  Index -1 once wrapped to
        the chord from (0, 2) back to (1, 0) (in ``segment`` and
        ``segment_normal``, and in ``primitive_normal``, an orbit of action
        -2.0 memoized under -1), index 2 raised numpy's own IndexError, and
        0.5 an untyped TypeError."""
        p = geometry.polydisk(1, 2)
        assert p.n_segments == 2
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(p, index)
        assert p._primitive_normals == {}

    @pytest.mark.parametrize(
        "index, error, message",
        [
            (-1, IndexError, "vertices are indexed 0 to n_segments"),
            (3, IndexError, "vertices are indexed 0 to n_segments"),
            (np.int64(-1), IndexError, "vertices are indexed 0 to n_segments"),
            (0.5, ParamOutOfRange, "vertex index must be an integer; got 0.5"),
        ],
        ids=["minus_one", "n_segments_plus_one", "numpy_minus_one", "fraction"],
    )
    def test_vertex_index_out_of_range(self, index, error, message):
        """polydisk(1, 2) has vertices 0 to 2.  Index -1 once wrapped to
        the last vertex (0, 2), index 3 raised numpy's own IndexError, and
        0.5 an untyped TypeError."""
        p = geometry.polydisk(1, 2)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            p.vertex(index)
        assert p.vertex(2) == p.vertex(np.int64(2)) == (0.0, 2.0)
        assert p.vertex(0) == (1.0, 0.0)

    def test_ellipsoid_bad_parameters(self):
        for args in [(0, 1, 2), (1, -1, 2), (1, 1, 0), (math.inf, 1, 2), (math.nan, 1, 2)]:
            assert_same(outcome(geometry.ellipsoid, *args), outcome(ellipsoid, *args))

    @pytest.mark.parametrize("m", [1, 2, 16, 100, 510])
    def test_rounded_polydisks(self, m):
        for a, b in [(1, 1), (1, 2), (3.7, 0.5)]:
            p = geometry.polydisk(a, b)
            for r in (0, 1e-12, 0.01, 0.2 * min(a, b), 0.5 * min(a, b), 0.6 * min(a, b), INF, NAN):
                assert_same(outcome(geometry.smooth_corners, p, r, m), outcome(smooth_corners, p, r, m))

    @pytest.mark.parametrize("seed", range(10))
    def test_rounded_polygons(self, seed):
        # Convex polygons inscribed in a quarter ellipse, as in the dense
        # benchmark (up to 510 arc points in all), and star polygons with
        # reflex corners; radii from tiny to too large.
        rng = random.Random(seed)
        for _ in range(30):
            if rng.random() < 0.6:
                pts = ellipse_polygon(rng, rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.randint(4, 8))
            else:
                pts = random_star_profile(rng).vertices
            p = geometry.from_vertices(pts)
            m = rng.choice([1, 3, 16, max(1, 510 // p.n_segments)])
            r = rng.choice([1e-11, 0.05, 0.3, 1.0]) * min(map(math.hypot, *p.directions.T))
            assert_same(outcome(geometry.smooth_corners, p, r, m), outcome(smooth_corners, p, r, m))

    def test_smoothing_rejects_tags_and_bad_arguments(self):
        p, q = geometry.fc_domain(2, 0.7, 4), geometry.polydisk(1, 2)
        e = geometry.ellipsoid(1, 2, 3)  # nearly collinear vertices only
        z = geometry.from_vertices([(2, 0), (1, 1), (0, 2)])  # a turn of exactly 0
        for args in [(p, 0.1, 4), (q, -1, 4), (q, 0.1, 0), (e, 0.1, 4), (e, INF, 4), (e, NAN, 4), (z, INF, 4)]:
            assert_same(outcome(geometry.smooth_corners, *args), outcome(smooth_corners, *args))


def ellipse_polygon(rng, a, b, k):
    angles = sorted(rng.uniform(0.1, math.pi / 2 - 0.1) for _ in range(k - 2))
    return [(a, 0.0), *((a * math.cos(t), b * math.sin(t)) for t in angles), (0.0, b)]


class TestScaled:
    def profiles(self):
        rng = random.Random(5)
        return [
            geometry.polydisk(1, 2),
            geometry.ellipsoid(1, 3, 7),
            geometry.fc_domain(2, 0.7, 16),
            geometry.fc_domain(1, 0.5, 3),
            geometry.smooth_corners(geometry.polydisk(1, 2), 0.2, 30),
            geometry.smooth_corners(geometry.from_vertices(ellipse_polygon(rng, 2, 1, 6)), 0.02, 8),
            random_star_profile(rng),
        ]

    @pytest.mark.parametrize("s", [1e-3, 0.3, 1, 2.5, 1e6, 1e308, 0, -1, INF, NAN])
    def test_scaled(self, s):
        for p in self.profiles():
            assert_same(outcome(p.scaled, s), outcome(scaled, p, s))

    def test_scaled_twice_keeps_stacked_columns(self):
        for p in self.profiles():
            assert_same(p.scaled(3).scaled(0.5), scaled(scaled(p, 3), 0.5))


class TestTagList:
    @pytest.mark.parametrize("entry, name", [("x", "str"), (5, "int"), ((1, 2), "tuple")])
    def test_non_tag_entry_is_out_of_range(self, entry, name):
        p = geometry.smooth_corners(geometry.polydisk(1, 1), 0.2, 2)
        with pytest.raises(ParamOutOfRange, match=f"^tag of segment 0 is a {name}, not an Arc"):
            geometry.MomentProfile(p.vertices, (entry,) + p.tags[1:])


# ---------------------------------------------------------------------------
# Validation: random profiles and every error in each precedence order


class TestValidate:
    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.1, 10),
        st.floats(0.1, 10),
        st.lists(st.tuples(st.floats(0.01, 1.56), st.floats(0.05, 10)), max_size=40),
    )
    def test_star_profiles(self, a, b, polar):
        pts = [(a, 0.0)]
        for angle, radius in sorted(polar):
            pts.append((radius * math.cos(angle), radius * math.sin(angle)))
        assert_validates_same(pts + [(0.0, b)])

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.1, 10),
        st.floats(0.1, 10),
        st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), max_size=40),
    )
    def test_monotone_profiles(self, a, b, steps):
        xs = sorted((a * x for x, _ in steps), reverse=True)
        ys = sorted(b * y for _, y in steps)
        assert_validates_same([(a, 0.0), *zip(xs, ys), (0.0, b)])

    @settings(max_examples=600, deadline=None)
    @given(
        st.tuples(st.sampled_from([1.0, 2.0] * 3 + [0.0, 1e-12]), st.sampled_from(ON_AXIS)),
        st.lists(st.tuples(st.sampled_from(NEAR), st.sampled_from(NEAR)), max_size=6),
        st.tuples(st.sampled_from(ON_AXIS), st.sampled_from([1.0, 2.0] * 3 + [0.0, 1e-12])),
        st.integers(0, 40),
        st.sampled_from([NAN, INF, -INF]),
    )
    def test_near_valid_lists(self, first, interior, last, poison, bad):
        # Few distinct values, so that repeated points (zero-length
        # segments), reversed steps and axis contacts are common; one
        # coordinate in five lists is made non-finite.
        pts = [first, *interior, last]
        if poison < 2 * len(pts) and poison % 5 == 0:
            i, j = divmod(poison, 2)
            pts[i] = (bad, pts[i][1]) if j == 0 else (pts[i][0], bad)
        assert_validates_same(pts)

    CASES = [
        # (vertices, error class, what the case puts first)
        ([], AxisViolation, "too few vertices"),
        ([(1.0, 0.0)], AxisViolation, "too few vertices"),
        ([(1, 0.5), (NAN, 1), (0, INF)], ParamOutOfRange, "first non-finite before axes"),
        ([(1, 0), (INF, 1), (NAN, 2), (0, 1)], ParamOutOfRange, "first of two non-finite"),
        ([(1, 0.5), (0.5, 1)], AxisViolation, "first vertex before last"),
        ([(0, 0), (0, 1)], AxisViolation, "first vertex at the origin"),
        ([(1, 0), (0.5, 0), (0.5, 1)], AxisViolation, "last vertex before interior"),
        ([(1, 0), (1, 0), (0.5, 0), (0, 1)], AxisViolation, "interior on axis before zero length"),
        ([(1, 0), (0.5, 1e-12), (0.5, 0.5), (0.5, 0.5), (0, 1)], AxisViolation, "interior before segments"),
        ([(1, 0), (0.5, 0.5), (0.5, 0.5), (0, 1)], SelfIntersection, "zero length before star at one index"),
        ([(1, 0), (0.5, 0.5), (0.6, 0.4), (0.6, 0.4), (0, 1)], NotStarShaped, "star at 1 before zero length at 2"),
        ([(1, 0), (0.5, 0.5), (0.5, 0.5), (0.6, 0.4), (0, 1)], SelfIntersection, "zero length at 1 before star at 2"),
        ([(1, 0), (1, 0), (0, 1)], AxisViolation, "repeated first vertex is interior on axis"),
        ([(1, 0), (0, 1), (0, 1)], AxisViolation, "repeated last vertex is interior on axis"),
        ([(1, 0), (1, 1), (0.5, 0.5), (0, 1)], NotStarShaped, "collinear with the origin"),
        ([(1, 0), (0, 1), (0.5, 0.5), (0, 2)], AxisViolation, "interior at (0, 1)"),
        ([(1, 0), (-0.5, 0.5), (0, 1)], AxisViolation, "negative interior"),
        ([(1, -1e-12), (0.5, 0.5), (1e-12, 1)], None, "endpoints snapped"),
        ([(1, -2e-9), (0.5, 0.5), (0, 1)], AxisViolation, "first vertex beyond tolerance"),
        # A segment no longer than tol whose cross product is above
        # diam tol: only the zero-length check catches it.
        ([(2, 0), (2, 2), (2 - 1.3e-9, 2 + 1.3e-9), (0, 2)], SelfIntersection, "short, not reentrant"),
        # Cross product between diam tol and 3 diam tol, not short: valid.
        ([(2, 0), (2, 2), (2 - 2e-9, 2 + 2e-9), (0, 2)], None, "near the star bound, valid"),
        # Cross product positive but at most diam tol: reentrant.
        ([(2, 0), (2, 2), (2 - 5e-10, 2 + 5e-10 + 1e-12), (1, 3), (0, 3)], SelfIntersection, "short and flat"),
        ([(1, 0), (1, 1), (2, 2 + 1e-10), (0, 3)], NotStarShaped, "reentrant, not short"),
        # Coordinate products would overflow to inf and nan; beyond that,
        # diam tol would overflow too.  Both are out of range first.
        ([(1e156, 0), (1e156, 1e156), (1e156, 1e156), (0, 1e156)], ParamOutOfRange, "nan cross, short"),
        ([(1e300, 0), (1e300, 1e300), (0, 1e300)], ParamOutOfRange, "diam tol overflows"),
        # Products of coordinates underflow, and diam tol with them.
        ([(1e-160, 0), (1e-160, 1e-160), (0, 1e-160)], None, "underflow, valid"),
        ([(1e-160, 0), (1e-160, 1e-160), (1e-160, 1e-160), (0, 1e-160)], SelfIntersection, "underflow, short"),
        ([(1e-200, 0), (1e-200, 1e-200), (0, 1e-200)], NotStarShaped, "cross underflows to 0"),
        # A zero-length segment whose cross product rounds to a subnormal
        # above 3 diam tol, which has underflowed to 0.
        (
            [
                (4.372359838053789e-159, 0.0),
                (2.9149065587025263e-159, 4.826161661897679e-159),
                (2.9149065585872427e-159, 4.82616166206402e-159),
                (0.0, 7.239242492846519e-159),
            ],
            SelfIntersection,
            "underflow, short, cross above the bound",
        ),
    ]

    @pytest.mark.parametrize("vertices, error, why", CASES, ids=[c[2] for c in CASES])
    def test_precedence(self, vertices, error, why):
        assert_validates_same(vertices)
        got = outcome(geometry.MomentProfile, vertices)
        if error is None:
            assert isinstance(got, geometry.MomentProfile)
        else:
            assert got[0] is error

    @pytest.mark.parametrize(
        "build, below",
        [
            (lambda s: geometry.from_vertices([(s, 0), (s, s), (0, s)]), None),
            # Its second segment lies on a ray from the origin.
            (lambda s: geometry.from_vertices([(s, 0), (s, s), (2 * s, 2 * s), (0, 3 * s)]), NotStarShaped),
            (lambda s: geometry.ball(s, 4), None),
        ],
        ids=["triangle", "not star-shaped", "ball"],
    )
    def test_overflowing_squared_diameter_is_out_of_range(self, build, below):
        for s in (1e156, 1e160, 1e300):
            with pytest.raises(ParamOutOfRange, match="squared diameter overflows"):
                build(s)
        # Just below the overflow each is decided as at scale 1.
        for s in (1.0, 1e153):
            if below is None:
                assert_seeded(build(s))
            else:
                with pytest.raises(below):
                    build(s)

    def test_short_case_is_not_reentrant(self):
        p, q = (2, 2), (2 - 1.3e-9, 2 + 1.3e-9)
        diam = 2 + 1.3e-9
        assert math.hypot(q[0] - p[0], q[1] - p[1]) <= TOL_REL * diam < cross(p, q) / diam


# ---------------------------------------------------------------------------
# Malformed vertex lists raise ParamOutOfRange, naming the vertices


class TestMalformedVertices:
    @pytest.mark.parametrize(
        "vertices",
        [
            [(1, 0, 5), (0, 1, 2)],
            [(1, 0), ("a", 1), (0, 1)],
            [(1, 0), (0.5,), (0, 1)],
            [(1, 0), (None, 1), (0, 1)],
            [(10**400, 0), (0, 1)],
        ],
        ids=["three_coordinates", "string", "one_coordinate", "none", "int_overflow"],
    )
    def test_typed_error(self, vertices):
        with pytest.raises(ParamOutOfRange, match="vertices must be"):
            geometry.from_vertices(vertices)

    def test_shape_checked_explicitly(self):
        # reshape(-1, 2) would read three 2-tuples out of two 3-tuples.
        with pytest.raises(ParamOutOfRange, match=r"shape \(2, 3\)"):
            geometry.MomentProfile(np.array([(1.0, 0.0, 0.5), (0.5, 0.0, 1.0)]))

    def test_cli_non_finite_vertex_exits_2(self, tmp_path, capsys):
        from toricsys.cli import main

        path = tmp_path / "bad.txt"
        path.write_text("vertices:\n1 0\nnan 0.5\n0 1\n")
        assert main(["invariants", str(path)]) == 2
        assert "vertex 1 at (nan, 0.5) is not finite" in capsys.readouterr().err
