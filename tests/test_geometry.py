import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toricsys import (
    Arc,
    AxisViolation,
    MomentProfile,
    NotStarShaped,
    ParamOutOfRange,
    RadiusTooLarge,
    SelfIntersection,
    ball,
    classify,
    ellipsoid,
    fc_domain,
    from_vertices,
    polydisk,
    smooth_corners,
    SquaredSegment,
)
from toricsys.experiments import random_monotone_profile, random_star_profile
from toricsys.geometry import COLLINEAR_TURN
from toricsys.invariants import area


class TestFromVertices:
    def test_ball_triangle(self):
        p = from_vertices([(1, 0), (0, 1)])
        assert p.a_intercept == 1 and p.b_intercept == 1
        assert p.n_segments == 1

    def test_polydisk_rectangle(self):
        p = from_vertices([(1, 0), (1, 2), (0, 2)])
        assert p.a_intercept == 1 and p.b_intercept == 2

    def test_thin_wedge_is_star_shaped(self):
        # Polar angles 0 < 45deg < 90deg strictly increase and every ray
        # from the origin crosses once; this thin non-monotone wedge is a
        # valid star-shaped profile.
        p = from_vertices([(1, 0), (0.1, 0.1), (0, 1)])
        c = classify(p)
        assert c.star_shaped and c.monotone and not c.convex_4d

    def test_backtracking_angle_rejected(self):
        with pytest.raises(NotStarShaped) as exc:
            from_vertices([(1, 0), (0.5, 1), (0.8, 1.1), (0, 2)])
        assert isinstance(exc.value.index, int)

    def test_axis_violations(self):
        with pytest.raises(AxisViolation):
            from_vertices([(1, 0.5), (0, 1)])
        with pytest.raises(AxisViolation):
            from_vertices([(1, 0), (0.5, 0), (0, 1)])
        with pytest.raises(AxisViolation):
            from_vertices([(1, 0)])

    def test_zero_length_segment(self):
        with pytest.raises(SelfIntersection):
            from_vertices([(1, 0), (0.5, 0.5), (0.5, 0.5), (0, 1)])


class TestFamilies:
    def test_ellipsoid_vertices(self):
        assert ellipsoid(1, 4, 1).vertices == ((1.0, 0.0), (0.0, 4.0))
        assert ellipsoid(2, 2, 1).a_intercept == 2
        assert len(ellipsoid(1, 1, 4).vertices) == 5

    def test_ellipsoid_param_validation(self):
        with pytest.raises(ParamOutOfRange):
            ellipsoid(0, 1)
        with pytest.raises(ParamOutOfRange):
            ellipsoid(1, 1, 0)

    def test_polydisk_vertices(self):
        assert polydisk(1, 1).vertices == ((1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
        assert polydisk(1, 1000).b_intercept == 1000
        assert polydisk(2, 1).vertices[0] == (2.0, 0.0)

    def test_ball_is_round_ellipsoid(self):
        assert ball(2).vertices == ellipsoid(2, 2, 1).vertices

    def test_fc_breakpoints_degenerate_middle(self):
        # b=1, c=0.5: both breakpoints are 0.25, the straight middle
        # piece vanishes.
        p = fc_domain(1, 0.5, 8)
        xs = [v[0] for v in p.vertices]
        assert min(abs(x - 0.25) for x in xs) < 1e-12
        assert p.a_intercept == 1.0 and abs(p.b_intercept - 1.0) < 1e-12

    def test_fc_lower_limit_is_pure_power_boundary(self):
        # c = b/(1+b): boundary is w2 = b(1 - sqrt(w1))^2.
        b = 2.0
        p = fc_domain(b, b / (1 + b), 8)
        for x, y in p.vertices[1:-1]:
            assert abs(y - b * (1 - math.sqrt(x)) ** 2) < 1e-9

    def test_fc_param_range(self):
        with pytest.raises(ParamOutOfRange):
            fc_domain(1, 1.5, 8)
        with pytest.raises(ParamOutOfRange):
            fc_domain(1, 0.3, 8)  # below b/(1+b) = 0.5
        with pytest.raises(ParamOutOfRange):
            fc_domain(0.5, 0.4, 8)


class TestClassify:
    def test_polydisk_flags(self):
        c = classify(polydisk(1, 2))
        assert c.monotone and not c.strictly_monotone and c.convex_4d
        assert "strictly_monotone" in c.witnesses

    def test_ellipsoid_flags(self):
        c = classify(ellipsoid(1, 4, 1))
        assert c.monotone and c.strictly_monotone and c.convex_4d

    def test_ellipsoids_always_monotone(self):
        for a, b, n in [(0.5, 3, 1), (2, 2, 5), (10, 0.1, 3)]:
            assert classify(ellipsoid(a, b, n)).monotone

    def test_fc_is_convex(self):
        c = classify(fc_domain(2, 0.8, 8))
        assert c.monotone and c.convex_4d

    def test_nonmonotone_witness(self):
        p = from_vertices([(1, 0), (1.2, 1.0), (0, 2)])
        c = classify(p)
        assert not c.monotone
        assert c.witnesses["monotone"] == 0


def _with_midpoints(p, rng):
    """p with some segments split at their midpoints, and the indices of
    the new vertices: collinear ones."""
    out, mids = [], []
    for a, b in zip(p.vertices, p.vertices[1:]):
        out.append(a)
        if rng.random() < 0.5:
            mids.append(len(out))
            out.append(((a[0] + b[0]) / 2, (a[1] + b[1]) / 2))
    return from_vertices(out + [p.vertices[-1]]), mids


class TestNormalCones:
    def test_polydisk_corner_cone(self):
        p = polydisk(1, 2)
        cones, corner = p.vertex_cones
        assert p.normal_turns[0] >= 0  # convex
        start, end, vertex = cones[0].tolist()
        assert start == pytest.approx((1.0, 0.0))
        assert end == pytest.approx((0.0, 1.0))
        assert vertex == [1.0, 2.0]
        assert p.normal_turns[0] == pytest.approx(math.pi / 2)
        assert corner.tolist() == [True]

    def test_collinear_vertex_degenerate(self):
        p = ellipsoid(1, 1, 4)
        assert abs(p.normal_turns[1]) < 1e-12
        assert not p.vertex_cones[1][1]

    def test_table_is_read_only_and_cached(self):
        p = polydisk(1, 2)
        cones, corner = p.vertex_cones
        assert p.vertex_cones[0] is cones
        assert not cones.flags.writeable and not corner.flags.writeable

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9), st.sampled_from(["star", "monotone", "ellipsoid"]))
    def test_rows_are_the_segment_normals(self, seed, kind):
        """Row i - 1 is (incoming normal, outgoing normal, vertex i) bit for
        bit, the two normals swapped where the turn is negative; a corner
        is a turn beyond COLLINEAR_TURN, so the midpoints of split
        segments are not corners."""
        rng = random.Random(seed)
        if kind == "ellipsoid":
            p = ellipsoid(rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.randint(1, 40))
        else:
            p = (random_star_profile if kind == "star" else random_monotone_profile)(rng)
        p, mids = _with_midpoints(p, rng)
        cones, corner = p.vertex_cones
        n = p.n_segments
        assert cones.shape == (n - 1, 3, 2) and cones.dtype == float
        assert corner.shape == (n - 1,) and corner.dtype == bool
        nu = p.normals
        for i, turn in enumerate(p.normal_turns):
            start, end = (nu[i], nu[i + 1]) if turn >= 0 else (nu[i + 1], nu[i])
            assert cones[i, 0].tobytes() == start.tobytes()
            assert cones[i, 1].tobytes() == end.tobytes()
            assert cones[i, 2].tobytes() == p.xy[i + 1].tobytes()
            assert corner[i] == (abs(turn) > COLLINEAR_TURN)
        if kind == "ellipsoid":
            assert not corner.any()
        assert not corner[[i - 1 for i in mids]].any()

    @staticmethod
    def _atan2_table(p):
        """The cone table as ``normal_turns`` gives it, one ``math.atan2``
        per vertex: a reference for ``vertex_cones``."""
        turns = np.array(p.normal_turns, dtype=float)
        a, b = p.normals[:-1], p.normals[1:]
        swap = (turns < 0)[:, None]
        cones = np.concatenate((np.where(swap, b, a), np.where(swap, a, b), p.xy[1:-1]), axis=1)
        return cones.reshape(-1, 3, 2), np.abs(turns) > COLLINEAR_TURN

    def _assert_table_is_atan2s(self, p):
        (cones, corner), (want_cones, want_corner) = p.vertex_cones, self._atan2_table(p)
        assert cones.shape == want_cones.shape and cones.tobytes() == want_cones.tobytes()
        assert corner.shape == want_corner.shape and corner.tobytes() == want_corner.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**9), st.sampled_from(["star", "monotone"]), st.booleans())
    def test_table_equals_atan2_reference(self, seed, kind, split):
        """Every bit of both arrays, on random profiles with and without
        collinear midpoints."""
        rng = random.Random(seed)
        p = (random_star_profile if kind == "star" else random_monotone_profile)(rng)
        if split:
            p, _ = _with_midpoints(p, rng)
        self._assert_table_is_atan2s(p)

    def test_table_equals_atan2_reference_near_the_threshold(self):
        """Normals set by hand so that the cross product c of each pair is
        one of ±0.0, ±1e-12, ±1e-11 (and its float neighbours) or ±2e-11,
        with the dot product +1 or -1.  c = ±0.0 at dot -1 is a turn of
        ±pi: a corner, swapped for -0.0, which the sign of c alone gets
        wrong."""
        cs = [0.0, 1e-12, 1e-11, math.nextafter(1e-11, 0), math.nextafter(1e-11, 1), 2e-11]
        cs += [-c for c in cs]
        rows = []
        for c in cs:
            for x in (1.0, -1.0):
                # (1, ±0.0) x (x, c) is c - (±0.0 * x) = c, bit for bit.
                rows += [(1.0, math.copysign(0.0, x)), (x, c)]
        p = ellipsoid(1, 1, len(rows))
        # The normals are cached on first read; these stand in for them.
        p.__dict__["normals"] = np.array(rows)
        got = p.normal_crosses[::2].tolist()
        want = [c for c in cs for _ in (1.0, -1.0)]
        assert [(abs(c), math.copysign(1, c)) for c in got] == [
            (abs(c), math.copysign(1, c)) for c in want
        ]
        self._assert_table_is_atan2s(p)
        cones, corner = p.vertex_cones
        turns = p.normal_turns
        # Pair j of rows is table row 2 j; -0.0 is the first negated entry.
        j = 2 * (len(cs) // 2) + 1
        assert rows[2 * j : 2 * j + 2] == [(1.0, -0.0), (-1.0, -0.0)]
        assert math.copysign(1, got[j]) == -1
        k = 2 * j
        assert turns[k] == -math.pi and corner[k]
        assert cones[k, 0].tolist() == [-1.0, 0.0] and math.copysign(1, cones[k, 0, 1]) == -1


class TestSqrtTransform:
    """``SquaredSegment`` is a straight segment in mu = sqrt(w)
    coordinates, squared back into the moment plane."""

    def test_midpoint_value(self):
        # mu = (1/2, 1/2) halfway from (1, 0) to (0, 1), so w = (1/4, 1/4).
        tag = SquaredSegment((1.0, 0.0), (0.0, 1.0))
        x, y, dx, dy = tag.sample_numbers(tag.numbers(), 0.5, True)
        assert (x, y) == (0.25, 0.25)
        assert (dx, dy) == (-1.0, 1.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(0.1, 10, allow_nan=False),
                st.floats(0.1, 10, allow_nan=False),
            ),
            min_size=2,
            max_size=6,
        )
    )
    def test_square_inverts(self, pts):
        """The ends of each piece are its squared mu endpoints."""
        for mu0, mu1 in zip(pts, pts[1:]):
            tag = SquaredSegment(mu0, mu1)
            x, y = tag.sample_numbers(tag.numbers(), np.array([0.0, 1.0]))
            assert [x[0], y[0]] == [mu0[0] * mu0[0], mu0[1] * mu0[1]]
            for got, mu in zip([x[1], y[1]], mu1):
                assert got == pytest.approx(mu * mu, rel=1e-12)


class TestSmoothCorners:
    def test_rounded_right_angle_area(self):
        p = polydisk(1, 1)
        r = 0.1
        sm = smooth_corners(p, r)
        assert area(p) - area(sm) == pytest.approx((1 - math.pi / 4) * r * r, rel=1e-6)

    def test_zero_radius_identity(self):
        p = polydisk(1, 1)
        assert smooth_corners(p, 0) is p

    def test_radius_too_large(self):
        with pytest.raises(RadiusTooLarge):
            smooth_corners(polydisk(1, 1), 10)

    def test_total_turning_preserved(self):
        p = from_vertices([(2, 0), (1.8, 0.5), (1.2, 1.4), (0.3, 1.9), (0, 2)])
        sm = smooth_corners(p, 0.05)
        assert sum(sm.normal_turns) == pytest.approx(sum(p.normal_turns), abs=1e-9)

    def test_corner_test_is_scale_free(self):
        # The corners turn by less than 1 rad; at s = 1e9 a length
        # tolerance would have left them sharp.
        p = from_vertices([(1, 0), (0.9, 0.5), (0.5, 0.9), (0, 1)])
        unit = smooth_corners(p, 0.05, 4)
        big = smooth_corners(p.scaled(1e9), 0.05 * 1e9, 4)
        assert big.n_segments == unit.n_segments == 11
        assert area(big) == pytest.approx(1e18 * area(unit), rel=1e-12)

    @pytest.mark.parametrize("s", [1, 1e9])
    @pytest.mark.parametrize("d", [1e-9, 1e-10, 1e-11])
    def test_arc_below_tolerance_keeps_the_corner(self, d, s):
        p = from_vertices([(1, 0), (0.5 + d, 0.5 + d), (0, 1)]).scaled(s)
        assert smooth_corners(p, 0.05 * s).vertices == p.vertices

    def test_tagged_input_is_a_typed_error(self):
        with pytest.raises(ParamOutOfRange):
            smooth_corners(fc_domain(2, 0.7, 4), 0.01)

    @pytest.mark.parametrize("arc_points", [0, -3])
    def test_arc_needs_a_point(self, arc_points):
        # With no arc points each corner would be cut by one wrong chord:
        # polydisk(1, 2) at r = 0.1 came out with area 1.95 (1.99785 at 16).
        with pytest.raises(ParamOutOfRange, match=f"arc_points must be at least 1; got {arc_points}"):
            smooth_corners(polydisk(1, 2), 0.1, arc_points)
        assert area(smooth_corners(polydisk(1, 2), 0.1, 1)) < area(polydisk(1, 2))

    def test_reflex_corner_kept_sharp(self):
        p = from_vertices([(1, 0), (0.4, 0.3), (0.5, 0.9), (0, 1)])
        sm = smooth_corners(p, 0.02)
        # the reflex vertex survives unchanged
        assert (0.4, 0.3) in sm.vertices


class TestScaling:
    def test_scaled_vertices(self):
        p = polydisk(1, 2).scaled(3)
        assert p.vertices == ((3.0, 0.0), (3.0, 6.0), (0.0, 6.0))

    def test_scale_must_be_positive(self):
        with pytest.raises(ParamOutOfRange):
            polydisk(1, 2).scaled(0)


class TestTagEnds:
    """A tag's curve must start and end at its segment's vertices."""

    def test_family_tags_pass(self):
        rounded = smooth_corners(polydisk(1, 2), 0.2, 16)
        for p in (fc_domain(2, 0.7, 16), rounded, rounded.scaled(1e6)):
            assert MomentProfile(p.vertices, p.tags).tags == p.tags

    def test_first_bad_segment_is_named(self):
        p = fc_domain(2, 0.7, 8)
        tags = list(p.tags)
        tags[3], tags[5] = tags[4], tags[4]
        with pytest.raises(ParamOutOfRange, match="tag of segment 3 runs from"):
            MomentProfile(p.vertices, tuple(tags))

    @pytest.mark.parametrize(
        "tag",
        [
            Arc((5.0, 5.0), 1.0, 0.0, 1.0),
            SquaredSegment((0.0, 1.0), (1.0, 0.0)),
            SquaredSegment((1.0, 0.0), (0.0, 2.0)),
            SquaredSegment((1.0, 0.0), (0.0, math.nan)),
        ],
        ids=["far-arc", "reversed", "wrong-end", "nan"],
    )
    def test_tag_off_its_segment(self, tag):
        with pytest.raises(ParamOutOfRange, match="not from vertex 0 at .* to vertex 1"):
            MomentProfile(((1.0, 0.0), (0.0, 1.0)), (tag,))

    @pytest.mark.parametrize(
        "cls, numbers, ends",
        [
            (SquaredSegment, [math.inf, 0, 0, 1], "(nan, 0.0) to (nan, 1.0)"),
            (SquaredSegment, [1e200, 0, 0, 1e200], "(inf, 0.0) to (0.0, inf)"),
            (SquaredSegment, [1, 0, math.nan, 1], "(nan, 0.0) to (nan, 1.0)"),
            (Arc, [0, 0, math.inf, 0, math.pi / 2], "(inf, nan) to (inf, inf)"),
            (Arc, [1.5e308, 0, 1.5e308, 0, 1], "(inf, 0.0) to (inf, 1.2622064772118449e+308)"),
            (Arc, [1, 1, 1, -math.inf, math.inf], "(nan, nan) to (nan, nan)"),
        ],
        ids=["inf-mu", "overflowing-square", "nan-mu", "inf-radius", "overflowing-sum", "inf-angles"],
    )
    def test_numbers_that_do_not_sample_raise_only_out_of_range(self, cls, numbers, ends):
        # Overflow and inf * 0 give ends of inf and nan, and no warning:
        # the suite makes every RuntimeWarning an error.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParamOutOfRange) as info:
                MomentProfile([(1, 0), (0, 1)], {cls: ([0], [numbers])})
        assert str(info.value) == (
            f"tag of segment 0 runs from {ends}, not from vertex 0 at (1.0, 0.0) "
            "to vertex 1 at (0.0, 1.0)"
        )

    def test_end_within_tolerance_passes(self):
        tag = SquaredSegment((1.0, 0.0), (0.0, 1.0 + 1e-12))
        assert MomentProfile(((1.0, 0.0), (0.0, 1.0)), (tag,)).tags == (tag,)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_random_star_corpus_is_valid_and_strict_implies_monotone(seed):
    import random

    from toricsys.experiments import random_monotone_profile, random_star_profile

    rng = random.Random(seed)
    p = random_star_profile(rng)
    angles = [math.atan2(y, x) for x, y in p.vertices]
    assert all(b > a for a, b in zip(angles, angles[1:]))
    m = random_monotone_profile(rng)
    c = classify(m)
    assert c.strictly_monotone and c.monotone
