import math

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
    endpoint_cone,
    fc_domain,
    from_vertices,
    normal_cone,
    polydisk,
    smooth_corners,
    SquaredSegment,
    sqrt_transform,
    total_turning,
)
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


class TestNormalCones:
    def test_polydisk_corner_cone(self):
        cone = normal_cone(polydisk(1, 2), 1)
        assert cone.convex
        assert cone.start == pytest.approx((1.0, 0.0))
        assert cone.end == pytest.approx((0.0, 1.0))
        assert cone.width == pytest.approx(math.pi / 2)

    def test_collinear_vertex_degenerate(self):
        cone = normal_cone(ellipsoid(1, 1, 4), 2)
        assert cone.width < 1e-12

    def test_endpoint_cones(self):
        p = ball(1)
        ca = endpoint_cone(p, "a")
        cb = endpoint_cone(p, "b")
        assert ca.convex and cb.convex
        assert ca.width == pytest.approx(3 * math.pi / 4)
        assert cb.width == pytest.approx(3 * math.pi / 4)


class TestSqrtTransform:
    def test_examples(self):
        assert sqrt_transform(from_vertices([(1, 0), (0, 1)])) == [(1, 0), (0, 1)]
        assert sqrt_transform(from_vertices([(4, 0), (0, 9)])) == [(2, 0), (0, 3)]

    def test_midpoint_value(self):
        mu = math.sqrt(0.5)
        assert mu == pytest.approx(0.7071, abs=1e-4)

    @given(
        st.lists(
            st.tuples(
                st.floats(0.1, 10, allow_nan=False),
                st.floats(0.1, 10, allow_nan=False),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_square_inverts(self, pts):
        back = [(x * x, y * y) for x, y in [(math.sqrt(a), math.sqrt(b)) for a, b in pts]]
        for (a, b), (x, y) in zip(pts, back):
            assert a == pytest.approx(x, rel=1e-12)
            assert b == pytest.approx(y, rel=1e-12)


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
        assert total_turning(sm) == pytest.approx(total_turning(p), abs=1e-9)

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
