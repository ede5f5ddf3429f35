import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from toricsys import (
    DegenerateDenominator,
    OracleCutoffInsufficient,
    ball,
    closed_orbit_on_segment,
    ellipsoid,
    from_vertices,
    orbits_at_vertex,
    polydisk,
    reeb_angular_velocities,
    rotation_density,
    shear_monodromy_check,
    t_min,
)
from toricsys import lattice, reeb, surgery
from toricsys.experiments import random_star_profile

SQ2 = math.sqrt(2)


class TestAngularVelocities:
    def test_ball_diagonal_point(self):
        th = reeb_angular_velocities(ball(1), (0.5, 0.5), (1 / SQ2, 1 / SQ2))
        assert th[0] == pytest.approx(2 * math.pi, rel=1e-12)
        assert th[1] == pytest.approx(2 * math.pi, rel=1e-12)

    def test_polydisk_edge(self):
        th = reeb_angular_velocities(polydisk(1, 2), (1, 0.5), (1.0, 0.0))
        assert th == pytest.approx((2 * math.pi, 0.0))

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateDenominator):
            reeb_angular_velocities(ball(1), (0.5, 0.5), (1 / SQ2, -1 / SQ2))


class TestRotationDensity:
    def test_ball_diagonal(self):
        assert rotation_density(ball(1), (0.5, 0.5), (1 / SQ2, 1 / SQ2)) == pytest.approx(2)

    def test_polydisk_edge(self):
        assert rotation_density(polydisk(1, 2), (1, 1), (1.0, 0.0)) == pytest.approx(1)

    def test_axis_limit(self):
        a = 1.7
        assert rotation_density(ball(a), (a, 0), (1.0, 0.0)) == pytest.approx(1 / a)


class TestSegmentOrbits:
    def test_ball_hypotenuse(self):
        o = closed_orbit_on_segment(ball(1), 0)
        assert o.mn == (1, 1)
        assert o.action == pytest.approx(1.0, rel=1e-15)

    def test_polydisk_edge(self):
        o = closed_orbit_on_segment(polydisk(1, 2), 0)
        assert o.mn == (1, 0) and o.action == 1.0

    def test_ellipsoid_1_4(self):
        o = closed_orbit_on_segment(ellipsoid(1, 4, 1), 0)
        assert o.mn == (4, 1)
        assert o.action == pytest.approx(4.0, rel=1e-15)

    def test_irrational_slope_none(self):
        p = from_vertices([(1, 0), (1 - 1 / math.pi, 1), (0, 2)])
        assert closed_orbit_on_segment(p, 0) is None

    def test_orbit_orthogonal_to_segment(self):
        for prof, i in [(ball(1), 0), (polydisk(1, 2), 1), (ellipsoid(1, 4, 1), 0)]:
            o = closed_orbit_on_segment(prof, i)
            d = prof.segment_direction(i)
            assert abs(o.mn[0] * d[0] + o.mn[1] * d[1]) < 1e-12


class TestVertexOrbits:
    def test_polydisk_corner_cutoff_4(self):
        orbs = orbits_at_vertex(polydisk(1, 2), 1, 4)
        assert [(o.mn, o.action) for o in orbs] == [
            ((1, 0), 1.0),
            ((0, 1), 2.0),
            ((1, 1), 3.0),
            ((2, 1), 4.0),
        ]

    def test_collinear_vertex_degenerates_to_segment(self):
        orbs = orbits_at_vertex(ellipsoid(1, 1, 4), 2, 2.0)
        assert len(orbs) == 1
        assert orbs[0].mn == (1, 1) and orbs[0].action == pytest.approx(1.0)

    def test_strangulation_apex_contains_diagonal(self):
        out = surgery.strangulate(ball(2), 0.1)
        apex_idx = next(
            i for i, v in enumerate(out.profile.vertices)
            if abs(v[0] - 0.1) < 1e-12 and abs(v[1] - 0.1) < 1e-12
        )
        orbs = orbits_at_vertex(out.profile, apex_idx, 0.5)
        mns = [o.mn for o in orbs]
        assert (1, 1) in mns
        diag = next(o for o in orbs if o.mn == (1, 1))
        assert diag.action == pytest.approx(0.2, rel=1e-12)

    def test_orbit_invariants(self):
        for o in orbits_at_vertex(polydisk(1, 2), 1, 10):
            assert math.gcd(abs(o.mn[0]), abs(o.mn[1])) == 1
            assert o.action > 0


class TestTmin:
    def test_polydisk(self):
        action, w = t_min(polydisk(1, 2))
        assert action == 1.0
        assert w.mn == (1, 0)

    def test_ellipsoid_1_4(self):
        action, w = t_min(ellipsoid(1, 4, 1))
        assert action == 1.0
        assert w.location_kind == "axis"

    def test_strangulated_ball_short_orbit(self):
        out = surgery.strangulate(ball(2), 0.1)
        action, _ = t_min(out.profile)
        assert action <= 0.2 + 1e-12

    def test_tmin_bounded_by_intercepts(self):
        rng = random.Random(3)
        for _ in range(20):
            p = random_star_profile(rng)
            action, _ = t_min(p)
            assert action <= min(p.a_intercept, p.b_intercept) + 1e-12

    def test_fast_equals_oracle(self):
        rng = random.Random(11)
        for _ in range(10):
            p = random_star_profile(rng)
            af, wf = t_min(p, "fast")
            ao, wo = t_min(p, "oracle")
            assert af == ao
            assert (wf.mn, wf.location_kind, wf.location_index) == (
                wo.mn,
                wo.location_kind,
                wo.location_index,
            )

    def test_oracle_cutoff_insufficient(self):
        out = surgery.strangulate(ball(2), 0.1)
        with pytest.raises(OracleCutoffInsufficient):
            t_min(out.profile, "oracle", n_oracle=1)

    def test_bad_method(self):
        with pytest.raises(ValueError):
            t_min(ball(1), "guess")


class TestShear:
    def test_ball_unit_lower_triangular(self):
        res = shear_monodromy_check(ball(1), (0.5, 0.5), 1.0)
        (m11, m12), (_, m22) = res.monodromy
        assert abs(m11 - 1) < 1e-4 and abs(m12) < 1e-4 and abs(m22 - 1) < 1e-4
        assert res.residual < 1e-4

    def test_time_zero_identity(self):
        res = shear_monodromy_check(ball(1), (0.5, 0.5), 0.0)
        flat = [x for row in res.monodromy for x in row]
        assert flat == pytest.approx([1.0, 0.0, 0.0, 1.0], abs=1e-9)
        assert res.shear_over_t == 0.0

    def test_shear_linear_in_time(self):
        p = ellipsoid(1, 4, 1)
        vals = [
            shear_monodromy_check(p, (0.6, 1.6), T).shear_over_t for T in (0.5, 1, 2)
        ]
        assert max(vals) - min(vals) < 1e-5

    def test_residual_nonincreasing_under_halving(self):
        p = ellipsoid(1, 3, 1)
        prev = None
        for h in (1e-4, 5e-5, 2.5e-5):
            res = shear_monodromy_check(p, (0.4, 1.8), 1.0, h=h)
            if prev is not None:
                assert res.residual <= prev + 1e-12
            prev = res.residual


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_enumerated_orbits_well_formed(seed):
    rng = random.Random(seed)
    p = random_star_profile(rng)
    cutoff = 2 * min(p.a_intercept, p.b_intercept)
    for vi in range(1, len(p.vertices) - 1):
        for o in orbits_at_vertex(p, vi, cutoff):
            assert math.gcd(abs(o.mn[0]), abs(o.mn[1])) == 1
            assert o.action > 0
            cone = reeb.normal_cone(p, vi)
            if cone.width > 1e-12:
                assert lattice.in_cone(cone, o.mn)
