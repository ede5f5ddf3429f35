import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toricsys import (
    DegenerateDenominator,
    OracleCutoffInsufficient,
    ParamOutOfRange,
    ball,
    closed_orbit_on_segment,
    ellipsoid,
    flatten_near_intercept,
    from_vertices,
    orbits_at_vertex,
    orbits_below,
    polydisk,
    reeb_angular_velocities,
    shear_monodromy_check,
    smooth_corners,
    t_min,
)
from toricsys import lattice, reeb, surgery
from toricsys.experiments import random_monotone_profile, random_star_profile
from toricsys.reeb import OrbitDatum

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

    def test_nan_denominator_is_degenerate(self):
        # The same check as the Ruelle quadrature's: nan is not above tol.
        with pytest.raises(DegenerateDenominator, match=r"nu.p = nan at \(0.5, nan\)"):
            reeb_angular_velocities(ball(1), (0.5, math.nan), (1 / SQ2, 1 / SQ2))


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
            d = prof.directions[i]
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

    @pytest.mark.parametrize(
        "n_oracle, message",
        [
            (1.5, "oracle cutoff must be an integer; got 1.5"),
            (math.nan, "oracle cutoff must be an integer; got nan"),
            (math.inf, "oracle cutoff must be an integer; got inf"),
            (2.0, "oracle cutoff must be an integer; got 2.0"),
            ("3", "oracle cutoff must be an integer; got '3'"),
            (0, "oracle cutoff must be at least 1; got 0"),
        ],
    )
    def test_oracle_cutoff_must_be_a_positive_integer(self, n_oracle, message):
        """A float n_oracle once reached the small-vector table as a key
        (KeyError: 1.5), and nan returned an answer certified by a nan
        bound."""
        p = surgery.strangulate(ball(2), 0.1).profile
        with pytest.raises(ParamOutOfRange, match=f"^{re.escape(message)}$"):
            t_min(p, "oracle", n_oracle=n_oracle)

    def test_oracle_cutoff_takes_integer_types(self):
        p = surgery.strangulate(ball(2), 0.1).profile
        assert t_min(p, "oracle", n_oracle=np.int64(7)) == t_min(p, "oracle", n_oracle=7)

    def test_bad_method(self):
        with pytest.raises(
            ParamOutOfRange, match="^t_min method must be 'fast' or 'oracle'; got 'guess'$"
        ):
            t_min(ball(1), "guess")

    @pytest.mark.parametrize("method", ["fast", "oracle"])
    def test_a_segment_orbit_wins(self, method):
        """(1, 1) acts 1.5 on segment 1 and at both its ends; the segment
        ranks before the vertices, and the axis orbits act 2."""
        p = from_vertices([(2, 0), (1, 0.5), (0.5, 1), (0, 2)])
        action, w = t_min(p, method)
        assert action == 1.5
        assert w == OrbitDatum((1, 1), (0.75, 0.75), 1.5, "segment", 1)
        assert reeb._orbit(p, w.sort_key()) == w


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
        # On a finely sampled arc of curvature 2, off the arc's radial
        # direction, projecting the e1-step back to the boundary costs
        # O(h): the residual is about 1e-3 and halves with h.  (On a
        # straight segment it is rounding noise.)
        p = smooth_corners(polydisk(1, 1), 0.5, 2000)
        point = (0.5 + 0.5 * math.cos(math.pi / 6), 0.5 + 0.5 * math.sin(math.pi / 6))
        prev = None
        for h in (8e-3, 4e-3, 2e-3, 1e-3):
            res = shear_monodromy_check(p, point, 1.0, h=h)
            assert res.residual > 1e-5
            if prev is not None:
                assert 0.4 * prev <= res.residual <= 0.6 * prev
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
            cones, corner = p.vertex_cones
            if abs(p.normal_turns[vi - 1]) > 1e-12:
                assert corner[vi - 1]
                (sx, sy), (ex, ey), _ = cones[vi - 1].tolist()
                assert lattice._in_cone(sx, sy, ex, ey, *o.mn)


# ---------------------------------------------------------------------------
# One constructor: ``reeb._orbit`` rebuilds every orbit from its sort key


def _assert_rebuilt(p, witnesses=()):
    """Every orbit that t_min (fast, and the oracle where it certifies),
    orbits_below, closed_orbit_on_segment and the surgery witnesses hand
    out for p is the one ``_orbit`` builds from its sort key."""
    action, best = t_min(p)
    orbits = [best, *orbits_below(p, 1.5 * action), *witnesses]
    try:
        orbits.append(t_min(p, "oracle")[1])
    except OracleCutoffInsufficient:
        pass
    orbits += [o for i in range(p.n_segments) if (o := closed_orbit_on_segment(p, i))]
    for o in orbits:
        assert reeb._orbit(p, o.sort_key()) == o


DOMAINS = (ball(2), ball(2, 16), ellipsoid(1, 2.6), ellipsoid(1.3, 1.6, 4))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_orbit_rebuilds_the_orbits_of_random_profiles(seed, star):
    make = random_star_profile if star else random_monotone_profile
    _assert_rebuilt(make(random.Random(seed)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(DOMAINS), st.floats(1, 1.5), st.floats(0.2, 1.35))
def test_orbit_rebuilds_the_orbits_of_strangulated_domains(domain, log_eps, ray):
    out = surgery.strangulate(domain, 10**-log_eps, ray)
    assert len(out.new_orbit_witnesses) == 1
    _assert_rebuilt(out.profile, out.new_orbit_witnesses)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(DOMAINS), st.sampled_from((0.2, 0.4)), st.floats(1, 1.5))
def test_orbit_rebuilds_the_orbits_of_strained_domains(domain, flatten, log_eps):
    out = surgery.strain(flatten_near_intercept(domain, flatten)[0], 10**-log_eps)
    _assert_rebuilt(out.profile, out.new_orbit_witnesses[:5])
