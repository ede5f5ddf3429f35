import math
import sys

import numpy as np
import pytest

from toricsys import (
    ClippingBreaksStarShape,
    EpsTooLarge,
    EpsTooLargeForNeighborhood,
    NotFlattened,
    RadiusTooLarge,
    RayMissesBoundary,
    ball,
    classify,
    ellipsoid,
    fc_domain,
    flatten_near_intercept,
    from_vertices,
    polydisk,
    strain,
    strangulate,
    t_min,
)
from toricsys.invariants import area, ruelle_closed_form
from toricsys.lattice import _in_cone, min_in_cone
from toricsys.surgery import _clip, _sector_intervals

import exact


class TestStrangulate:
    def test_ball2_certificates(self):
        p = ball(2)
        out = strangulate(p, 0.1)
        # intercepts untouched, so the closed-form Ruelle value is exact
        assert out.profile.a_intercept == 2.0
        assert out.profile.b_intercept == 2.0
        assert ruelle_closed_form(out.profile) == 4.0
        assert out.spec.w_star == pytest.approx(1.0, rel=1e-12)
        assert out.spec.theta > 0
        assert abs(out.volume_delta) <= out.volume_delta_bound + 1e-9
        assert out.volume_delta > 0  # a sector was actually removed

    def test_witness_orbit_diagonal(self):
        # The least-action apex orbit: (1, 1) lies in the apex cone with
        # action 2 * eps; (-4, 5) and (-3, 4) tie below it, and the least
        # (m, n) is taken.
        out = strangulate(ball(2), 0.1)
        [w] = out.new_orbit_witnesses
        assert (w.location_kind, w.base_point) == ("vertex", (0.1, 0.09999999999999999))
        assert w.base_point == out.profile.vertices[w.location_index]
        cone = tuple(map(tuple, out.profile.vertex_cones[0][w.location_index - 1].tolist()))
        assert _in_cone(*cone[0], *cone[1], 1, 1, sum(cone[2]))
        assert w.action <= 0.2 * (1 + 1e-12)
        assert w.mn == (-4, 5)
        assert w.action == pytest.approx(0.1, rel=1e-12)
        # Both act w.action in floats, and the descent keeps the least.
        # Exactly, (-3, 4) is the apex cone's least and (-4, 5) lies in its
        # CONE_TOL band (a ledger entry in test_found.py).
        reference = exact.Cone.at_vertex(out.profile, w.location_index)
        assert [reference.float_action(*mn) for mn in ((-4, 5), (-3, 4))] == [w.action] * 2
        assert reference.least(0.2)[1:] == (-3, 4)
        exact.check_least(reference, (w.action, w.mn), math.inf)
        assert min_in_cone(cone, math.inf)[0] == (w.action, w.mn)

    def test_short_orbit_created(self):
        for eps in (0.2, 0.05):
            out = strangulate(ball(2), eps)
            action, _ = t_min(out.profile)
            assert action <= 2 * eps + 1e-12

    def test_output_not_monotone_but_star_shaped(self):
        out = strangulate(ball(2), 0.1)
        c = classify(out.profile)
        assert c.star_shaped and not c.monotone

    def test_eps_too_large(self):
        with pytest.raises(EpsTooLarge):
            strangulate(ball(2), 2.0)  # w* = 1 on the diagonal

    def test_bad_ray(self):
        with pytest.raises(RayMissesBoundary):
            strangulate(ball(2), 0.1, ray_angle=-0.3)

    def test_off_diagonal_ray(self):
        out = strangulate(ball(2), 0.05, ray_angle=math.atan2(1, 2))
        assert classify(out.profile).star_shaped
        assert ruelle_closed_form(out.profile) == 4.0
        assert abs(out.volume_delta) <= out.volume_delta_bound + 1e-9

    @staticmethod
    def _reach(p, apex, u, hit, theta):
        """Largest max-norm distance from the hit point of a boundary point
        in the sector of half-angle theta."""
        lo, hi, inside = _sector_intervals(p, apex, u, theta)
        a, d = p.xy[:-1][inside], p.directions[inside]
        ends = np.concatenate([a + lo[inside, None] * d, a + hi[inside, None] * d])
        return abs(ends - hit).max()

    def test_sector_meets_boundary_only_in_box(self):
        """theta is the largest half-angle whose sector meets the boundary
        only inside the eps-box around the ray's hit point: every in-sector
        point at theta lies in the box, up to rounding of the interval ends
        (``slack``); unless theta is the cap, the sector at
        theta * (1 + 1e-9) reaches a point outside the box by more than
        that."""
        profiles = (
            ball(2),
            ellipsoid(1, 4, 1),
            polydisk(1, 2),
            fc_domain(2, 0.7, 16),
            fc_domain(1, 0.5, 8),
        )
        checked = 0
        for p in profiles:
            for ray in (0.3, math.pi / 4, 1.2):
                u = (math.cos(ray), math.sin(ray))
                d_norm = np.array(u) / max(u)
                for eps in (10 ** (-k / 2) for k in range(2, 9)):
                    try:
                        spec = strangulate(p, eps, ray).spec
                    except ClippingBreaksStarShape:
                        continue  # rejected by the star-shape tolerance (ROADMAP item 2)
                    hit, apex = spec.w_star * d_norm, eps * d_norm
                    box = eps * (1 + 1e-12)
                    slack = 1e-14 * abs(hit).max()
                    assert self._reach(p, apex, u, hit, spec.theta) <= box + slack
                    if spec.theta < min(math.pi / 4, ray, math.pi / 2 - ray):
                        wider = spec.theta * (1 + 1e-9)
                        assert self._reach(p, apex, u, hit, wider) > box + slack
                    checked += 1
        assert checked == 5 * 3 * 7 - 3  # ellipsoid(1, 4, 1) fails at eps = 1e-4

    def test_clip_parallel_planes(self):
        # Rows: a plane parallel to the segment with the segment outside,
        # the same plane with it inside, and two cuts from either side.
        step = np.array([[0.0, 2.0], [0.0, 2.0], [-4.0, 2.0]])
        room = np.array([[-1.0, 1.0], [1.0, 1.0], [-1.0, 1.0]])
        s_in, s_out = _clip(step, room)
        assert s_in[0] > s_out[0]
        assert (s_in[1], s_out[1]) == (0.0, 0.5)
        assert (s_in[2], s_out[2]) == (0.25, 0.5)


class TestFlatten:
    def test_polygonal_unchanged(self):
        p = ellipsoid(1, 4, 1)
        q, k = flatten_near_intercept(p, 0.1)
        assert q is p
        assert k == -4.0

    def test_fc_flatten_gives_negative_slope(self):
        p = fc_domain(1, 0.5, 16)
        q, k = flatten_near_intercept(p, 0.05)
        assert k < 0
        assert q.tag(0) is None
        assert q.a_intercept == p.a_intercept
        assert abs(area(p) - area(q)) <= 0.05**2

    def test_radius_too_large(self):
        with pytest.raises(RadiusTooLarge):
            flatten_near_intercept(ellipsoid(1, 4, 1), 5.0)


class TestStrain:
    def test_ruelle_certificate_exact(self):
        for eps in (1e-2, 1e-3):
            out = strain(ellipsoid(1, 4, 1), eps)
            assert ruelle_closed_form(out.profile) == 4 + 1 / math.sqrt(eps)

    def test_volume_increases_within_bound(self):
        p = ellipsoid(1, 4, 1)
        out = strain(p, 1e-2)
        assert out.volume_delta >= 0
        assert out.volume_delta <= math.sqrt(1e-2) / 2 + 1e-9

    def test_tmin_at_least_half(self):
        p = ellipsoid(1, 4, 1)
        tin, _ = t_min(p)
        out = strain(p, 1e-3)
        tout, _ = t_min(out.profile)
        assert tout >= tin / 2 - 1e-9

    def test_strict_monotonicity_preserved(self):
        p = ellipsoid(1, 4, 1)
        assert classify(p).strictly_monotone
        out = strain(p, 1e-3)
        assert out.preserved_flags.strictly_monotone

    def test_spec_fields(self):
        out = strain(ellipsoid(1, 4, 1), 0.01)
        assert out.spec.k == -4.0
        assert out.spec.w_star_eps == pytest.approx(1 - 0.01 / 4)
        assert out.spec.spike_intercept == 1 / math.sqrt(0.01)

    def test_requires_flat_first_segment(self):
        p = fc_domain(1, 0.5, 16)  # first segment carries an analytic tag
        with pytest.raises(NotFlattened):
            strain(p, 1e-3)
        q, _ = flatten_near_intercept(p, 0.05)
        out = strain(q, 1e-4)
        assert classify(out.profile).star_shaped

    def test_vertical_first_segment_rejected(self):
        with pytest.raises(NotFlattened):
            strain(polydisk(1, 2), 1e-3)

    def test_eps_must_fit_neighborhood(self):
        with pytest.raises(EpsTooLargeForNeighborhood):
            strain(ellipsoid(1, 4, 1), 5.0)

    def test_contains_input_domain(self):
        p = ellipsoid(1, 4, 1)
        out = strain(p, 1e-2)
        assert area(out.profile) >= area(p)


class TestSurgeryComposition:
    def test_strangulate_then_smooth_stays_valid(self):
        from toricsys import smooth_corners

        out = strangulate(ball(2), 0.1)
        sm = smooth_corners(out.profile, 0.002)
        assert classify(sm).star_shaped

    def test_strain_on_custom_profile(self):
        p = from_vertices([(1.5, 0), (1.0, 0.5), (0.4, 1.4), (0, 1.8)])
        out = strain(p, 1e-3)
        assert ruelle_closed_form(out.profile) == 1.8 + 1 / math.sqrt(1e-3)


class TestInputComputedOnce:
    """A strain sweep computes its input's area and T_min once.  What is
    counted is computations: ``invariants._area``, the function behind
    ``area``'s per-profile cache, and ``reeb.t_min``, which keeps no cache
    (``surgery.input_t_min`` memoises the input's)."""

    @staticmethod
    def _count(monkeypatch, module, name):
        """Count calls of module.name under every name a toricsys module
        binds it to."""
        f = getattr(module, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return f(*args, **kwargs)

        for mod in [m for key, m in sys.modules.items() if key.startswith("toricsys")]:
            for key, value in list(vars(mod).items()):
                if value is f:
                    monkeypatch.setattr(mod, key, counted)
        return calls

    def test_strain_sweep_call_counts(self, monkeypatch):
        from toricsys import experiments, invariants, reeb

        p, _ = flatten_near_intercept(ball(2, 16), 0.1)
        t_min_calls = self._count(monkeypatch, reeb, "t_min")
        area_calls = self._count(monkeypatch, invariants, "_area")
        config = experiments.RunConfig(profile=p, op="strain", eps_grid=(1e-2, 1e-3, 1e-4))
        records = experiments.run_sweep(config)
        assert [r.error for r in records] == ["", "", ""]
        # Input once each; per point, t_min of the output in its report and
        # the output's area once, shared by strain and the report.
        assert len(t_min_calls) == 4
        assert len(area_calls) == 4
        assert sum(q is p for q in t_min_calls) == 1
        assert sum(q is p for q in area_calls) == 1
        assert len(set(map(id, area_calls))) == 4

    def test_strain_reuses_its_input_values(self, monkeypatch):
        from toricsys import invariants, reeb

        p, _ = flatten_near_intercept(ball(2, 16), 0.1)
        t_min_calls = self._count(monkeypatch, reeb, "t_min")
        area_calls = self._count(monkeypatch, invariants, "_area")
        first = strain(p, 1e-3)
        again = strain(p, 1e-3)
        assert [q is p for q in t_min_calls] == [True]
        # The input's area once; each call's new output once.
        assert sorted(q is p for q in area_calls) == [False, False, True]
        assert area_calls[-1] is again.profile
        assert first.volume_delta == again.volume_delta
        assert first.new_orbit_witnesses == again.new_orbit_witnesses
