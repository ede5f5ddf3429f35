import math
import random

import pytest

from toricsys import (
    DegenerateDenominator,
    MomentProfile,
    NotMonotone,
    ParamOutOfRange,
    ball,
    ellipsoid,
    fc_domain,
    from_vertices,
    gromov_width_monotone,
    polydisk,
    report,
    ruelle_closed_form,
    ruelle_quadrature,
    smooth_corners,
    SquaredSegment,
    vol_fc,
)
from toricsys.invariants import (
    area,
    report_csv_header,
    report_to_csv_row,
    report_to_text,
)
from toricsys.experiments import random_star_profile
from toricsys import surgery


class TestArea:
    def test_ball(self):
        assert area(ball(1)) == pytest.approx(0.5, rel=1e-15)

    def test_polydisk(self):
        assert area(polydisk(1, 2)) == pytest.approx(2.0, rel=1e-15)

    def test_fc_closed_form(self):
        for b, c in [(1, 0.5), (2, 0.8), (4, 0.9)]:
            assert area(fc_domain(b, c, 8)) == pytest.approx(vol_fc(b, c), abs=1e-12)


class TestRuelle:
    def test_closed_form_values(self):
        assert ruelle_closed_form(ellipsoid(1, 4, 1)) == 5
        assert ruelle_closed_form(ball(2)) == 4
        assert ruelle_closed_form(polydisk(3, 7)) == 10

    def test_quadrature_exact_on_polygons(self):
        for p in (ball(2), polydisk(1, 2), ellipsoid(1, 4, 16)):
            cf = ruelle_closed_form(p)
            assert abs(ruelle_quadrature(p) - cf) <= 1e-12 * cf

    def test_quadrature_on_smoothed_corner(self):
        p = smooth_corners(polydisk(1, 1), 0.05)
        assert ruelle_quadrature(p, n=8) == pytest.approx(2.0, abs=1e-6)

    def test_quadrature_needs_two_points(self):
        with pytest.raises(ParamOutOfRange, match="got 1"):
            ruelle_quadrature(ball(1), n=1)

    def test_curve_stationary_at_a_node_is_a_typed_error(self):
        # mu2 of the tagged segment is 0 exactly at the first Gauss-Legendre
        # node of order 8, so nu there is 0/0; tier-1 turns a numpy
        # RuntimeWarning into an error, so only the typed error passes.
        t = 0.019855071751231912
        p = MomentProfile(
            [(1, 0), (1, t * t), (1, (1 - t) ** 2), (0, 1)],
            {SquaredSegment: ([1], [[1, -t, 1, 1 - t]])},
        )
        with pytest.raises(DegenerateDenominator, match="^nu.w = nan on segment 1$"):
            ruelle_quadrature(p)

    def test_quadrature_takes_at_most_100_points(self):
        assert ruelle_quadrature(ball(1), n=100) == pytest.approx(2.0, rel=1e-12)
        with pytest.raises(ParamOutOfRange, match="got 101"):
            ruelle_quadrature(ball(1), n=101)


class TestReport:
    def test_ball_unit(self):
        r = report(ball(1))
        assert (r.area, r.contact_volume, r.ruelle) == (0.5, 1.0, 2.0)
        assert (r.t_min, r.sys, r.ru, r.product) == (1.0, 1.0, 2.0, 2.0)

    def test_ellipsoid_1_4(self):
        r = report(ellipsoid(1, 4, 1))
        assert (r.area, r.contact_volume, r.ruelle) == (2.0, 4.0, 5.0)
        assert (r.t_min, r.sys, r.ru, r.product) == (1.0, 0.25, 2.5, 1.25)

    def test_polydisk_product_formula(self):
        for b in (1, 5, 30):
            r = report(polydisk(1, b))
            assert r.product == pytest.approx((1 + b) / (2 * b), rel=1e-12)

    def test_internal_identities(self):
        r = report(from_vertices([(1.5, 0), (1.2, 0.8), (0.3, 1.7), (0, 2)]))
        assert r.contact_volume == 2 * r.area
        assert r.sys == pytest.approx(r.t_min**2 / r.contact_volume, rel=1e-14)
        assert r.ru == pytest.approx(r.ruelle / math.sqrt(r.contact_volume), rel=1e-14)
        assert r.product == pytest.approx(r.ru * math.sqrt(r.sys), rel=1e-14)

    def test_serialization_round_shape(self):
        r = report(ball(1))
        text = report_to_text(r)
        assert text.splitlines()[0] == "area = 0.5"
        assert "flags = " in text
        header = report_csv_header().split(",")
        row = report_to_csv_row(r).split(",")
        assert len(header) == len(row) == 9
        assert header[0] == "area" and header[-1] == "flags"


class TestGromovWidth:
    def test_ellipsoid(self):
        assert gromov_width_monotone(ellipsoid(1, 4, 1)) == pytest.approx(1.0)

    def test_ball(self):
        assert gromov_width_monotone(ball(0.7)) == pytest.approx(0.7)

    def test_fc_is_c(self):
        assert gromov_width_monotone(fc_domain(2, 0.8, 8)) == pytest.approx(0.8, abs=1e-9)

    def test_requires_monotone(self):
        out = surgery.strangulate(ball(2), 0.1)
        with pytest.raises(NotMonotone):
            gromov_width_monotone(out.profile)

    def test_tmin_equals_width_on_monotone(self):
        from toricsys import t_min
        from toricsys.experiments import random_monotone_profile

        rng = random.Random(5)
        for _ in range(15):
            p = random_monotone_profile(rng)
            action, _ = t_min(p)
            assert action == pytest.approx(gromov_width_monotone(p), abs=1e-9)


class TestCriterion:
    """The criterion product ru * sqrt(sys) against the paper's constants
    (lower <= 1/2, upper >= 3), with 0.4 and 3 as thresholds."""

    def test_wide_polydisk_inconclusive(self):
        prod = report(polydisk(1, 1000)).product
        assert 0.4 <= prod <= 3
        assert prod == pytest.approx(0.5005, rel=1e-9)

    def test_strangulated_below_lower(self):
        out = surgery.strangulate(ball(2), 0.01)
        assert report(out.profile).product < 0.4

    def test_strained_above_upper(self):
        out = surgery.strain(ellipsoid(1, 4, 1), 1e-4)
        assert report(out.profile).product > 3


def test_scaling_covariance():
    rng = random.Random(9)
    for _ in range(10):
        p = random_star_profile(rng)
        r = report(p)
        for s in (0.1, 3.0, 10.0):
            rs = report(p.scaled(s))
            assert rs.area == pytest.approx(s * s * r.area, rel=1e-10)
            assert rs.ruelle == pytest.approx(s * r.ruelle, rel=1e-10)
            assert rs.t_min == pytest.approx(s * r.t_min, rel=1e-10)
            assert rs.sys == pytest.approx(r.sys, rel=1e-10)
            assert rs.ru == pytest.approx(r.ru, rel=1e-10)
            assert rs.product == pytest.approx(r.product, rel=1e-10)
