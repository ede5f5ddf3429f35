"""The tag types' closed forms against independent evaluations.

``cross_integrals`` gives each tag's integral of x dy - y dx, from which
``invariants.area`` sums the area; ``least_sums`` gives each tag's least
w1 + w2, from which ``gromov_width_monotone`` takes the width.  They are
checked against an exact rational evaluation of the same polynomial
(``SquaredSegment``), a 64-node Gauss-Legendre rule (``Arc``), dense
sampling of the curve (both), and the families' closed-form areas, where
they must be at least as close as the 8-node Gauss-Legendre area that they
replaced (``_old_area``): in the worst case against the exact area of a
float ``fc_domain``, and on average against the families' formulas, which
the float profiles themselves miss by a few ulps.
"""

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_direct_arrays import _old_area
from toricsys.geometry import Arc, SquaredSegment, fc_c_min, fc_domain, polydisk, smooth_corners
from toricsys.invariants import area, gromov_width_monotone, vol_fc

U = sys.float_info.epsilon / 2

# Zero, or far enough from it that no product of four numbers underflows.
mu = st.one_of(st.just(0.0), st.floats(1e-30, 10), st.floats(-10, -1e-30))
angle = st.floats(-3 * math.pi, 3 * math.pi, allow_nan=False)
coordinate = st.floats(-10, 10, allow_nan=False)
radius = st.floats(-5, 5, allow_nan=False)


def column(*numbers):
    """One tag's numbers as the columns a kernel reads, k = 1."""
    return tuple(np.array([x]) for x in numbers)


def exact_squared(numbers) -> Fraction:
    """``SquaredSegment.cross_integrals``'s polynomial, exact on the floats."""
    p0, q0, p1, q1 = map(Fraction, numbers)
    dp, dq = p1 - p0, q1 - q0
    return 2 * (p0 * dq - q0 * dp) * (p0 * q0 + (p0 * dq + q0 * dp) / 2 + dp * dq / 3)


@settings(max_examples=300, deadline=None)
@given(mu, mu, mu, mu)
def test_squared_cross_integral_is_the_exact_polynomial(p0, q0, p1, q1):
    """Within a few ulps of the exact value of 2 k (p0 q0 + (p0 dq +
    q0 dp)/2 + dp dq/3), k = p0 dq - q0 dp, on the float numbers, measured
    against the same polynomial in absolute values (k cancels when mu0 and
    mu1 are nearly parallel)."""
    (got,) = SquaredSegment.cross_integrals(column(p0, q0, p1, q1)).tolist()
    P0, Q0, P1, Q1 = map(Fraction, (p0, q0, p1, q1))
    dp, dq = abs(P1 - P0), abs(Q1 - Q0)
    size = 2 * (abs(P0) * dq + abs(Q0) * dp) * (abs(P0 * Q0) + (abs(P0) * dq + abs(Q0) * dp) / 2 + dp * dq / 3)
    assert abs(Fraction(got) - exact_squared((p0, q0, p1, q1))) <= 8 * U * size


def test_squared_cross_integral_of_fc_pieces_is_within_ulps():
    """On the well-conditioned tags of ``fc_domain`` the error is a few ulps
    of the value itself."""
    for b, c in ((2, 0.7), (1, 0.5), (4, 0.95)):
        ((_, (_, nums)),) = fc_domain(b, c, 64).tag_columns.items()
        for row, got in zip(nums.tolist(), SquaredSegment.cross_integrals(nums.T).tolist()):
            want = exact_squared(row)
            assert abs(Fraction(got) - want) <= 4 * U * abs(want), row


def gauss_legendre_64(numbers):
    """The integral of x dy - y dx from ``sample_numbers`` at 64 nodes,
    and the same rule on its absolute value."""
    x, w = np.polynomial.legendre.leggauss(64)
    t, w = (x + 1) / 2, w / 2
    px, py, dx, dy = Arc.sample_numbers(numbers, t, True)
    f = px * dy - py * dx
    return float((w * f).sum()), float((w * np.abs(f)).sum())


@settings(max_examples=300, deadline=None)
@given(coordinate, coordinate, radius, angle, st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False))
def test_arc_cross_integral_agrees_with_gauss_legendre_64(cx, cy, r, a0, da):
    """To 1e-13 relative to the integral of |x dy - y dx|, the size the
    two sums cancel from."""
    a1 = a0 + da
    (got,) = Arc.cross_integrals(column(cx, cy, r, a0, a1)).tolist()
    want, size = gauss_legendre_64((cx, cy, r, a0, a1))
    assert abs(got - want) <= 1e-13 * size + 1e-300


def test_arc_cross_integral_of_a_quarter_circle():
    # Center at the origin: r^2 (a1 - a0) exactly; the unit quarter
    # circle about (1, 1) adds cx (sin a1 - sin a0) - cy (cos a1 - cos a0).
    (got,) = Arc.cross_integrals(column(0.0, 0.0, 2.0, 0.0, math.pi / 2)).tolist()
    assert got == 4 * (math.pi / 2)
    (got,) = Arc.cross_integrals(column(1.0, 1.0, 1.0, 0.0, math.pi / 2)).tolist()
    assert got == pytest.approx(math.pi / 2 + 2, rel=1e-15)


def exact_area(p) -> Fraction:
    """The area of a profile whose tags are all ``SquaredSegment``, exact
    on its floats."""
    xy, tagged = p.xy.tolist(), set(p.tagged.tolist())
    total = sum(
        Fraction(x0) * Fraction(y1) - Fraction(y0) * Fraction(x1)
        for i, ((x0, y0), (x1, y1)) in enumerate(zip(xy, xy[1:]))
        if i not in tagged
    )
    ((_, (_, nums)),) = p.tag_columns.items()
    return (total + sum(map(exact_squared, nums.tolist()))) / 2


def _errors(values, want):
    return [abs(v - w) / w for v, w in zip(values, want)]


def test_fc_area_at_least_as_close():
    """Against the exact area of the float profile, the worst error is
    within 2 ulps and no worse than the old area's.  Against vol_fc, which
    the float profile itself misses by up to about 4e-16, the mean error is
    no worse than the old area's and the worst is within 1e-15."""
    rng = random.Random(33)
    profiles, vol = [], []
    for _ in range(200):
        b = rng.uniform(1, 4)
        c = rng.uniform(fc_c_min(b), 0.95)
        profiles.append(fc_domain(b, c, rng.randint(2, 64)))
        vol.append(vol_fc(b, c))
    exact = [exact_area(p) for p in profiles]
    new = [Fraction(area(p)) for p in profiles]
    old = [Fraction(_old_area(p)) for p in profiles]
    assert max(_errors(new, exact)) <= min(max(_errors(old, exact)), 4 * U)
    new_vol, old_vol = _errors(map(float, new), vol), _errors(map(float, old), vol)
    assert sum(new_vol) <= sum(old_vol) and max(new_vol) <= 1e-15


def test_rounded_polydisk_area_at_least_as_close():
    """Against a b - r^2 (1 - pi/4), the mean error is no worse than the
    old area's and the worst is within 1e-15."""
    rng = random.Random(34)
    profiles, want = [], []
    for _ in range(200):
        a, b = rng.uniform(0.3, 4), rng.uniform(0.3, 4)
        r = rng.uniform(0.01, 0.45) * min(a, b)
        profiles.append(smooth_corners(polydisk(a, b), r, rng.randint(1, 16)))
        want.append(a * b - r * r * (1 - math.pi / 4))
    new = _errors(map(area, profiles), want)
    assert sum(new) <= sum(_errors(map(_old_area, profiles), want)) and max(new) <= 1e-15


T = np.linspace(0.0, 1.0, 100001)


def _against_samples(cls, numbers, gap, size):
    """The kernel's least w1 + w2 is at or below every one of 10^5 + 1
    samples, up to 8 ulps of ``size``, and below their least by at most
    ``gap``, the most the sample spacing can hide."""
    (got,) = cls.least_sums(column(*numbers)).tolist()
    x, y = cls.sample_numbers(numbers, T)
    low = float((x + y).min())
    assert low - gap - 8 * U * size <= got <= low + 8 * U * size


@settings(max_examples=200, deadline=None)
@given(coordinate, coordinate, radius, angle, st.floats(-7, 7, allow_nan=False))
def test_arc_least_sum_against_dense_samples(cx, cy, r, a0, da):
    # (x + y)'' is at most sqrt(2) |r| da^2 in t.
    gap = math.sqrt(2) * abs(r) * da * da / 8e10
    _against_samples(Arc, (cx, cy, r, a0, a0 + da), gap, abs(cx) + abs(cy) + 2 * abs(r))


@settings(max_examples=200, deadline=None)
@given(mu, mu, mu, mu)
def test_squared_least_sum_against_dense_samples(p0, q0, p1, q1):
    # (x + y)'' is 2 (dp^2 + dq^2) in t.
    gap = ((p1 - p0) ** 2 + (q1 - q0) ** 2) / 4e10
    size = max(p0 * p0, p1 * p1) + max(q0 * q0, q1 * q1)
    _against_samples(SquaredSegment, (p0, q0, p1, q1), gap, size)


def test_least_sums_at_known_points():
    # The unit circle about (1, 1) passes 5 pi/4 on [pi, 3 pi/2]; with
    # r = -1 the same angles run through pi/4.
    (got,) = Arc.least_sums(column(1.0, 1.0, 1.0, math.pi, 1.5 * math.pi)).tolist()
    assert got == 2 - math.sqrt(2)
    (got,) = Arc.least_sums(column(1.0, 1.0, -1.0, 0.0, math.pi / 2)).tolist()
    assert got == 2 - math.sqrt(2)
    # Short of 5 pi/4 the least is the nearer end, at angle pi.
    (got,) = Arc.least_sums(column(1.0, 1.0, 1.0, 0.5 * math.pi, 0.9 * math.pi)).tolist()
    assert got == pytest.approx(2 + math.cos(0.9 * math.pi) + math.sin(0.9 * math.pi), rel=1e-15)
    # mu from (1, 0) to (0, 1): p^2 + q^2 is least, 1/2, at t = 1/2.
    (got,) = SquaredSegment.least_sums(column(1.0, 0.0, 0.0, 1.0)).tolist()
    assert got == 0.5
    # A curve of one point, and vertices of the quadratic beyond the ends.
    assert SquaredSegment.least_sums(column(0.5, 0.5, 0.5, 0.5)).tolist() == [0.5]
    assert SquaredSegment.least_sums(column(1.0, 1.0, 2.0, 2.0)).tolist() == [2.0]
    assert SquaredSegment.least_sums(column(2.0, 2.0, 1.0, 1.0)).tolist() == [2.0]


def test_fc_width_is_c():
    """The least w1 + w2 of ``fc_domain`` is c, on its straight piece; no
    curved piece falls below it by more than rounding."""
    rng = random.Random(35)
    for _ in range(200):
        b = rng.uniform(1, 4)
        c = rng.uniform(fc_c_min(b), 0.95)
        got = gromov_width_monotone(fc_domain(b, c, rng.randint(2, 64)))
        assert abs(got - c) <= 1e-15 * c, (b, c)
