"""Exact symmetries of the paper's quantities.

The reflection w1 <-> w2 maps a toric domain to a symplectomorphic one:
the profile's path, reversed with its coordinates swapped, bounds the
same region reflected.  Every invariant and every flag must be unchanged,
the values up to rounding (4 ulps, relative).

Ru = a + b and T_min keep that bound.  The area is kept exactly: its
shoelace sum adds the same per-segment terms in the opposite order, and
``math.fsum`` rounds the exact sum once, whatever the order.  (numpy's
pairwise sum of 20 to 40 terms rounded the two orders up to about 5 ulps
apart, and sys, ru and the product inherited the difference.)

Scaling the plane by s multiplies the area by s^2 and leaves sys, ru, the
product and the flags unchanged.  For s a power of 4 every scaled number
is exact, the square-root factor of ``SquaredSegment`` tags included, so
the area and ru must come out exactly and sys and the product within 4
ulps.  (At s = 2 the factor sqrt(2) rounds, and the area of ``fc_domain``
profiles is then often not exact.)
"""

import math
import random
import sys

from hypothesis import given, settings, strategies as st

from toricsys.experiments import (
    random_convex_monotone_profile,
    random_monotone_profile,
    random_star_profile,
)
from toricsys.geometry import (
    FLAGS,
    ball,
    classify,
    ellipsoid,
    fc_c_min,
    fc_domain,
    from_vertices,
    polydisk,
    smooth_corners,
)
from toricsys.invariants import area, report

ULPS = 4 * sys.float_info.epsilon


def polygons(rng: random.Random):
    """One profile of each random generator and polygonal family."""
    a, b, c = (rng.uniform(0.3, 4) for _ in range(3))
    return [
        random_star_profile(rng),
        random_monotone_profile(rng),
        random_convex_monotone_profile(rng),
        ellipsoid(a, b, rng.randint(1, 40)),
        polydisk(b, a),
        ball(c, rng.randint(1, 8)),
    ]


def curved(rng: random.Random):
    """One ``fc_domain`` profile and one ``smooth_corners`` polydisk."""
    b, x, y = rng.uniform(1, 4), rng.uniform(0.3, 4), rng.uniform(0.3, 4)
    c = rng.uniform(fc_c_min(b), 0.95)
    r = rng.uniform(0.01, 0.45) * min(x, y)
    return [fc_domain(b, c, rng.randint(2, 64)), smooth_corners(polydisk(x, y), r, rng.randint(1, 8))]


def flags(p):
    return [getattr(classify(p), name) for name in FLAGS]


def assert_reflection_keeps(p, values):
    """Checks the report values of p and its reflection; returns the
    reflection."""
    q = from_vertices(p.xy[::-1, ::-1])
    mine, theirs = report(p), report(q)
    for name in values:
        a, b = getattr(mine, name), getattr(theirs, name)
        assert math.isclose(a, b, rel_tol=ULPS, abs_tol=0), (name, a, b, p.vertices)
    return q


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_reflection_keeps_flags_ruelle_and_t_min(seed):
    for p in polygons(random.Random(seed)):
        q = assert_reflection_keeps(p, ("ruelle", "t_min"))
        assert flags(p) == flags(q), p.vertices


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_reflection_keeps_area_sys_ru_and_product(seed):
    for p in polygons(random.Random(seed)):
        q = assert_reflection_keeps(p, ("sys", "ru", "product"))
        assert area(q) == area(p), p.vertices


def test_smallest_known_reflection_failure():
    # Under numpy's pairwise sum the product moved by 4.15 ulps, the area
    # by 3.95.
    p = ellipsoid(1.6483614359376526, 3.6892079764136274, 23)
    q = assert_reflection_keeps(p, ("product",))
    assert area(q) == area(p)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_scaling_by_powers_of_4(seed):
    rng = random.Random(seed)
    for p in polygons(rng) + curved(rng):
        r = report(p)
        for s in (0.25, 4, 16):
            q = p.scaled(s)
            rs = report(q)
            assert rs.area == s * s * r.area, (s, p.vertices)
            assert rs.ru == r.ru, (s, p.vertices)
            assert flags(q) == flags(p), (s, p.vertices)
            for name in ("sys", "product"):
                a, b = getattr(rs, name), getattr(r, name)
                assert math.isclose(a, b, rel_tol=ULPS, abs_tol=0), (name, s, a, b, p.vertices)
