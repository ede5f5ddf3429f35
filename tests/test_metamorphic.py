"""Exact symmetries of the paper's quantities.

The reflection w1 <-> w2 maps a toric domain to a symplectomorphic one:
the profile's path, reversed with its coordinates swapped, bounds the
same region reflected.  Every invariant and every flag must be unchanged,
the values up to rounding (4 ulps, relative).

Ru = a + b and T_min keep that bound.  The area does not always: its
shoelace sum adds the same per-segment terms in the opposite order, and
numpy's pairwise sum of 20 to 40 terms can round the two orders more than
4 ulps apart (CHANGES.md, FOUND), and sys, ru and the product inherit the
difference.  Those relations are expected failures until the area is
summed independently of the order.
"""

import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from toricsys.experiments import (
    random_convex_monotone_profile,
    random_monotone_profile,
    random_star_profile,
)
from toricsys.geometry import FLAGS, ball, classify, ellipsoid, from_vertices, polydisk
from toricsys.invariants import report

ULPS = 4 * sys.float_info.epsilon
AREA_ORDERED = "the area's pairwise sum depends on the segment order (CHANGES.md, FOUND)"


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
        flags = [getattr(classify(p), name) for name in FLAGS]
        assert flags == [getattr(classify(q), name) for name in FLAGS], p.vertices


@pytest.mark.xfail(reason=AREA_ORDERED, strict=False)
@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_reflection_keeps_area_sys_ru_and_product(seed):
    for p in polygons(random.Random(seed)):
        assert_reflection_keeps(p, ("area", "sys", "ru", "product"))


@pytest.mark.xfail(reason=AREA_ORDERED, strict=True)
def test_smallest_known_reflection_failure():
    # The product moves by 4.15 ulps, the area by 3.95.
    assert_reflection_keeps(ellipsoid(1.6483614359376526, 3.6892079764136274, 23), ("product",))
