"""The best-first ``t_min`` against the exact reference (``exact.py``).

On every profile below, ``t_min``'s result must keep the least-orbit
contract of ``exact.check_orbit`` over every closed orbit of the
profile.  The bounds it skips candidates by must be lower bounds, and it
must skip most of them.
"""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toricsys import (
    ball,
    closed_orbit_on_segment,
    ellipsoid,
    fc_domain,
    flatten_near_intercept,
    from_vertices,
    polydisk,
    smooth_corners,
    strain,
    strangulate,
    t_min,
)
from toricsys import geometry, reeb
from toricsys.experiments import random_monotone_profile, random_star_profile
from toricsys.lattice import clear_of_axes, min_in_cone
from toricsys.reeb import _candidate_bounds

import exact


RAYS = (math.pi / 4, 0.4, 1.2)
EPS = (1e-1, 1e-2, 1e-3, 1e-4)
STRANGULATED = {
    f"strangulated-{ray:.3f}-{eps:g}": (
        lambda ray=ray, eps=eps: strangulate(ball(2), eps, ray).profile
    )
    for ray in RAYS
    for eps in EPS
}
STRAINED = {
    f"strained-{eps:g}": (
        lambda eps=eps: strain(flatten_near_intercept(ball(2, 16), 0.1)[0], eps).profile
    )
    for eps in (1e-2, 10**-2.5, 1e-3, 1e-4)
}
DENSE = {
    "ellipsoid-1-2-512": lambda: ellipsoid(1, 2, 512),
    "ellipsoid-3-1-512": lambda: ellipsoid(3, 1, 512),
    "ball-2-512": lambda: ellipsoid(2, 2, 512),
    "fc-2-0.7-256": lambda: fc_domain(2, 0.7, 256),
    "rounded-polydisk-510": lambda: smooth_corners(polydisk(1, 2), 0.2, 510),
}
# (1, 0) lies outside the corner's exact cone by 5e-10 rad, inside the
# membership band, and acts 1 there, less than either segment's support
# distance: only the cone bound's CONE_TOL slack keeps it a lower bound.
BAND = {"band-corner": lambda: from_vertices([(1 + 1e-9, 0), (1, 2), (0, 2)])}
NAMED = {**STRANGULATED, **STRAINED, **DENSE, **BAND}


@pytest.mark.parametrize("build", NAMED.values(), ids=NAMED.keys())
def test_matches_per_cone_loop_on_named_profiles(build):
    p = build()
    exact.check_orbit(p, *t_min(p))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_matches_per_cone_loop_on_star_profiles(seed):
    p = random_star_profile(random.Random(seed))
    exact.check_orbit(p, *t_min(p))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_matches_per_cone_loop_on_monotone_profiles(seed):
    p = random_monotone_profile(random.Random(seed))
    exact.check_orbit(p, *t_min(p))


def _assert_bounds_hold(p) -> int:
    """Check every finite bound of p; return how many there were.  A
    bound holds for float actions: a segment's must not exceed its orbit's
    action, nor the exact action along its exact normal by more than that
    action's rounding (``exact.rounding``); a cone's must not exceed the
    exact least action of its exact cone by more than its rounding, nor,
    at a corner, the least action the descent finds.  Where a corner's
    bound is v1 + v2, the descent prunes it at the first step just below
    the bound."""
    bounds = _candidate_bounds(p).tolist()
    n = p.n_segments
    cones, corner = p.vertex_cones
    clear = clear_of_axes(p.normals)
    checked = 0
    for k, bound in enumerate(bounds):
        if bound == -math.inf:
            continue
        checked += 1
        if k < n:
            orbit = closed_orbit_on_segment(p, k)
            assert orbit is None or bound <= orbit.action, k
            (x0, y0), (x1, y1) = p.segment(k)
            m1, m2 = exact.primitive(exact.normal((x0, y0), (x1, y1)))
            error = exact.rounding(m1, m2, ((x0 + x1) / 2, (y0 + y1) / 2))
            assert Fraction(bound) <= m1 * Fraction(x0) + m2 * Fraction(y0) + error, k
            continue
        j = k - n
        least = exact.Cone.at_vertex(p, j + 1).least(bound)
        if least is not None:
            error = exact.rounding(*least[1:], p.vertex(j + 1))
            assert Fraction(bound) <= least[0] + error, (k, least)
        if not corner[j]:
            continue  # a collinear vertex is never searched
        cone = cones[j].tolist()
        got, _ = min_in_cone(cone, math.inf)
        assert got is not None and bound <= got[0], (k, got)
        v1, v2 = cone[2]
        if clear[j] and clear[j + 1] and bound == v1 + v2:
            # Just below the bound, the descent prunes the cone at once.
            assert min_in_cone(cone, math.nextafter(bound, 0)) == (None, 1), k
    return checked


@pytest.mark.parametrize("build", NAMED.values(), ids=NAMED.keys())
def test_bounds_hold_on_named_profiles(build):
    # Every candidate of these profiles has a finite bound.
    p = build()
    assert _assert_bounds_hold(p) == 2 * p.n_segments - 1


@pytest.mark.parametrize("seed", range(40))
def test_bounds_hold_on_random_profiles(seed):
    rng = random.Random(seed)
    p = (random_star_profile if seed % 2 else random_monotone_profile)(rng)
    _assert_bounds_hold(p)


def test_dense_profile_visits_few_candidates(monkeypatch):
    calls = {"min_in_cone": 0, "_decimal_ratio": 0}

    def counted(module, name):
        f = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(reeb, "min_in_cone")
    counted(geometry, "_decimal_ratio")
    p = fc_domain(2, 0.7, 256)
    assert p.n_segments == 513
    t_min(p)
    assert calls["min_in_cone"] < 8
    assert calls["_decimal_ratio"] < 16
    # Every segment and vertex of E(2, 2, 512) acts 2, as the axis orbit
    # (0, 1) does, and ranks after it: none is visited.
    calls.update(min_in_cone=0, _decimal_ratio=0)
    assert t_min(ellipsoid(2, 2, 512))[1].location_kind == "axis"
    assert calls == {"min_in_cone": 0, "_decimal_ratio": 0}



def test_cones_tied_with_a_segment_incumbent_are_skipped(monkeypatch):
    # Segment 1 acts 1.5 along (1, 1); both vertex cones are bounded by
    # v1 + v2 = 1.5 and rank after it, so neither is searched.
    calls = []
    monkeypatch.setattr(reeb, "min_in_cone", lambda *args: calls.append(args))
    p = from_vertices([(2, 0), (1, 0.5), (0.5, 1), (0, 2)])
    action, w = t_min(p)
    assert (action, w.mn, w.location_kind, w.location_index) == (1.5, (1, 1), "segment", 1)
    assert calls == []

# Profiles whose t_min once grew with n: each segment or cone that ties the
# incumbent was visited, and a visit paid Python calls.
GUARDED = {
    "ellipsoid": lambda n: ellipsoid(2, 2, n),
    "strained": lambda n: strain(flatten_near_intercept(ellipsoid(2, 2, n), 0.1)[0], 1e-2).profile,
    "fc": lambda n: fc_domain(2, 0.7, n),
    "rounded-polydisk": lambda n: smooth_corners(polydisk(1, 2), 0.2, n),
}


def _call_events(f) -> int:
    """The Python call and C call events of f(), counted by sys.setprofile."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    sys.setprofile(profile)
    try:
        f()
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize("build", GUARDED.values(), ids=GUARDED.keys())
def test_t_min_calls_do_not_grow_with_n(build):
    t_min(ellipsoid(1, 2, 3))  # first-call costs out of the count
    small, large = build(16), build(512)
    counts = [_call_events(lambda p=p: t_min(p)) for p in (small, large)]
    assert abs(counts[1] - counts[0]) <= 10, counts


def test_ties_are_broken_by_sort_key():
    # Every segment of E(1, 1, n) has action 1, as both axis orbits do:
    # the tie goes to the least sort key, the axis orbit (0, 1).
    p = ellipsoid(1, 1, 7)
    action, w = t_min(p)
    assert (action, w.mn, w.location_kind, w.location_index) == (1.0, (0, 1), "axis", 1)
    exact.check_orbit(p, action, w)
