"""The best-first ``t_min`` against the exact reference (``exact.py``).

On every profile below, ``t_min``'s result must keep the least-orbit
contract of ``exact.check_orbit`` over every closed orbit of the
profile.  The bounds it skips candidates by must be lower bounds, and it
must skip most of them.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from toricsys import (
    ball,
    closed_orbit_on_segment,
    ellipsoid,
    fc_domain,
    flatten_near_intercept,
    polydisk,
    smooth_corners,
    strain,
    strangulate,
    t_min,
)
from toricsys import geometry, reeb
from toricsys.experiments import random_monotone_profile, random_star_profile
from toricsys.lattice import min_in_cone
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
NAMED = {**STRANGULATED, **STRAINED, **DENSE}


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
    """Check every finite bound of p; return how many there were."""
    bounds = _candidate_bounds(p).tolist()
    n = p.n_segments
    checked = 0
    for k, bound in enumerate(bounds):
        if bound == -math.inf:
            continue
        checked += 1
        if k < n:
            orbit = closed_orbit_on_segment(p, k)
            assert orbit is None or bound <= orbit.action, k
        elif abs(p.normal_turns[k - n]) > 1e-12:
            # Just below the bound, the descent prunes the cone at once.
            assert p.vertex_cones[1][k - n]
            cone = p.vertex_cones[0][k - n].tolist()
            assert min_in_cone(cone, math.nextafter(bound, 0)) == (None, 1), k
    return checked


@pytest.mark.parametrize("build", NAMED.values(), ids=NAMED.keys())
def test_bounds_hold_on_named_profiles(build):
    assert _assert_bounds_hold(build()) > 0


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


def test_ties_are_broken_by_sort_key():
    # Every segment of E(1, 1, n) has action 1, as both axis orbits do:
    # the tie goes to the least sort key, the axis orbit (0, 1).
    p = ellipsoid(1, 1, 7)
    action, w = t_min(p)
    assert (action, w.mn, w.location_kind, w.location_index) == (1.0, (0, 1), "axis", 1)
    exact.check_orbit(p, action, w)
