"""The angle-sorted brute-force oracle against the full-table scan it replaced.

``_old_primitive_vectors`` and ``_old_cone_candidates_oracle`` are verbatim
copies (renamed only) of the oracle that ran ``in_cone_mask`` over every
primitive vector at every vertex cone.  The oracle now scans only the
cone's angular slice of an angle-sorted table.  On every cone below both
must return the same (action, (m, n)), compared with ``==``; ``t_min``'s
oracle must return the same ``(action, OrbitDatum)`` and raise
``OracleCutoffInsufficient`` in exactly the same cases.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toricsys import ball, flatten_near_intercept, strain, strangulate, t_min
from toricsys import reeb
from toricsys.errors import OracleCutoffInsufficient
from toricsys.experiments import random_monotone_profile, random_star_profile
from toricsys.geometry import NormalCone
from toricsys.lattice import in_cone_mask


# ---------------------------------------------------------------------------
# The replaced oracle, verbatim

_OLD_PRIMITIVE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _old_primitive_vectors(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    if n_max not in _OLD_PRIMITIVE_CACHE:
        rng = np.arange(-n_max, n_max + 1)
        mm, nn = np.meshgrid(rng, rng, indexing="ij")
        mm, nn = mm.ravel(), nn.ravel()
        mask = np.gcd(np.abs(mm), np.abs(nn)) == 1
        _OLD_PRIMITIVE_CACHE[n_max] = (mm[mask], nn[mask])
    return _OLD_PRIMITIVE_CACHE[n_max]


def _old_cone_candidates_oracle(cone, n_max):
    """Exact per-cone minimum over primitive vectors with max norm <= n_max."""
    mm, nn = _old_primitive_vectors(n_max)
    member = in_cone_mask(cone, mm, nn)
    if not member.any():
        return None
    v = cone.vertex
    actions = mm[member] * v[0] + nn[member] * v[1]
    amin = actions.min()
    ties = np.flatnonzero(actions == amin)
    cand = sorted((int(mm[member][i]), int(nn[member][i])) for i in ties)
    return float(amin), cand[0]


# ---------------------------------------------------------------------------
# Cones built directly

N_MAX = (1, 2, 7, 200)


def _unit(angle):
    return (math.cos(angle), math.sin(angle))


def _cone(start_angle, width, vertex):
    return NormalCone(vertex, _unit(start_angle), _unit(start_angle + width), width, True)


def _same(cone, n_max):
    assert reeb._cone_candidates_oracle(cone, n_max) == _old_cone_candidates_oracle(cone, n_max)


def test_table_is_sorted_and_complete():
    for n_max in N_MAX:
        mm, nn, angle = reeb._primitive_vectors(n_max)
        old_m, old_n = _old_primitive_vectors(n_max)
        assert sorted(zip(mm.tolist(), nn.tolist())) == sorted(zip(old_m.tolist(), old_n.tolist()))
        assert (np.diff(angle) > 0).all()
        assert np.array_equal(angle, np.arctan2(nn, mm))
        assert reeb._primitive_vectors(n_max)[0] is mm


@settings(max_examples=120, deadline=None)
@given(
    start=st.floats(-math.pi, math.pi),
    log_width=st.floats(-12, math.log10(math.pi - 1e-9)),
    vertex=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
    n_max=st.sampled_from(N_MAX),
)
def test_random_cones(start, log_width, vertex, n_max):
    _same(_cone(start, min(10**log_width, math.pi - 1e-9), vertex), n_max)


WIDTHS = (1e-12, 1e-9, 2e-9, 1e-7, 2e-7, 1e-4, 0.3, 1.0, math.pi / 2, 3.0, math.pi - 1e-6,
          math.pi - 1e-7, math.pi - 1e-9)


@pytest.mark.parametrize("n_max", N_MAX)
@pytest.mark.parametrize("width", WIDTHS)
def test_cones_straddling_pi(width, n_max):
    rng = random.Random(f"straddle {width} {n_max}")
    for _ in range(5):
        start = math.pi - width * rng.uniform(0, 1)
        vertex = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        _same(_cone(start, width, vertex), n_max)
        _same(_cone(start - 2 * math.pi, width, vertex), n_max)


AXES = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))


@pytest.mark.parametrize("n_max", N_MAX)
@pytest.mark.parametrize("axis", AXES, ids=["+x", "+y", "-x", "-y"])
def test_cones_starting_or_ending_on_an_axis(axis, n_max):
    a = math.atan2(axis[1], axis[0])
    for width in WIDTHS[::2]:
        for vertex in ((0.7, 1.3), (-1.1, 0.4), (0.2, -0.9)):
            _same(NormalCone(vertex, axis, _unit(a + width), width, True), n_max)
            _same(NormalCone(vertex, _unit(a - width), axis, width, True), n_max)


LATTICE_DIRECTIONS = ((3, 5), (-5, 3), (1, 1), (199, 200), (-7, -2), (200, -1))


def _direction(m, n):
    r = math.hypot(m, n)
    return (m / r, n / r)


@pytest.mark.parametrize("n_max", N_MAX)
@pytest.mark.parametrize("mn", LATTICE_DIRECTIONS, ids=str)
def test_boundaries_through_lattice_directions(mn, n_max):
    """Boundaries through (m, n)/|(m, n)| and nudged off it by less and more
    than CONE_TOL: there ``in_cone``'s tolerance decides membership."""
    a = math.atan2(mn[1], mn[0])
    vertex = (-mn[0] - 0.5, -mn[1] + 0.25)
    for nudge in (0.0, 5e-10, -5e-10, 2e-9, -2e-9, 1e-7, -1e-7):
        for width in (1e-6, 0.01, 1.0, 3.0):
            edge = a + nudge
            starts = NormalCone(vertex, _unit(edge), _unit(edge + width), width, True)
            ends = NormalCone(vertex, _unit(edge - width), _unit(edge), width, True)
            exact = NormalCone(vertex, _direction(*mn), _unit(a + width), width, True)
            for cone in (starts, ends, exact):
                _same(cone, n_max)


# ---------------------------------------------------------------------------
# t_min's oracle on profiles


def _outcome(p, n_oracle):
    try:
        return t_min(p, method="oracle", n_oracle=n_oracle)
    except OracleCutoffInsufficient as exc:
        return OracleCutoffInsufficient, str(exc)


def _same_t_min(p, n_oracle=200):
    new = _outcome(p, n_oracle)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reeb, "_cone_candidates_oracle", _old_cone_candidates_oracle)
        old = _outcome(p, n_oracle)
    assert new == old
    return new


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from((7, 200)))
def test_t_min_on_star_profiles(seed, n_oracle):
    _same_t_min(random_star_profile(random.Random(seed)), n_oracle)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from((7, 200)))
def test_t_min_on_monotone_profiles(seed, n_oracle):
    _same_t_min(random_monotone_profile(random.Random(seed)), n_oracle)


@pytest.mark.parametrize("eps", (1e-1, 10**-1.5, 1e-2, 1e-3))
@pytest.mark.parametrize("ray", (math.pi / 4, 0.4, 1.2))
def test_t_min_on_strangulated_balls(ray, eps):
    _same_t_min(strangulate(ball(2), eps, ray).profile)


@pytest.mark.parametrize("eps", (1e-2, 10**-2.5, 1e-3))
def test_t_min_on_strained_balls(eps):
    flat = flatten_near_intercept(ball(2, 16), 0.1)[0]
    _same_t_min(strain(flat, eps).profile)


def test_both_outcomes_are_covered():
    """The profiles above include certified results and cutoff failures."""
    certified = _same_t_min(strangulate(ball(2), 0.1).profile)
    assert certified[1].mn == (-4, 5)
    failed = _same_t_min(strangulate(ball(2), 1e-3).profile)
    assert failed[0] is OracleCutoffInsufficient
