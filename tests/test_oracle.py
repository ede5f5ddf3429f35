"""The brute-force T_min oracle against the exact reference (``exact.py``).

The oracle lists the small vectors of every corner cone itself and hands
``lattice.enumerate_in_cone`` one batch of the cones that can hold a
larger vector below its cut.  On every cone below, one cone's list, cut
at an action and clipped to a max norm, must give a least (action,
(m, n)) that keeps the least-orbit contract of ``exact.check_least``.
On every profile, a result of ``t_min``'s oracle must keep the contract
over every closed orbit, which is what its certificate claims, and a
refusal must name a best action that keeps it over the orbits within the
max norm, with the bound (n_oracle + 1) u below it.
"""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toricsys import (
    ball,
    ellipsoid,
    flatten_near_intercept,
    from_vertices,
    orbits_at_vertex,
    orbits_below,
    polydisk,
    reeb,
    smooth_corners,
    strain,
    strangulate,
    t_min,
)
from toricsys.errors import OracleCutoffInsufficient
from toricsys.experiments import random_monotone_profile, random_star_profile
from toricsys.geometry import dot
from toricsys.lattice import CUTOFF_SLACK, enumerate_in_cone

import exact


# ---------------------------------------------------------------------------
# Cones built directly


def _cone_candidates(cone, cutoff, n_max):
    """The oracle's view of one cone: the least action over the primitive
    vectors that ``enumerate_in_cone`` lists in it (max norm <= n_max,
    action <= cutoff), and the least (m, n) taking it, or None."""
    _, m, n, action = enumerate_in_cone(np.array([cone], dtype=float), cutoff, n_max)
    if not action.size:
        return None
    amin = action.min()
    ties = action == amin
    return float(amin), min(zip(m[ties].tolist(), n[ties].tolist()))


N_MAX = (1, 2, 7, 200)


def _unit(angle):
    return (math.cos(angle), math.sin(angle))


def _vertex(start_angle, width, t, r=1.0):
    """A vertex with positive action on both boundary rays of the cone from
    start_angle of the given width: at angle t * (pi - width) / 2 from its
    bisector (|t| < 1), at distance r.  Profiles produce only such cones."""
    x, y = _unit(start_angle + width / 2 + t * (math.pi - width) / 2)
    return (r * x, r * y)


def _cone(start_angle, width, t, r=1.0):
    vertex = _vertex(start_angle, width, t, r)
    return (_unit(start_angle), _unit(start_angle + width), vertex)


def _same(cone, n_max):
    """The oracle's per-cone step at four cutoffs, each checked against the
    exact cone: half the cone's least unit-direction action, one above
    every action in the max-norm box, the least action listed there, and
    half of that."""
    start, end, v = cone
    unit_min = min(dot(start, v), dot(end, v))
    assert unit_min > 0
    reference = exact.Cone(*cone)
    above = 2 * n_max * (abs(v[0]) + abs(v[1]))
    got = {cutoff: _cone_candidates(cone, cutoff, n_max) for cutoff in (unit_min / 2, above)}
    least = got[above]
    if least is not None:
        for cutoff in (least[0], least[0] - abs(least[0]) / 2):
            got[cutoff] = _cone_candidates(cone, cutoff, n_max)
    for cutoff, found in got.items():
        exact.check_least(reference, found, cutoff * CUTOFF_SLACK, n_max)


@settings(max_examples=120, deadline=None)
@given(
    start=st.floats(-math.pi, math.pi),
    log_width=st.floats(-12, math.log10(math.pi - 1e-9)),
    t=st.floats(-0.9, 0.9),
    log_r=st.floats(-2, 1),
    n_max=st.sampled_from(N_MAX),
)
def test_random_cones(start, log_width, t, log_r, n_max):
    _same(_cone(start, min(10**log_width, math.pi - 1e-9), t, 10**log_r), n_max)


WIDTHS = (1e-12, 1e-9, 2e-9, 1e-7, 2e-7, 1e-4, 0.3, 1.0, math.pi / 2, 3.0, math.pi - 1e-6,
          math.pi - 1e-7, math.pi - 1e-9)


@pytest.mark.parametrize("n_max", N_MAX)
@pytest.mark.parametrize("width", WIDTHS)
def test_cones_straddling_pi(width, n_max):
    rng = random.Random(f"straddle {width} {n_max}")
    for _ in range(5):
        start = math.pi - width * rng.uniform(0, 1)
        t, r = rng.uniform(-0.9, 0.9), rng.uniform(0.2, 2)
        _same(_cone(start, width, t, r), n_max)
        _same(_cone(start - 2 * math.pi, width, t, r), n_max)


AXES = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))


@pytest.mark.parametrize("n_max", N_MAX)
@pytest.mark.parametrize("axis", AXES, ids=["+x", "+y", "-x", "-y"])
def test_cones_starting_or_ending_on_an_axis(axis, n_max):
    a = math.atan2(axis[1], axis[0])
    for width in WIDTHS[::2]:
        for t, r in ((0.0, 1.5), (0.8, 0.4), (-0.8, 0.9)):
            starts = (axis, _unit(a + width), _vertex(a, width, t, r))
            ends = (_unit(a - width), axis, _vertex(a - width, width, t, r))
            _same(starts, n_max)
            _same(ends, n_max)


LATTICE_DIRECTIONS = ((3, 5), (-5, 3), (1, 1), (199, 200), (-7, -2), (200, -1))


def _direction(m, n):
    r = math.hypot(m, n)
    return (m / r, n / r)


@pytest.mark.parametrize("n_max", N_MAX)
@pytest.mark.parametrize("mn", LATTICE_DIRECTIONS, ids=str)
def test_boundaries_through_lattice_directions(mn, n_max):
    """Boundaries through (m, n)/|(m, n)| and nudged off it by less and more
    than CONE_TOL: there ``in_cone``'s tolerance decides membership.  The
    vertex leans away from that boundary, so the vectors along it are the
    cheapest in the cone."""
    a = math.atan2(mn[1], mn[0])
    for nudge in (0.0, 5e-10, -5e-10, 2e-9, -2e-9, 1e-7, -1e-7):
        for width in (1e-6, 0.01, 1.0, 3.0):
            edge = a + nudge
            starts = (_unit(edge), _unit(edge + width), _vertex(edge, width, 0.8))
            ends = (_unit(edge - width), _unit(edge), _vertex(edge - width, width, -0.8))
            exact = (_direction(*mn), _unit(a + width), _vertex(a, width, 0.5))
            for cone in (starts, ends, exact):
                _same(cone, n_max)


@pytest.mark.parametrize(
    "lo, hi, ties",
    (
        (0.0, math.pi / 2, [(1, 0), (0, 1)]),
        (-0.5, math.pi / 2 + 0.5, [(2, -1), (1, 0), (0, 1), (-1, 2)]),
        (-0.5, math.pi / 2, [(2, -1), (1, 0), (0, 1)]),
        (0.0, math.pi / 2 + 0.5, [(1, 0), (0, 1), (-1, 2)]),
    ),
)
@pytest.mark.parametrize("n_max", N_MAX)
def test_ties_go_to_the_least_vector(lo, hi, ties, n_max):
    """At vertex (1, 1) every vector with m + n = 1 in the cone has action
    exactly 1: (1, 0) and (0, 1), and (2, -1) and (-1, 2) in the wider
    cones.  The least (m, n) among those within the max norm wins."""
    cone = (_unit(lo), _unit(hi), (1.0, 1.0))
    _same(cone, n_max)
    want = min(t for t in ties if max(map(abs, t)) <= n_max)
    assert _cone_candidates(cone, 1.0, n_max) == (1.0, want)


# ---------------------------------------------------------------------------
# t_min's oracle on profiles


def _same_t_min(p, n_oracle=200):
    """``t_min``'s oracle on p, checked against the exact reference: its
    result, or its refusal as (OracleCutoffInsufficient, message).  The
    certificate is (n_oracle + 1) u, u the least action of a unit normal
    on a corner cone's side: a result keeps the least-orbit contract over
    every closed orbit and acts at most the certificate / (1 + 1e-9); a
    refusal names the least action listed within the max norm, which
    keeps the contract over the orbits within it, and a bound below it."""
    cones, corner = p.vertex_cones
    u = min((min(dot(s, v), dot(e, v)) for s, e, v in cones[corner].tolist()), default=math.inf)
    try:
        action, orbit = t_min(p, method="oracle", n_oracle=n_oracle)
    except OracleCutoffInsufficient as exc:
        best, n, bound = re.fullmatch(
            r"best action (\S+) not certified: cutoff-(\d+) bound is (\S+)", str(exc)
        ).groups()
        best, bound = float(best), float(bound)
        assert (int(n), bound) == (n_oracle, (n_oracle + 1) * u)
        assert bound < best * (1 + 1e-9)
        exact.check_best(p, best, n_oracle)
        return OracleCutoffInsufficient, str(exc)
    exact.check_orbit(p, action, orbit)
    assert orbit.location_kind != "vertex" or max(map(abs, orbit.mn)) <= n_oracle
    assert (n_oracle + 1) * u >= action * (1 + 1e-9)
    return action, orbit


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(N_MAX))
def test_t_min_on_star_profiles(seed, n_oracle):
    _same_t_min(random_star_profile(random.Random(seed)), n_oracle)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(N_MAX))
def test_t_min_on_monotone_profiles(seed, n_oracle):
    _same_t_min(random_monotone_profile(random.Random(seed)), n_oracle)


def test_seed_keeps_to_the_max_norm():
    """The oracle cuts each cone's list at the least action of a small
    vector that it lists itself.  At n_oracle = 1 that vector must have
    max norm 1: on this profile a vector of max norm 2 has action 0.2839,
    and a cut there would hide the least listed action, 0.3059, and leave
    the least axis or segment action, 1.786."""
    p = random_star_profile(random.Random(15))
    got = _same_t_min(p, 1)
    assert got == (
        OracleCutoffInsufficient,
        "best action 0.3059038073503017 not certified: cutoff-1 bound is 0.05285890010511741",
    )


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


def _band_acts_negative(p, i):
    """Does the CONE_TOL band of vertex i's exact cone hold a vector of max
    norm <= 3 and negative action, which a table of the vectors of a max
    norm returns as its least?"""
    cone = exact.Cone.at_vertex(p, i)
    return any(
        cone.near(m, n) and cone.action(m, n) < 0
        for m in range(-3, 4)
        for n in range(-3, 4)
        if (m, n) != (0, 0)
    )


def _listed_actions(p, cutoff=3.0):
    """The actions that ``enumerate_in_cone`` lists in p's corner cones."""
    cones, corner = p.vertex_cones
    return enumerate_in_cone(cones[corner], cutoff)[3]


@pytest.mark.parametrize(
    "vertices",
    (
        [(2.0, 0.0), (1.0, 0.5 + 1e-10), (0.0, 1.0)],
        [(2.0, 0.0), (1.0, 0.5 - 1e-10), (0.0, 1.0)],
        [(3.0, 0.0), (1.0, 2 / 3 + 1e-10), (0.0, 1.0)],
    ),
)
def test_far_opposite_vectors_of_a_needle_cone_are_not_listed(vertices):
    """A vertex a hair off the line through its neighbours has a cone
    narrower than 2 * CONE_TOL, whose CONE_TOL band also holds the
    directions opposite it, such as (-1, -2) on the first profile, of
    negative action.  A full table of the vectors up to a max norm once
    returned that action.  Membership asks for a positive action, so the
    enumerator lists none of them, and the oracle agrees with fast
    ``t_min``: the (0, 1) axis orbit of action 1."""
    p = from_vertices(vertices)
    assert _band_acts_negative(p, 1)
    assert (_listed_actions(p) > 0).all()
    assert _same_t_min(p) == t_min(p)
    assert t_min(p)[1].mn == (0, 1)


def test_needle_cone_does_not_cut_the_other_cones():
    """A vertex 1e-10 off the diagonal side of a strangulated ball has a
    needle cone around (1, 1) whose CONE_TOL band also holds (-1, -1), of
    action -2, which an old oracle returned.  An action is a period, so
    membership asks for a positive one: neither listing holds (-1, -1),
    and the oracle agrees with fast t_min: (-4, 5) at 0.0999....  The cut
    that the oracle takes from small vectors comes from positive actions
    only: a cut at -2 would list nothing and leave the (0, 1) axis orbit
    of action 2."""
    vertices = list(strangulate(ball(2), 0.1).profile.vertices)
    p = from_vertices(vertices[:1] + [(1.5 + 1e-10, 0.5 + 1e-10)] + vertices[1:])
    assert _band_acts_negative(p, 1)
    assert (_listed_actions(p) > 0).all()
    action, witness = _same_t_min(p)
    assert (action, witness) == t_min(p)
    assert (action, witness.mn, witness.location_index) == (0.09999999999910081, (-4, 5), 2)


def test_needle_cone_at_the_diagonal_lists_no_nonpositive_action():
    """The vertex (0.5, 0.5 + 1e-10) between the two unit intercepts turns
    the normal by 2e-10, so the CONE_TOL band holds (-1, -1) opposite its
    cone, of action -1.0000000001, which an old oracle returned as T_min.
    Membership asks for a positive action, so neither the enumerator, the
    oracle nor the orbit list holds an action <= 0: both give the axis
    orbits of action 1, as fast t_min does."""
    p = from_vertices([(1, 0), (0.5, 0.5000000001), (0, 1)])
    assert _band_acts_negative(p, 1)
    assert (_listed_actions(p) > 0).all()
    assert _same_t_min(p) == t_min(p)
    assert t_min(p)[0] == 1
    assert [o.mn for o in orbits_below(p, 1)] == [(0, 1), (1, 0)]
    assert [o.mn for o in orbits_at_vertex(p, 1, 2)] == [(1, 1)]


# ---------------------------------------------------------------------------
# Only the cones that can hold a vector beyond the small-vector listing

# The oracle lists the vectors of max norm <= r = min(4, n_oracle) itself:
# r = n_oracle below 4, and r = 4 from there on.
N_ORACLE = (1, 2, 3, 4, 5, 7, 200)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.booleans(), st.sampled_from(N_ORACLE))
def test_pruned_oracle_on_random_profiles(seed, star, n_oracle):
    make = random_star_profile if star else random_monotone_profile
    _same_t_min(make(random.Random(seed)), n_oracle)


DOMAINS = (
    ball(2),
    ball(2, 16),
    ellipsoid(1, 2.6),
    ellipsoid(1.3, 1.6, 4),
    ellipsoid(1, 2, 16),
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(DOMAINS),
    st.floats(1, 1.5),
    st.floats(0.2, 1.35),
    st.sampled_from(N_ORACLE),
)
def test_pruned_oracle_on_strangulated_domains(domain, log_eps, ray, n_oracle):
    _same_t_min(strangulate(domain, 10**-log_eps, ray).profile, n_oracle)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(DOMAINS),
    st.sampled_from((0.2, 0.4)),
    st.floats(1, 1.5),
    st.sampled_from(N_ORACLE),
)
def test_pruned_oracle_on_strained_domains(domain, flatten, log_eps, n_oracle):
    flat = flatten_near_intercept(domain, flatten)[0]
    _same_t_min(strain(flat, 10**-log_eps).profile, n_oracle)


@pytest.mark.parametrize("n_oracle", (3, 7, 200))
@pytest.mark.parametrize(
    "seed, vertex, action",
    [(50, 5, 0.3122772078282362), (178, 2, 0.5683180213370486)],
)
def test_pruned_oracle_keeps_a_cone_where_a_max_norm_3_vector_wins(seed, vertex, action, n_oracle):
    """On these star profiles (-3, 1), of norm sqrt(10) < 4, wins at 1.20
    and 1.06 times the bound 3u of its cone.  When the oracle listed only
    max norm <= 2, that cone was enumerated, and a prune by 4u would have
    dropped it.  (-3, 1) is now listed (max norm <= 3 at n_oracle = 3,
    <= 4 above) rather than pruned, so this checks the listing."""
    got = _same_t_min(random_star_profile(random.Random(seed)), n_oracle)
    assert (got[0], got[1].mn, got[1].location_index) == (action, (-3, 1), vertex)


# (-5, 2) wins at the reflex vertex (2, 5.5) of this profile: its cone,
# from the normal of (2, 5.5) -> (0, 1.02) at 155.9 degrees to that of
# (5.7, 14.8) -> (2, 5.5), (-93, 37) at 158.3 degrees, holds no vector of
# max norm <= 4.  See the test below for how it was built.
MAX_NORM_5_WINNER = [(1.02, 0.0), (5.7, 14.8), (2.0, 5.5), (0.0, 1.02)]


@pytest.mark.parametrize("n_oracle", (5, 7, 200))
def test_pruned_oracle_keeps_a_cone_where_a_max_norm_5_vector_wins(n_oracle):
    """(-5, 2), of max norm 5, wins at action 1.0 in a cone with u =
    0.17484: 5u = 0.874 <= cut 1.02 < 6u = 1.049, so the cone is
    enumerated, and a prune by (r + 2)u = 6u would drop it and return the
    axis action 1.02.

    Random star and monotone profiles (seeds 0-2,999 each) give no such
    case: an (r + 2)u prune changes none of their results.  So it is
    built by hand.  A winning (-5, 2) cannot sit at a convex vertex: its
    action rises to 2b at (0, b), above T_min <= b, so past a local
    maximum the boundary would reach a cheaper local minimum.  So the
    vertex V is reflex, and V is placed where (-2, 1) acts above (-5, 2),
    2.5 V1 < V2 < 3 V1: V = (2, 5.5), action 1.  V joins (0, 1.02)
    directly, and (5.7, 14.8) before it lies along (0.37, 0.93), so that
    the incoming normal (-93, 37) stays within 0.11 degree of (-5, 2)
    (unit action 0.1748 > cut / 6).  The small vectors, all at that
    convex corner, act at 3.4 or more, so the cut is the axis action."""
    p = from_vertices(MAX_NORM_5_WINNER)
    assert [t < 0 for t in p.normal_turns] == [False, True]
    action, witness = _same_t_min(p, n_oracle)
    assert (action, witness) == t_min(p)
    assert (action, witness.mn, witness.location_index) == (1.0, (-5, 2), 2)


@pytest.mark.parametrize("n_oracle", N_ORACLE)
def test_pruned_oracle_on_the_needle(n_oracle):
    """The needle cone's CONE_TOL band holds (-1, -1), opposite it, of
    negative action, which membership rejects.  The cone's least
    unit-normal action, about 0.71, is more than half the cut 1, so no
    vector of max norm >= 2 in it acts below the cut: it is pruned, and
    the axis orbits win."""
    p = from_vertices([(1, 0), (0.5, 0.5 + 1e-10), (0, 1)])
    assert (_listed_actions(p) > 0).all()
    assert _same_t_min(p, n_oracle)[0] == 1


def _enumerated(p, monkeypatch):
    """The sizes of the batches that ``t_min``'s oracle hands to
    ``enumerate_in_cone``."""
    batches = []

    def counted(cones, *args):
        batches.append(len(cones))
        return enumerate_in_cone(cones, *args)

    monkeypatch.setattr(reeb, "enumerate_in_cone", counted)
    _same_t_min(p, 200)
    return batches


@pytest.mark.parametrize(
    "p, batches",
    [
        (ball(2), []),  # no corner at all
        (polydisk(1, 2), []),  # the cut is the (1, 0) axis action 1 < 5 * 1
        (smooth_corners(polydisk(1, 2), 0.2), []),  # 17 corners, all pruned
        (strangulate(ball(2), 0.1).profile, [3]),  # the notch: u is about eps
        (strain(flatten_near_intercept(ball(2, 16), 0.4)[0], 0.05).profile, [1]),
        # No corner of these has 5u below the cut; a listing of max norm 2
        # left 2 and 1 cones to enumerate.
        (random_star_profile(random.Random(0)), []),
        (random_star_profile(random.Random(1)), []),
    ],
    ids=[
        "ball", "polydisk", "smoothed_polydisk", "strangulated_ball", "strained_ball", "star_0",
        "star_1",
    ],
)
def test_only_cones_that_can_beat_the_listing_are_enumerated(p, batches, monkeypatch):
    assert _enumerated(p, monkeypatch) == batches


def test_only_segments_below_the_axis_actions_are_keyed(monkeypatch):
    """A segment acts at least its support bound, so one bounded at or
    above min(a, b) can neither beat nor tie the axis orbit of that action,
    which ranks before it: the oracle reads the decimal normal of no such
    segment.  Here 65 of the 66 segments are rounded corner arcs, all
    farther from the origin than a = 1.3."""
    p = smooth_corners(polydisk(1.3, 2.1), 0.2, 64)
    keyed = []
    segment_key = reeb._segment_key

    def spy(p, i):
        keyed.append(i)
        return segment_key(p, i)

    monkeypatch.setattr(reeb, "_segment_key", spy)
    action, orbit = _same_t_min(p)
    assert keyed == [0] and p.n_segments == 66
    assert (action, orbit.location_kind) == (1.3, "axis")
    # The least key over every segment is the axis orbit's too.
    assert min(reeb._base_keys(p)) == (1.3, 0, 1, 0, 0)
