"""The lattice-cone kernel against the exact reference (``exact.py``).

On every cone below, the descent's least (action, (m, n)) and the
strangulation witness keep the least-orbit contract, and the
enumerator's lists the listing contract, both stated in ``exact``: the
float answer may differ from the exact one only by the CONE_TOL band
and the rounding of a float action.
"""

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toricsys import (
    ball,
    ellipsoid,
    fc_domain,
    flatten_near_intercept,
    polydisk,
    smooth_corners,
    strain,
    strangulate,
    t_min,
)
from toricsys.errors import DegenerateDenominator, ParamOutOfRange, RadiusTooLarge
from toricsys.experiments import random_monotone_profile, random_star_profile
from toricsys.geometry import dot
from toricsys import lattice
from toricsys.lattice import CUTOFF_SLACK, enumerate_in_cone, min_in_cone
from toricsys.cli import main
from toricsys.reeb import _base_keys, orbits_below

import exact


# ---------------------------------------------------------------------------
# Cones


def _batch(cones):
    """A list of cone rows as the (k, 3, 2) array ``enumerate_in_cone``
    takes."""
    return np.array(cones, dtype=float).reshape(-1, 3, 2)


def _corners(p):
    """The cones ``t_min`` searches, in its order: each corner vertex's
    index and its row (start, end, vertex) of pairs."""
    cones, corner = p.vertex_cones
    return [(i, cones[i - 1].tolist()) for i in (corner.nonzero()[0] + 1).tolist()]


def _descend(p):
    """The descent over the profile's corner cones as ``t_min`` runs it,
    the incumbent falling with each cone's winner: per corner, its index,
    the incumbent and the result, each checked against the exact cone."""
    best = min(_base_keys(p))[0]
    out = []
    for i, cone in _corners(p):
        got, _ = min_in_cone(cone, best)
        exact.check_least(exact.Cone.at_vertex(p, i), got, best)
        out.append((i, best, got))
        if got is not None:
            best = min(best, got[0])
    return out


def _strained(eps):
    p, _ = flatten_near_intercept(ball(2, 16), 0.1)
    return strain(p, eps).profile


def _rounded(p, r=0.02):
    """p with its convex corners rounded at the largest radius <= r that fits."""
    while True:
        try:
            return smooth_corners(p, r)
        except RadiusTooLarge:
            r /= 2


STAR = [random_star_profile(random.Random(seed)) for seed in range(60)]
MONOTONE = [random_monotone_profile(random.Random(seed)) for seed in range(40)]
ANALYTIC = [fc_domain(1, 0.5, 8), fc_domain(2, 0.7, 16), fc_domain(1, 0.9, 32)]
ROUNDED = [
    smooth_corners(polydisk(1, 2), 0.2),
    smooth_corners(polydisk(1.5, 0.7), 0.05, 32),
] + [_rounded(random_monotone_profile(random.Random(seed))) for seed in range(6)]
APEX_EPS = (1e-1, 10**-1.5, 1e-2, 10**-2.5, 1e-3, 10**-3.5, 1e-4)


@pytest.mark.parametrize(
    "p", STAR + MONOTONE + ANALYTIC + ROUNDED,
    ids=[f"star{i}" for i in range(len(STAR))]
    + [f"monotone{i}" for i in range(len(MONOTONE))]
    + [f"fc{i}" for i in range(len(ANALYTIC))]
    + [f"rounded{i}" for i in range(len(ROUNDED))],
)
def test_descent_matches_unit_steps(p):
    _descend(p)


@pytest.mark.parametrize("eps", APEX_EPS)
def test_descent_matches_on_diagonal_apex_cones(eps):
    # The apex cone's action is flat along (-k, k + 1) up to rounding, so
    # the winner depends on every skipped vector's float action.
    _descend(strangulate(ball(2), eps).profile)


def test_long_in_cone_runs_are_taken_in_bounded_passes(monkeypatch):
    # About 1,000 tied vectors in passes of at most 16, with the results
    # of unbounded passes.
    p = strangulate(ball(2), 1e-3).profile
    want = _descend(p)
    monkeypatch.setattr(lattice, "_MAX_BULK_RUN", 16)
    assert _descend(p) == want


def _uncertified(cone, incumbent):
    """``min_in_cone`` with the rounding certificate off: every in-cone
    run is taken by the numpy pass or stepped, as before the closed form."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice, "_ROUNDING_UNIT", math.inf)
        return min_in_cone(cone, incumbent)


def _both_ways(p):
    """Each corner cone's result and steps with and without the
    certificate, at the incumbents ``t_min`` hands it (falling with each
    cone's winner) and at inf."""
    best = min(_base_keys(p))[0]
    got, want = [], []
    for _, cone in _corners(p):
        for incumbent in (best, math.inf):
            got.append(min_in_cone(cone, incumbent))
            want.append(_uncertified(cone, incumbent))
        if got[-2][0] is not None:
            best = min(best, got[-2][0][0])
    return got, want


def test_certified_runs_keep_every_result():
    """The closed form of a certified in-cone run returns, bit for bit,
    what the numpy pass or the steps return, and saves steps."""
    profiles = STAR + MONOTONE + ANALYTIC + ROUNDED
    profiles += [
        strangulate(ball(2), eps, ray).profile
        for ray in (math.pi / 4, 0.3, 1.2)
        for eps in APEX_EPS
    ]
    profiles += [_strained(eps) for eps in (1e-2, 1e-3, 1e-4)]
    saved = 0
    for p in profiles:
        got, want = _both_ways(p)
        assert [g[0] for g in got] == [w[0] for w in want]
        saved += sum(w[1] - g[1] for g, w in zip(got, want))
    assert saved > 100


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 10**9),
    st.sampled_from(["near-rational", "diagonal apex", "off-diagonal apex", "random"]),
    st.booleans(),
)
def test_certified_runs_keep_the_result_on_random_cones(seed, kind, finite):
    rng = random.Random(seed)
    if kind == "near-rational":
        cone = _near_rational_cone(rng)
    elif kind == "random":
        cone = _random_cone(rng)
    else:
        cone = _apex_cone(rng, kind == "diagonal apex")
    incumbent = rng.uniform(0.1, 10) * math.hypot(*cone[2]) if finite else math.inf
    assert min_in_cone(cone, incumbent)[0] == _uncertified(cone, incumbent)[0]


def _passes(monkeypatch):
    """The sizes of the numpy passes over a run made from now on (the
    descent's only ``np.arange`` calls)."""
    sizes = []
    arange = np.arange

    def spy(*args, **kwargs):
        out = arange(*args, **kwargs)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(np, "arange", spy)
    return sizes


def test_diagonal_apex_near_tie_is_not_certified(monkeypatch):
    """At the diagonal apex of a strangulated ball every (-k, k + 1) acts
    about eps: f(-1, 1) = v2 - v1 is below the rounding of the actions,
    which do not fall monotonically along the run.  The certificate
    refuses that run, and the numpy pass takes it."""
    p = strangulate(ball(2), 1e-3).profile
    [_, (apex, cone), _] = _corners(p)
    assert p.vertex(apex)[0] == 1e-3
    runs = []
    run_end = lattice._run_end

    def record(*args):
        runs.append((args, run_end(*args)))
        return runs[-1][1]

    monkeypatch.setattr(lattice, "_run_end", record)
    sizes = _passes(monkeypatch)
    min_in_cone(cone, math.inf)
    [((_, _, _, _, x0, x1, f0, f1, _, outside, _, _), K)] = [
        r for r in runs if r[0][6:8] == (-1, 1)
    ]
    assert not outside and K > 400
    (_, _, (v0, v1)) = cone
    fx = [(x0 + k * f0) * v0 + (x1 + k * f1) * v1 for k in range(K + 1)]
    steps = [b - a for a, b in zip(fx, fx[1:])]
    assert min(steps) < 0 < max(steps)
    assert sizes == [K + 1]


@pytest.mark.parametrize("eps", (1e-2, 1e-3, 1e-4))
@pytest.mark.parametrize("ray", (math.pi / 4, 0.3, 1.2), ids=("diagonal", "ray0.3", "ray1.2"))
def test_only_the_diagonal_apex_makes_a_pass(ray, eps, monkeypatch):
    """No layer may grow like 1/eps: at the entry and exit cones of a
    strangulated ball, and at every cone off the diagonal, each in-cone
    run's actions provably fall and are taken in closed form, with no
    numpy pass, whatever the incumbent.  Only the diagonal apex's near-tie
    still makes one."""
    p = strangulate(ball(2), eps, ray).profile
    corners = _corners(p)
    best = min(_base_keys(p))[0]
    sizes = _passes(monkeypatch)
    passes = {}
    for i, cone in corners:
        for incumbent in (math.inf, best):
            got, _ = min_in_cone(cone, incumbent)
        passes[i] = len(sizes)
        sizes.clear()
        if got is not None:
            best = min(best, got[0])
    [(entry, _), (apex, _), (last, _)] = corners
    if ray == math.pi / 4:
        assert passes == {entry: 0, apex: 2, last: 0}
    else:
        assert passes == {entry: 0, apex: 0, last: 0}


@pytest.mark.parametrize(
    "build, eps, ray",
    [
        (lambda: ball(1.3), 1e-3, math.pi / 4),
        (lambda: polydisk(1, 2), 1e-2, math.pi / 4),
        (lambda: ellipsoid(1, 3, 1), 10**-2.5, math.pi / 4),
        (lambda: ball(2), 1e-4, 0.3),
        (lambda: ball(2), 1e-4, 1.2),
        (lambda: fc_domain(1, 0.5, 8), 1e-2, 0.7),
    ],
)
def test_descent_matches_on_other_apex_cones(build, eps, ray):
    _descend(strangulate(build(), eps, ray).profile)


@pytest.mark.parametrize("eps", (1e-2, 1e-3, 1e-4))
def test_descent_and_enumeration_match_on_strain_tips(eps):
    out = _strained(eps)
    _descend(out)
    [(tip, cone), *_] = _corners(out)
    assert tip == 1
    cutoff = 2 * t_min(flatten_near_intercept(ball(2, 16), 0.1)[0])[0]
    _, m, n, action = enumerate_in_cone(_batch([cone]), cutoff)
    got = list(zip(m.tolist(), n.tolist(), action.tolist()))
    exact.check_listing(exact.Cone.at_vertex(out, 1), got, cutoff * CUTOFF_SLACK)
    assert len(got) == round(2 / eps) + 1


def test_run_end_does_not_depend_on_its_guess(monkeypatch):
    """The guess only saves probes: ``_run_end`` finds the same run end by
    galloping and bisection from any other guess, on every run that the
    descent hands it over the corner cones of strangulated and strained
    balls and of random star profiles, with and without an incumbent."""
    profiles = [
        strangulate(ball(2), eps, ray).profile
        for ray in (0.3, math.pi / 4, 1.2)
        for eps in APEX_EPS
    ]
    profiles += [_strained(eps) for eps in (1e-2, 1e-3, 1e-4)]
    profiles += [random_star_profile(random.Random(seed)) for seed in range(200)]
    runs = []
    run_end = lattice._run_end

    def record(*args):
        runs.append(args)
        return run_end(*args)

    monkeypatch.setattr(lattice, "_run_end", record)
    for p in profiles:
        for _, cone in _corners(p):
            for incumbent in (math.inf, min(_base_keys(p))[0]):
                min_in_cone(cone, incumbent)
    assert len(runs) > 1000
    for args in runs:
        *head, limit, outside, right, in_f = args
        want = run_end(*args)
        for other in (
            1.0, 1.5, 2.0**53, limit + 1, 2 * limit + 3, max(1, limit / 2), max(1, limit - 1)
        ):
            assert run_end(*head, other, outside, right, in_f) == want, (args, other)


def _near_rational_cone(rng):
    """A cone with one boundary ray within 1e-6..1e-2 rad of a small
    integer direction (long continued-fraction runs), and a vertex whose
    action is positive on the cone but nearly zero at a boundary or not."""
    p, q = rng.choice([(m, n) for m in range(-3, 4) for n in range(-3, 4) if (m, n) != (0, 0)])
    width = 10 ** rng.uniform(-5, math.log10(3))
    near = math.atan2(q, p) + rng.choice([-1, 1]) * 10 ** rng.uniform(-6, -2)
    a0 = near if rng.random() < 0.5 else near - width
    lo, hi = a0 + width - math.pi / 2, a0 + math.pi / 2
    margin = 10 ** rng.uniform(-6, -1) * (hi - lo)
    b = rng.choice([lo + margin, hi - margin, rng.uniform(lo, hi)])
    r = 10 ** rng.uniform(-4, 1)
    return (
        (math.cos(a0), math.sin(a0)),
        (math.cos(a0 + width), math.sin(a0 + width)),
        (r * math.cos(b), r * math.sin(b)),
    )


@pytest.mark.parametrize("seed", range(6))
def test_descent_matches_on_near_rational_cones(seed):
    rng = random.Random(seed)
    for _ in range(25):
        cone = _near_rational_cone(rng)
        incumbent = rng.choice([math.inf, rng.uniform(0.1, 10) * math.hypot(*cone[2])])
        got, _ = min_in_cone(cone, incumbent)
        exact.check_least(exact.Cone(*cone), got, incumbent)


def _apex_cone(rng, diagonal):
    """The apex cone of a strangulated ball, on the diagonal ray or off it."""
    eps = 10 ** rng.uniform(-3.5, -1)
    ray = math.pi / 4 if diagonal else rng.uniform(0.2, math.pi / 2 - 0.2)
    u = (math.cos(ray), math.sin(ray))
    apex = (eps * (u[0] / max(u)), eps * (u[1] / max(u)))
    p = strangulate(ball(rng.uniform(1, 3)), eps, ray).profile
    return tuple(map(tuple, p.vertex_cones[0][p.vertices.index(apex) - 1].tolist()))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 10**9),
    st.sampled_from(["near-rational", "diagonal apex", "off-diagonal apex", "random"]),
    st.booleans(),
)
def test_winner_is_the_least_reference_candidate(seed, kind, finite):
    rng = random.Random(seed)
    if kind == "near-rational":
        cone = _near_rational_cone(rng)
    elif kind == "random":
        cone = _random_cone(rng)
    else:
        cone = _apex_cone(rng, kind == "diagonal apex")
    incumbent = rng.uniform(0.1, 10) * math.hypot(*cone[2]) if finite else math.inf
    got, _ = min_in_cone(cone, incumbent)
    exact.check_least(exact.Cone(*cone), got, incumbent)


@pytest.mark.parametrize("seed", range(40))
def test_enumeration_matches_bounding_box(seed):
    rng = random.Random(seed)
    p = (random_star_profile if seed % 2 else random_monotone_profile)(rng)
    for i, cone in _corners(p):
        cutoff = rng.uniform(0.5, 4) * min(p.a_intercept, p.b_intercept)
        for n_max in (None, 1, 7, 200):
            _, m, n, action = enumerate_in_cone(_batch([cone]), cutoff, n_max)
            got = list(zip(m.tolist(), n.tolist(), action.tolist()))
            exact.check_listing(exact.Cone.at_vertex(p, i), got, cutoff * CUTOFF_SLACK, n_max)


def test_enumeration_rejects_nonpositive_boundary_action():
    [(_, cone)] = _corners(polydisk(1, 2))
    flat = (cone[0], cone[1], (0.0, 0.0))
    for batch in ([flat], [cone, flat]):
        with pytest.raises(DegenerateDenominator):
            enumerate_in_cone(_batch(batch), 1.0)


def _per_cone(cones, cutoff, n_max):
    """Each cone's list from its own batch of one, as sorted tuples."""
    out = []
    for cone in cones:
        _, m, n, action = enumerate_in_cone(_batch([cone]), cutoff, n_max)
        out.append(sorted(zip(m.tolist(), n.tolist(), action.tolist())))
    return out


def _random_cone(rng):
    """A vertex cone of a random star or monotone profile, or a cone of
    random width (down to needles) whose vertex has positive action on
    both boundary rays, at any angle or as a needle about one of the four
    axis directions, whose CONE_TOL band holds the opposite axis vector."""
    if rng.random() < 0.5:
        p = (random_star_profile if rng.random() < 0.5 else random_monotone_profile)(rng)
        cones = _corners(p)
        if cones:
            return rng.choice(cones)[1]
    if rng.random() < 0.25:
        width = 10 ** rng.uniform(-12, -8)
        a = rng.randrange(4) * math.pi / 2 - rng.random() * width
    else:
        a = rng.uniform(-math.pi, math.pi)
        width = min(10 ** rng.uniform(-10, 0.5), math.pi - 1e-6)
    b = a + width / 2 + rng.uniform(-0.9, 0.9) * (math.pi - width) / 2
    r = 10 ** rng.uniform(-1, 0.5)
    return (
        (math.cos(a), math.sin(a)),
        (math.cos(a + width), math.sin(a + width)),
        (r * math.cos(b), r * math.sin(b)),
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**9),
    st.integers(0, 8),
    st.floats(0.05, 6),
    st.sampled_from((None, 1, 2, 7, 200)),
)
def test_batch_lists_what_each_cone_lists(seed, k, scale, n_max):
    """One batch over k cones (k = 0 included) lists, cone by cone, what
    each cone's batch of one lists, with the cone rows contiguous and in
    order."""
    rng = random.Random(seed)
    cones = [_random_cone(rng) for _ in range(k)]
    unit = min((min(dot(s, v), dot(e, v)) for s, e, v in cones), default=1)
    cutoff = 4 * scale * unit
    cone, m, n, action = enumerate_in_cone(_batch(cones), cutoff, n_max)
    assert cone.dtype.kind == m.dtype.kind == n.dtype.kind == "i"
    assert action.dtype == float
    assert len(cone) == len(m) == len(n) == len(action)
    assert (action > 0).all()
    assert (np.diff(cone) >= 0).all()
    got = [
        sorted(zip(m[cone == j].tolist(), n[cone == j].tolist(), action[cone == j].tolist()))
        for j in range(k)
    ]
    assert got == _per_cone(cones, cutoff, n_max)


def _rows(cone, m, n, action):
    return set(zip(cone.tolist(), m.tolist(), n.tolist(), action.tolist()))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**9),
    st.sampled_from(("star", "monotone", "strangulated")),
    st.floats(1, 3),
    st.floats(0.2, 1.35),
)
def test_small_vectors_are_what_the_enumerator_lists(seed, kind, log_eps, ray):
    """The T_min oracle prunes a cone on the promise that its small-vector
    listing holds every vector of max norm <= r.  For every r,
    ``small_in_cones`` lists, row for row, what the enumerator clipped to
    max norm r lists at the largest listed action (at a cutoff above every
    action when nothing is listed), and both list only positive actions."""
    if kind == "strangulated":
        p = strangulate(ball(2), 10**-log_eps, ray).profile
    else:
        make = random_star_profile if kind == "star" else random_monotone_profile
        p = make(random.Random(seed))
    cones, corner = p.vertex_cones
    cones = cones[corner]
    for r in range(1, lattice.SMALL_MAX_NORM + 1):
        small = lattice.small_in_cones(cones, r)
        assert (small[3] > 0).all()
        if small[3].size:
            cutoff = float(small[3].max())
        else:
            cutoff = r * float(np.abs(cones[:, 2]).sum(axis=1).max(initial=1))
        listed = enumerate_in_cone(cones, cutoff, r)
        assert (listed[3] > 0).all()
        assert _rows(*small) == _rows(*listed)


def test_empty_batch_lists_nothing():
    # A profile without corners has an empty corner batch.
    cones, corner = ellipsoid(1, 2, 4).vertex_cones
    assert cones[corner].shape == (0, 3, 2)
    for n_max in (None, 3):
        cone, m, n, action = enumerate_in_cone(cones[corner], 1.0, n_max)
        assert [len(c) for c in (cone, m, n, action)] == [0, 0, 0, 0]


def test_points_beyond_memory_are_out_of_range():
    """A cone a hair wide along the m axis: about 100 lines of n, each
    with about 1e15 points of m below the cutoff.  The lines are listed;
    the points cannot be."""
    d = 1e-13
    needle = ((1.0, 0.0), (math.cos(d), math.sin(d)), (1.0, 0.5))
    with pytest.raises(ParamOutOfRange, match=r"^action cutoff 1000000000000000.0 asks for "
                       r"[0-9.e+]+ lattice points, too many to list$"):
        enumerate_in_cone(_batch([needle]), 1e15)


def _no_memory(*args):
    raise MemoryError


def test_a_failed_allocation_in_the_listing_pass_is_out_of_range(monkeypatch, capsys):
    """Any array of the listing pass that cannot be made is a typed error,
    for a caller and for the CLI.  The failure is simulated: the membership
    test, which runs on the point arrays, raises MemoryError."""
    monkeypatch.setattr(lattice, "_in_cone", _no_memory)
    with pytest.raises(ParamOutOfRange, match=r"^action cutoff 5.0 asks for [0-9.e+]+ lattice "
                       r"points, too many to list$"):
        orbits_below(polydisk(1, 1), 5.0)
    assert main(["orbits", "polydisk:1,1", "--cutoff", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "lattice points, too many to list" in captured.err


def test_each_apex_cone_takes_few_steps():
    # The unit-step descent took about 10,000 steps on each of these.
    p = strangulate(ball(2), 1e-4).profile
    best = min(_base_keys(p))[0]
    cones = _corners(p)
    assert len(cones) == 3
    for _, cone in cones:
        got, steps = min_in_cone(cone, best)
        assert steps <= 100
        if got is not None:
            best = min(best, got[0])
    action, witness = t_min(p)
    assert (action, witness.mn) == (9.999999999987796e-05, (-4950, 4951))
    exact.check_orbit(p, action, witness)


def test_descent_makes_few_python_calls():
    """The descent is one loop: the membership, arc and action tests are
    written out, so Python-level calls (counted by ``sys.setprofile``:
    ``min_in_cone`` itself, a run's ``_run_end`` and numpy's Python-level
    helpers in a bulk pass) number at most two per step over the corner
    cones of strangulated balls.  A descent that calls a helper per
    membership or arc test makes about ten per step on these cones."""
    rows = []
    for ray in (math.pi / 4, 0.3, 1.2):
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            cones, corner = strangulate(ball(2), eps, ray).profile.vertex_cones
            rows += cones[corner].tolist()
    calls = []

    def count(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    steps = 0
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        for row in rows:
            steps += min_in_cone(row, math.inf)[1]
    finally:
        sys.setprofile(previous)
    assert calls.count("min_in_cone") == len(rows)
    assert len(calls) <= 2 * steps


@pytest.mark.parametrize("seed", range(30))
def test_witness_matches_loop(seed):
    rng = random.Random(seed)
    eps = 10 ** rng.uniform(-4, -1)
    ray = rng.uniform(0.2, math.pi / 2 - 0.2)
    if seed % 3 == 0:
        ray = math.pi / 4
    u = (math.cos(ray), math.sin(ray))
    out = strangulate(ball(rng.uniform(1, 3)), eps, ray)
    [witness] = out.new_orbit_witnesses
    umax = max(u)
    apex = (eps * (u[0] / umax), eps * (u[1] / umax))
    assert witness.location_kind == "vertex"
    assert witness.base_point == out.profile.vertices[witness.location_index] == apex
    i = witness.location_index
    assert out.profile.vertex_cones[1][i - 1]
    cone = exact.Cone.at_vertex(out.profile, i)
    exact.check_least(cone, (witness.action, witness.mn), math.inf)
    if ray == math.pi / 4:
        # (1, 1) lies in the apex cone, with action 2 * eps.
        assert witness.action <= 2 * eps * (1 + 1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_mask_is_the_scalar_predicate(seed):
    """The array membership test admits every direction of the exact cone
    and nothing outside its CONE_TOL band."""
    rng = np.random.default_rng(seed)
    for _, cone in _corners(random_star_profile(random.Random(seed))):
        # Random vectors, and vectors within a unit of each boundary ray.
        t = rng.uniform(1, 10**6, 500)
        m = [rng.integers(-10**6, 10**6, 1000)]
        n = [rng.integers(-10**6, 10**6, 1000)]
        for r in cone[:2]:
            m.append(np.rint(t * r[0]).astype(np.int64) + rng.integers(-1, 2, t.size))
            n.append(np.rint(t * r[1]).astype(np.int64) + rng.integers(-1, 2, t.size))
        m, n = np.concatenate(m), np.concatenate(n)
        action = m * cone[2][0] + n * cone[2][1]
        mask = lattice._in_cone(*cone[0], *cone[1], m, n, action).tolist()
        row = exact.Cone(*cone)
        for a, b, admitted in zip(m.tolist(), n.tolist(), mask):
            assert row.near(a, b) if admitted else not row.contains(a, b), (a, b)
