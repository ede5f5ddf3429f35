"""The lattice-cone kernel against the searches it replaced.

The functions prefixed ``_old`` are verbatim copies (renamed only) of the
unit-step Stern-Brocot descent, the bounding-box enumerator and the
33 x 33 strangulation-witness loop that ``toricsys.lattice`` replaces.
On every cone below the kernel must give identical candidate lists (same
actions, vectors and order), the same orbit sets and the same witnesses.
"""

import math
import random

import numpy as np
import pytest

from toricsys import (
    ball,
    ellipsoid,
    fc_domain,
    flatten_near_intercept,
    normal_cone,
    polydisk,
    smooth_corners,
    strain,
    strangulate,
    t_min,
)
from toricsys.errors import DegenerateDenominator, RadiusTooLarge
from toricsys.experiments import random_monotone_profile, random_star_profile
from toricsys.geometry import NormalCone, cross, dot
from toricsys import lattice
from toricsys.lattice import (
    CONE_TOL,
    enumerate_in_cone,
    in_cone,
    in_cone_mask,
    min_in_cone,
    nearest_in_cone,
)
from toricsys.reeb import _base_candidates


# ---------------------------------------------------------------------------
# The replaced searches, verbatim


def _old_in_cone(cone, d):
    norm = math.hypot(d[0], d[1])
    tol = CONE_TOL * norm
    return cross(cone.start, d) >= -tol and cross(d, cone.end) >= -tol


def _old_enumerate_cone(cone, cutoff):
    """Integer primitive (m, n) in the closed cone with m*w1 + n*w2 <= cutoff."""
    v = cone.vertex
    corners = [(0.0, 0.0)]
    for r in (cone.start, cone.end):
        f = r[0] * v[0] + r[1] * v[1]
        if f <= 0:
            raise DegenerateDenominator("cone boundary has nonpositive action")
        corners.append((r[0] * cutoff / f, r[1] * cutoff / f))
    m_lo = math.floor(min(c[0] for c in corners)) - 1
    m_hi = math.ceil(max(c[0] for c in corners)) + 1
    n_lo = math.floor(min(c[1] for c in corners)) - 1
    n_hi = math.ceil(max(c[1] for c in corners)) + 1
    for m in range(m_lo, m_hi + 1):
        for n in range(n_lo, n_hi + 1):
            if (m, n) == (0, 0) or math.gcd(abs(m), abs(n)) != 1:
                continue
            if not _old_in_cone(cone, (m, n)):
                continue
            action = m * v[0] + n * v[1]
            if action <= cutoff * (1 + 1e-12):
                yield m, n, action


_OLD_QUADRANT_PAIRS = (
    ((1, 0), (0, 1)),
    ((0, 1), (-1, 0)),
    ((-1, 0), (0, -1)),
    ((0, -1), (1, 0)),
)


def _old_arcs_intersect(L, R, cone) -> bool:
    """Does the (unimodular) arc L->R intersect the target cone arc?

    Both arcs are shorter than pi, so intersection happens iff either arc
    contains an endpoint of the other.
    """
    if _old_in_cone(cone, L) or _old_in_cone(cone, R):
        return True

    def in_lr(d):
        norm = math.hypot(d[0], d[1])
        tol = CONE_TOL * norm
        return cross(L, d) >= -tol and cross(d, R) >= -tol

    return in_lr(cone.start) or in_lr(cone.end)


def _old_min_in_cone_fast(cone, incumbent):
    """Candidates (action, (m, n)) in the cone with action <= incumbent,
    found by mediant descent with pruning by the running best.

    The pruning bound uses f(a*L + b*R) = a*f(L) + b*f(R) >= f(L) + f(R)
    for interior vectors of a subtree with both endpoint values positive;
    ties with the incumbent are never pruned, so tie-breaking matches the
    brute-force oracle.
    """
    v = cone.vertex

    def f(d):
        return d[0] * v[0] + d[1] * v[1]

    best = incumbent
    found = []
    seen = set()

    def consider(d):
        nonlocal best
        if d in seen:
            return
        seen.add(d)
        a = f(d)
        if a <= best:
            best = min(best, a)
            found.append((a, d))

    stack = [
        (L, R)
        for L, R in _OLD_QUADRANT_PAIRS
        if _old_arcs_intersect(L, R, cone)
    ]
    steps = 0
    while stack:
        steps += 1
        if steps > 2_000_000:
            raise RuntimeError("mediant search failed to converge")
        L, R = stack.pop()
        if _old_in_cone(cone, L):
            consider(L)
        if _old_in_cone(cone, R):
            consider(R)
        fL, fR = f(L), f(R)
        if fL > 0 and fR > 0 and fL + fR > best:
            continue
        M = (L[0] + R[0], L[1] + R[1])
        if _old_arcs_intersect(L, M, cone):
            stack.append((L, M))
        if _old_arcs_intersect(M, R, cone):
            stack.append((M, R))
    return [(a, d) for a, d in found if a <= best]


def _old_witness(cone, u):
    best = None
    for m in range(0, 33):
        for n in range(0, 33):
            if (m, n) == (0, 0) or math.gcd(m, n) != 1:
                continue
            if not _old_in_cone(cone, (m, n)):
                continue
            c = dot((m, n), u) / math.hypot(m, n)
            key = (-c, m * m + n * n)
            if best is None or key < best[0]:
                best = (key, (m, n))
    return None if best is None else best[1]


# ---------------------------------------------------------------------------
# Cones


def _vertex_cones(p):
    """The cones ``t_min`` searches, in its order."""
    return [
        normal_cone(p, vi)
        for vi, turn in enumerate(p.normal_turns, start=1)
        if abs(turn) > 1e-12
    ]


def _assert_descent_matches(p):
    """Run both descents over the profile's cones as ``t_min`` does, the
    incumbent falling with each cone's candidates."""
    best = min(o.action for o in _base_candidates(p))
    for cone in _vertex_cones(p):
        want = _old_min_in_cone_fast(cone, best)
        got, _ = min_in_cone(cone, best)
        assert got == want, cone
        for action, _ in got:
            best = min(best, action)


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
    _assert_descent_matches(p)


@pytest.mark.parametrize("eps", APEX_EPS)
def test_descent_matches_on_diagonal_apex_cones(eps):
    # The apex cone's action is flat along (-k, k + 1) up to rounding, so
    # the candidate list depends on every skipped vector's float action.
    _assert_descent_matches(strangulate(ball(2), eps).profile)


def test_long_in_cone_runs_are_taken_in_bounded_passes(monkeypatch):
    # About 1,000 tied vectors in passes of at most 16.
    monkeypatch.setattr(lattice, "_MAX_BULK_RUN", 16)
    _assert_descent_matches(strangulate(ball(2), 1e-3).profile)


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
    _assert_descent_matches(strangulate(build(), eps, ray).profile)


@pytest.mark.parametrize("eps", (1e-2, 1e-3, 1e-4))
def test_descent_and_enumeration_match_on_strain_tips(eps):
    out = _strained(eps)
    _assert_descent_matches(out)
    cone = normal_cone(out, 1)
    cutoff = 2 * t_min(flatten_near_intercept(ball(2, 16), 0.1)[0])[0]
    m, n, action = enumerate_in_cone(cone, cutoff)
    got = sorted(zip(m.tolist(), n.tolist(), action.tolist()))
    assert got == sorted(_old_enumerate_cone(cone, cutoff))
    assert len(got) == round(2 / eps) + 1


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
    return NormalCone(
        (r * math.cos(b), r * math.sin(b)),
        (math.cos(a0), math.sin(a0)),
        (math.cos(a0 + width), math.sin(a0 + width)),
        width,
        True,
    )


@pytest.mark.parametrize("seed", range(6))
def test_descent_matches_on_near_rational_cones(seed):
    rng = random.Random(seed)
    for _ in range(25):
        cone = _near_rational_cone(rng)
        incumbent = rng.choice([math.inf, rng.uniform(0.1, 10) * math.hypot(*cone.vertex)])
        got, _ = min_in_cone(cone, incumbent)
        assert got == _old_min_in_cone_fast(cone, incumbent), cone


@pytest.mark.parametrize("seed", range(40))
def test_enumeration_matches_bounding_box(seed):
    rng = random.Random(seed)
    p = (random_star_profile if seed % 2 else random_monotone_profile)(rng)
    for cone in _vertex_cones(p):
        cutoff = rng.uniform(0.5, 4) * min(p.a_intercept, p.b_intercept)
        m, n, action = enumerate_in_cone(cone, cutoff)
        got = sorted(zip(m.tolist(), n.tolist(), action.tolist()))
        assert got == sorted(_old_enumerate_cone(cone, cutoff))


def test_enumeration_rejects_nonpositive_boundary_action():
    cone = normal_cone(polydisk(1, 2), 1)
    flat = type(cone)((0.0, 0.0), cone.start, cone.end, cone.width, cone.convex)
    with pytest.raises(DegenerateDenominator):
        enumerate_in_cone(flat, 1.0)


def test_each_apex_cone_takes_few_steps():
    # The unit-step descent took about 10,000 steps on each of these.
    p = strangulate(ball(2), 1e-4).profile
    best = min(o.action for o in _base_candidates(p))
    cones = _vertex_cones(p)
    assert len(cones) == 3
    for cone in cones:
        got, steps = min_in_cone(cone, best)
        assert steps <= 100
        for action, _ in got:
            best = min(best, action)
    action, witness = t_min(p)
    assert (action, witness.mn) == (9.999999999987796e-05, (-4950, 4951))


@pytest.mark.parametrize("seed", range(30))
def test_witness_matches_loop(seed):
    rng = random.Random(seed)
    eps = 10 ** rng.uniform(-4, -1)
    ray = rng.uniform(0.2, math.pi / 2 - 0.2)
    u = (math.cos(ray), math.sin(ray))
    out = strangulate(ball(rng.uniform(1, 3)), eps, ray)
    apex = out.new_orbit_witnesses[0]
    cone = normal_cone(out.profile, apex.location_index)
    assert nearest_in_cone(cone, u) == _old_witness(cone, u) == apex.mn
    # Arbitrary cones and directions, including cones with no vector.
    for cone in _vertex_cones(random_star_profile(rng)):
        u = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert nearest_in_cone(cone, u) == _old_witness(cone, u)


@pytest.mark.parametrize("seed", range(10))
def test_mask_is_the_scalar_predicate(seed):
    rng = np.random.default_rng(seed)
    for cone in _vertex_cones(random_star_profile(random.Random(seed))):
        # Random vectors, and vectors within a unit of each boundary ray.
        t = rng.uniform(1, 10**6, 500)
        m = [rng.integers(-10**6, 10**6, 1000)]
        n = [rng.integers(-10**6, 10**6, 1000)]
        for r in (cone.start, cone.end):
            m.append(np.rint(t * r[0]).astype(np.int64) + rng.integers(-1, 2, t.size))
            n.append(np.rint(t * r[1]).astype(np.int64) + rng.integers(-1, 2, t.size))
        m, n = np.concatenate(m), np.concatenate(n)
        want = [in_cone(cone, (a, b)) for a, b in zip(m.tolist(), n.tolist())]
        assert in_cone_mask(cone, m, n).tolist() == want
        assert want == [_old_in_cone(cone, (a, b)) for a, b in zip(m.tolist(), n.tolist())]
