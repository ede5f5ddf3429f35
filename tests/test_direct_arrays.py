"""The per-profile rule of ``toricsys.geometry``: direct array expressions
instead of numpy's Python-level helpers, masks searched by argmax, and no
tag work on a profile without tags.

The guard runs the per-profile path with ``np.diff``, ``np.column_stack``,
``np.hstack``, ``np.stack``, ``np.flatnonzero`` and ``np.argsort`` made to
raise.  The reference properties keep the helper-based expressions the
direct ones replaced (``_old_*``) and require the same bits from both.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_profile_columns import drawn_profiles
from toricsys import profile_io
from toricsys.errors import NotMonotone
from toricsys.experiments import random_star_profile
from toricsys.geometry import (
    TOL_REL,
    Arc,
    Classification,
    MomentProfile,
    SquaredSegment,
    _classify,
    _gl_nodes,
    classify,
    fc_domain,
    from_vertices,
    polydisk,
    smooth_corners,
)
from toricsys.invariants import GL_ORDER, gromov_width_monotone, report
from toricsys.surgery import strangulate

HELPERS = ("diff", "column_stack", "hstack", "stack", "flatnonzero", "argsort")


def _refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"np.{name} called on the per-profile path")

    return refused


@pytest.fixture
def no_helpers(monkeypatch):
    """numpy's helpers raise, and so does sampling an untagged profile."""
    _gl_nodes(GL_ORDER)  # ``leggauss`` stacks its own arrays; cached after this
    for name in HELPERS:
        monkeypatch.setattr(np, name, _refuse(name))
    real = MomentProfile.sample_curves

    def sample_curves(self, t):
        assert len(self.tagged), "an untagged profile sampled its curves"
        return real(self, t)

    monkeypatch.setattr(MomentProfile, "sample_curves", sample_curves)


@pytest.mark.parametrize(
    "build",
    [
        lambda: from_vertices([(2, 0), (1.9, 0.8), (1.2, 1.5), (0.4, 1.9), (0, 2)]),
        lambda: fc_domain(2, 0.7, 8),
    ],
    ids=["untagged", "fc"],
)
def test_per_profile_path_calls_no_numpy_helper(build, no_helpers):
    p = build()
    assert classify(p).monotone
    report(p)
    gromov_width_monotone(p)
    assert profile_io.loads(profile_io.dumps(p)) == p


def test_surgeries_call_no_numpy_helper(no_helpers):
    p = from_vertices([(2, 0), (1.9, 0.8), (1.2, 1.5), (0.4, 1.9), (0, 2)])
    strangulate(p, 0.05)
    report(smooth_corners(polydisk(1, 2), 0.2, 4))


# ---------------------------------------------------------------------------
# The replaced expressions, as references


def _old_normals(p):
    d = p.directions
    return np.column_stack((d[:, 1], -d[:, 0])) / p.lengths[:, None]


def _old_classify(p) -> Classification:
    """``_classify`` and ``_convex_4d`` as they were, with two any() tests
    per mask and ``np.diff``."""
    witnesses = {}
    nu = _old_normals(p)
    decreasing = (nu < -TOL_REL).any(axis=1)
    flat = (nu <= TOL_REL).any(axis=1)
    monotone = not decreasing.any()
    if not monotone:
        witnesses["monotone"] = int(decreasing.argmax())
    strictly = not flat.any()
    if not strictly:
        witnesses["strictly_monotone"] = int(flat.argmax())
    convex = monotone
    if not monotone:
        witnesses["convex_4d"] = witnesses["monotone"]
    else:
        mu = np.sqrt(p.xy[::-1])
        tol = TOL_REL * (mu[:, 0] + mu[:, 1]).max()
        step = np.diff(mu, axis=0)
        turn = step[:-1, 0] * step[1:, 1] - step[:-1, 1] * step[1:, 0]
        ccw = turn > tol
        if ccw.any():
            witnesses["convex_4d"] = p.n_segments - 2 - int(ccw.argmax())
            convex = False
    return Classification(True, monotone, strictly and monotone, convex, witnesses)


def _old_arc(numbers, t):
    cx, cy, r, a0, a1 = numbers
    da = a1 - a0
    a = a0 + da * t
    cos, sin = r * np.cos(a), r * np.sin(a)
    return np.stack((cx + cos, cy + sin), -1), np.stack((-da * sin, da * cos), -1)


def _old_squared(numbers, t):
    p0, q0, p1, q1 = numbers
    dp, dq = p1 - p0, q1 - q0
    p, q = p0 + dp * t, q0 + dq * t
    return np.stack((p * p, q * q), -1), np.stack((2 * p * dp, 2 * q * dq), -1)


OLD_SAMPLE = {Arc: _old_arc, SquaredSegment: _old_squared}


def _old_gromov(p) -> float:
    """``gromov_width_monotone`` as it was: every profile sampled, its
    curves through the stacking samplers."""
    t = np.arange(1, 64) / 64
    pts = np.empty((len(p.tagged), len(t), 2))
    for cls, (segs, nums) in p.tag_columns.items():
        pts[p.tagged.searchsorted(segs)] = OLD_SAMPLE[cls](nums.T[..., None], t)[0]
    return float(np.concatenate((p.xy, pts.reshape(-1, 2))).sum(axis=1).min())


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_normals_and_classify_match_the_old_expressions(seed):
    # Star profiles are mostly not monotone: every witness is read there.
    rng = random.Random(seed)
    for p in drawn_profiles(rng) + [random_star_profile(rng) for _ in range(4)]:
        assert same_bits(p.normals, _old_normals(p)), p.vertices
        assert _classify(p) == _old_classify(p), p.vertices


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_gromov_width_matches_the_old_expression(seed):
    for p in drawn_profiles(random.Random(seed)):
        if not classify(p).monotone:
            with pytest.raises(NotMonotone):
                gromov_width_monotone(p)
            continue
        assert same_bits(gromov_width_monotone(p), _old_gromov(p)), p.vertices


finite = st.floats(-1e3, 1e3, allow_nan=False)


@pytest.mark.parametrize("cls", [Arc, SquaredSegment], ids=["arc", "squared"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_sample_numbers_match_the_old_stack(cls, data):
    """Scalar numbers or columns of k tags' numbers, with a scalar t or a
    row of parameters: the shapes ``np.stack`` gave, with its bits."""
    k = data.draw(st.integers(0, 4))
    rows = data.draw(st.lists(st.lists(finite, min_size=cls.n_numbers, max_size=cls.n_numbers),
                              min_size=max(k, 1), max_size=max(k, 1)))
    numbers = np.array(rows).T[..., None] if k else tuple(rows[0])
    ts = data.draw(st.lists(st.floats(0, 1), min_size=0, max_size=5))
    t = data.draw(st.sampled_from([np.array(ts), ts[0] if ts else 0.5]))
    got, want = cls.sample_numbers(numbers, t), OLD_SAMPLE[cls](numbers, t)
    for g, w in zip(got, want):
        assert same_bits(g, w), (numbers, t)
