"""The per-profile rule of ``toricsys.geometry``: direct array expressions
instead of numpy's Python-level helpers, masks searched by argmax, no tag
work on a profile without tags, curve derivatives only where they are
read, no curve samples where a closed form exists, and no reduction along
rows of point pairs or short plane rows.

The guard runs the per-profile path with ``np.diff``, ``np.column_stack``,
``np.hstack``, ``np.stack``, ``np.flatnonzero`` and ``np.argsort`` made to
raise, spies on the tag types' sampling kernels, and reads the package's
source for row reductions.  The reference properties keep the expressions
the direct ones replaced (``_old_*``), among them the stacked tag samplers
and the consumers that read their pairs, and require the same bits from
both; the area and the Gromov width, which read closed forms now, are held
to at least the old samples' accuracy instead.
"""

import math
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import toricsys
from test_profile_columns import drawn_profiles
from toricsys import profile_io
from toricsys.errors import NotMonotone, ParamOutOfRange
from toricsys.experiments import emit_profile_svg, random_star_profile
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
from toricsys.invariants import GL_ORDER, _area, gromov_width_monotone, report, ruelle_quadrature
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

    def sample_curves(self, t, derivatives=False):
        assert len(self.tagged), "an untagged profile sampled its curves"
        return real(self, t, derivatives)

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


def _mixed_text() -> str:
    """The text of a rounded polydisk whose two straight sides carry
    squared segments as well: the first runs at constant mu1 and the last
    at constant mu2, so each curve is its own chord, and the profile
    carries both tag types."""
    q = smooth_corners(polydisk(1.3, 2.1), 0.2, 6)
    lines = []
    for i in (0, q.n_segments - 1):
        mu = [math.sqrt(c) for v in q.segment(i) for c in v]
        lines.append(f"tag {i} squared " + " ".join(map(repr, mu)))
    head, tail = profile_io.dumps(q).split("vertices:")
    return head + "\n".join(lines) + "\nvertices:" + tail


MIXED = _mixed_text()


@pytest.fixture
def kernel_calls(monkeypatch):
    """Each call of a tag type's sampling kernel, as (kind, derivatives)."""
    calls = []
    for cls in (Arc, SquaredSegment):

        def spy(numbers, t, derivatives=False, cls=cls, real=cls.sample_numbers):
            calls.append((cls.kind, derivatives))
            return real(numbers, t, derivatives)

        monkeypatch.setattr(cls, "sample_numbers", staticmethod(spy))
    return calls


def test_only_the_quadratures_derive_curves(kernel_calls, tmp_path):
    """Construction and the SVG read curve points only; the Ruelle
    quadrature reads the derivatives too; area, the Gromov width and
    ``report`` read no curve at all."""
    profiles = [
        profile_io.loads(MIXED),
        fc_domain(2, 0.7, 8),
        smooth_corners(polydisk(1, 2), 0.2, 4),
        fc_domain(2, 0.7, 8).scaled(3.0),
    ]
    del kernel_calls[:]
    reports = [report(p) for p in profiles]
    for p in profiles:
        gromov_width_monotone(p)
    assert kernel_calls == []
    for p in profiles:
        emit_profile_svg(p, tmp_path / "profile.svg")
    assert {kind for kind, _ in kernel_calls} == {"arc", "squared"}
    assert [call for call in kernel_calls if call[1]] == []
    del kernel_calls[:]
    reports[0].ruelle_quadrature
    assert sorted(kernel_calls) == [("arc", True), ("squared", True)]


# Reductions along axis 1, which run slowly over rows of two to four
# numbers (point pairs, plane rows), and the lines allowed to keep one: an
# error report, which runs once, on input already refused, and the clip of
# a surgery's few dozen segments by two or four planes, where folding the
# plane columns one at a time measured no faster.
ROW_REDUCTION = re.compile(
    r"\.(min|max|sum|any|all)\(axis=-?1\b|np\.(a?min|a?max|sum|any|all)\(.*axis=-?1\b"
)
ROW_REDUCTION_ALLOWED = {
    # ``_validate``'s message naming the first non-finite vertex
    ("geometry.py", "i = int((~np.isfinite(xy)).any(axis=1).argmax())"),
    # ``surgery._clip``'s entry and exit parameters
    ("surgery.py", "s_in = np.where(step <= 0, r, 0.0).max(axis=1, initial=0.0)"),
    ("surgery.py", "s_out = np.where(step > 0, r, 1.0).min(axis=1, initial=1.0)"),
}


def test_no_row_reductions_in_the_package():
    found = {
        (path.name, line.strip())
        for path in sorted(Path(toricsys.__file__).parent.glob("*.py"))
        for line in path.read_text().splitlines()
        if ROW_REDUCTION.search(line)
    }
    assert found - ROW_REDUCTION_ALLOWED == set(), "reduce columns instead"
    assert ROW_REDUCTION_ALLOWED - found == set(), "stale allow-list entry"


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


def _old_sample_curves(tagged, columns, t):
    """``MomentProfile.sample_curves`` as it was: points and derivatives
    as (k, len(t), 2) pairs, each type's rows scattered into them."""
    pts = np.empty((len(tagged), len(t), 2))
    ders = np.empty_like(pts)
    for cls, (segs, nums) in columns.items():
        rows = tagged.searchsorted(segs)
        pts[rows], ders[rows] = OLD_SAMPLE[cls](nums.T[..., None], t)
    return pts, ders


def _old_gromov(p) -> float:
    """``gromov_width_monotone`` as it was: every profile sampled, its
    curves through the stacking samplers."""
    pts, _ = _old_sample_curves(p.tagged, p.tag_columns, np.arange(1, 64) / 64)
    return float(np.concatenate((p.xy, pts.reshape(-1, 2))).sum(axis=1).min())


def _old_tag_ends_error(xy, tol, columns):
    """The message of ``MomentProfile._check_tag_ends`` as it was, or None
    when every tag ends at its segment's vertices; quiet, where the old
    check warned, about numbers that overflow or are not finite."""
    idx = np.sort(np.concatenate([segs for segs, _ in columns.values()]))
    with np.errstate(over="ignore", invalid="ignore"):
        ends, _ = _old_sample_curves(idx, columns, np.array([0.0, 1.0]))
    gap = np.maximum(np.abs(ends[:, 0] - xy[idx]), np.abs(ends[:, 1] - xy[idx + 1]))
    off = ~(gap.max(axis=1) <= tol)
    if not off.any():
        return None
    k = int(off.argmax())
    i = int(idx[k])
    (s0, s1), (e0, e1) = ends[k].tolist()
    v0, v1 = tuple(xy[i].tolist()), tuple(xy[i + 1].tolist())
    return (
        f"tag of segment {i} runs from {(s0, s1)} to {(e0, e1)}, not from "
        f"vertex {i} at {v0} to vertex {i + 1} at {v1}"
    )


def _old_area(p) -> float:
    """``invariants._area`` as it was, on the stacked samples."""
    straight = np.ones(p.n_segments, dtype=bool)
    straight[p.tagged] = False
    total = math.fsum(p.cross_products[straight].tolist())
    _, weights = _gl_nodes(GL_ORDER)
    pt, dv = _old_sample_curves(p.tagged, p.tag_columns, _gl_nodes(GL_ORDER)[0])
    total += (weights * (pt[..., 0] * dv[..., 1] - pt[..., 1] * dv[..., 0])).sum()
    return float(0.5 * total)


def _old_ruelle(p, n) -> float:
    """``invariants.ruelle_quadrature`` as it was, on the stacked samples
    (its nu . w check left out: these profiles pass it)."""
    straight = np.ones(p.n_segments, dtype=bool)
    straight[p.tagged] = False
    d = p.directions[straight]
    total = (d[:, 1] - d[:, 0]).sum()
    _, weights = _gl_nodes(n)
    pt, dv = _old_sample_curves(p.tagged, p.tag_columns, _gl_nodes(n)[0])
    speed = np.hypot(dv[..., 0], dv[..., 1])
    nu1, nu2 = dv[..., 1] / speed, -dv[..., 0] / speed
    denom = nu1 * pt[..., 0] + nu2 * pt[..., 1]
    crs = pt[..., 0] * dv[..., 1] - pt[..., 1] * dv[..., 0]
    total += (weights * ((nu1 + nu2) / denom) * crs).sum()
    return float(total)


def _old_svg_points(p) -> str:
    """The blue polyline's points as ``emit_profile_svg`` wrote them from
    the stacked samples."""
    x_max, y_max = p.xy.max(axis=0).tolist()
    scale = (400.0 - 2 * 30.0) / max(x_max, y_max, 1e-12)
    pts, _ = _old_sample_curves(p.tagged, p.tag_columns, np.arange(8) / 8)
    curves = dict(zip(p.tagged.tolist(), pts.tolist()))
    path = [q for i, v in enumerate(p.vertices[:-1]) for q in curves.get(i, [v])]
    path.append(p.vertices[-1])
    return " ".join(f"{30.0 + x * scale:.2f},{400.0 - 30.0 - y * scale:.2f}" for x, y in path)


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
def test_gromov_width_is_at_most_the_old_expression(seed):
    """The exact least w1 + w2 has the old value's bits on a profile
    without tags; on tagged ones it is at or below the old samples at
    t = j/64, and above them by less than their spacing can hide."""
    for p in drawn_profiles(random.Random(seed)):
        if not classify(p).monotone:
            with pytest.raises(NotMonotone):
                gromov_width_monotone(p)
            continue
        got, old = gromov_width_monotone(p), _old_gromov(p)
        if not len(p.tagged):
            assert same_bits(got, old), p.vertices
        else:
            assert old - 1e-4 * old <= got <= old, p.vertices


finite = st.floats(-1e3, 1e3, allow_nan=False)


@pytest.mark.parametrize("cls", [Arc, SquaredSegment], ids=["arc", "squared"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_sample_numbers_match_the_old_stack(cls, data):
    """Scalar numbers or (k, 1) columns of k tags' numbers, with a scalar t
    or a row of parameters: the kernel's x, y, dx and dy are the old
    stacked pairs' components, bit for bit and in C order, and without
    derivatives it returns x and y alone, with the same bits."""
    k = data.draw(st.integers(0, 4))
    rows = data.draw(st.lists(st.lists(finite, min_size=cls.n_numbers, max_size=cls.n_numbers),
                              min_size=max(k, 1), max_size=max(k, 1)))
    numbers = np.array(rows).T[..., None] if k else tuple(rows[0])
    ts = data.draw(st.lists(st.floats(0, 1), min_size=0, max_size=5))
    t = data.draw(st.sampled_from([np.array(ts), ts[0] if ts else 0.5]))
    pts, ders = OLD_SAMPLE[cls](numbers, t)
    want = (pts[..., 0], pts[..., 1], ders[..., 0], ders[..., 1])
    got = cls.sample_numbers(numbers, t, True)
    assert len(got) == 4
    for g, w in zip(got, want):
        assert same_bits(g, w), (numbers, t)
        assert np.asarray(g).flags.c_contiguous
    points = cls.sample_numbers(numbers, t)
    assert len(points) == 2
    for g, w in zip(points, want):
        assert same_bits(g, w), (numbers, t)


class TestMixedTags:
    """A profile read from text that carries arcs and squared segments:
    its samples, end check and consumers against the stacked references."""

    def test_samples_match_the_old_scatter(self):
        p = profile_io.loads(MIXED)
        assert list(p.tag_columns) == [Arc, SquaredSegment]
        for t in (np.array([0.0, 1.0]), np.arange(8) / 8, _gl_nodes(5)[0]):
            pts, ders = _old_sample_curves(p.tagged, p.tag_columns, t)
            want = (pts[..., 0], pts[..., 1], ders[..., 0], ders[..., 1])
            got = p.sample_curves(t, True)
            assert all(same_bits(g, w) and g.flags.c_contiguous for g, w in zip(got, want))
            assert all(same_bits(g, w) for g, w in zip(p.sample_curves(t), want))

    def test_consumers_match_the_old_expressions(self, tmp_path):
        """The quadrature reads the samples with the old bits; area and the
        Gromov width read closed forms, within 2 ulps of the old area and
        at or below the old width."""
        p = profile_io.loads(MIXED)
        for n in (2, GL_ORDER, 13):
            assert same_bits(ruelle_quadrature(p, n), _old_ruelle(p, n))
        assert math.isclose(_area(p), _old_area(p), rel_tol=2**-51, abs_tol=0)
        assert gromov_width_monotone(p) <= _old_gromov(p)
        emit_profile_svg(p, tmp_path / "p.svg")
        assert f'<polyline points="{_old_svg_points(p)}" stroke="blue"' in (tmp_path / "p.svg").read_text()

    @pytest.mark.parametrize(
        "changes",
        [
            {5: (4, 0.01)},  # an arc's end angle: the first bad segment
            {5: (4, 0.01), 7: (2, 0.01)},  # and the last side's squared end
            {0: (3, -1e-3), 5: (4, 0.01)},  # the first side's, before the arc
            {7: (0, math.inf)},  # an infinite mu: its points are inf and nan
            {0: (1, 1e200), 7: (2, 1e200)},  # squares that overflow
        ],
        ids=["arc", "arc-then-squared", "squared-then-arc", "inf", "overflow"],
    )
    def test_end_check_names_the_old_segment_and_ends(self, changes):
        """Numbers changed in the columns and the text's tag lines:
        segment -> (number index, amount added).  The error names the
        first bad segment and prints its ends as the old check did, and
        no warning is raised (the suite turns RuntimeWarning into an
        error)."""
        good = profile_io.loads(MIXED)
        columns = {cls: (segs, nums.copy()) for cls, (segs, nums) in good.tag_columns.items()}
        assert good.n_segments == 8 and good.tagged.tolist() == list(range(8))
        lines = MIXED.splitlines()
        for i, (j, amount) in changes.items():
            (cls,) = [cls for cls, (segs, _) in columns.items() if i in segs.tolist()]
            segs, nums = columns[cls]
            row = nums[segs.tolist().index(i)]
            row[j] += amount
            (at,) = [n for n, line in enumerate(lines) if line.startswith(f"tag {i} ")]
            lines[at] = f"tag {i} {cls.kind} " + " ".join(map(repr, row.tolist()))
        want = _old_tag_ends_error(good.xy, good.tol, columns)
        assert want is not None
        with pytest.raises(ParamOutOfRange) as info:
            MomentProfile(good.xy, columns)
        assert str(info.value) == want
        if all(np.isfinite(nums).all() for _, nums in columns.values()):
            # Profile text refuses non-finite numbers itself.
            with pytest.raises(ParamOutOfRange) as info:
                profile_io.loads("\n".join(lines) + "\n")
            assert str(info.value) == want
