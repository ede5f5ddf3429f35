"""Per-profile derived geometry, the vectorised quadratures, and what
is computed once or only when read.

The scalar functions below are the plain per-node loops that
`ruelle_quadrature` replaces and that the 8-node Gauss-Legendre area
computed before its closed forms, with each tag's curve written out in
`math` (`ref_point_deriv`); the library must agree with them to 1e-12
relative (summation order and the rule's error differ).  `MomentProfile.primitive_normal` must equal
the exact decimal reading of `exact.decimal_normal`.
"""

import math
import pickle
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from toricsys import (
    Arc,
    DegenerateDenominator,
    MomentProfile,
    ParamOutOfRange,
    SquaredSegment,
    ball,
    classify,
    ellipsoid,
    fc_domain,
    polydisk,
    report,
    smooth_corners,
)
from toricsys import geometry, invariants, lattice, reeb, surgery
from toricsys.cli import resolve_profile
from toricsys.experiments import (
    RunConfig,
    random_monotone_profile,
    random_star_profile,
    run_sweep,
)
from toricsys.surgery import flatten_near_intercept, strain, strangulate
from toricsys.geometry import TOL_REL, _gl_nodes
from toricsys.invariants import GL_ORDER, area, gromov_width_monotone, ruelle_quadrature

import exact


def _nodes(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return [float(t) for t in (x + 1) / 2], [float(v) for v in w / 2]


def ref_point_deriv(tag, t):
    """A tag's point and derivative at t, one node at a time."""
    if isinstance(tag, Arc):
        (cx, cy), r, da = tag.center, tag.r, tag.a1 - tag.a0
        a = tag.a0 + da * t
        cos, sin = math.cos(a), math.sin(a)
        return (cx + r * cos, cy + r * sin), (-r * da * sin, r * da * cos)
    (p0, q0), (p1, q1) = tag.mu0, tag.mu1
    p, q = p0 + (p1 - p0) * t, q0 + (q1 - q0) * t
    return (p * p, q * q), (2 * p * (p1 - p0), 2 * q * (q1 - q0))


def ref_tol(p):
    xs = [v[0] for v in p.vertices]
    ys = [v[1] for v in p.vertices]
    return TOL_REL * max(max(xs) - min(xs), max(ys) - min(ys), max(xs), max(ys))


def ref_area(p, order=GL_ORDER):
    nodes, weights = _nodes(order)
    total = 0.0
    for i in range(p.n_segments):
        tag = p.tag(i)
        if tag is None:
            a, b = p.segment(i)
            total += 0.5 * exact.cross(a, b)
        else:
            for t, w in zip(nodes, weights):
                total += w * 0.5 * exact.cross(*ref_point_deriv(tag, t))
    return total


def ref_ruelle(p, order=GL_ORDER):
    nodes, weights = _nodes(order)
    tol = ref_tol(p)
    total = 0.0
    for i in range(p.n_segments):
        tag = p.tag(i)
        for t, w in zip(nodes, weights):
            if tag is None:
                a, b = p.segment(i)
                dv = (b[0] - a[0], b[1] - a[1])
                pt = (a[0] + t * dv[0], a[1] + t * dv[1])
            else:
                pt, dv = ref_point_deriv(tag, t)
            speed = math.hypot(dv[0], dv[1])
            nu = (dv[1] / speed, -dv[0] / speed)
            denom = nu[0] * pt[0] + nu[1] * pt[1]
            if denom <= tol:
                raise DegenerateDenominator(f"nu.w = {denom} on segment {i}")
            total += w * (nu[0] + nu[1]) / denom * exact.cross(pt, dv)
    return total


def _profiles():
    rng = random.Random(20220310)
    out = [("star", random_star_profile(rng)) for _ in range(12)]
    out += [("monotone", random_monotone_profile(rng)) for _ in range(12)]
    out += [
        ("ellipsoid", ellipsoid(1, 4, 512)),
        ("ellipsoid", ellipsoid(1.37, 0.61, 512)),
        ("ellipsoid", ellipsoid(1, 1, 3)),
        ("fc", fc_domain(2, 0.7, 256)),
        ("fc", fc_domain(1, 0.5, 256)),
        ("smoothed", smooth_corners(polydisk(1, 2), 0.2, 510)),
        ("smoothed", smooth_corners(polydisk(2.3, 0.9), 0.1, 16)),
        ("polydisk", polydisk(1, 2)),
        ("mixed", _mixed()),
    ]
    return out


def _mixed():
    """Both tag types in one profile: the rounded polydisk's last, straight
    segment retraced as a SquaredSegment."""
    p = smooth_corners(polydisk(1, 2), 0.2, 16)
    (x0, y0), (x1, y1) = p.segment(p.n_segments - 1)
    last = SquaredSegment((math.sqrt(x0), math.sqrt(y0)), (math.sqrt(x1), math.sqrt(y1)))
    return MomentProfile(p.vertices, p.tags[:-1] + (last,))


PROFILES = _profiles()
IDS = [f"{kind}-{i}" for i, (kind, _) in enumerate(PROFILES)]


def _rel(got, want):
    return abs(got - want) / abs(want)


@pytest.mark.parametrize("p", [p for _, p in PROFILES], ids=IDS)
class TestAgainstScalarReference:
    def test_area(self, p):
        assert _rel(area(p), ref_area(p)) <= 1e-12

    def test_ruelle_quadrature(self, p):
        assert _rel(ruelle_quadrature(p), ref_ruelle(p)) <= 1e-12
        assert _rel(ruelle_quadrature(p, 5), ref_ruelle(p, 5)) <= 1e-12

    def test_primitive_normals_exact(self, p):
        got = [p.primitive_normal(i) for i in range(p.n_segments)]
        assert got == [exact.decimal_normal(p, i) for i in range(p.n_segments)]


MONOTONE = [(i, p) for i, (_, p) in enumerate(PROFILES) if classify(p).monotone]


@pytest.mark.parametrize("p", [p for _, p in MONOTONE], ids=[IDS[i] for i, _ in MONOTONE])
def test_gromov_width_against_scalar_reference(p):
    want = min(x + y for x, y in p.vertices)
    for tag in filter(None, p.tags):
        want = min(want, *(sum(ref_point_deriv(tag, j / 64)[0]) for j in range(1, 64)))
    assert _rel(gromov_width_monotone(p), want) <= 1e-12


class TestDegenerateDenominator:
    def _profile(self, bad):
        """Three segments on the unit circle at 30-degree steps, tagged
        with the arc between their end points: counterclockwise where
        good, and clockwise (a1 < a0, so that nu.w = -1 < 0) on ``bad``."""
        angles = [0.0, math.pi / 6, math.pi / 3, math.pi / 2]
        verts = tuple((math.cos(a), math.sin(a)) for a in angles)
        verts = ((1.0, 0.0),) + verts[1:-1] + ((0.0, 1.0),)
        tags = tuple(
            Arc((0.0, 0.0), 1.0, angles[i], angles[i + 1] - 2 * math.pi)
            if i in bad else Arc((0.0, 0.0), 1.0, angles[i], angles[i + 1])
            for i in range(3)
        )
        return MomentProfile(verts, tags)

    @pytest.mark.parametrize("bad", [(1,), (2,), (1, 2), (0, 2)])
    def test_first_bad_segment_named(self, bad):
        p = self._profile(bad)
        with pytest.raises(DegenerateDenominator) as want:
            ref_ruelle(p)
        with pytest.raises(DegenerateDenominator) as got:
            ruelle_quadrature(p)
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith(f"on segment {bad[0]}")

    def test_good_curve_passes(self):
        p = self._profile(())
        assert _rel(ruelle_quadrature(p), ref_ruelle(p)) <= 1e-12

    def test_too_few_nodes(self):
        with pytest.raises(ParamOutOfRange):
            ruelle_quadrature(ellipsoid(1, 2), 1)


class TestComputeOnce:
    def test_report_computes_diameter_once(self, monkeypatch):
        # The diameter is computed by ``_validate``, once per construction.
        real = geometry._validate
        calls = []

        def counting(vertices):
            calls.append(vertices)
            return real(vertices)

        monkeypatch.setattr(geometry, "_validate", counting)
        p = ellipsoid(1, 4, 2000)
        rep = report(p)
        assert rep.ruelle_quadrature == pytest.approx(5, rel=1e-12)
        assert len(calls) == 1  # the construction; report validates nothing
        assert p.diameter == 4 and p.tol == TOL_REL * 4

    def test_only_the_quadrature_field_samples_curves(self, monkeypatch):
        calls = []
        for cls in (Arc, SquaredSegment):

            def counted(numbers, t, derivatives=False, cls=cls, real=cls.sample_numbers):
                calls.append((cls, len(t), derivatives))
                return real(numbers, t, derivatives)

            monkeypatch.setattr(cls, "sample_numbers", staticmethod(counted))
        p = fc_domain(2, 0.7, 8)
        q = smooth_corners(polydisk(1, 2), 0.2, 4)
        # Construction samples each tag's two ends (``_check_tag_ends``),
        # points only.
        assert calls == [(SquaredSegment, 2, False), (Arc, 2, False)]
        reports = report(p), report(q)
        gromov_width_monotone(p), gromov_width_monotone(q)
        assert len(calls) == 2
        # The first read of the field samples each tag type once, with
        # derivatives; a second read samples nothing.
        for rep in reports:
            for _ in range(2):
                rep.ruelle_quadrature
        assert calls[2:] == [(SquaredSegment, GL_ORDER, True), (Arc, GL_ORDER, True)]
        # The quadrature itself keeps no samples: each call samples again.
        ruelle_quadrature(p, 5)
        ruelle_quadrature(p, 5)
        assert calls[4:] == [(SquaredSegment, 5, True)] * 2

    def test_gl_nodes_cached_and_read_only(self):
        nodes, weights = _gl_nodes(8)
        assert _gl_nodes(8)[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable
        assert weights.sum() == pytest.approx(1, rel=1e-15)

    def test_derived_arrays_read_only(self):
        p = fc_domain(1, 0.5, 8)
        derived = (p.xy, p.directions, p.normals, p.normal_crosses, p.tagged)
        for arr in derived:
            with pytest.raises(ValueError):
                arr[0] = 0


# ---------------------------------------------------------------------------
# Whole-profile results computed once, by their owners


def _count_computations(monkeypatch):
    """Per kind, the profiles whose classification and area are computed:
    the functions behind the caches of ``classify`` and ``area`` are
    wrapped, not the public names."""
    seen = {"classify": [], "area": []}
    for module, name, kind in ((geometry, "_classify", "classify"), (invariants, "_area", "area")):

        def counted(p, real=getattr(module, name), calls=seen[kind]):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(module, name, counted)
    return seen


def _ids(profiles):
    return list(map(id, profiles))


def _per_profile(calls):
    """How often each profile was computed; the list keeps the profiles
    alive, so their ids stay distinct."""
    return list(Counter(map(id, calls)).values())


class TestWholeProfileCaches:
    def test_corpus_item(self, monkeypatch):
        rng = random.Random(7)
        # Rebuilt, since the monotone generator classifies its profile.
        drawn = [random_monotone_profile(rng), random_star_profile(rng)]
        seen = _count_computations(monkeypatch)
        profiles = [MomentProfile(q.vertices) for q in drawn] + [fc_domain(2, 0.7, 8)]
        for p in profiles:
            if classify(p).monotone:
                gromov_width_monotone(p)
            assert report(p).classification is classify(p)
        assert _ids(seen["classify"]) == _ids(seen["area"]) == _ids(profiles)

    def test_dense_item(self, monkeypatch):
        seen = _count_computations(monkeypatch)
        profiles = [smooth_corners(polydisk(1, 2), 0.2, 64), ellipsoid(1, 4, 512), fc_domain(2, 0.7, 256)]
        for p in profiles:
            classify(p)
            report(p)
        assert _ids(seen["classify"]) == _ids(seen["area"]) == _ids(profiles)

    @pytest.mark.parametrize("ray", [0.3, math.pi / 4, 1.2])
    def test_strangulate_then_report(self, monkeypatch, ray):
        p = ball(2)
        seen = _count_computations(monkeypatch)
        out = strangulate(p, 1e-2, ray)
        rep = report(out.profile)
        assert rep.classification is out.preserved_flags
        assert _ids(seen["classify"]) == [id(out.profile)]
        assert _ids(seen["area"]) == [id(p), id(out.profile)]

    def test_strain_sweep_point(self, monkeypatch):
        p, _ = flatten_near_intercept(ball(2, 16), 0.1)
        seen = _count_computations(monkeypatch)
        (record,) = run_sweep(RunConfig(profile=p, op="strain", eps_grid=(1e-3,)))
        assert record.error == ""
        assert len(seen["classify"]) == 1 and seen["classify"][0] is not p
        assert _per_profile(seen["area"]) == [1, 1] and id(p) in _ids(seen["area"])

    def test_t_min_keeps_no_cache(self, monkeypatch):
        p = ellipsoid(1, 4, 64)
        calls = []
        real = reeb._t_min_fast
        monkeypatch.setattr(reeb, "_t_min_fast", lambda q: calls.append(q) or real(q))
        report(p)
        report(p)
        assert calls == [p, p]


# ---------------------------------------------------------------------------
# Lattice searches: the strangulation witness only when read


def _count_searches(monkeypatch):
    """Per lattice search, the cones it is called on: every package
    module's binding of ``min_in_cone`` and ``enumerate_in_cone`` is
    wrapped."""
    seen = {"min_in_cone": [], "enumerate_in_cone": []}
    for name, calls in seen.items():
        real = getattr(lattice, name)

        def counted(cone, *args, real=real, calls=calls):
            calls.append(cone)
            return real(cone, *args)

        for module in (lattice, reeb, surgery):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    return seen


class TestLazyWitness:
    @pytest.mark.parametrize("ray", [0.3, math.pi / 4, 1.2])
    def test_strangulate_searches_no_cone(self, monkeypatch, ray):
        seen = _count_searches(monkeypatch)
        out = strangulate(ball(2), 1e-3, ray)
        assert seen == {"min_in_cone": [], "enumerate_in_cone": []}
        assert out.profile.n_segments > 0

    def test_witness_read_twice_searches_once(self, monkeypatch):
        out = strangulate(ball(2), 1e-3)
        seen = _count_searches(monkeypatch)
        first = out.new_orbit_witnesses
        assert seen == {"min_in_cone": [], "enumerate_in_cone": []}
        [w] = first
        assert first is out.new_orbit_witnesses and first == [w]
        assert len(seen["min_in_cone"]) == 1 and seen["enumerate_in_cone"] == []
        assert w.base_point == out.profile.vertex(w.location_index)

    def test_sweep_point_searches_as_t_min_alone(self, monkeypatch):
        seen = _count_searches(monkeypatch)
        (record,) = run_sweep(RunConfig(profile=ball(2), op="strangulate", eps_grid=(1e-3,)))
        assert record.error == ""
        in_sweep = len(seen["min_in_cone"])
        out = strangulate(ball(2), 1e-3)
        seen["min_in_cone"].clear()
        reeb.t_min(out.profile)
        assert in_sweep == len(seen["min_in_cone"]) >= 1
        assert seen["enumerate_in_cone"] == []

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
    def test_strain_lists_its_tip_on_first_read(self, monkeypatch, eps):
        p, _ = flatten_near_intercept(ball(2, 16), 0.1)
        seen = _count_searches(monkeypatch)
        out = strain(p, eps)
        assert seen["enumerate_in_cone"] == []
        first = out.new_orbit_witnesses
        assert len(first) == round(2 / eps) + 1
        assert len(seen["enumerate_in_cone"]) == 1
        listed = len(seen["min_in_cone"]), len(seen["enumerate_in_cone"])
        assert out.new_orbit_witnesses is first and len(first) == round(2 / eps) + 1
        assert (len(seen["min_in_cone"]), len(seen["enumerate_in_cone"])) == listed

    def test_outcomes_pickle_with_their_witnesses(self):
        p, _ = flatten_near_intercept(ball(2, 16), 0.1)
        for out in (strangulate(ball(2), 1e-3), strain(p, 1e-3)):
            back = pickle.loads(pickle.dumps(out))
            assert back.new_orbit_witnesses == out.new_orbit_witnesses
            assert len(back.new_orbit_witnesses) >= 1

    def test_strain_outcome_pickles_before_its_witnesses_are_read(self, monkeypatch):
        p, _ = flatten_near_intercept(ball(2, 16), 0.1)
        seen = _count_searches(monkeypatch)
        back = pickle.loads(pickle.dumps(strain(p, 1e-3)))
        assert seen["enumerate_in_cone"] == []
        assert back.new_orbit_witnesses == strain(p, 1e-3).new_orbit_witnesses
        assert len(back.new_orbit_witnesses) == round(2 / 1e-3) + 1


GOLDEN = Path(__file__).resolve().parent / "golden"


def _golden_profiles():
    """Every family profile the golden CLI transcripts run on, and the
    surgery outputs they print."""
    specs = set()
    for path in GOLDEN.glob("*.txt"):
        for line in path.read_text().splitlines():
            if line.startswith("$ toricsys "):
                specs.update(a for a in line.split()[2:] if a.partition(":")[0] in geometry.FAMILIES)
    profiles = [resolve_profile(spec) for spec in sorted(specs)]
    surgeries = [
        strangulate(ball(2), eps, ray) for eps in (1e-1, 1e-2, 1e-3, 1e-4) for ray in (0.3, math.pi / 4, 1.2)
    ]
    surgeries += [
        strangulate(fc_domain(2, 0.7, 64), 1e-2),
        strain(flatten_near_intercept(ball(2), 0.1)[0], 1e-2),
        strain(ellipsoid(1, 4, 1), 1e-2),
    ]
    return profiles, surgeries


GOLDEN_PROFILES = [p for group in _golden_profiles() for p in group]


@pytest.mark.parametrize("p", GOLDEN_PROFILES, ids=[f"golden-{i}" for i in range(len(GOLDEN_PROFILES))])
def test_cached_results_equal_a_fresh_profile(p):
    """The results cached on a profile, here filled by a surgery or a
    report, equal those of a fresh profile on the same vertices and tags."""
    if isinstance(p, geometry.MomentProfile):
        report(p)
    else:
        p = p.profile
    fresh = MomentProfile(p.vertices, p.tags)
    assert classify(p) == geometry._classify(fresh)
    assert area(p) == invariants._area(fresh)
    assert report(p).classification is classify(p)
