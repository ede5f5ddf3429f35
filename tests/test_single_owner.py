"""Each decision has one owner: the profile constructor validates, one
family table serves inline specs and profile files, one ray-polyline
intersection serves strangulation and radial projection, the orbit
listing lives in ``reeb``, and every CLI flag is read by its command."""

import math
import random

import pytest

from toricsys import cli, profile_io, reeb, surgery
from toricsys.errors import (
    AxisViolation,
    NotStarShaped,
    ParamOutOfRange,
    RayMissesBoundary,
)
from toricsys.experiments import random_star_profile
from toricsys.geometry import (
    FAMILIES,
    MomentProfile,
    ball,
    classify,
    cross,
    dot,
    ellipsoid,
    fc_domain,
    from_vertices,
    polydisk,
    ray_hit,
    smooth_corners,
)


# ---------------------------------------------------------------------------
# Validation by construction


class TestConstructorValidates:
    @pytest.mark.parametrize(
        "verts, error",
        [
            (((1.0, 0.1), (0.0, 1.0)), AxisViolation),
            (((1.0, 0.0), (0.1, 1.0)), AxisViolation),
            (((1.0, 0.0), (0.5, 0.0), (0.0, 1.0)), AxisViolation),
            (((1.0, 0.0), (0.5, 1.0), (0.8, 1.1), (0.0, 2.0)), NotStarShaped),
        ],
    )
    def test_direct_construction_rejects(self, verts, error):
        with pytest.raises(error):
            MomentProfile(verts)

    @pytest.mark.parametrize("n_tags", [1, 3])
    def test_wrong_tag_count(self, n_tags):
        with pytest.raises(ParamOutOfRange):
            MomentProfile(((1.0, 0.0), (1.0, 1.0), (0.0, 1.0)), (None,) * n_tags)

    def test_one_tag_per_segment_accepted(self):
        p = MomentProfile(((1.0, 0.0), (1.0, 1.0), (0.0, 1.0)), (None, None))
        assert p.n_segments == 2

    def test_near_axis_endpoints_snapped(self):
        p = MomentProfile(((2.0, 1e-12), (1.0, 1.0), (-1e-12, 2.0)))
        assert p.vertices == ((2.0, 0.0), (1.0, 1.0), (0.0, 2.0))

    def test_coordinates_become_float(self):
        p = MomentProfile(((1, 0), (1, 2), (0, 2)))
        assert all(type(c) is float for v in p.vertices for c in v)
        assert p.vertices == polydisk(1, 2).vertices

    def test_scaled_is_validated(self):
        p = from_vertices([(1, 0), (0.5, 0.5), (0, 1)]).scaled(3)
        assert p.vertices == ((3.0, 0.0), (1.5, 1.5), (0.0, 3.0))


# ---------------------------------------------------------------------------
# Convexity needs monotonicity


class TestConvex4d:
    def test_polydisk_is_convex(self):
        c = classify(polydisk(1, 2))
        assert c.convex_4d and "convex_4d" not in c.witnesses

    def test_smoothed_polydisk_is_convex(self):
        assert classify(smooth_corners(polydisk(1, 2), 0.2, 16)).convex_4d

    def test_nonmonotone_is_not_convex(self):
        c = classify(from_vertices([(1, 0), (0.8, 1.2), (0, 1)]))
        assert not c.monotone and not c.convex_4d
        assert c.witnesses["convex_4d"] == c.witnesses["monotone"]

    def test_random_star_profiles(self):
        rng = random.Random(0)
        for _ in range(1000):
            c = classify(random_star_profile(rng))
            assert c.monotone or not c.convex_4d


# ---------------------------------------------------------------------------
# One ray-polyline intersection


def old_ray_hit(p, u):
    """The strangulation ray hit before it moved to geometry.ray_hit."""
    for i in range(p.n_segments):
        a, b = p.segment(i)
        d = (b[0] - a[0], b[1] - a[1])
        denom = cross(u, d)
        if abs(denom) < 1e-300:
            continue
        s = cross(u, a) / -denom
        if -1e-12 <= s <= 1 + 1e-12:
            t = cross(a, d) / denom
            if t > 0:
                return t, i
    raise RayMissesBoundary(f"ray direction {u} does not hit the profile")


def old_project_radial(p, x):
    """reeb.project_radial before it became a wrapper of ray_hit."""
    for i in range(p.n_segments):
        a, b = p.segment(i)
        denom = cross((b[0] - a[0], b[1] - a[1]), x)
        if abs(denom) < 1e-300:
            continue
        s = cross((x[0] - a[0], x[1] - a[1]), x) / denom
        if -1e-9 <= s <= 1 + 1e-9:
            pt = (a[0] + s * (b[0] - a[0]), a[1] + s * (b[1] - a[1]))
            if dot(pt, x) > 0:
                return pt, i
    raise AssertionError("miss")


def _star_profiles():
    rng = random.Random(11)
    return [random_star_profile(rng) for _ in range(40)] + [
        polydisk(1, 2), ellipsoid(1.5, 2, 4), fc_domain(2, 0.7, 16),
    ]


ANGLES = [k * (math.pi / 2) / 17 for k in range(1, 17)] + [math.pi / 4]


class TestRayHit:
    def test_matches_old_strangulation_hit(self):
        for p in _star_profiles():
            for ang in ANGLES:
                u = (math.cos(ang), math.sin(ang))
                t, s, i = ray_hit(p, u)
                assert (t, i) == old_ray_hit(p, u)
                assert -1e-12 <= s <= 1 + 1e-12

    def test_project_radial_agrees_with_old_loop(self):
        for p in _star_profiles():
            for ang in ANGLES:
                x = (0.3 * math.cos(ang), 0.3 * math.sin(ang))
                (px, py), i = reeb.project_radial(p, x)
                (qx, qy), j = old_project_radial(p, x)
                assert i == j
                assert px == pytest.approx(qx, rel=1e-12, abs=1e-15)
                assert py == pytest.approx(qy, rel=1e-12, abs=1e-15)

    def test_axis_direction_misses(self):
        with pytest.raises(RayMissesBoundary):
            ray_hit(ball(1), (-1.0, -1.0))


# ---------------------------------------------------------------------------
# Orbit listing


def old_cli_orbits(p, cutoff):
    """The orbit listing as the CLI's ``orbits`` command built it."""
    orbits = [o for o in reeb._base_candidates(p) if o.action <= cutoff]
    for vi in range(1, len(p.vertices) - 1):
        orbits.extend(reeb.orbits_at_vertex(p, vi, cutoff))
    orbits.sort(key=reeb.OrbitDatum.sort_key)
    return orbits


class TestOrbitsBelow:
    @pytest.mark.parametrize(
        "p, cutoff",
        [
            (polydisk(1, 2), 4),
            (ellipsoid(1, 1, 3), 1.5),
            (ball(2, 16), 3),
            (surgery.strangulate(ball(2), 0.1).profile, 2),
            (smooth_corners(polydisk(1, 2), 0.2, 4), 3),
        ],
    )
    def test_matches_old_cli_loop(self, p, cutoff):
        assert reeb.orbits_below(p, cutoff) == old_cli_orbits(p, cutoff)

    def test_random_star_profiles(self):
        rng = random.Random(5)
        for _ in range(20):
            p = random_star_profile(rng)
            assert reeb.orbits_below(p, 3.0) == old_cli_orbits(p, 3.0)


# ---------------------------------------------------------------------------
# One family table

SPECS = {"ellipsoid": "1,4,3", "polydisk": "1,2", "ball": "2,5", "fc": "2,0.7,6"}


class TestFamilies:
    def test_every_family_has_a_spec(self):
        assert set(SPECS) == set(FAMILIES)

    @pytest.mark.parametrize("family", sorted(SPECS))
    def test_round_trip(self, family):
        p = cli.resolve_profile(f"{family}:{SPECS[family]}")
        back = profile_io.loads(profile_io.dumps(p))
        assert back.family == p.family != "custom"
        assert back.params == p.params
        assert back.vertices == p.vertices
        assert len(back.tags) == len(p.tags)
        assert [t is None for t in back.tags] == [t is None for t in p.tags]

    @pytest.mark.parametrize(
        "spec, direct",
        [
            ("ellipsoid:1,4", ellipsoid(1, 4)),
            ("polydisk:1,2", polydisk(1, 2)),
            ("ball:2", ball(2)),
            ("fc:2,0.7", fc_domain(2, 0.7)),
        ],
    )
    def test_defaults_match_constructor(self, spec, direct):
        p = cli.resolve_profile(spec)
        assert (p.vertices, p.family, p.params) == (direct.vertices, direct.family, direct.params)

    @pytest.mark.parametrize(
        "line, replacement",
        [
            ("param b = 4", ""),  # KeyError
            ("param n = 1", "param n = inf"),  # OverflowError
            ("param n = 1", "param n = nan"),  # ValueError
            ("param a = 1", "param a = -1"),  # ParamOutOfRange
        ],
    )
    def test_failed_rebuild_falls_back_to_file_vertices(self, line, replacement):
        text = profile_io.dumps(ellipsoid(1, 4, 1))
        assert line in text.splitlines()
        p = profile_io.loads(text.replace(line, replacement))
        assert p.vertices == ellipsoid(1, 4, 1).vertices


# ---------------------------------------------------------------------------
# CLI flags


OPTIONS = {
    "classify": set(),
    "invariants": {"--csv", "--svg"},
    "tmin": {"--method", "--oracle-n"},
    "verify-ruelle": {"--n"},
    "orbits": {"--cutoff", "--csv"},
    "strangulate": {"--eps", "--ray", "--out", "--svg"},
    "strain": {"--eps", "--flatten", "--out", "--svg"},
    "sweep": {"--op", "--profile", "--eps-grid", "--csv", "--svg"},
    "bounds": {"--corpus", "--seed"},
    "fc-scan": {"--b", "--grid", "--grid-n"},
}

MINIMAL_ARGS = {
    "classify": ["ball:1"],
    "invariants": ["ball:1"],
    "tmin": ["ball:1"],
    "verify-ruelle": ["ball:1"],
    "orbits": ["ball:1", "--cutoff", "1"],
    "strangulate": ["ball:1", "--eps", "0.1"],
    "strain": ["ball:1", "--eps", "0.1"],
    "sweep": ["--op", "strain", "--profile", "ball:1", "--eps-grid", "0.1"],
    "bounds": [],
    "fc-scan": ["--b", "1"],
}


def _subparsers():
    ap = cli.build_parser()
    (action,) = [a for a in ap._actions if a.dest == "command"]
    return action.choices


class TestCliFlags:
    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_exact_option_sets(self):
        got = {
            name: {
                opt for a in sp._actions for opt in a.option_strings
                if opt not in ("-h", "--help")
            }
            for name, sp in _subparsers().items()
        }
        assert got == OPTIONS

    @pytest.mark.parametrize("command", sorted(MINIMAL_ARGS))
    def test_tol_is_rejected(self, command):
        assert cli.build_parser().parse_args([command, *MINIMAL_ARGS[command]])
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([command, *MINIMAL_ARGS[command], "--tol", "5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["invariants", "ball:2"], ("--csv", "--svg")),
            (["orbits", "polydisk:1,2", "--cutoff", "3"], ("--csv",)),
            (["sweep", "--op", "strangulate", "--profile", "ball:2",
              "--eps-grid", "0.1,0.05"], ("--csv", "--svg")),
            (["strangulate", "ball:2", "--eps", "0.1"], ("--svg",)),
            (["strain", "ellipsoid:1,4,1", "--eps", "0.01"], ("--svg",)),
        ],
    )
    def test_output_flags_write_files(self, tmp_path, capsys, argv, flags):
        paths = {flag: tmp_path / f"out{flag.replace('-', '_')}" for flag in flags}
        extra = [x for flag, path in paths.items() for x in (flag, str(path))]
        assert cli.main(argv + extra) == 0
        for flag, path in paths.items():
            text = path.read_text()
            assert text
            if flag == "--svg":
                assert text.startswith("<svg")

    def test_oracle_n_is_read_by_tmin(self, tmp_path, capsys):
        out = tmp_path / "strangulated.txt"
        assert cli.main(["strangulate", "ball:2", "--eps", "0.1", "--out", str(out)]) == 0
        assert cli.main(["tmin", str(out), "--method", "oracle", "--oracle-n", "200"]) == 0
        assert cli.main(["tmin", str(out), "--method", "oracle", "--oracle-n", "1"]) == 2
        assert "OracleCutoffInsufficient" in capsys.readouterr().err
