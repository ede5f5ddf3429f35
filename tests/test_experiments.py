import math
import random
import re

import pytest

from toricsys import ParamOutOfRange, ball, ellipsoid, fc_domain, polydisk
from toricsys import cli, experiments, profile_io
from toricsys.experiments import (
    RunConfig,
    run_corpus_bounds,
    run_fc_scan,
    run_sweep,
)


class TestSweep:
    def test_strangulation_records(self, tmp_path):
        csv = tmp_path / "s.csv"
        svg = tmp_path / "s.svg"
        cfg = RunConfig(
            profile=ball(2), op="strangulate", eps_grid=(0.1, 0.2),
            csv_path=str(csv), svg_path=str(svg),
        )
        recs = run_sweep(cfg)
        assert [r.eps for r in recs] == [0.2, 0.1]  # sorted descending
        for r in recs:
            assert r.error == ""
            assert r.ruelle == 4.0
            assert r.t_min <= 2 * r.eps + 1e-12
            assert abs(r.vol_delta) <= r.vol_delta_bound + 1e-9
            assert r.product == pytest.approx(
                r.ruelle * r.t_min / (2 * r.area), rel=1e-12
            )
        text = csv.read_text()
        assert text.startswith("#schema=1\n")
        assert "eps,area,ruelle" in text.splitlines()[1]
        assert "<svg" in svg.read_text()

    def test_strain_records(self):
        cfg = RunConfig(profile=ellipsoid(1, 4, 1), op="strain", eps_grid=(1e-2, 1e-3))
        recs = run_sweep(cfg)
        for r in recs:
            assert r.ruelle == 4 + 1 / math.sqrt(r.eps)
            assert r.bound_holds

    def test_errors_recorded_in_row(self):
        cfg = RunConfig(profile=ball(2), op="strangulate", eps_grid=(0.1, 5.0))
        recs = run_sweep(cfg)
        assert recs[0].error.startswith("EpsTooLarge")
        assert recs[1].error == ""

    @pytest.mark.parametrize(
        "op,profile,grid",
        [
            ("strangulate", ball(2), (0.2, 0.1, 0.05)),
            ("strain", ellipsoid(1, 4, 1), (1e-2, 1e-3, 1e-4)),
        ],
    )
    def test_grid_matches_single_points(self, op, profile, grid):
        whole = run_sweep(RunConfig(profile=profile, op=op, eps_grid=grid))
        single = [
            rec
            for eps in grid
            for rec in run_sweep(RunConfig(profile=profile, op=op, eps_grid=(eps,)))
        ]
        assert whole == single

    def test_empty_grid(self, tmp_path):
        csv = tmp_path / "empty.csv"
        cfg = RunConfig(profile=ball(2), op="strangulate", eps_grid=(), csv_path=str(csv))
        assert run_sweep(cfg) == []
        lines = csv.read_text().splitlines()
        assert lines[0] == "#schema=1" and len(lines) == 2

    def test_determinism(self, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            run_sweep(RunConfig(profile=ball(2), op="strangulate",
                                eps_grid=(0.05, 0.1), csv_path=str(path)))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]


class TestCorpusBounds:
    def test_bounds_hold(self):
        s = run_corpus_bounds(RunConfig(seed=1, corpus_size=20))
        assert s["violations"] == []
        assert s["monotone_min_product"] >= 0.5 - 1e-9
        assert s["convex_max_product"] <= 3 + 1e-9

    def test_seed_determinism(self):
        a = run_corpus_bounds(RunConfig(seed=2, corpus_size=10))
        b = run_corpus_bounds(RunConfig(seed=2, corpus_size=10))
        assert a == b

    def test_polydisk_product_sequence(self):
        from toricsys.invariants import report

        vals = [report(polydisk(1, b)).product for b in (1, 10, 100, 1000)]
        assert vals == pytest.approx([1, 0.55, 0.505, 0.5005], rel=1e-12)


class TestFcScan:
    def test_b1_max(self):
        lo = 0.5
        grid = [lo + (0.99 - lo) * i / 9 for i in range(10)]
        s = run_fc_scan(1, grid)
        assert s["argmax_c"] == pytest.approx(0.5)
        assert s["max_ratio"] == pytest.approx(3, abs=1e-6)

    def test_b2_max(self):
        lo = 2 / 3
        grid = [lo + (0.99 - lo) * i / 9 for i in range(10)]
        s = run_fc_scan(2, grid)
        assert s["argmax_c"] == pytest.approx(2 / 3)
        assert s["max_ratio"] == pytest.approx(2, abs=1e-6)

    def test_quadrature_matches_closed_form(self):
        grid = [0.7, 0.8, 0.9]
        s = run_fc_scan(2, grid)
        for r in s["records"]:
            assert r["vol_abs_err"] <= 1e-8

    def test_out_of_range(self):
        with pytest.raises(Exception):
            run_fc_scan(1, [0.2])


class TestProfileIO:
    def test_round_trip_bit_exact_polygonal(self):
        rng = random.Random(17)
        for _ in range(10):
            p = experiments.random_star_profile(rng)
            q = profile_io.loads(profile_io.dumps(p))
            assert q.vertices == p.vertices

    def test_family_rebuild_keeps_tags(self):
        p = fc_domain(1, 0.5, 8)
        q = profile_io.loads(profile_io.dumps(p))
        assert q.vertices == p.vertices
        assert q.family == "fc"
        assert q.tag(0) is not None

    def test_save_load(self, tmp_path):
        path = tmp_path / "p.txt"
        p = ellipsoid(1, 4, 3)
        profile_io.save(p, path)
        assert profile_io.load(path).vertices == p.vertices


class TestCli:
    def test_classify_exit_codes(self, capsys):
        assert cli.main(["classify", "ellipsoid:1,4,1"]) == 0
        out = capsys.readouterr().out
        assert "monotone = True" in out

    def test_invalid_profile_exits_2(self, capsys):
        assert cli.main(["classify", "polydisk:-1,2"]) == 2
        assert cli.main(["classify", "/nonexistent/path.txt"]) == 2

    @pytest.mark.parametrize(
        "spec,needs",
        [
            ("ellipsoid:1", "a,b[,n]"),
            ("ball:", "c[,n]"),
            ("fc:1", "b,c[,n]"),
            ("polydisk:1,2,3", "a,b"),
        ],
    )
    def test_short_family_spec_exits_2(self, spec, needs, capsys):
        with pytest.raises(ParamOutOfRange, match=re.escape(needs)):
            cli.resolve_profile(spec)
        assert cli.main(["invariants", spec]) == 2
        err = capsys.readouterr().err
        assert "ParamOutOfRange" in err and spec.partition(":")[0] in err

    def test_invariants_and_csv(self, tmp_path, capsys):
        csv = tmp_path / "r.csv"
        assert cli.main(["invariants", "ball:1", "--csv", str(csv)]) == 0
        assert "product = 2" in capsys.readouterr().out
        assert csv.read_text().startswith("#schema=1")

    def test_tmin_and_orbits(self, capsys):
        assert cli.main(["tmin", "polydisk:1,2", "--method", "oracle"]) == 0
        assert "t_min = 1" in capsys.readouterr().out
        assert cli.main(["orbits", "polydisk:1,2", "--cutoff", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "m,n,w1,w2,action,location_kind,location_index"

    def test_verify_ruelle(self, capsys):
        assert cli.main(["verify-ruelle", "fc:1,0.5,8"]) == 0

    def test_surgery_commands(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        assert cli.main(["strangulate", "ball:2", "--eps", "0.1",
                         "--out", str(out)]) == 0
        assert cli.main(["classify", str(out)]) == 0
        assert cli.main(["strain", "ellipsoid:1,4,1", "--eps", "0.01"]) == 0
        assert cli.main(["strangulate", "ball:2", "--eps", "5"]) == 2

    def test_sweep_and_scan(self, tmp_path, capsys):
        csv = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--op", "strangulate", "--profile", "ball:2",
                         "--eps-grid", "0.1,0.05", "--csv", str(csv)]) == 0
        assert cli.main(["fc-scan", "--b", "1", "--grid-n", "5"]) == 0

    def test_bounds(self, capsys):
        assert cli.main(["bounds", "--corpus", "5", "--seed", "3"]) == 0


class TestSvg:
    def test_profile_svg_ball(self, tmp_path):
        path = tmp_path / "b.svg"
        experiments.emit_profile_svg(ball(1), path)
        text = path.read_text()
        assert "<svg" in text and "polyline" in text and "circle" in text

    def test_profile_svg_with_overlay(self, tmp_path):
        path = tmp_path / "o.svg"
        experiments.emit_profile_svg(
            ball(2), path, overlay=[(0.1, 0.1), (1.1, 0.9), (0.9, 1.1)]
        )
        assert 'stroke="red"' in path.read_text()
