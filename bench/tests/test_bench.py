"""Tests of the benchmark's own checks and of short runs.

Each check must reject an output perturbed the way a wrong program would
perturb it; each workload must run one round in a worker process and
report what it attempted and what failed.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from worker import is_failed, run_item  # noqa: E402

SEED = 3


def first_of(name: str, kind: str, eps=None):
    for item in workloads.build(name, SEED):
        if item.kind == kind and (eps is None or math.isclose(item.eps, eps)):
            return item
    raise LookupError(kind)


def replace_report(out, index, **changes):
    out = list(out)
    out[index] = dataclasses.replace(out[index], **changes)
    return tuple(out)


def scale(field, factor=1 + 1e-6):
    def perturb(out, index):
        return replace_report(out, index, **{field: getattr(out[index], field) * factor})
    return perturb


# (workload, item kind, eps, index of the report in the output, perturbation, expected text)
REPORT_CASES = [
    ("corpus", "corpus.monotone", None, 2, scale("area"), "area"),
    ("corpus", "corpus.star", None, 2, scale("ruelle"), "ruelle"),
    ("corpus", "corpus.convex", None, 2, scale("ruelle_quadrature", 1 + 1e-8), "ruelle_quadrature"),
    ("corpus", "corpus.ellipsoid", None, 2, scale("t_min"), "t_min"),
    ("corpus", "corpus.fc", None, 2, scale("area", 1 + 1e-7), "area"),
    ("corpus", "corpus.polydisk", None, 2, scale("product"), "product"),
    ("corpus", "corpus.monotone", None, 2, scale("sys"), "sys"),
    ("dense", "dense.ellipsoid", None, 2, scale("area", 1 + 1e-9), "area"),
    ("dense", "dense.fc", None, 2, scale("ruelle_quadrature", 1 + 1e-8), "ruelle_quadrature"),
    ("dense", "dense.rounded_polydisk", None, 2, scale("area", 1 + 1e-8), "area"),
    ("dense", "dense.rounded_polygon", None, 2, scale("area", 1 + 1e-8), "area"),
    ("dense", "dense.ellipsoid", None, 2, scale("t_min"), "t_min"),
    ("sweep", "sweep.strangulate.ray", None, 0, scale("ruelle"), "ruelle"),
]


@pytest.fixture(scope="module")
def outputs():
    cache = {}

    def get(name, kind, eps=None):
        key = (name, kind, eps)
        if key not in cache:
            item = first_of(name, kind, eps)
            out = run_item(item, None)
            assert not is_failed(item, out), out
            assert item.check(out) == [], item.check(out)
            cache[key] = item, out
        return cache[key]

    return get


@pytest.mark.parametrize("name,kind,eps,index,perturb,text", REPORT_CASES)
def test_report_checks_reject_perturbed_values(outputs, name, kind, eps, index, perturb, text):
    item, out = outputs(name, kind, eps)
    problems = item.check(perturb(out, index))
    assert any(p.startswith(text) for p in problems), problems


def test_monotone_bound_rejects_small_product(outputs):
    item, out = outputs("corpus", "corpus.monotone")
    rep = out[2]
    t = rep.t_min * 0.4 / rep.product
    bad = replace_report(out, 2, t_min=t, sys=t * t / rep.contact_volume, product=0.4)
    assert any("outside [0.5" in p for p in item.check(bad))


def test_convex_bound_rejects_large_product(outputs):
    item, out = outputs("corpus", "corpus.convex")
    rep = out[2]
    t = rep.t_min * 3.5 / rep.product
    bad = replace_report(out, 2, t_min=t, sys=t * t / rep.contact_volume, product=3.5)
    assert any("outside [0.5, 3.0]" in p for p in item.check(bad))


def test_corpus_checks_reject_wrong_flags_gromov_and_round_trip(outputs):
    geometry = workloads.geometry
    item, out = outputs("corpus", "corpus.ellipsoid")
    p, cls, rep, gw, back = out
    flags = dataclasses.replace(rep.classification, convex_4d=False)
    assert any("convex_4d" in x for x in item.check(replace_report(out, 2, classification=flags)))
    assert any("gromov" in x for x in item.check((p, cls, rep, gw * 1.01, back)))
    moved = geometry.from_vertices([(x * 1.001, y) for x, y in back.vertices])
    assert any("round trip" in x for x in item.check((p, cls, rep, gw, moved)))


def test_scaling_check_uses_the_scaled_profile(outputs):
    item, out = outputs("corpus", "corpus.star")
    p, cls, rep, gw, back = out
    # A product that is self-consistent but not scale invariant.
    other = workloads.invariants.report(workloads.geometry.ellipsoid(1.0, 4.0))
    assert any("scaled" in x for x in item.check((p, cls, other, gw, back)))


def test_cli_check_rejects_changed_text_and_exit_code(outputs):
    item, (code, text) = outputs("corpus", "corpus.cli")
    assert item.check((code, text)) == []
    assert any("exit code" in p for p in item.check((1, text)))
    changed = text.replace("area = ", "area = 1", 1)
    assert any(": area = 1" in p for p in item.check((code, changed)))
    assert any("no t_min line" in p for p in item.check((code, text.replace("t_min =", "tmin ="))))


def test_dense_check_rejects_wrong_segment_count(outputs):
    item, (p, cls, rep) = outputs("dense", "dense.fc")
    smaller = workloads.geometry.fc_domain(2.0, 0.7, 4)
    assert any("segments" in x for x in item.check((smaller, cls, rep)))


def test_diagonal_strangulation_checks(outputs):
    item, rec = outputs("sweep", "sweep.strangulate.diagonal", 1e-2)
    eps = item.eps
    assert any("> 2 eps" in p for p in item.check(dataclasses.replace(rec, t_min=2.1 * eps)))
    assert any("4 eps^2" in p for p in item.check(dataclasses.replace(rec, sys=rec.sys * 1e3 + 1)))
    assert any("ruelle" in p for p in item.check(dataclasses.replace(rec, ruelle=rec.ruelle * 1.01)))
    assert any("bound" in p for p in item.check(dataclasses.replace(rec, bound_holds=False)))
    wide = dataclasses.replace(rec, vol_delta=2 * rec.vol_delta_bound)
    assert item.fault(wide)
    assert any("volume_delta" in p for p in item.check(wide))
    assert any("area of the input" in p for p in item.check(dataclasses.replace(rec, area=rec.area * 1.01)))


def test_strain_checks(outputs):
    item, rec = outputs("sweep", "sweep.strain", 1e-3)
    assert any("ruelle" in p for p in item.check(dataclasses.replace(rec, ruelle=rec.ruelle + 1e-6)))
    assert any("T_min(in)/2" in p for p in item.check(dataclasses.replace(rec, t_min=rec.t_min / 3)))
    assert any("product" in p for p in item.check(dataclasses.replace(rec, product=0.0)))
    assert any("volume_delta" in p for p in item.check(dataclasses.replace(rec, vol_delta=1.0)))


def test_certify_check_rejects_disagreement(outputs):
    item, ((fast, fw), (oracle, ow)) = outputs("certify", "certify.star")
    other = dataclasses.replace(ow, mn=(ow.mn[0] + 1, ow.mn[1]))
    assert any("oracle" in p for p in item.check(((fast, fw), (oracle, other))))
    assert any("oracle" in p for p in item.check(((fast, fw), (oracle * 0.999, ow))))
    assert any("outside" in p for p in item.check(((fast * 1e3, fw), (oracle * 1e3, ow))))


# ---------------------------------------------------------------------------
# Short runs: one worker, one round per workload.

EXPECTED_FAILED = {"corpus": 0, "dense": 0, "sweep": 9, "certify": 0}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_short_run_reports_attempted_and_failed(name):
    traced = int(name == "sweep")
    part = run.run_worker(name, SEED, 0.01, traced, 0)
    assert part["setup_s"] > 0 and part["scaled_setup_s"] > 0
    assert part["rounds"] == 1
    assert part["attempted"] == len(workloads.build(name, SEED))
    assert part["failed"] == EXPECTED_FAILED[name]
    assert part["n_problems"] == 0, part["problems"]
    if traced:
        metrics = run.per_layer([part])
        assert metrics["trace.unwrapped"][0] == 0
        assert metrics["reeb.t_min.calls"][0] > 0
        assert metrics["reeb.t_min_fast.eps_exponent"][0] > 0
        assert metrics["reeb.orbits_at_vertex.orbits"][0] > 0
    else:
        e2e = run.end_to_end([part])
        assert set(e2e) == {name for name, _ in run.END_TO_END}
        assert all(v > 0 for v in e2e.values())


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
