"""Benchmark for toricsys: one workload, one seed, one JSON line.

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the root of a checkout.  The measured time is split over
WORKERS worker processes that run one after the other, never together;
each is a cold start followed by a closed loop of one client (see
worker.py).  setup_s is the median of their cold starts.  With --trace 0
the last stdout line carries the end-to-end metrics, with --trace 1 the
per-layer metrics of a run whose public toricsys functions are wrapped
by span recorders.  Details go to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("corpus", "dense", "sweep", "certify")
WORKERS = 5
# A worker that is not ready after this long, or not done this long
# after its budget, is stopped.
SETUP_TIMEOUT_S = 60
TAIL_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_ms_p50", "ms"),
    ("item_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)
SELF_MS = (
    "geometry.build", "geometry.classify", "invariants.area", "invariants.ruelle_quadrature",
    "invariants.report", "invariants.gromov_width", "reeb.t_min_fast", "reeb.t_min_oracle",
    "reeb.orbits_at_vertex", "surgery.strangulate", "surgery.strain",
    "surgery.flatten_near_intercept", "experiments.run_sweep", "profile_io.roundtrip",
    "cli.main", "bench.item",
)
EXPONENTS = (
    "invariants.report.n_exponent",
    "reeb.t_min_fast.eps_exponent",
    "reeb.orbits_at_vertex.eps_exponent",
)


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, budget: float, trace: int, index: int):
    """Start one worker and return its summary, with the seconds until
    it was ready added, as measured and at reference speed."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        workload, str(seed), repr(budget), str(trace), str(index), str(WORKERS),
    ]
    before = reference.reference_ns()
    t0 = time.perf_counter()
    # Unbuffered, so that readline() takes no bytes that communicate() needs.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(SETUP_TIMEOUT_S):
                raise WorkerError(f"worker {index} not ready after {SETUP_TIMEOUT_S} s")
            line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != b"ready":
            raise WorkerError(f"worker {index} did not start: {line.strip()!r}")
        out, _ = proc.communicate(timeout=budget + TAIL_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker {index} exited with code {proc.returncode}")
    part = json.loads(out.decode().strip().splitlines()[-1])
    part["setup_s"] = setup
    # Scaled to reference speed by the reference times just before the
    # worker started and just after it was ready.
    part["scaled_setup_s"] = setup * reference.REFERENCE_MS * 2e6 / (before + part["first_reference_ns"])
    return part


def end_to_end(parts: list, scaled: str = "scaled_") -> dict:
    """The end-to-end metrics, at reference speed or, with scaled="", as
    measured."""
    latencies = sorted(ns / 1e6 for p in parts for ns in p[scaled + "latencies_ns"])
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "setup_s": statistics.median(p[scaled + "setup_s"] for p in parts),
        "items_per_s": len(latencies) / (sum(latencies) / 1e3),
        "item_ms_p50": statistics.median(latencies),
        "item_ms_p90": deciles[8],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in parts),
    }


def per_layer(parts: list) -> dict:
    items = sum(p["attempted"] for p in parts)
    names: dict = {}
    fits = {name: spans.Fit() for name in EXPONENTS}
    for p in parts:
        for name, agg in p["trace"]["names"].items():
            total = names.setdefault(name, {"self_ns": 0, "calls": 0, "attr": 0.0})
            for key in total:
                total[key] += agg[key]
        for name, state in p["trace"]["fits"].items():
            fits[name].merge(state)

    def total(name, key):
        return names.get(name, {}).get(key, 0)

    metrics = {}
    for name in SELF_MS:
        metrics[f"{name}.self_ms"] = (total(name, "self_ns") / 1e6 / items, "ms")
    metrics["invariants.area.calls"] = (total("invariants.area", "calls") / items, "calls/item")
    metrics["reeb.t_min.calls"] = (
        (total("reeb.t_min_fast", "calls") + total("reeb.t_min_oracle", "calls")) / items,
        "calls/item",
    )
    metrics["reeb.orbits_at_vertex.orbits"] = (
        total("reeb.orbits_at_vertex", "attr") / items, "orbits/item",
    )
    for name, fit in fits.items():
        metrics[name] = (fit.slope(), "slope")
    scaled_s = sum(ns for p in parts for ns in p["scaled_latencies_ns"]) / 1e9
    metrics["trace.items_per_s"] = (items / scaled_s, "1/s")
    metrics["trace.unwrapped"] = (len(parts[0]["unwrapped"]), "count")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    parts = [run_worker(workload, seed, seconds / WORKERS, trace, index) for index in range(WORKERS)]
    problems = [p for part in parts for p in part["problems"]]
    if len({part["outputs_sha256"] for part in parts}) != 1:
        problems.append("workers produced different outputs for the same inputs")
    correct = not problems and all(part["n_problems"] == 0 for part in parts)
    if trace:
        metrics = per_layer(parts)
    else:
        units = dict(END_TO_END)
        metrics = {k: (v, units[k]) for k, v in end_to_end(parts).items()}
    result = {
        "correct": correct,
        "attempted": sum(part["attempted"] for part in parts),
        "failed": sum(part["failed"] for part in parts),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "setups_s": [p["setup_s"] for p in parts], "rounds": [p["rounds"] for p in parts],
        "problems": problems, "unwrapped": parts[0].get("unwrapped", []), **result,
        "as_measured": end_to_end(parts, scaled=""),
    }
    (RESULTS / f"{workload}-trace{trace}.json").write_text(json.dumps(details, indent=1) + "\n")
    for problem in problems:
        print(f"{workload}: check failed: {problem}", file=sys.stderr)
    for name in details["unwrapped"]:
        print(f"{workload}: could not wrap {name}", file=sys.stderr)
    return result


def show(workload: str, result: dict) -> None:
    print(
        f"{workload}: correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']}"
    )
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "toricsys" / "__init__.py").is_file():
        print(f"error: no toricsys package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            show(name, results[name])
            if len(names) > 1:
                print(json.dumps(results[name]))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{k}": m for name, r in results.items() for k, m in r["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
