"""One benchmark worker process.

Usage: python3 bench/worker.py WORKLOAD SEED BUDGET_S TRACE INDEX WORKERS

Cold start (interpreter, ``import toricsys`` from the checkout's ``src``,
the seeded inputs, one warm-up item of each kind), then ``ready`` on
stdout.  Then whole rounds of the workload's items, one at a time, until
the round that ends nearest BUDGET_S.  Then the checks on the first
round's outputs: this worker checks items INDEX, INDEX + WORKERS, ...,
and every later round must reproduce the first round's outputs exactly.
The last stdout line is a JSON summary for run.py.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
sys.path.insert(0, str(ROOT / "src"))

import toricsys  # noqa: E402

if Path(toricsys.__file__).resolve().parent != ROOT / "src" / "toricsys":
    sys.exit(f"toricsys imported from {toricsys.__file__}, not from {ROOT / 'src'}")

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MAX_PROBLEMS = 20


class Failure:
    """Output of an item whose operation raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"Failure({self.text!r})"


def run_item(item, rec) -> object:
    if rec is not None:
        span = rec.open(rec.name_id(spans.ITEM))
    try:
        return item.run()
    except Exception as exc:  # an operation that fails is counted, not fatal
        return Failure(exc)
    finally:
        if rec is not None:
            rec.close(span)


def is_failed(item, out) -> bool:
    return isinstance(out, Failure) or (item.fault is not None and item.fault(out))


def warm_up(items, rec) -> None:
    """Run the smallest item of each kind once, so that imports, caches
    and lazy set-up are paid before timing starts."""
    first: dict = {}
    for item in items:
        if item.kind not in first or item.size < first[item.kind].size:
            first[item.kind] = item
    for item in first.values():
        run_item(item, rec)


@dataclass
class Timed:
    latencies: list = field(default_factory=list)  # ns, as measured
    scaled: list = field(default_factory=list)  # ns at reference speed
    references: list = field(default_factory=list)  # reference times, ns
    outputs: list = field(default_factory=list)  # of the first round
    digests: list = field(default_factory=list)  # of the first round
    failed: int = 0
    mismatches: int = 0  # later outputs unlike the first round's
    rounds: int = 0
    meta: list = field(default_factory=list)  # (kind, eps) per item, traced runs


def timed_rounds(items, budget: float, rec) -> Timed:
    """Whole rounds, one item at a time, until the round that ends
    nearest the budget.  The reference computation is timed before the
    first item, every REFERENCE_EVERY_S and after the last item; each
    latency is also given scaled to reference speed, by the mean of the
    two reference times around it."""
    t = Timed(references=[reference.reference_ns()])
    blocks = []
    last_ref = t_start = time.perf_counter()
    while True:
        for index, item in enumerate(items):
            if rec is not None:
                rec.current_item = len(t.meta)
                t.meta.append((item.kind, item.eps))
            t0 = time.perf_counter_ns()
            out = run_item(item, rec)
            t.latencies.append(time.perf_counter_ns() - t0)
            blocks.append(len(t.references) - 1)
            t.failed += is_failed(item, out)
            if t.rounds == 0:
                t.outputs.append(out)
                t.digests.append(workloads.digest(out))
            elif workloads.digest(out) != t.digests[index]:
                t.mismatches += 1
            if time.perf_counter() - last_ref >= reference.REFERENCE_EVERY_S:
                t.references.append(reference.reference_ns())
                last_ref = time.perf_counter()
        t.rounds += 1
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / t.rounds / 2 >= budget:
            break
    refs = t.references
    refs.append(reference.reference_ns())
    ref_ns = reference.REFERENCE_MS * 1e6
    t.scaled = [ns * ref_ns * 2 / (refs[b] + refs[b + 1]) for ns, b in zip(t.latencies, blocks)]
    return t


def check_share(items, outputs, index: int, workers: int) -> list[str]:
    problems = []
    for i in range(index, len(items), workers):
        item, out = items[i], outputs[i]
        if is_failed(item, out):
            continue
        try:
            found = item.check(out)
        except Exception:
            found = [traceback.format_exc(limit=3)]
        problems.extend(f"item {i} ({item.kind}): {p}" for p in found)
    return problems


def main(argv) -> int:
    name, seed, budget, traced, index, workers = argv
    seed, budget, index, workers = int(seed), float(budget), int(index), int(workers)
    rec = None
    missing: list[str] = []
    if traced == "1":
        rec = spans.Recorder()
        missing = rec.install(toricsys)
    items = workloads.build(name, seed)
    warm_up(items, rec)
    if rec is not None:
        rec.clear()
    print("ready", flush=True)

    t = timed_rounds(items, budget, rec)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if rec is not None:
        rec.on = False
    problems = check_share(items, t.outputs, index, workers)
    if t.mismatches:
        problems.append(f"{t.mismatches} outputs differ from the first round's")
    result = {
        "attempted": len(t.latencies),
        "failed": t.failed,
        "rounds": t.rounds,
        "latencies_ns": t.latencies,
        "scaled_latencies_ns": t.scaled,
        "first_reference_ns": t.references[0],
        "peak_rss_mb": peak_rss_mb,
        "problems": problems[:MAX_PROBLEMS],
        "n_problems": len(problems),
        "outputs_sha256": hashlib.sha256("\n".join(t.digests).encode()).hexdigest(),
    }
    if rec is not None:
        RESULTS.mkdir(exist_ok=True)
        rec.write(RESULTS / f"trace-{name}-w{index}.csv")
        result["trace"] = rec.summary(t.meta, [x / ns for x, ns in zip(t.scaled, t.latencies)])
        result["unwrapped"] = missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
