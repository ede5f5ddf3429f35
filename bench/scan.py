"""Run one round of a workload for a range of seeds, untimed, and report
per seed the items, the failed operations and the check problems.

    python3 bench/scan.py sweep 0 100

This is how the benchmark's empirical choices were made and how to
re-derive them: the smallest eps each sweep input validates at, the
certify grid, and the failed count of a sweep round (9 today).  A seed
whose failed count differs from the others' is printed with its failures.
"""

from __future__ import annotations

import collections
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402
from worker import check_share, is_failed, run_item  # noqa: E402


def main(argv) -> int:
    name, lo, hi = argv[0], int(argv[1]), int(argv[2])
    counts = collections.Counter()
    rows = []
    for seed in range(lo, hi):
        items = workloads.build(name, seed)
        outputs = [run_item(item, None) for item in items]
        failed = [
            (i, item.kind, item.eps, repr(out)[:100])
            for i, (item, out) in enumerate(zip(items, outputs))
            if is_failed(item, out)
        ]
        problems = check_share(items, outputs, 0, 1)
        counts[len(failed)] += 1
        rows.append((seed, len(items), failed, problems))
        print(f"seed {seed}: {len(items)} items, {len(failed)} failed, {len(problems)} problems", flush=True)
        for problem in problems[:5]:
            print(f"  problem: {problem}", flush=True)
    usual = counts.most_common(1)[0][0]
    for seed, _, failed, _ in rows:
        if len(failed) != usual:
            for f in failed:
                print(f"  seed {seed} failed: {f}")
    return 0 if len(counts) == 1 and all(not r[3] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
