"""A fixed reference computation that measures the host's current speed.

On a shared host the same work takes up to twice as long from one
second to the next, for every process alike.  The workers time this
computation every REFERENCE_EVERY_S of a timed phase; an item's latency
is scaled by REFERENCE_MS over the reference time measured around it, so
that it reads as milliseconds on a host running at reference speed.  The
computation mixes what toricsys spends its time on: an interpreted loop,
float arithmetic on tuples held in a dict, allocation of tuples and small
objects, calls returning tuples, sorting and summing a random polyline,
and small numpy calls; a mix tracks every workload's slowdowns better than
any one of these alone.  It never calls toricsys, so a change to the
program cannot change it.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

# Duration of one reference_kernel() call on a host at reference speed.
REFERENCE_MS = 0.75
REFERENCE_EVERY_S = 0.1


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x, self.y = x, y


def _pair(a: float, b: float) -> tuple[float, float]:
    return a * b, a + b


def reference_kernel() -> float:
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    total = float(acc)
    table = {}
    for i in range(60):
        x = (i * 0.37) % 1.0
        table[i] = (x, x * x, math.sqrt(x + 1.0))
    for a, b, c in table.values():
        total += a * b - c + math.atan2(a, c)
    pts = [(0.001 * i, 1.0 - 0.001 * i) for i in range(1500)]
    objs = {i: _Point(x, y) for i, (x, y) in enumerate(pts[::3])}
    total += sum(o.x * o.y for o in objs.values())
    for i in range(400):
        u, v = _pair(i * 0.5, 2.0)
        total += math.hypot(u, v)
    rng = random.Random(7)
    for k in (3, 6, 9):
        xs = sorted((rng.uniform(0.04, 0.96) for _ in range(k)), reverse=True)
        ys = sorted(rng.uniform(0.04, 0.96) for _ in range(k))
        poly = [(1.0, 0.0)] + list(zip(xs, ys)) + [(0.0, 1.0)]
        total += 0.5 * math.fsum(p[0] * q[1] - p[1] * q[0] for p, q in zip(poly, poly[1:]))
    arr = np.arange(64.0)
    return total + float(np.hypot(arr, arr[::-1]).sum())


def reference_ns(repeats: int = 2) -> float:
    """Mean duration of a few reference_kernel() calls, in ns."""
    t0 = time.perf_counter_ns()
    for _ in range(repeats):
        reference_kernel()
    return (time.perf_counter_ns() - t0) / repeats
