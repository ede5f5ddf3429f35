"""Primitive integer vectors in a vertex normal cone.

The normal cone at a vertex v is the arc of outward normals from
``cone.start`` counterclockwise to ``cone.end`` (shorter than pi).  The
closed Reeb orbits at v are the primitive integer vectors (m, n) in it,
with action f(m, n) = m*v1 + n*v2.  This module owns the membership
predicate (``in_cone`` and its array form ``in_cone_mask``) and the
searches over those vectors:

* ``min_in_cone``: the vectors of least action, by a Stern-Brocot
  descent that takes each continued-fraction run of the cone's boundary
  directions in one step, so it costs O(log coefficient) Python steps
  instead of one per unit of each coefficient;
* ``enumerate_in_cone``: every vector with action below a cutoff, found
  line by line across the cone's bounding box, in memory proportional
  to the output;
* ``nearest_in_cone``: the small first-quadrant vector closest in angle
  to a given direction.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Optional

import numpy as np

from .errors import DegenerateDenominator
from .geometry import NormalCone, Point

# Relative tolerance for cone membership of integer directions.
CONE_TOL = 1e-9

# The quadrant arcs the descent starts from (those meeting the cone), taken
# as a stack takes them: the last one first.
_QUADRANTS = (
    ((1, 0), (0, 1)),
    ((0, 1), (-1, 0)),
    ((-1, 0), (0, -1)),
    ((0, -1), (1, 0)),
)

# An in-cone run shorter than _MIN_BULK_RUN is stepped through one node at
# a time: below it the numpy pass costs more than the Python steps it
# saves.  A longer one is taken in numpy passes of at most _MAX_BULK_RUN
# vectors, so memory stays bounded however small the cone's angle.
_MIN_BULK_RUN = 8
_MAX_BULK_RUN = 1 << 16

Vector = tuple[int, int]


def in_cone(cone: NormalCone, d) -> bool:
    """Is the direction d in the closed cone, up to CONE_TOL * |d|?"""
    tol = CONE_TOL * math.hypot(d[0], d[1])
    (sx, sy), (ex, ey) = cone.start, cone.end
    return sx * d[1] - sy * d[0] >= -tol and d[0] * ey - d[1] * ex >= -tol


def in_cone_mask(cone: NormalCone, m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``in_cone`` over integer arrays.  The norm is the square root of the
    exact integer m*m + n*n, the correctly rounded hypotenuse, which is what
    ``math.hypot`` returns (CPython 3.10 and later round it correctly
    almost always; ``np.hypot`` is often one unit off)."""
    tol = CONE_TOL * np.sqrt(m * m + n * n)
    (sx, sy), (ex, ey) = cone.start, cone.end
    return (sx * n - sy * m >= -tol) & (m * ey - n * ex >= -tol)


# ---------------------------------------------------------------------------
# Minimal action


def min_in_cone(
    cone: NormalCone, incumbent: float
) -> tuple[list[tuple[float, Vector]], int]:
    """Vectors (action, (m, n)) of least action in the cone, if that action
    is <= incumbent, and the number of descent steps taken.

    Stern-Brocot descent from the quadrant arcs, depth first, right child
    first, pruning a subtree (L, R) when f(L), f(R) > 0 and f(L) + f(R)
    exceeds the best action so far: every vector a*L + b*R inside it has
    action >= f(L) + f(R).  Ties with the incumbent are never pruned, so
    every vector of least action that the descent reaches is returned,
    and the caller's (action, m, n) tie-break matches the brute-force
    oracle.

    Within a continued-fraction run, consecutive nodes (X + k*F, F) (or
    (F, X + k*F)) share the endpoint F and repeat the same decisions.  Such
    a run is taken in one step: a run outside the cone jumps to its last
    node, located from the boundary crossings and confirmed (or found by
    galloping and bisection) with the same predicates; a run of in-cone
    vectors toward a boundary where f(F) <= 0 also jumps, and the actions
    of the vectors it skips are evaluated in one numpy pass.  The result
    is the one that taking every node in turn would give.
    """
    v0, v1 = cone.vertex
    (sx, sy), (ex, ey) = cone.start, cone.end
    tol_s = CONE_TOL * math.hypot(sx, sy)
    tol_e = CONE_TOL * math.hypot(ex, ey)

    def f(d) -> float:
        return d[0] * v0 + d[1] * v1

    inside = partial(in_cone, cone)

    def meets(L, R, in_l: bool, in_r: bool) -> bool:
        """Does the arc L -> R (shorter than pi) meet the cone arc?  Then
        one of the two arcs holds an endpoint of the other."""
        if in_l or in_r:
            return True
        return (
            L[0] * sy - L[1] * sx >= -tol_s and sx * R[1] - sy * R[0] >= -tol_s
        ) or (L[0] * ey - L[1] * ex >= -tol_e and ex * R[1] - ey * R[0] >= -tol_e)

    best = incumbent
    found: list[tuple[float, Vector]] = []

    def consider(d: Vector) -> None:
        nonlocal best
        a = f(d)
        if a <= best:
            best = a
            found.append((a, d))

    def out_run_node(X, F, in_f: bool, right: bool, k: int) -> bool:
        """Does node k of the run (X + kF with F) keep the outside pattern:
        not pruned, and only the child toward F meets the cone?"""
        Xk = (X[0] + k * F[0], X[1] + k * F[1])
        Xn = (Xk[0] + F[0], Xk[1] + F[1])
        fX, fF = f(Xk), f(F)
        if fX > 0 and fF > 0 and fX + fF > best:
            return False
        in_n = inside(Xn)
        if right:
            side, cont = meets(Xk, Xn, False, in_n), meets(Xn, F, in_n, in_f)
        else:
            side, cont = meets(Xn, Xk, in_n, False), meets(F, Xn, in_f, in_n)
        return cont and not side

    def run_end(X, F, ok, prune: bool) -> int:
        """First node k >= 1 of the run X + kF at which ``ok`` fails (node
        0 passed it), or 1 when the run is too short to jump.  The guess is
        where X + (k+1)F crosses a boundary ray's line or, when pruning
        applies, where f(X + kF) + f(F) first exceeds the best action;
        ``ok`` confirms it, or galloping and bisection find the end."""
        limits = []
        for c in (cone.start, cone.end):
            g0, g1 = c[0] * X[1] - c[1] * X[0], c[0] * F[1] - c[1] * F[0]
            if g0 * g1 < 0:
                limits.append(-g0 / g1 - 1)
        fF = f(F)
        if prune and fF > 0:
            limits.append((best - f(X) - fF) / fF)
        limit = min(limits, default=math.inf)
        if limit < 1:
            return 1
        if limit < 2**53:
            guess = math.floor(limit) + 1
            if ok(guess - 1) and not ok(guess):
                return guess
        if not ok(1):
            return 1
        lo, hi = 1, 2
        while ok(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if ok(mid):
                lo = mid
            else:
                hi = mid
        return hi

    axis = {d: inside(d) for d in ((1, 0), (0, 1), (-1, 0), (0, -1))}
    roots = [(L, R) for L, R in _QUADRANTS if meets(L, R, axis[L], axis[R])]
    seen: set[Vector] = set()
    steps = 0
    for L, R in reversed(roots):
        in_l, in_r = axis[L], axis[R]
        for d, ind in ((L, in_l), (R, in_r)):
            if ind and d not in seen:
                seen.add(d)
                consider(d)
        # Stack entries carry the endpoints' membership.  A mediant is
        # considered as soon as a child holding it is pushed: that child
        # is popped next, which is when a descent that considers both
        # endpoints of every popped node would first see it.
        stack = [(L, R, in_l, in_r)]
        while stack:
            steps += 1
            L, R, in_l, in_r = stack.pop()
            fL, fR = f(L), f(R)
            if fL > 0 and fR > 0 and fL + fR > best:
                continue
            M = (L[0] + R[0], L[1] + R[1])
            in_m = inside(M)
            left = meets(L, M, in_l, in_m)
            right = meets(M, R, in_m, in_r)
            if left:
                stack.append((L, M, in_l, in_m))
            if right:
                stack.append((M, R, in_m, in_r))
            if in_m:
                consider(M)

            if left != right:
                # Outside run: X + kF toward F, only the child toward F
                # meets the cone and nothing is considered.
                X, F, in_f = (L, R, in_r) if right else (R, L, in_l)
                K = run_end(X, F, lambda k: out_run_node(X, F, in_f, right, k), True)
                if K > 1:
                    XK = (X[0] + K * F[0], X[1] + K * F[1])
                    stack[-1] = (XK, F, False, in_f) if right else (F, XK, in_f, False)
            elif in_m and ((not in_r and fR <= 0) or (not in_l and fL <= 0)):
                # In-cone run toward an endpoint F outside the cone with
                # f(F) <= 0, so no node of it is pruned: node k considers
                # its mediant X + (k+1)F and pushes both children while that
                # mediant is in the cone.
                toward_r = not in_r and fR <= 0
                X, F = (L, R) if toward_r else (R, L)
                K = run_end(
                    X, F, lambda k: inside((X[0] + (k + 1) * F[0], X[1] + (k + 1) * F[1])), False
                )
                K = min(K, _MAX_BULK_RUN)
                if K >= _MIN_BULK_RUN:
                    k = np.arange(K + 1)
                    xs, ys = X[0] + k * F[0], X[1] + k * F[1]
                    fx = xs * v0 + ys * v1
                    # The best action before and after considering each of
                    # X + 2F, ..., X + KF in turn.
                    running = np.minimum.accumulate(np.concatenate(([best], fx[2:])))
                    # Jump only if every node's other child (X + kF and
                    # X + (k+1)F) is pruned when popped.  Toward L it is
                    # popped right after node k, with best action
                    # running[k]; toward R it waits under the run, for a
                    # best <= running[-1], and child 0 is already on the
                    # stack.  (Only an in-cone vector with f <= 0, on a
                    # degenerate cone, fails this; such runs are stepped.)
                    a, b = fx[1:], fx[:-1]
                    pruned = (a > 0) & (b > 0) & (a + b > (running[-1] if toward_r else running))
                    pruned[0] |= toward_r
                    if pruned.all():
                        # What ``consider`` would record for each vector,
                        # less those above the best action after the run,
                        # which the final filter drops anyway.
                        new = (fx[2:] <= running[:-1]) & (fx[2:] <= running[-1])
                        found.extend(
                            (a, (m, n))
                            for a, m, n in zip(
                                fx[2:][new].tolist(), xs[2:][new].tolist(), ys[2:][new].tolist()
                            )
                        )
                        best = float(running[-1])
                        XK = (int(xs[K]), int(ys[K]))
                        if toward_r:
                            stack[-1] = (XK, R, True, in_r)
                        else:
                            stack.pop()
                            stack[-1] = (L, XK, in_l, True)
    return [(a, d) for a, d in found if a <= best], steps


# ---------------------------------------------------------------------------
# Enumeration below a cutoff


def enumerate_in_cone(
    cone: NormalCone, cutoff: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every primitive (m, n) in the closed cone with action
    m*v1 + n*v2 <= cutoff (up to a relative 1e-12), as arrays m, n and
    action, in no particular order.

    The candidates lie in the bounding box of the triangle spanned by the
    origin and the two boundary rays cut at the cutoff (one unit of margin
    on each side).  Only the lattice lines along the box's shorter side
    are scanned; on each, the two cone half-planes and the cutoff bound
    the other coordinate to an interval, widened by one unit, and the
    membership predicate then decides in numpy.  Memory is proportional
    to the output plus the number of lines.
    """
    v0, v1 = cone.vertex
    corners = [(0.0, 0.0)]
    for r in (cone.start, cone.end):
        fr = r[0] * v0 + r[1] * v1
        if fr <= 0:
            raise DegenerateDenominator("cone boundary has nonpositive action")
        corners.append((r[0] * cutoff / fr, r[1] * cutoff / fr))
    box = [
        (math.floor(min(c[i] for c in corners)) - 1, math.ceil(max(c[i] for c in corners)) + 1)
        for i in (0, 1)
    ]
    limit = cutoff * (1 + 1e-12)
    # Half-planes a_m*m + a_n*n >= b that every solution satisfies: the two
    # cone sides with their tolerance bounded over the box, and the cutoff.
    slack = 2 * CONE_TOL * (max(map(abs, box[0])) + max(map(abs, box[1])))
    (sx, sy), (ex, ey) = cone.start, cone.end
    planes = ((-sy, sx, -slack), (ey, -ex, -slack), (-v0, -v1, -limit))

    scan = 0 if box[0][1] - box[0][0] <= box[1][1] - box[1][0] else 1
    (s_lo, s_hi), (i_lo, i_hi) = box[scan], box[1 - scan]
    s = np.arange(s_lo, s_hi + 1)
    lo = np.full(s.shape, float(i_lo))
    hi = np.full(s.shape, float(i_hi))
    s_max = max(abs(s_lo), abs(s_hi))
    for plane in planes:
        a_s, a_i, b = plane[scan], plane[1 - scan], plane[2]
        # A nearly parallel line bounds the scan coordinate, not the
        # other one; skipping it only widens the intervals.
        if abs(a_i) <= 1e-12 * (abs(b) + abs(a_s) * s_max):
            continue
        bound = (b - a_s * s) / a_i
        if a_i > 0:
            lo = np.maximum(lo, np.ceil(bound) - 1)
        else:
            hi = np.minimum(hi, np.floor(bound) + 1)
    lo = np.minimum(lo, i_hi + 1)
    counts = np.maximum(hi - lo + 1, 0).astype(np.int64)
    first = lo.astype(np.int64)
    starts = np.cumsum(counts) - counts
    inner = np.repeat(first - starts, counts) + np.arange(int(counts.sum()))
    outer = np.repeat(s, counts)
    m, n = (outer, inner) if scan == 0 else (inner, outer)
    action = m * v0 + n * v1
    keep = (np.gcd(m, n) == 1) & in_cone_mask(cone, m, n) & (action <= limit)
    return m[keep], n[keep], action[keep]


# ---------------------------------------------------------------------------
# Closest direction

def _first_quadrant_primitive(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Primitive (m, n) with 0 <= m, n <= n_max, in (m, n) order."""
    m, n = np.divmod(np.arange((n_max + 1) ** 2), n_max + 1)
    keep = np.gcd(m, n) == 1
    return m[keep], n[keep]


_NEAR_M, _NEAR_N = _first_quadrant_primitive(32)


def nearest_in_cone(cone: NormalCone, u: Point) -> Optional[Vector]:
    """The primitive (m, n) with 0 <= m, n <= 32 in the cone whose
    direction is closest to u (largest cosine, then smallest m*m + n*n,
    then first in (m, n) order), or None when the cone holds none."""
    m, n = _NEAR_M, _NEAR_N
    member = in_cone_mask(cone, m, n)
    if not member.any():
        return None
    r2 = m * m + n * n
    cos = np.where(member, (m * u[0] + n * u[1]) / np.sqrt(r2), -np.inf)
    ties = np.flatnonzero(cos == cos.max())
    j = ties[np.argmin(r2[ties])]
    return int(m[j]), int(n[j])
