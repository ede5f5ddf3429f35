"""Primitive integer vectors in a vertex normal cone.

The normal cone at a vertex v is the arc of outward normals from start
counterclockwise to end (shorter than pi), a row (start, end, vertex) of
``MomentProfile.vertex_cones``.  The closed Reeb orbits at v are the
primitive integer vectors (m, n) in it, with action f(m, n) = m*v1 +
n*v2, a period.  This module owns the membership test (within CONE_TOL *
|(m, n)| of both rays, and f > 0: ``_in_cone`` over arrays, written out
on floats in the descent) and the two searches over those vectors:

* ``min_in_cone``: the least (action, (m, n)) in the cone, by a
  Stern-Brocot descent that takes each continued-fraction run of the
  cone's boundary directions in one step, so it costs O(log coefficient)
  Python steps instead of one per unit of each coefficient, and that
  keeps one winner.  A run of in-cone vectors whose float actions
  provably fall is decided by three of them; only a near-tie, whose
  actions are equal up to rounding, is evaluated in a numpy pass.  It is
  one loop over integer pairs: its membership, arc and action tests are
  inline float expressions, and a run's end is found by one plain
  helper, ``_run_end``;
* ``enumerate_in_cone``: every vector with action below a cutoff (and
  optionally max norm below a bound) in each cone of a batch, the cones
  given as the rows of one (k, 3, 2) array, found line by line
  across each cone's bounding box, the lines and points of all cones in
  one numpy pass and in memory proportional to the output.  The orbit
  list of a vertex passes a batch of one; the brute-force T_min oracle
  lists the vectors of max norm <= SMALL_MAX_NORM (4) in every corner
  cone itself (``small_in_cones``) and passes, as one batch, only the
  corner cones that can hold a larger vector below its cutoff: those of
  a tiny least unit-normal action, such as strangulation notches and
  strain tips.

The descent serves fast T_min and strangulation's witness (the apex
cone's least action, searched only when the witness is read); the
enumerator is the oracle's independent reference and shares no search
with it.
"""

from __future__ import annotations

import math
import sys
from functools import partial
from typing import Optional

import numpy as np

from .errors import DegenerateDenominator, ParamOutOfRange, arange

# Relative tolerance for cone membership of integer directions.
CONE_TOL = 1e-9

# A listing below a cutoff keeps every action <= cutoff * CUTOFF_SLACK.
CUTOFF_SLACK = 1 + 1e-12

# The axis vectors counterclockwise; each with the next bounds a quadrant
# arc, where the descent starts.
_AXES = ((1, 0), (0, 1), (-1, 0), (0, -1))

# An in-cone run that the rounding certificate does not take in closed
# form and that is shorter than _MIN_BULK_RUN is stepped through one node
# at a time: below it the numpy pass costs more than the Python steps it
# saves.  A longer one is taken in numpy passes of at most _MAX_BULK_RUN
# vectors, so memory stays bounded however small the cone's angle.
_MIN_BULK_RUN = 8
_MAX_BULK_RUN = 1 << 16

# The unit roundoff of a float, which bounds the rounding of each action
# along an in-cone run; a run whose actions provably fall by more than
# their rounding is taken in closed form, from three of them.
_ROUNDING_UNIT = 2.0**-53

Vector = tuple[int, int]


def _in_cone(sx, sy, ex, ey, m: np.ndarray, n: np.ndarray, action: np.ndarray) -> np.ndarray:
    """Is each integer direction (m, n), of action m*v1 + n*v2, in the
    closed cone from (sx, sy) counterclockwise to (ex, ey), up to
    CONE_TOL * |(m, n)|, and of positive action (the band alone also holds
    the directions opposite a needle cone)?  Over integer arrays, for
    boundary components given as floats or as arrays that broadcast
    against them; ``min_in_cone`` writes out the same test, operand for
    operand, on Python floats.  The norm is the square root of the exact
    integer m*m + n*n, the correctly rounded hypotenuse, which is what
    ``math.hypot`` returns (CPython 3.10 and later round it correctly
    almost always; ``np.hypot`` is often one unit off)."""
    tol = CONE_TOL * np.sqrt(m * m + n * n)
    return (sx * n - sy * m >= -tol) & (m * ey - n * ex >= -tol) & (action > 0)


def clear_of_axes(normals: np.ndarray) -> np.ndarray:
    """Per row of an (k, 2) array of unit normals: are both components
    above 2 * CONE_TOL?  A cone bounded by two such normals holds no axis
    vector and meets only the first quadrant arc, up to the membership
    tolerance, so ``min_in_cone``'s first step pops ((1, 0), (0, 1)) and
    returns (None, 1) exactly when v1 + v2 (the same float sum) exceeds the
    incumbent: v1 + v2 is a lower bound on the cone's least action, one of
    the bounds fast ``reeb.t_min`` takes the largest of."""
    return np.minimum(normals[:, 0], normals[:, 1]) > 2 * CONE_TOL


# ---------------------------------------------------------------------------
# Minimal action


def min_in_cone(cone, incumbent: float) -> tuple[Optional[tuple[float, Vector]], int]:
    """The least (action, (m, n)) in the cone (start, end, vertex), given
    as Python floats, with action <= incumbent, or None if there is none,
    and the number of descent steps taken.

    Stern-Brocot descent from the quadrant arcs, depth first, right child
    first, pruning a subtree (L, R) when f(L), f(R) > 0 and f(L) + f(R)
    exceeds the best action so far: every vector a*L + b*R inside it has
    action >= f(L) + f(R).  Ties with the incumbent are never pruned, so
    every vector of least action that the descent reaches is compared,
    and the (action, m, n) tie-break matches the brute-force oracle.
    Only the winner so far is kept, no list of the tied vectors.

    The descent is one loop over integer pairs.  Its tests are written out
    on local floats: membership of d (both cross products with the
    boundary rays at least -CONE_TOL * |d|, and f(d) > 0), whether an arc
    meets the cone, and the action f.  A stack entry is a flat tuple (lx,
    ly, rx, ry, in_l, in_r): an arc's two ends and whether each is in the
    cone.

    Within a continued-fraction run, consecutive nodes (X + k*F, F) (or
    (F, X + k*F)) share the endpoint F and repeat the same decisions.  Such
    a run is taken in one step, its end found by ``_run_end``: a run
    outside the cone jumps to its last node; a run of in-cone vectors
    toward a boundary where f(F) <= 0 also jumps.  When a forward rounding
    bound proves that the run's float actions fall strictly, the jump and
    the run's winner follow from three of them, those of X, X + F and its
    last vector, in O(1) whatever the run's length.  Otherwise (a
    near-tie, where |f(F)| is below the rounding, as at the apex of a
    diagonal strangulation) the actions of the vectors it skips are
    evaluated in one numpy pass, which also picks the run's least (m, n)
    of least action.  The result is the one that taking every node in
    turn would give.
    """
    (sx, sy), (ex, ey), (v0, v1) = cone
    tol_s = CONE_TOL * math.hypot(sx, sy)
    tol_e = CONE_TOL * math.hypot(ex, ey)
    # The least (action, (m, n)) considered so far; its action is best.
    best = incumbent
    winner: Optional[tuple[float, Vector]] = None
    steps = 0
    # 8u, the factor of an in-cone run's rounding certificate, or inf (no
    # certificate) where a product of the vertex with an integer could
    # underflow.
    if min(abs(v0), abs(v1)) >= sys.float_info.min:
        rounding = 8 * _ROUNDING_UNIT
    else:
        rounding = math.inf
    axis = []
    for m, n in _AXES:
        axis.append(
            sx * n - sy * m >= -CONE_TOL and m * ey - n * ex >= -CONE_TOL and m * v0 + n * v1 > 0
        )
    # Two arcs shorter than pi meet when one holds an endpoint of the
    # other; the quadrant arcs that meet the cone are descended from, the
    # last one first.
    for i in (3, 2, 1, 0):
        (lx, ly), (rx, ry) = _AXES[i], _AXES[i - 3]
        in_l, in_r = axis[i], axis[i - 3]
        if not (
            in_l
            or in_r
            or (lx * sy - ly * sx >= -tol_s and sx * ry - sy * rx >= -tol_s)
            or (lx * ey - ly * ex >= -tol_e and ex * ry - ey * rx >= -tol_e)
        ):
            continue
        # An axis vector ending two such arcs is considered twice, and the
        # second time changes nothing.
        for m, n, inside in ((lx, ly, in_l), (rx, ry, in_r)):
            if inside:
                a = m * v0 + n * v1
                if a <= best:
                    best = a
                    if winner is None or (a, (m, n)) < winner:
                        winner = (a, (m, n))
        # A mediant is considered as soon as a child holding it is pushed:
        # that child is popped next, which is when a descent that considers
        # both endpoints of every popped node would first see it.
        stack = [(lx, ly, rx, ry, in_l, in_r)]
        while stack:
            steps += 1
            lx, ly, rx, ry, in_l, in_r = stack.pop()
            fl, fr = lx * v0 + ly * v1, rx * v0 + ry * v1
            if fl > 0 and fr > 0 and fl + fr > best:
                continue
            mx, my = lx + rx, ly + ry
            tol = CONE_TOL * math.hypot(mx, my)
            cross_s, cross_e = sx * my - sy * mx, mx * ey - my * ex
            a = mx * v0 + my * v1
            in_m = cross_s >= -tol and cross_e >= -tol and a > 0
            left = (
                in_l
                or in_m
                or (lx * sy - ly * sx >= -tol_s and cross_s >= -tol_s)
                or (lx * ey - ly * ex >= -tol_e and ex * my - ey * mx >= -tol_e)
            )
            right = (
                in_m
                or in_r
                or (mx * sy - my * sx >= -tol_s and sx * ry - sy * rx >= -tol_s)
                or (cross_e >= -tol_e and ex * ry - ey * rx >= -tol_e)
            )
            if left:
                stack.append((lx, ly, mx, my, in_l, in_m))
            if right:
                stack.append((mx, my, rx, ry, in_m, in_r))
            if in_m and a <= best:
                best = a
                if winner is None or (a, (mx, my)) < winner:
                    winner = (a, (mx, my))

            # A continued-fraction run X + kF toward F starts here.  In an
            # outside run only the child toward F meets the cone and
            # nothing is considered.  An in-cone run goes toward an
            # endpoint F outside the cone with f(F) <= 0, so no node of it
            # is pruned: node k considers its mediant X + (k+1)F and
            # pushes both children while that mediant is in the cone.
            if left != right:
                outside, toward_r = True, right
            elif in_m and ((not in_r and fr <= 0) or (not in_l and fl <= 0)):
                outside, toward_r = False, not in_r and fr <= 0
            else:
                continue
            if toward_r:
                x0, x1, f0, f1, fx0, ff, in_f = lx, ly, rx, ry, fl, fr, in_r
            else:
                x0, x1, f0, f1, fx0, ff, in_f = rx, ry, lx, ly, fr, fl, in_l
            # The run's last node is guessed where X + (k+1)F crosses a
            # boundary ray's line or, in an outside run, where
            # f(X + kF) + f(F) first exceeds the best action.
            limit = math.inf
            g0, g1 = sx * x1 - sy * x0, sx * f1 - sy * f0
            if g0 * g1 < 0:
                limit = -g0 / g1 - 1
            g0, g1 = ex * x1 - ey * x0, ex * f1 - ey * f0
            if g0 * g1 < 0 and -g0 / g1 - 1 < limit:
                limit = -g0 / g1 - 1
            if outside and ff > 0 and (best - fx0 - ff) / ff < limit:
                limit = (best - fx0 - ff) / ff
            if limit < 1:
                continue  # the run ends at node 1: nothing to jump
            K = _run_end(cone, tol_s, tol_e, best, x0, x1, f0, f1, limit, outside, toward_r, in_f)
            if outside:
                if K > 1:
                    xk, yk = x0 + K * f0, x1 + K * f1
                    if toward_r:
                        stack[-1] = (xk, yk, f0, f1, False, in_f)
                    else:
                        stack[-1] = (f0, f1, xk, yk, in_f, False)
            else:
                # A run whose float actions provably fall is decided by
                # three of them.  Write (x_k, y_k) = X + kF, S_k = |x_k v0|
                # + |y_k v1|, T = |f0 v0| + |f1 v1|, u = _ROUNDING_UNIT and
                # gamma3 = 3u / (1 - 3u).  With v0 and v1 normal floats,
                # every product of one with a nonzero integer is a normal
                # float or inf, so the float action of X + kF, the
                # expression fl(fl(fl(x_k) v0) + fl(fl(y_k) v1)) of the loop
                # and of the numpy pass, is within gamma3 S_k of the exact
                # f(X) + k f(F), and fl(f(F)) is within gamma3 T of f(F).
                # S_k is convex in k, so at most S = max(S_0, S_K) along the
                # run, and consecutive float actions fall strictly when
                # -f(F) > 2 gamma3 S, which holds when -fl(f(F)) > gamma3
                # (2S + T).  The float S + T below is at least (1 - 5u) (S +
                # T), and 8u times it exceeds gamma3 (2S + T) by at least
                # 1.9u (S + T), more than that product's rounding should it
                # be subnormal (S + T >= T >= 2**-1022).
                #
                # With the float actions fx_k strictly falling, the numpy
                # pass below reduces to fx_0 = f(X), fx_1 = f(X + F) (the
                # mediant's action a) and fx_K: its running best ends at
                # min(best, fx_K), and only X + KF can tie it; every fx_k >
                # 0 iff fx_K > 0, and then fl(fx_(k+1) + fx_k) >= 2 fx_(k+1)
                # > running[k] (float addition is monotone), except toward
                # L at k = 0, where running[0] is best itself.
                if K >= 2:
                    xk, yk = x0 + K * f0, x1 + K * f1
                    if -ff > rounding * (
                        max(abs(x0 * v0) + abs(x1 * v1), abs(xk * v0) + abs(yk * v1))
                        + (abs(f0 * v0) + abs(f1 * v1))
                    ):
                        fk = xk * v0 + yk * v1
                        if fk > 0 and (toward_r or a + fx0 > best):
                            if fk <= best:
                                best = fk
                                if winner is None or (fk, (xk, yk)) < winner:
                                    winner = (fk, (xk, yk))
                            if toward_r:
                                stack[-1] = (xk, yk, rx, ry, True, in_r)
                            else:
                                stack.pop()
                                stack[-1] = (lx, ly, xk, yk, in_l, True)
                        continue
                # The near-ties, where |f(F)| is below the rounding: the
                # numpy pass or, on a short run, one node at a time.
                K = min(K, _MAX_BULK_RUN)
                if K >= _MIN_BULK_RUN:
                    k = np.arange(K + 1)
                    xs, ys = x0 + k * f0, x1 + k * f1
                    fx = xs * v0 + ys * v1
                    # The best action before and after considering each of
                    # X + 2F, ..., X + KF in turn.
                    running = np.minimum.accumulate(np.concatenate(([best], fx[2:])))
                    # Jump only if every node's other child (X + kF and
                    # X + (k+1)F) is pruned when popped.  Toward L it is
                    # popped right after node k, with best action
                    # running[k]; toward R it waits under the run, for a
                    # best <= running[-1], and child 0 is already on the
                    # stack.  In-cone actions are positive, so only
                    # rounding can fail this; such runs are stepped.
                    a, b = fx[1:], fx[:-1]
                    pruned = (a > 0) & (b > 0) & (a + b > (running[-1] if toward_r else running))
                    pruned[0] |= toward_r
                    if pruned.all():
                        # The vectors tied at the best action after the
                        # run, the only ones a node-by-node descent could
                        # make the winner, and the least (m, n) of them.
                        best = float(running[-1])
                        tied = (fx[2:] == best).nonzero()[0] + 2
                        if tied.size:
                            j = tied[np.lexsort((ys[tied], xs[tied]))[0]]
                            got = (best, (int(xs[j]), int(ys[j])))
                            if winner is None or got < winner:
                                winner = got
                        xk, yk = int(xs[K]), int(ys[K])
                        if toward_r:
                            stack[-1] = (xk, yk, rx, ry, True, in_r)
                        else:
                            stack.pop()
                            stack[-1] = (lx, ly, xk, yk, in_l, True)
    return winner, steps


def _run_end(cone, tol_s, tol_e, best, x0, x1, f0, f1, limit, outside, right, in_f) -> int:
    """The first node k >= 1 of a run (X + k*F, F) of ``min_in_cone``'s
    descent, X = (x0, x1) and F = (f0, f1), that breaks the run's pattern
    (node 0 keeps it).  One loop probes one node per pass, in two phases:

    * the guess: when ``limit`` (>= 1) is below 2**53, the end is node
      floor(limit) + 1 if that node breaks the pattern and the one
      before keeps it;
    * the search otherwise: a gallop over nodes 1, 2, 4, ... while they
      keep the pattern, then a bisection between the last node that
      keeps it and the first that breaks it.

    A node of an outside run keeps the pattern when it is not pruned at
    ``best`` and, of its two children, only the one toward F meets the
    cone: F is the node's right end when ``right``, and ``in_f`` says
    whether F is in the cone.  A node of an in-cone run keeps it while
    its mediant X + (k+1)*F is in the cone.  The probe writes out the
    tests of ``min_in_cone``'s loop once, inline (as a local function it
    made a run end about 1.5 times as slow).
    """
    (sx, sy), (ex, ey), (v0, v1) = cone
    ff = f0 * v0 + f1 * v1
    # guess is 0 when there is none or once it fails; lo keeps the pattern
    # and hi breaks it (inf while the gallop has found no such node).
    guess = math.floor(limit) + 1 if limit < 2**53 else 0
    k = guess - 1 if guess else 1
    lo, hi = 0, math.inf
    while hi - lo > 1:
        # Does node k keep the pattern?
        nx, ny = x0 + (k + 1) * f0, x1 + (k + 1) * f1
        tol = CONE_TOL * math.hypot(nx, ny)
        keeps = sx * ny - sy * nx >= -tol and nx * ey - ny * ex >= -tol and nx * v0 + ny * v1 > 0
        if outside:
            kx, ky = nx - f0, ny - f1
            fk = kx * v0 + ky * v1
            if keeps or (fk > 0 and ff > 0 and fk + ff > best):
                keeps = False
            else:
                # The child away from F is the arc p -> q, the one toward
                # F the arc r -> t.
                if right:
                    p0, p1, q0, q1, r0, r1, t0, t1 = kx, ky, nx, ny, nx, ny, f0, f1
                else:
                    p0, p1, q0, q1, r0, r1, t0, t1 = nx, ny, kx, ky, f0, f1, nx, ny
                keeps = (
                    in_f
                    or (r0 * sy - r1 * sx >= -tol_s and sx * t1 - sy * t0 >= -tol_s)
                    or (r0 * ey - r1 * ex >= -tol_e and ex * t1 - ey * t0 >= -tol_e)
                ) and not (
                    (p0 * sy - p1 * sx >= -tol_s and sx * q1 - sy * q0 >= -tol_s)
                    or (p0 * ey - p1 * ex >= -tol_e and ex * q1 - ey * q0 >= -tol_e)
                )
        if guess:
            if keeps and k < guess:
                k = guess
            elif not keeps and k == guess:
                return guess
            else:
                guess, k = 0, 1
            continue
        if keeps:
            lo = k
        else:
            hi = k
        k = 2 * k if hi == math.inf else (lo + hi) // 2
    return hi


# ---------------------------------------------------------------------------
# Enumeration below a cutoff


# The largest max norm that ``small_in_cones`` lists, the T_min oracle's
# listing radius: its 48 vectors leave to the enumerator only the cones
# whose least unit-normal action is small beside the oracle's cut.  Of
# radii 2 to 6, 4 timed fastest on the certify benchmark's profiles.
SMALL_MAX_NORM = 4

# The primitive vectors of max norm <= r, for r = 1 to SMALL_MAX_NORM (8,
# 16, 32 and 48 of them), as (m, n) columns.
_SMALL_VECTORS = {
    r: np.array(
        [(m, n) for m in range(-r, r + 1) for n in range(-r, r + 1) if math.gcd(m, n) == 1]
    ).T
    for r in range(1, SMALL_MAX_NORM + 1)
}


def small_in_cones(cones: np.ndarray, max_norm: int) -> tuple:
    """Every primitive vector of max norm <= max_norm (1 to
    SMALL_MAX_NORM) that ``_in_cone`` puts in one of the cones (rows
    (start, end, vertex) of a (k, 3, 2) array), as arrays cone (the
    cone's row), m, n and action, in the layout of ``enumerate_in_cone``:
    one broadcast over the cones and at most 48 vectors.  Such a vector
    lies in its cone's box at every cutoff from its action up, so
    ``enumerate_in_cone`` lists it there, with the same action, when
    n_max >= max_norm."""
    m, n = _SMALL_VECTORS[max_norm]
    (sx, sy), (ex, ey), (v0, v1) = cones.transpose(1, 2, 0)[..., None]
    action = m * v0 + n * v1
    cone, j = _in_cone(sx, sy, ex, ey, m, n, action).nonzero()
    return cone, m[j], n[j], action[cone, j]


def _too_many(cutoff: float, count, what: str) -> ParamOutOfRange:
    count = float(count) if count <= sys.float_info.max else math.inf
    return ParamOutOfRange(f"action cutoff {cutoff} asks for {count:.6g} {what}, too many to list")


def _scan_plan(start, end, vertex, cutoff: float, n_max: Optional[int]) -> tuple:
    """One cone's scan in Python floats, as (s_lo, n_lines, scan, row).
    The cone's lattice lines are s = s_lo, ..., s_lo + n_lines - 1 in its
    scan coordinate, n when ``scan`` is 1 and m otherwise.  ``row`` bounds
    the other coordinate i on each line: [i_lo, -i_hi], then the a_s, a_i
    and b of six slots for half-planes a_s*s + a_i*i >= b, six numbers
    each.  Half-plane j (the start side, the end side, the cutoff) takes
    slot j when a_i > 0 and slot 3 + j when a_i < 0, and a_i is stored as
    |a_i|, so that ceil((b - a_s*s)/a_i) - 1 bounds i from below in the
    first three slots and -i from below in the last three.  A slot that
    no half-plane fills bounds nothing (a_s = 0, a_i = 1, b = -inf)."""
    v0, v1 = vertex
    (sx, sy), (ex, ey) = start, end
    f_start, f_end = sx * v0 + sy * v1, ex * v0 + ey * v1
    if f_start <= 0 or f_end <= 0:
        raise DegenerateDenominator("cone boundary has nonpositive action")
    # The bounding box of the origin and the two boundary rays cut at the
    # cutoff, one unit out, per coordinate, and the half-planes
    # a_m*m + a_n*n >= b that every solution satisfies: the two cone sides
    # with their tolerance bounded over the box, and the cutoff.  A box
    # beyond the float range has too many lines to list.
    try:
        box = [
            (math.floor(min(0.0, cs, ce)) - 1, math.ceil(max(0.0, cs, ce)) + 1)
            for cs, ce in (
                (sx * cutoff / f_start, ex * cutoff / f_end),
                (sy * cutoff / f_start, ey * cutoff / f_end),
            )
        ]
        if n_max is not None:
            box = [(max(lo, -n_max), min(hi, n_max)) for lo, hi in box]
        slack = 2 * CONE_TOL * (max(map(abs, box[0])) + max(map(abs, box[1])))
    except OverflowError:
        raise _too_many(cutoff, math.inf, "lattice lines") from None
    planes = ((-sy, sx, -slack), (ey, -ex, -slack), (-v0, -v1, -cutoff * CUTOFF_SLACK))

    scan = 0 if box[0][1] - box[0][0] <= box[1][1] - box[1][0] else 1
    (s_lo, s_hi), (i_lo, i_hi) = box[scan], box[1 - scan]
    s_max = max(abs(s_lo), abs(s_hi))
    row = [i_lo, -i_hi] + [0.0] * 6 + [1.0] * 6 + [-math.inf] * 6
    for j, plane in enumerate(planes):
        a_s, a_i, b = plane[scan], plane[1 - scan], plane[2]
        # A nearly parallel line bounds the scan coordinate, not the
        # other one; skipping it only widens the intervals.
        if abs(a_i) <= 1e-12 * (abs(b) + abs(a_s) * s_max):
            continue
        k = j + (5 if a_i < 0 else 2)
        row[k], row[k + 6], row[k + 12] = a_s, abs(a_i), b
    return s_lo, s_hi - s_lo + 1, scan, row


def enumerate_in_cone(
    cones: np.ndarray, cutoff: float, n_max: Optional[int] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every primitive (m, n) in each closed cone of a batch with action
    0 < m*v1 + n*v2 <= cutoff (up to a relative 1e-12), and with max norm
    max(|m|, |n|) <= n_max unless n_max is None, as arrays cone (the
    cone's row), m, n and action.  The rows of a cone are contiguous and
    in cone order; within a cone their order is unspecified.

    ``cones`` is a (k, 3, 2) float array of rows (start, end, vertex), as
    in ``MomentProfile.vertex_cones``, start to end counterclockwise.
    Each cone's candidates lie in the bounding box of the triangle
    spanned by the origin and its two boundary rays cut at the cutoff
    (one unit of margin on each side), clipped to [-n_max, n_max]^2, and
    only the lattice lines along the box's shorter side are scanned.  On
    each line the two cone half-planes and the cutoff bound the other
    coordinate to an interval, widened by one unit, and the membership
    predicate then decides.  Each cone's box and half-planes are a few
    float operations (``_scan_plan``); the lines and points of the whole
    batch are then bounded, listed and tested in one numpy pass, with
    each cone's own floats.  Memory is proportional to the output plus the
    number of lines.  A cutoff that asks for more lines or points than
    can be allocated raises ParamOutOfRange.
    """
    plans = [_scan_plan(*cone, cutoff, n_max) for cone in cones.tolist()]
    k = len(plans)
    n_lines = [plan[1] for plan in plans]
    # Every array of the pass has one entry per line or per point.
    count, what = sum(n_lines), "lattice lines"
    try:
        line = arange(count, partial(_too_many, cutoff, count, what))
        per_cone = np.array([plan[3] for plan in plans], dtype=float).reshape(k, 20)
        if k == 1:
            # A single cone's plan broadcasts over its lines.
            per_line, s = per_cone, line + plans[0][0]
        else:
            n_lines = np.array(n_lines, dtype=np.int64)
            per_line = np.repeat(per_cone, n_lines, axis=0)
            s_lo = np.array([plan[0] for plan in plans], dtype=np.int64)
            s = line + np.repeat(s_lo - (np.cumsum(n_lines) - n_lines), n_lines)
        # Per line: the greatest lower bound on the other coordinate, and
        # the least upper bound negated, from the box and the half-planes.
        box, a_s, a_i, b = per_line[:, :2], per_line[:, 2:8], per_line[:, 8:14], per_line[:, 14:]
        ends = np.ceil((b - a_s * s[:, None]) / a_i) - 1
        ends = np.maximum(ends.reshape(-1, 2, 3).max(axis=2), box)
        first = np.minimum(ends[:, 0], 1 - box[:, 1])
        counts = np.maximum(1 - ends[:, 1] - first, 0)
        count, what = int(counts.sum()), "lattice points"
        inner = arange(count, partial(_too_many, cutoff, count, what))
        counts = counts.astype(np.int64)
        inner += np.repeat(first.astype(np.int64) - (np.cumsum(counts) - counts), counts)
        outer = np.repeat(s, counts)
        if k == 1:
            m, n = (inner, outer) if plans[0][2] else (outer, inner)
            (sx, sy), (ex, ey), (v0, v1) = cones[0].tolist()
        else:
            cone = np.repeat(np.repeat(np.arange(k), n_lines), counts)
            swap = np.array([plan[2] for plan in plans], dtype=bool)[cone]
            m, n = np.where(swap, inner, outer), np.where(swap, outer, inner)
            sx, sy, ex, ey, v0, v1 = cones.reshape(k, 6)[cone].T
        action = m * v0 + n * v1
        keep = (np.gcd(m, n) == 1) & _in_cone(sx, sy, ex, ey, m, n, action)
        keep &= action <= cutoff * CUTOFF_SLACK
        m, n, action = m[keep], n[keep], action[keep]
        cone = np.zeros(len(m), dtype=np.intp) if k == 1 else cone[keep]
    except MemoryError:
        raise _too_many(cutoff, count, what) from None
    return cone, m, n, action
