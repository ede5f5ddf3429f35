"""Reeb dynamics on the boundary of a star-shaped toric domain.

In moment/angle coordinates (w1, th1, w2, th2) the Reeb field at a
boundary point p with outward unit normal nu rotates the two angles with
velocities 2*pi*nu_i / (nu . p); the w-coordinates are constant.  A
trajectory over p is closed iff the normal direction is rational, and the
period of the primitive closed orbit with integer normal (m, n) is
m*w1 + n*w2.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateDenominator, OracleCutoffInsufficient, ParamOutOfRange, StepTooLarge, integer,
)
from .geometry import MomentProfile, Point, _read_only, dot, ray_hit
from .lattice import (
    CONE_TOL, CUTOFF_SLACK, SMALL_MAX_NORM, clear_of_axes, enumerate_in_cone, min_in_cone,
    small_in_cones,
)

# Where an orbit lives, in tie-break order.
LOCATION_KINDS = ("axis", "segment", "vertex")


@dataclass(frozen=True)
class OrbitDatum:
    """A primitive closed Reeb orbit."""

    mn: tuple[int, int]
    base_point: Point
    action: float
    location_kind: str  # one of LOCATION_KINDS
    location_index: int

    def sort_key(self):
        rank = LOCATION_KINDS.index(self.location_kind)
        return (self.action, rank, self.mn[0], self.mn[1], self.location_index)


def nu_dot_w(
    p: MomentProfile, w, nu, message: Callable[[tuple, float], str]
) -> np.ndarray:
    """nu . w, the denominator of the Reeb flow, for points w = (w1, w2)
    and normals nu = (nu1, nu2) given as pairs of floats or of matching
    arrays.  Raises DegenerateDenominator(message(index, value)) at the
    first entry, in C order, that does not exceed the profile's
    tolerance (a nan included)."""
    denom = np.asarray(nu[0] * w[0] + nu[1] * w[1])
    bad = ~(denom > p.tol)
    if bad.item(k := int(bad.argmax())):
        k = np.unravel_index(k, bad.shape)
        raise DegenerateDenominator(message(k, float(denom[k])))
    return denom


def reeb_angular_velocities(p: MomentProfile, point: Point, normal: Point) -> Point:
    """Angular velocities (Theta1, Theta2) of the Reeb flow over ``point``."""
    denom = float(nu_dot_w(p, point, normal, lambda _, value: f"nu.p = {value} at {point}"))
    return (2 * math.pi * normal[0] / denom, 2 * math.pi * normal[1] / denom)


# ---------------------------------------------------------------------------
# Rational normals and segment orbits


def closed_orbit_on_segment(p: MomentProfile, segment_index: int) -> Optional[OrbitDatum]:
    """The primitive closed orbit family over a rational-normal segment.

    The action m*w1 + n*w2 is constant along the segment; the midpoint is
    reported as base point.  IndexError for an index outside 0 to
    n_segments - 1 (``MomentProfile.primitive_normal``).
    """
    key = _segment_key(p, integer(segment_index, "segment index"))
    return None if key is None else _orbit(p, key)


def _segment_key(p: MomentProfile, i: int) -> Optional[tuple]:
    """The sort key of segment i's orbit family, its action taken at the
    midpoint, or None when the normal is not rational."""
    mn = p.primitive_normal(i)
    if mn is None:
        return None
    (x0, y0), (x1, y1) = p.segment(i)
    return mn[0] * ((x0 + x1) / 2) + mn[1] * ((y0 + y1) / 2), 1, *mn, i


def _orbit(p: MomentProfile, key: tuple) -> OrbitDatum:
    """The orbit whose ``OrbitDatum.sort_key`` is key: an axis orbit based
    at (a, 0) or (0, b), a segment's at the segment midpoint, a vertex's
    at the vertex."""
    action, rank, m, n, i = key
    if rank == 0:
        base = (p.a_intercept, 0.0) if i == 0 else (0.0, p.b_intercept)
    elif rank == 1:
        (x0, y0), (x1, y1) = p.segment(i)
        base = ((x0 + x1) / 2, (y0 + y1) / 2)
    else:
        base = p.vertex(i)
    return OrbitDatum((m, n), base, action, LOCATION_KINDS[rank], i)


# ---------------------------------------------------------------------------
# Vertex cones


class VertexOrbits(Sequence):
    """The primitive closed orbits at one vertex as read-only columns
    ``m``, ``n`` and ``action``, sorted by action, then by (m, n): the
    order of ``OrbitDatum.sort_key`` within one vertex.  An ``OrbitDatum``
    is made only when one is read, by index, slice (a list) or
    iteration.  ``orbits_at_vertex`` defers the listing itself: its
    columns are listed on first read (of a column, ``len``, an orbit,
    ``==`` or ``repr``), once, so the about 2/eps orbits of a strain tip
    cost nothing until they are read, and an error of the listing is
    raised by that read."""

    __slots__ = ("_columns", "_list", "base_point", "vertex_index")

    def __init__(
        self, m: np.ndarray, n: np.ndarray, action: np.ndarray, base_point: Point, vertex_index: int
    ):
        self._columns = tuple(_read_only(c) for c in (m, n, action))
        self._list = None
        self.base_point = base_point
        self.vertex_index = vertex_index

    @classmethod
    def _deferred(
        cls, list_columns: Callable[[], tuple], base_point: Point, vertex_index: int
    ) -> VertexOrbits:
        """Orbits whose columns ``list_columns()`` returns on first read."""
        self = cls.__new__(cls)
        self._columns, self._list = None, list_columns
        self.base_point = base_point
        self.vertex_index = vertex_index
        return self

    def _read(self) -> tuple:
        if self._columns is None:
            self._columns = tuple(_read_only(c) for c in self._list())
            self._list = None
        return self._columns

    m = property(lambda self: self._read()[0])
    n = property(lambda self: self._read()[1])
    action = property(lambda self: self._read()[2])

    def __len__(self) -> int:
        return len(self.action)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(len(self))[i]]
        k = range(len(self))[i]
        mn = (int(self.m[k]), int(self.n[k]))
        return OrbitDatum(mn, self.base_point, float(self.action[k]), "vertex", self.vertex_index)

    def __iter__(self):
        v, vi = self.base_point, self.vertex_index
        for mn, action in zip(zip(self.m.tolist(), self.n.tolist()), self.action.tolist()):
            yield OrbitDatum(mn, v, action, "vertex", vi)

    def __eq__(self, other):
        if isinstance(other, VertexOrbits):
            return (
                (self.vertex_index, self.base_point) == (other.vertex_index, other.base_point)
                and np.array_equal(self.m, other.m)
                and np.array_equal(self.n, other.n)
                and np.array_equal(self.action, other.action)
            )
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"VertexOrbits({len(self)} orbits at vertex {self.vertex_index} {self.base_point})"


def _cone_orbits(cone: np.ndarray, action_cutoff: float) -> tuple:
    """The columns (m, n, action) of the primitive orbits in one corner
    cone (a one-row table of ``MomentProfile.vertex_cones``) with action
    <= cutoff, sorted by action, then by (m, n)."""
    _, m, n, action = enumerate_in_cone(cone, action_cutoff)
    # An action is a period, > 0; the membership tolerance admits a
    # needle's opposite.
    keep = action > 0
    if not keep.all():
        m, n, action = m[keep], n[keep], action[keep]
    order = np.lexsort((n, m, action))
    return m[order], n[order], action[order]


def orbits_at_vertex(
    p: MomentProfile, vertex_index: int, action_cutoff: float
) -> VertexOrbits:
    """All primitive closed orbits at a vertex with action <= cutoff,
    sorted by action, then lexicographically by (m, n).

    Covers interior vertices (IndexError elsewhere); at a collinear one
    (no ``MomentProfile.vertex_cones`` corner) the cone degenerates to the
    incident segment's normal ray, with 0 or 1 orbit.  The arguments are
    checked at call time: the cutoff must be finite.  A corner cone's
    orbits are listed on first read (``VertexOrbits``), once: the cone's
    lattice points come from ``lattice.enumerate_in_cone`` as a batch of
    its one table row, which scans only the lattice lines along the
    shorter side of the cone's bounding box, so time and memory grow with
    the number of orbits listed rather than with the box's area.  At a
    strain tip, where there are about 2/eps of them, ``[0]`` is the
    minimal orbit and ``len`` the count, and no other orbit object is
    made unless it is read.
    """
    if not math.isfinite(action_cutoff):
        raise ParamOutOfRange(f"action cutoff must be finite; got {action_cutoff}")
    vertex_index = integer(vertex_index, "vertex index")
    if not 1 <= vertex_index < p.n_segments:
        raise IndexError("orbits_at_vertex is defined at interior vertices")
    cones, corner = p.vertex_cones
    v = p.vertex(vertex_index)
    if corner[vertex_index - 1]:
        cone = cones[[vertex_index - 1]]
        return VertexOrbits._deferred(partial(_cone_orbits, cone, action_cutoff), v, vertex_index)
    m = n = np.zeros(0, dtype=np.int64)
    action = np.zeros(0)
    if (mn := p.primitive_normal(vertex_index - 1)) is not None:
        a = mn[0] * v[0] + mn[1] * v[1]
        if not a > action_cutoff * CUTOFF_SLACK:
            m, n, action = np.array([mn[0]]), np.array([mn[1]]), np.array([a])
    return VertexOrbits(m, n, action, v, vertex_index)


# ---------------------------------------------------------------------------
# Minimal action: lattice descent (fast) and brute force (oracle)


def _axis_keys(p: MomentProfile) -> list[tuple]:
    """Sort keys of the two axis-intercept orbits."""
    return [(p.a_intercept, 0, 1, 0, 0), (p.b_intercept, 0, 0, 1, 1)]


def _base_keys(p: MomentProfile, below: float = math.inf) -> list[tuple]:
    """Sort keys of the axis-intercept and rational-segment orbits, less
    the segments whose support bound (``_support_bounds``, a lower bound
    on their action) is at least ``below``."""
    segments = range(p.n_segments)
    if below < math.inf and (hb := _support_bounds(p)) is not None:
        segments = (hb < below).nonzero()[0].tolist()
    keys = (_segment_key(p, i) for i in segments)
    return _axis_keys(p) + [k for k in keys if k is not None]


def orbits_below(p: MomentProfile, cutoff: float) -> list[OrbitDatum]:
    """Every primitive closed orbit with action <= cutoff: axis and
    rational-segment orbits, then the orbits at each interior vertex,
    sorted by ``OrbitDatum.sort_key``.  The cutoff must be finite."""
    if not math.isfinite(cutoff):
        raise ParamOutOfRange(f"action cutoff must be finite; got {cutoff}")
    keys = [k for k in _base_keys(p) if k[0] <= cutoff]
    for vi in range(1, p.n_segments):
        cols = orbits_at_vertex(p, vi, cutoff)
        keys += zip(cols.action.tolist(), repeat(2), cols.m.tolist(), cols.n.tolist(), repeat(vi))
    return [_orbit(p, k) for k in sorted(keys)]


def t_min(
    p: MomentProfile, method: str = "fast", n_oracle: int = 200
) -> tuple[float, OrbitDatum]:
    """Minimal closed-orbit action and a minimizing orbit, the least by
    ``OrbitDatum.sort_key``.  Both methods rank candidates by that key, a
    tuple (action, rank, m, n, index), and make an ``OrbitDatum`` of the
    winner's key only (``_orbit``).

    ``fast`` is a best-first pass (branch and bound): every segment and
    vertex cone gets a float lower bound on its action, and they are
    visited in bound order until a bound exceeds the best action found.
    A bound equal to the best action is visited only when the incumbent
    ranks with the candidate or after it (axis 0, segment 1, vertex 2):
    otherwise the candidate can at best tie on action and loses on rank.
    The two axis orbits are the first incumbent.  Each bound is the
    largest of those that apply (``_candidate_bounds``).  A segment whose
    direction has dw1 < 0 < dw2 is bounded by mid1 + mid2: shortest
    round-trip decimals keep the order of floats, so its primitive normal
    has m, n >= 1, and m*mid1 + n*mid2 >= mid1 + mid2 after rounding.  A
    vertex cone between two unit normals that are
    ``lattice.clear_of_axes`` is bounded by v1 + v2, the sum
    ``min_in_cone`` prunes it by in its first step.  Every segment is
    bounded by its support distance h = cross / length less a rounding
    slack, since its integer normal is at least a unit long, and every
    cone but a needle (narrower than a few CONE_TOL, where the membership
    tolerance admits opposite directions) by the lesser support distance
    of its two segments, whose lines meet at its vertex, less the same
    slacks and 4 CONE_TOL (v1 + v2).  A candidate no bound covers is
    bounded by -inf and always visited.  A visited segment computes its
    primitive normal (``MomentProfile.primitive_normal``); a visited
    corner's row of the profile's cone table (``vertex_cones``, built on
    the first visit) is searched by ``lattice.min_in_cone``, a
    Stern-Brocot descent with pruning that takes each continued-fraction
    run in one step and returns the cone's one least (action, m, n) at or
    below the incumbent: a run of in-cone vectors whose float actions
    provably fall (a rounding bound) costs three actions, and only a
    near-tie, such as a diagonal strangulation's apex, a numpy pass.  The
    result does not depend on the visiting order.  A strangulated
    profile's apex cone is searched here and nowhere else unless its
    surgery witness is read (``surgery.strangulate``).

    ``oracle`` brute-forces all primitive integer vectors with max-norm
    <= n_oracle (an integer >= 1) over the table's corner cones and raises
    OracleCutoffInsufficient when larger vectors could still win.  It
    lists the vectors of max norm <= r = min(4, n_oracle) (4 is
    ``lattice.SMALL_MAX_NORM``) in every corner cone itself, in one
    broadcast of at most 48 vectors (``lattice.small_in_cones``), and cuts
    actions at min(ceiling, seed).  The ceiling is the least axis or
    segment action, which T_min cannot exceed; only the segments whose
    support bound (``_support_bounds``) is below min(a, b) are read for
    it, since any other acts at least as much as an axis orbit and ranks
    after it.  The seed is the least
    action of that listing, so the cut drops only vectors that cannot
    win, and a listed small vector above it loses to the seed or the
    ceiling.  A vector beyond the listing has norm >= r + 1, so its action is
    at least (r + 1) times the least unit-normal action u at its cone's
    vertex, less a slack for the membership tolerance and rounding: a
    cone where that exceeds the cut holds no such vector below it.  Only
    the other corner cones, those whose u is below about cut / (r + 1)
    (at r = 4 strangulation notches and strain tips), go to
    ``lattice.enumerate_in_cone``, as one batch with the box clipped to
    the max-norm bound, and none when no cone qualifies.  Listed rows of
    action <= 0 are dropped, and one lexsort of both listings then picks
    the least action, then the least (m, n), then the least vertex, whose
    key joins the axis and segment keys for one ``min``.  The oracle
    shares no search with ``min_in_cone``, the descent it checks.

    Any other ``method`` raises ParamOutOfRange.
    """
    if method == "fast":
        return _t_min_fast(p)
    if method != "oracle":
        raise ParamOutOfRange(f"t_min method must be 'fast' or 'oracle'; got {method!r}")
    n_oracle = integer(n_oracle, "oracle cutoff")
    if n_oracle < 1:
        raise ParamOutOfRange(f"oracle cutoff must be at least 1; got {n_oracle}")
    # A segment bounded at or above min(a, b) can neither beat the axis
    # orbit of that action nor tie it, since it ranks after it.
    keys = _base_keys(p, min(p.a_intercept, p.b_intercept))
    ceiling = min(keys)[0]
    cones, corner = p.vertex_cones
    vi, cones = corner.nonzero()[0] + 1, cones[corner]
    r = min(SMALL_MAX_NORM, n_oracle)
    cone, m, n, action = small_in_cones(cones, r)
    cutoff = min(ceiling, float(action.min(initial=math.inf)))
    # The least unit-normal action u of each cone: over a cone arc shorter
    # than pi the unit-direction action is minimized at a boundary ray.
    ray_action = cones[:, :2] * cones[:, 2:]
    unit = ray_action[..., 0] + ray_action[..., 1]
    unit = np.minimum(unit[:, 0], unit[:, 1])
    # A vector d that ``_in_cone`` admits lies within an angle of about
    # CONE_TOL of its cone's arc, or, in a needle cone narrower than that,
    # of the opposite arc, where its action is negative when u > 0.  Near
    # the arc, d.v >= |d| (u - CONE_TOL |v|), and rounding in the cross
    # products, in u and in m*v1 + n*v2 costs under 1e-15 |d| (v1 + v2)
    # more; |v| <= v1 + v2 at an interior vertex.  So the listed action of
    # d, of norm >= r + 1, is at least (r + 1)(u - slack) with slack =
    # 4 CONE_TOL (v1 + v2), and where (r + 1)(u - slack)(1 - CONE_TOL)
    # exceeds the cutoff it is beyond the enumerator's cutoff * CUTOFF_SLACK.
    # At r = 4 (n_oracle >= 4) that leaves only cones with u below about
    # cutoff / 5.
    slack = 4 * CONE_TOL * (cones[:, 2, 0] + cones[:, 2, 1])
    deep = ((r + 1) * (unit - slack) * (1 - CONE_TOL) <= cutoff).nonzero()[0]
    if deep.size:
        c, dm, dn, da = enumerate_in_cone(cones[deep], cutoff, n_oracle)
        keep = da > 0  # as in ``orbits_at_vertex``
        cone = np.concatenate((cone, deep[c[keep]]))
        m, n = np.concatenate((m, dm[keep])), np.concatenate((n, dn[keep]))
        action = np.concatenate((action, da[keep]))
    if action.size:
        # The least (action, m, n) and then vertex over every cone.
        k = np.lexsort((cone, n, m, action))[0]
        keys.append((float(action[k]), 2, int(m[k]), int(n[k]), int(vi[cone[k]])))
    best = min(keys)
    # Vectors beyond the max norm have euclidean norm > n_oracle.
    uncovered = (n_oracle + 1) * float(unit.min(initial=math.inf))
    if uncovered < best[0] * (1 + 1e-9):
        raise OracleCutoffInsufficient(
            f"best action {best[0]} not certified: cutoff-{n_oracle} bound is {uncovered}"
        )
    return best[0], _orbit(p, best)


def _support_bounds(p: MomentProfile) -> Optional[np.ndarray]:
    """Per segment, a float lower bound hb on the action of its orbit, or
    None on a profile too small for the rounding bounds to hold."""
    diam = p.diameter
    # Below this scale a product of coordinates can underflow, and the
    # relative rounding bounds below do not hold.  Above it every nonzero
    # coordinate is at least tol = 1e-9 diam, and so every product and
    # difference that follows is a normal float.
    if not diam > 1e-100:
        return None
    # The support distance h = cross / length of each segment's line is
    # nu . w for every w on the line, nu its exact unit normal.  The bound
    # is hb = (cross - 2**-48 diam^2) / length, positive since validation
    # keeps cross > tol diam = 1e-9 diam^2.
    #
    # A segment's orbit is the primitive normal (m, n) of the decimal
    # reading of its ends, |(m, n)| >= 1 times the decimal unit normal
    # nu', and its action the float m*mid1 + n*mid2.  With u = 2**-53, D
    # the exact difference of its float ends, L the float length and every
    # coordinate in [0, diam], so that h <= sqrt(2) diam <= 2 diam^2 / L,
    # the action per unit of |(m, n)| falls short of cross / L by at most,
    # in units of u diam^2 / L:
    # - 9 for h's rounding: the float cross product is within 3 u diam^2
    #   of the exact one (two coordinate products and their difference),
    #   and L within 3 u L of |D| (rounded differences, hypot), which
    #   costs 3 u h <= 6 u diam^2 / L;
    # - 8 for the decimal normal: each decimal end is within u |w| <=
    #   sqrt(2) u diam of the float end, so |nu' - nu| <= 2 * 2 sqrt(2) u
    #   diam / |D|, and over |mid| <= sqrt(2) diam, nu' . mid >= h - 8 u
    #   diam^2 / |D|;
    # - 6 for the float action: rounding the midpoint, the two products
    #   and their sum costs 3 u |mid| <= 3 sqrt(2) u diam <= 6 u diam^2 / L
    #   (L <= sqrt(2) diam).
    # That is 23; the slack 2**-48 diam^2 is 32 u diam^2, less the
    # rounding of hb's difference and quotient (2 u hb <= 4 u diam^2 / L)
    # and of diam^2.  So the float action is at least |(m, n)| hb >= hb.
    return (p.cross_products - 2.0**-48 * diam * diam) / p.lengths


def _candidate_bounds(p: MomentProfile) -> np.ndarray:
    """Float lower bounds on the action of each candidate of ``t_min``'s
    best-first pass: entry i < n for segment i, entry n + j for the cone
    at vertex j + 1 (n segments).  Each is the largest of the bounds that
    apply, -inf where none does."""
    xy, d = p.xy, p.directions
    mid = (xy[:-1] + xy[1:]) / 2
    seg = np.where((d[:, 0] < 0) & (d[:, 1] > 0), mid[:, 0] + mid[:, 1], -np.inf)
    clear = clear_of_axes(p.normals)
    v_sum = xy[1:-1, 0] + xy[1:-1, 1]
    cone = np.where(clear[:-1] & clear[1:], v_sum, -np.inf)
    hb = _support_bounds(p)
    if hb is None:
        return np.concatenate((seg, cone))
    np.maximum(seg, hb, out=seg)
    # A cone.  Vertex j lies on the lines of segments j - 1 and j, so
    # every d = a nu_(j-1) + b nu_j (a, b >= 0) in the exact cone acts
    # a h_(j-1) + b h_j >= |d| min(h_(j-1), h_j), and each h is at least
    # its hb (9 of the 32 u above).  ``min_in_cone`` also admits a d within
    # an angle CONE_TOL (plus rounding) of the float cone, whose normals
    # are within a few u of the exact ones, so d . v loses at most about
    # CONE_TOL |d| |v| <= CONE_TOL |d| (v1 + v2), and the float m*v1 +
    # n*v2 a further 2 u |d| |v|.  The slack 4 CONE_TOL (v1 + v2), as in
    # the oracle's prune, covers both and the rounding of the bound cb.
    # Where cb > 0, every action the descent can return is at least
    # |d| cb >= cb.  A direction opposite the cone passes both half-plane
    # tests only when the cone is at most about 2 CONE_TOL wide: such a
    # needle admits actions below any support bound.  So a cone whose
    # normals' cross product, the sine of its width up to a few u, is at
    # most 4 CONE_TOL gets no support bound; a cone nearly pi wide reads as
    # one too, and only loses its bound.
    wide = np.abs(p.normal_crosses) > 4 * CONE_TOL
    cb = np.minimum(hb[:-1], hb[1:]) - 4 * CONE_TOL * v_sum
    np.maximum(cone, cb, out=cone, where=wide & (cb > 0))
    return np.concatenate((seg, cone))


def _t_min_fast(p: MomentProfile) -> tuple[float, OrbitDatum]:
    """The best-first pass of ``t_min``; see there."""
    # The winner so far, as its sort key (action, rank, m, n, index).
    best = min(_axis_keys(p))
    n = p.n_segments
    bounds = _candidate_bounds(p)
    # The incumbent only falls: nothing bounded at or above it now can win.
    # A candidate bounded at the axis incumbent's action could at best tie
    # on action, and it ranks after every axis orbit.
    live = (bounds < best[0]).nonzero()[0]
    live = live[bounds[live].argsort(kind="stable")]
    for bound, k in zip(bounds[live].tolist(), live.tolist()):
        if bound > best[0]:
            break
        # A tie on action loses on rank to an incumbent that ranks before
        # the candidate (axis 0, segment 1, vertex 2).
        if bound == best[0] and best[1] < (1 if k < n else 2):
            continue
        if k < n:
            got = _segment_key(p, k)
            if got is not None:
                best = min(best, got)
            continue
        cones, corner = p.vertex_cones
        if corner[k - n]:
            got, _ = min_in_cone(cones[k - n].tolist(), best[0])
            if got is not None:
                action, (m1, m2) = got
                best = min(best, (action, 2, m1, m2, k - n + 1))

    return best[0], _orbit(p, best)


# ---------------------------------------------------------------------------
# Shear structure of the linearized flow


@dataclass(frozen=True)
class ShearCheckResult:
    base_point: Point
    time: float
    monodromy: tuple[tuple[float, float], tuple[float, float]]
    shear_over_t: float
    residual: float
    step: float


def project_radial(p: MomentProfile, x: Point) -> tuple[Point, int]:
    """Intersection of the ray from the origin through x with the profile
    polyline, and the index of the segment containing it."""
    _, s, i = ray_hit(p, x)
    (a1, a2), (b1, b2) = p.segment(i)
    return (a1 + s * (b1 - a1), a2 + s * (b2 - a2)), i


def shear_monodromy_check(
    p: MomentProfile, point: Point, T: float, h: float = 1e-6
) -> ShearCheckResult:
    """Difference-quotient the time-T linearized flow in the contact frame
    (e1, e2) = (-nu2 d/dw1 + nu1 d/dw2, -w2 d/dth1 + w1 d/dth2).

    The toric flow is exact (w frozen, angles linear in t), so only the
    boundary projection of the e1-perturbation is discretized.  Expected
    monodromy: unit lower-triangular; ``residual`` collects the deviation
    of the three non-shear entries.
    """
    base, seg = project_radial(p, point)
    nu = p.segment_normal(seg)
    theta = reeb_angular_velocities(p, base, nu)
    e1 = (-nu[1], nu[0])

    # Column 1: perturb along e1, project back to the boundary radially.
    pert = (base[0] + h * e1[0], base[1] + h * e1[1])
    moved, seg_m = project_radial(p, pert)
    nu_m = p.segment_normal(seg_m)
    theta_m = reeb_angular_velocities(p, moved, nu_m)
    dw = (moved[0] - base[0], moved[1] - base[1])
    m11 = dot(dw, e1) / h
    dth = ((theta_m[0] - theta[0]) * T, (theta_m[1] - theta[1]) * T)
    # dth = beta * (-w2, w1) + gamma * (Theta1, Theta2); m21 is beta / h.
    w1, w2 = base
    det = -w2 * theta[1] - w1 * theta[0]
    m21 = (dth[0] * theta[1] - dth[1] * theta[0]) / det / h

    # Column 2: perturb the angles along e2; w is untouched so the flow
    # displacement is exactly the initial displacement.
    m12 = 0.0
    m22 = 1.0

    residual = max(abs(m11 - 1), abs(m12), abs(m22 - 1))
    if residual > 1e-2:
        raise StepTooLarge(f"shear residual {residual} with h={h}, T={T}")
    shear_over_t = m21 / T if T > 0 else 0.0
    return ShearCheckResult(
        base_point=base,
        time=T,
        monodromy=((m11, m12), (m21, m22)),
        shear_over_t=shear_over_t,
        residual=residual,
        step=h,
    )


def orbit_csv_rows(orbits: Sequence[OrbitDatum]) -> list[str]:
    """CSV rows (with header) for an orbit list, 17 significant digits."""
    rows = ["m,n,w1,w2,action,location_kind,location_index"]
    for o in orbits:
        rows.append(
            f"{o.mn[0]},{o.mn[1]},{o.base_point[0]:.17g},{o.base_point[1]:.17g},"
            f"{o.action:.17g},{o.location_kind},{o.location_index}"
        )
    return rows
