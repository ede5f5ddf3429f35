"""An exact reference for the lattice and orbit tests.

Every float is read as its exact binary value (``Fraction(x)``, that is
``float.as_integer_ratio``) and each cone and vertex is scaled to
integers, so every membership, action and comparison below is exact.
The reference has no tolerance: the CONE_TOL band and the rounding of a
float action appear only in the ``check_*`` functions, which state the
contract that ``toricsys.lattice`` documents.

Segment normals have a second reading, ``decimal``: each coordinate as
its shortest round-trip decimal, as ``MomentProfile.primitive_normal``
documents (with RATIONAL_CAP).  ``least_orbit`` uses the binary one;
where they disagree, ``test_found.py`` holds the answer (ROADMAP item 2).
"""

import math
from decimal import Decimal
from fractions import Fraction
from typing import Optional

from toricsys.geometry import RATIONAL_CAP
from toricsys.lattice import CONE_TOL, CUTOFF_SLACK

# How far outside the exact cone the float membership test may admit a
# direction d, in units of |d| times the side's length: CONE_TOL, plus the
# rounding of the float unit normals and cross products (each < 2**-51).
BAND = Fraction(CONE_TOL) + Fraction(1, 2**49)


def decimal(x) -> Fraction:
    """x as its shortest round-trip decimal (``repr``)."""
    return Fraction(Decimal(repr(x)))


def cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def integers(*xs) -> tuple[list[int], int]:
    """The rationals xs as integers over their least common denominator,
    and that denominator."""
    ratios = [Fraction(x) for x in xs]
    den = math.lcm(*(r.denominator for r in ratios))
    return [r.numerator * (den // r.denominator) for r in ratios], den


def primitive(u) -> Optional[tuple[int, int]]:
    """The primitive integer vector along the rational pair u (None for 0)."""
    (a, b), _ = integers(*u)
    g = math.gcd(a, b)
    return None if g == 0 else (a // g, b // g)


def normal(a, b, read=Fraction) -> tuple:
    """The outward normal (dw2, -dw1) of the segment from a to b, each
    coordinate read by ``read``."""
    (x0, y0), (x1, y1) = (tuple(map(read, pt)) for pt in (a, b))
    return (y1 - y0, x0 - x1)


def rounding(m: int, n: int, v) -> Fraction:
    """A bound on the rounding of the float m*v1 + n*v2: (|m v1| + |n v2|) 2**-51."""
    return (abs(m * Fraction(v[0])) + abs(n * Fraction(v[1]))) / 2**51


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class Cone:
    """The closed cone of integer directions from start counterclockwise to
    end (an arc shorter than pi, or a ray), with the action d . vertex.
    ``vertex`` keeps the floats given, for the float action."""

    def __init__(self, start, end, vertex):
        self.start, _ = integers(*start)
        self.end, _ = integers(*end)
        self.vertex = tuple(vertex)
        self.v, self.den = integers(*vertex)

    @classmethod
    def at_vertex(cls, p, i: int) -> "Cone":
        """The exact normal cone of interior vertex i of profile p, between
        its two segments' exact normals."""
        a, b, c = (p.vertex(j) for j in (i - 1, i, i + 1))
        start, end = normal(a, b), normal(b, c)
        return cls(*((start, end) if cross(start, end) >= 0 else (end, start)), b)

    def action(self, m: int, n: int) -> Fraction:
        return Fraction(m * self.v[0] + n * self.v[1], self.den)

    def float_action(self, m: int, n: int) -> float:
        return m * self.vertex[0] + n * self.vertex[1]

    def _forward(self, m: int, n: int) -> bool:
        """Is (m, n) on the cone's side of the origin?  Only a ray needs
        asking: its two half-planes meet in a line."""
        s = self.start
        return cross(s, self.end) > 0 or s[0] * m + s[1] * n > 0

    def contains(self, m: int, n: int) -> bool:
        d = (m, n)
        return cross(self.start, d) >= 0 and cross(d, self.end) >= 0 and self._forward(m, n)

    def near(self, m: int, n: int) -> bool:
        """Is (m, n) in the cone or within BAND * |(m, n)| of both sides,
        where the float membership test may admit it?"""
        d = (m, n)
        for c, side in ((cross(self.start, d), self.start), (cross(d, self.end), self.end)):
            if c < 0 and c * c > BAND**2 * (m * m + n * n) * (side[0] ** 2 + side[1] ** 2):
                return False
        return self._forward(m, n)

    def _lines(self, cutoff, n_max: Optional[int]):
        """The lattice lines of the triangle {d in the cone : action <=
        cutoff} (and max norm <= n_max), along the shorter side of its
        bounding box: (x, lo, hi, swap) for the points (x, y), lo <= y <= hi,
        which are (m, n) = (y, x) if swap else (x, y).  Both sides must
        have positive action."""
        k = math.floor(Fraction(cutoff) * self.den)
        (s0, s1), (e0, e1), (v0, v1) = self.start, self.end, self.v
        sv, ev = s0 * v0 + s1 * v1, e0 * v0 + e1 * v1
        if not (sv > 0 and ev > 0):
            raise ValueError("a side of the cone has nonpositive action")
        if k < 0:
            return
        box = [
            (min(0, s * k // sv, e * k // ev), max(0, _ceil_div(s * k, sv), _ceil_div(e * k, ev)))
            for s, e in ((s0, e0), (s1, e1))
        ]
        if n_max is not None:
            box = [(max(lo, -n_max), min(hi, n_max)) for lo, hi in box]
        swap = box[0][1] - box[0][0] > box[1][1] - box[1][0]
        if swap:  # exchanging the coordinates reverses the orientation
            (s0, s1), (e0, e1), (v0, v1) = (e1, e0), (s1, s0), (v1, v0)
            box.reverse()
        (x_lo, x_hi), (y_lo, y_hi) = box
        for x in range(x_lo, x_hi + 1):
            lo, hi = y_lo, y_hi
            # The two sides and the cutoff, each as a*y >= b.
            for a, b in ((s0, s1 * x), (-e0, -e1 * x), (-v1, v0 * x - k)):
                if a > 0:
                    lo = max(lo, _ceil_div(b, a))
                elif a < 0:
                    hi = min(hi, b // a)
                elif b > 0:
                    hi = lo - 1
            if lo <= hi:
                yield x, lo, hi, swap

    def least(self, cutoff, n_max: Optional[int] = None) -> Optional[tuple[Fraction, int, int]]:
        """The least (action, m, n) over the nonzero lattice points of the
        cone with action <= cutoff (and max norm <= n_max), or None: then
        the scan certifies that there is none.  Every action in the cone is
        positive, so a least point is primitive, and on each line it is at
        the end of the interval where the action falls (the lower end, the
        least (m, n), where it is constant)."""
        best = None
        for x, lo, hi, swap in self._lines(cutoff, n_max):
            falls = (self.v[0] if swap else self.v[1]) < 0
            for y in [y for y in (-1, 1) if lo <= y <= hi] if x == 0 else [hi if falls else lo]:
                m, n = (y, x) if swap else (x, y)
                best = min(best or (math.inf,), (m * self.v[0] + n * self.v[1], m, n))
        return None if best is None else (Fraction(best[0], self.den), *best[1:])

    def below(self, cutoff, n_max: Optional[int] = None) -> dict[tuple[int, int], Fraction]:
        """Every primitive (m, n) of the cone with action <= cutoff (and max
        norm <= n_max), mapped to its action."""
        out = {}
        for x, lo, hi, swap in self._lines(cutoff, n_max):
            for y in [y for y in (-1, 1) if lo <= y <= hi] if x == 0 else range(lo, hi + 1):
                if math.gcd(x, y) == 1:
                    mn = (y, x) if swap else (x, y)
                    out[mn] = self.action(*mn)
        return out


def least_orbit(p, cutoff, n_max: Optional[int] = None) -> Optional[tuple]:
    """The least sort key (action, rank, m, n, index) over the closed orbits
    of profile p with exact action <= cutoff, or None: the two axis orbits,
    each segment's along its exact primitive normal, and at each interior
    vertex the primitive vectors of its exact cone (of max norm <= n_max).
    The cutoff falls to the best action found, so that each scan is short
    when the first is."""
    keys = [(Fraction(p.a_intercept), 0, 1, 0, 0), (Fraction(p.b_intercept), 0, 0, 1, 1)]
    cutoff = min(Fraction(cutoff), *(k[0] for k in keys))
    for i in range(p.n_segments):
        a, b = p.segment(i)
        m, n = primitive(normal(a, b))
        keys.append((m * Fraction(a[0]) + n * Fraction(a[1]), 1, m, n, i))
        cutoff = min(cutoff, keys[-1][0])
    for i in range(1, p.n_segments):
        got = Cone.at_vertex(p, i).least(cutoff, n_max)
        if got is not None:
            keys.append((got[0], 2, *got[1:], i))
            cutoff = got[0]
    return min((k for k in keys if k[0] <= cutoff), default=None)


def decimal_normal(p, i: int) -> Optional[tuple[int, int]]:
    """Segment i's primitive normal as ``MomentProfile.primitive_normal``
    documents it: from the decimal reading, None beyond RATIONAL_CAP."""
    mn = primitive(normal(*p.segment(i), read=decimal))
    return None if mn is None or max(map(abs, mn)) > RATIONAL_CAP else mn


# ---------------------------------------------------------------------------
# The contract of the float searches


def check_least(cone: Cone, got, cutoff, n_max: Optional[int] = None) -> None:
    """The least-orbit contract for got, (action, (m, n)) or None, that a
    float search returned as the least in the cone at or below cutoff:
    (a) the action is the float m*v1 + n*v2, bit for bit; (b) (m, n) is in
    the cone or its CONE_TOL band; (c) no exact candidate undercuts it (for
    None, the cutoff) by more than the float evaluation's error,
    ``rounding``; and a candidate of equal float action is no less in
    (m, n)."""
    if got is not None:
        action, (m, n) = got
        assert action == cone.float_action(m, n) and action <= cutoff, got
        assert cone.near(m, n) and (n_max is None or max(abs(m), abs(n)) <= n_max), got
        cutoff = action
    least = cone.least(cutoff, n_max)
    if least is not None:
        a, m1, n1 = least
        error = rounding(m1, n1, cone.vertex)
        if got is not None:
            error = max(error, rounding(m, n, cone.vertex))
            assert cone.float_action(m1, n1) != action or (m, n) <= (m1, n1), (got, least)
        assert a >= Fraction(cutoff) - error, (got, least)


def check_listing(cone: Cone, rows, bound: float, n_max: Optional[int] = None) -> None:
    """The listing contract for rows (m, n, action) that a float listing
    gave as the primitive vectors of the cone of float action <= bound (and
    max norm <= n_max): each row is primitive, acts the float m*v1 + n*v2
    bit for bit and lies in the cone or its CONE_TOL band, at most the
    rounding above the bound; and every exact vector is listed but those
    whose action is within rounding of the bound."""
    listed = {(m, n) for m, n, _ in rows}
    assert len(listed) == len(rows)
    for m, n, action in rows:
        assert math.gcd(m, n) == 1 and (n_max is None or max(abs(m), abs(n)) <= n_max), (m, n)
        assert action == cone.float_action(m, n) and cone.near(m, n), (m, n, action)
        assert cone.action(m, n) <= Fraction(bound) + rounding(m, n, cone.vertex), (m, n)
    for (m, n), action in cone.below(bound, n_max).items():
        assert (m, n) in listed or action > Fraction(bound) - rounding(m, n, cone.vertex), (m, n)


def _base(p, rank: int, i: int):
    """The base point reported for an orbit at an axis (rank 0), a
    segment's midpoint (1) or a vertex (2) of index i."""
    if rank == 0:
        return (p.a_intercept, 0.0) if i == 0 else (0.0, p.b_intercept)
    if rank == 1:
        (x0, y0), (x1, y1) = p.segment(i)
        return ((x0 + x1) / 2, (y0 + y1) / 2)
    return p.vertex(i)


def check_best(p, action: float, n_max: Optional[int] = None, error=0) -> None:
    """Contract (c) for a least action of profile p: no exact closed orbit
    (at a vertex, of max norm <= n_max) acts below it by more than the
    rounding of its own float action or ``error``, the reported one's."""
    least = least_orbit(p, action, n_max)
    if least is not None:
        a, rank, m, n, i = least
        error = max(error, rounding(m, n, _base(p, rank, i)))
        assert a >= Fraction(action) - error, (action, least)


def check_orbit(p, action: float, orbit, n_max: Optional[int] = None) -> None:
    """The least-orbit contract for a T_min result (action, orbit) of p:
    (a) the action is the float m*w1 + n*w2 at the reported base point;
    (b) (m, n) lies in the exact cone of the location (a segment's is the
    ray of its exact normal) or its CONE_TOL band; (c) ``check_best``."""
    _, rank, m, n, i = orbit.sort_key()
    base = _base(p, rank, i)
    assert orbit.base_point == base and orbit.action == action == m * base[0] + n * base[1], orbit
    if rank == 0:
        assert (m, n) == ((1, 0), (0, 1))[i], orbit
    else:
        nu = normal(*p.segment(i))
        assert (Cone(nu, nu, (0, 0)) if rank == 1 else Cone.at_vertex(p, i)).near(m, n), orbit
    check_best(p, action, n_max, rounding(m, n, base))


def check_vertex_orbits(p, i: int, rows, cutoff: float) -> None:
    """The orbits (m, n, action) listed at interior vertex i of p at or
    below cutoff, sorted by action, then (m, n): at a corner, the listing
    contract on its exact cone at the bound cutoff * CUTOFF_SLACK; at a
    collinear vertex, whose exact normal turns forward by at most
    COLLINEAR_TURN (1e-12) up to rounding, the orbit of the incoming
    segment's decimal normal if it acts at or below that bound."""
    rows = list(rows)
    assert rows == sorted(rows, key=lambda r: (r[2], r[0], r[1]))
    bound = cutoff * CUTOFF_SLACK
    if p.vertex_cones[1][i - 1]:
        return check_listing(Cone.at_vertex(p, i), rows, bound)
    u, w = normal(*p.segment(i - 1)), normal(*p.segment(i))
    dot = u[0] * w[0] + u[1] * w[1]
    assert dot > 0 and cross(u, w) ** 2 <= (Fraction(1e-12) + Fraction(1, 2**50)) ** 2 * dot**2
    mn, v = decimal_normal(p, i - 1), p.vertex(i)
    want = [] if mn is None else [(*mn, mn[0] * v[0] + mn[1] * v[1])]
    assert rows == [r for r in want if r[2] <= bound]


def check_orbits_below(p, cutoff: float, orbits) -> None:
    """The contract of ``orbits_below(p, cutoff)``: sorted by sort key and
    at their base points, the axis orbits and the segments' decimal-normal
    orbits of action at or below the cutoff, and at each interior vertex
    what ``check_vertex_orbits`` states."""
    keys = [o.sort_key() for o in orbits]
    assert keys == sorted(keys)
    assert [o.base_point for o in orbits] == [_base(p, k[1], k[4]) for k in keys]
    want = [(p.a_intercept, 0, 1, 0, 0), (p.b_intercept, 0, 0, 1, 1)]
    for i, mn in ((i, decimal_normal(p, i)) for i in range(p.n_segments)):
        if mn is not None:
            x, y = _base(p, 1, i)
            want.append((mn[0] * x + mn[1] * y, 1, *mn, i))
    assert [k for k in keys if k[1] < 2] == sorted(k for k in want if k[0] <= cutoff)
    for i in range(1, p.n_segments):
        check_vertex_orbits(p, i, [(m, n, a) for a, r, m, n, j in keys if (r, j) == (2, i)], cutoff)
