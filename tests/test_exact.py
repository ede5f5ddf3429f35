"""The exact reference (``exact.py``) against a brute force over a box.

On small integer cones (coordinates at most 30, a ray included) with
positive action on both sides, ``Cone.below`` must list the primitive
vectors that a full scan of the max-norm box finds in the closed cone
below the cutoff, and ``Cone.least`` must return their least
(action, m, n).
"""

import math
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

import exact

pairs = st.tuples(st.integers(-30, 30), st.integers(-30, 30))


def spans(start, end, d) -> bool:
    """Is d = a*start + b*end for some a, b >= 0?"""
    c = exact.cross(start, end)
    if c == 0:
        return exact.cross(start, d) == 0 and start[0] * d[0] + start[1] * d[1] >= 0
    return exact.cross(d, end) * c >= 0 and exact.cross(start, d) * c >= 0


@settings(max_examples=150, deadline=None)
@given(pairs, pairs, pairs, st.fractions(0, 40, max_denominator=7), st.integers(1, 12))
def test_scan_is_the_brute_force(start, end, vertex, cutoff, n_max):
    def act(u):
        return u[0] * vertex[0] + u[1] * vertex[1]

    # The sides turned to positive action, in counterclockwise order.
    start, end = (u if act(u) > 0 else (-u[0], -u[1]) for u in (start, end))
    start, end = (start, end) if exact.cross(start, end) >= 0 else (end, start)
    actions = [act(start), act(end)]
    assume(min(actions) > 0)
    cone = exact.Cone(start, end, vertex)
    # The triangle below the cutoff reaches max norm cutoff * |side| / action.
    reach = math.ceil(max(abs(x) * cutoff / a for u, a in zip((start, end), actions) for x in u))
    for box in (n_max, None) if reach <= 20 else (n_max,):
        want = {
            (m, n): Fraction(act((m, n)))
            for m in range(-(box or reach), (box or reach) + 1)
            for n in range(-(box or reach), (box or reach) + 1)
            if math.gcd(m, n) == 1 and spans(start, end, (m, n)) and act((m, n)) <= cutoff
        }
        assert cone.below(cutoff, box) == want
        assert cone.least(cutoff, box) == min(((a, *mn) for mn, a in want.items()), default=None)
