"""The ledger of known defects: one test per defect, on its smallest
known case.

Each test asserts the correct behaviour, never today's output, and is
marked ``xfail(strict=True, raises=...)`` with the roadmap item that
fixes it as its reason.  The named exception is what the defect raises
today, so a different failure fails the test instead of passing as the
known one, and a fix that leaves the mark in place fails it too (strict
xfail turns an unexpected pass into a failure).  A change that fixes a
defect removes its mark.  ``python -m pytest -rxX tests/test_found.py``
lists what is known to be broken.
"""

import math
import random

import pytest

from toricsys import (
    AxisViolation,
    ClippingBreaksStarShape,
    NotStarShaped,
    OracleCutoffInsufficient,
    ball,
    classify,
    ellipsoid,
    fc_domain,
    flatten_near_intercept,
    from_vertices,
    orbits_below,
    polydisk,
    shear_monodromy_check,
    smooth_corners,
    strain,
    strangulate,
    t_min,
)
from toricsys.experiments import random_convex_monotone_profile
from toricsys.lattice import min_in_cone
from toricsys.reeb import LOCATION_KINDS

import exact


def known(item: str, raises, what: str):
    return pytest.mark.xfail(strict=True, raises=raises, reason=f"ROADMAP item {item}: {what}")


# ---------------------------------------------------------------------------
# Item 4: tags through every surgery


@known("4", AssertionError, "strangulate drops the fc tags, so volume_delta breaks its C0 bound")
def test_strangulated_fc_volume_is_within_its_bound():
    out = strangulate(fc_domain(2, 0.7, 16), 1e-4)
    assert abs(out.volume_delta) <= out.volume_delta_bound


# ---------------------------------------------------------------------------
# Item 2: exact predicates over the profile's rational coordinates


@known("2", ClippingBreaksStarShape, "the 1e-9 * diameter star-shape tolerance rejects the notch")
def test_strangulation_validates_at_eps_1e_5():
    strangulate(ball(2), 1e-5)


@known("2", AxisViolation, "the diameter-relative axis tolerance swallows the strain tip")
def test_strain_validates_at_eps_1e_6():
    strain(flatten_near_intercept(ball(2), 0.1)[0], 1e-6)


@known("2", AxisViolation, "the diameter-relative axis tolerance rejects a long polydisk")
def test_long_polydisk_validates():
    polydisk(1, 1e9)


@pytest.mark.parametrize(
    "b",
    [
        pytest.param(b, marks=known("2", error, "fc-scan's last grid point fails validation"))
        for b, error in ((2, NotStarShaped), (3, NotStarShaped), (4, AxisViolation))
    ],
)
def test_fc_domain_validates_near_c_1(b):
    fc_domain(b, 1 - 1e-6, 16)


@known("2", NotStarShaped, "the first vertex's height falls below the tolerance for large n")
def test_finely_sampled_fc_domain_validates():
    fc_domain(2, 0.7, 10_000)


@known("2", AssertionError, "primitive_normal is None on thirds, beyond RATIONAL_CAP")
def test_collinear_ellipsoid_segments_all_carry_the_diagonal_orbit():
    orbits = orbits_below(ellipsoid(1, 1, 3), 1.5)
    segments = {o.location_index for o in orbits if o.mn == (1, 1) and o.location_kind == "segment"}
    assert segments == {0, 1, 2}


# ---------------------------------------------------------------------------
# Item 18: certificates that a checker verifies


@known("18", OracleCutoffInsufficient, "the cutoff-200 oracle cannot certify a thin notch")
def test_oracle_certifies_strangulated_ball():
    action, _ = t_min(strangulate(ball(2), 1e-3).profile, "oracle")
    assert action > 0


# Vertex 1's cone has least unit-normal action u = 0.00137, so the global
# bound (200 + 1) * u is 0.275, below T_min = 0.7, although nothing in that
# cone acts below 0.998.
@known("18", OracleCutoffInsufficient, "the global cutoff-200 bound cannot certify the fc family")
def test_oracle_certifies_fc_domain():
    action, _ = t_min(fc_domain(2, 0.7, 256), "oracle")
    assert action == t_min(fc_domain(2, 0.7, 256))[0] == 0.7


# ---------------------------------------------------------------------------
# Item 1: 4-D convexity on the true boundary

# A monotone polygon with ru * sqrt(sys) = 3.0682 > 3 that classify calls
# convex.  Every normal turn is negative, so every corner is reflex in
# the real section: X is not convex.
PRODUCT_3_068 = [
    (1.0773927439993425, 0),
    (0.8057920839543332, 0.043382538824635),
    (0.2809169402199684, 0.5682662647115556),
    (0.22811786454930028, 0.6859497783187344),
    (0.1652655518351399, 0.8630020687746662),
    (0.0909433534756722, 1.1613361360283363),
    (0.04162862851818165, 1.4770482793249473),
    (0.009597576322150784, 1.8631431089979131),
    (0, 2.2594214047073446),
]


@known("1", AssertionError, "convex_4d checks the sqrt chord chain, not the true boundary")
def test_polygon_with_product_above_3_is_not_convex():
    assert not classify(from_vertices(PRODUCT_3_068)).convex_4d


@known("1", AssertionError, "collinear subdivision changes the sqrt chord chain")
def test_collinear_subdivision_keeps_convexity():
    p = random_convex_monotone_profile(random.Random(7))
    thirds = [
        (x0 + k * (x1 - x0) / 3, y0 + k * (y1 - y0) / 3)
        for (x0, y0), (x1, y1) in zip(p.vertices, p.vertices[1:])
        for k in range(3)
    ]
    finer = from_vertices(thirds + [p.vertices[-1]])
    assert classify(finer).convex_4d == classify(p).convex_4d


# ---------------------------------------------------------------------------
# Item 9: Reeb dynamics on curves


@pytest.mark.parametrize(
    "point",
    [
        pytest.param(pt, marks=known("9", AssertionError, "the shear check reads the chord normal"))
        for pt in ((0.93, 0.88), (0.97, 0.8))
    ],
)
def test_shear_on_a_rounded_corner_is_nonzero(point):
    p = smooth_corners(polydisk(1, 1), 0.2)
    assert shear_monodromy_check(p, point, 1.0).shear_over_t != 0


# ---------------------------------------------------------------------------
# Item 12: one exact cone search


@known("12", AssertionError, "the float cone test admits (-4, 5) outside vertex 1's exact cone")
def test_t_min_is_the_exact_least_orbit():
    p = strangulate(ball(2), 0.1).profile
    action, orbit = t_min(p)
    least, rank, m, n, i = exact.least_orbit(p, 0.2)
    where = (orbit.mn, orbit.location_kind, orbit.location_index)
    assert where == ((m, n), LOCATION_KINDS[rank], i)
    assert math.isclose(action, least, rel_tol=1e-15)


@known("12", OverflowError, "a needle cone about an axis sends the descent's run end past any int")
def test_t_min_on_a_needle_about_an_axis():
    # Vertex 1's cone is 2e-10 rad wide about (1, 0), and the CONE_TOL band
    # also admits (-1, 0), opposite it; the oracle answers the axis (1, 0).
    p = from_vertices([(1, 0), (1 + 1e-10, 1), (1, 2), (0, 2)])
    exact.check_orbit(p, *t_min(p))


# Corner cones where the descent's least (m, n) is not the exact one:
# (surgery or family, its arguments, vertex, exact least (m, n)).  At the
# diagonal strangulation's apex (vertex 2) every (-k, k + 1) acts about
# eps, and the rounding of m*v1 + n*v2 ranks two of them wrongly
# (1e-2, 10**-2.5, 1e-4); at the other cones the CONE_TOL band admits a
# vector outside the exact cone.
DESCENT_CASES = [
    ("strangulate", (1e-1,), 1, (-3, 4)),
    ("strangulate", (1e-1,), 2, (-3, 4)),
    ("strangulate", (1e-1,), 3, (4, -3)),
    ("strangulate", (1e-2,), 1, (-48, 49)),
    ("strangulate", (1e-2,), 2, (-48, 49)),
    ("strangulate", (1e-2,), 3, (49, -48)),
    ("strangulate", (10**-2.5,), 2, (-157, 158)),
    ("strangulate", (1e-3,), 1, (-498, 499)),
    ("strangulate", (1e-3,), 2, (-498, 499)),
    ("strangulate", (1e-3,), 3, (499, -498)),
    ("strangulate", (1e-4,), 2, (-4999, 5000)),
    ("strangulate", (1e-4, 0.4), 3, (13281, -31405)),
    ("strangulate", (10**-3.5, 1.2), 1, (-21291, 8284)),
    ("strain", (10**-2.5,), 1, (1, 2)),
    ("strain", (1e-3,), 1, (1, 2)),
    ("strain", (1e-4,), 1, (1, 2)),
    ("fc_domain", (2, 0.7, 16), 16, (22, 23)),
    ("fc_domain", (2, 0.7, 256), 256, (358, 359)),
    ("fc_domain", (1, 0.9, 32), 33, (58, 57)),
]


@pytest.mark.parametrize(
    "kind, args, vertex, want",
    [
        pytest.param(*case, marks=known("12", AssertionError, "the descent misses the exact least"))
        for case in DESCENT_CASES
    ],
    ids=[f"{kind}{args}-vertex-{vertex}" for kind, args, vertex, _ in DESCENT_CASES],
)
def test_descent_finds_the_exact_least(kind, args, vertex, want):
    if kind == "strangulate":
        p = strangulate(ball(2), *args).profile
    elif kind == "strain":
        p = strain(flatten_near_intercept(ball(2, 16), 0.1)[0], *args).profile
    else:
        p = fc_domain(*args)
    cone = exact.Cone.at_vertex(p, vertex)
    if cone.least(cone.action(*want))[1:] != want:
        pytest.fail(f"the exact least is not {want}")  # not the known defect: fails
    got, _ = min_in_cone(p.vertex_cones[0][vertex - 1].tolist(), math.inf)
    assert got[1] == want
