"""``reeb.orbits_at_vertex`` keeps a vertex's orbits as sorted columns.

The columns must hold what the exact reference (``exact.py``) says a
vertex's orbits are, sorted by action and then (m, n), and read back as
the list of ``OrbitDatum`` they stand for in every way a sequence is
read; ``strain`` must make no orbit object for a tip orbit that nobody
reads.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from toricsys import ball, ellipsoid, polydisk, reeb, surgery
from toricsys.errors import ParamOutOfRange
from toricsys.experiments import random_star_profile
from toricsys.reeb import OrbitDatum, VertexOrbits, orbits_at_vertex, orbits_below

import exact


def checked(p, vi, cutoff):
    """``orbits_at_vertex(p, vi, cutoff)``, its rows checked against the
    exact reference, and the list of ``OrbitDatum`` they stand for."""
    got = orbits_at_vertex(p, vi, cutoff)
    rows = list(zip(got.m.tolist(), got.n.tolist(), got.action.tolist()))
    exact.check_vertex_orbits(p, vi, rows, cutoff)
    v = p.vertex(vi)
    return got, [OrbitDatum((m, n), v, a, "vertex", vi) for m, n, a in rows]


def assert_reads_as(got, want):
    assert isinstance(got, VertexOrbits)
    assert list(got) == want
    assert len(got) == len(want) and bool(got) == bool(want)
    assert got == want and want == got and not got != want
    for i in (0, -1, len(want) // 2, -len(want)):
        if want:
            assert got[i] == want[i]
    for i in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            got[i]
    for s in (slice(None), slice(1, None), slice(None, -1), slice(None, None, -2), slice(2, 1)):
        assert got[s] == want[s]
    assert list(reversed(got)) == want[::-1]
    for column in (got.m, got.n, got.action):
        assert not column.flags.writeable


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.floats(0.3, 3))
def test_random_star_vertices_read_as_the_eager_list(seed, scale):
    p = random_star_profile(random.Random(seed))
    cutoff = scale * min(p.a_intercept, p.b_intercept)
    for vi in range(1, len(p.vertices) - 1):
        assert_reads_as(*checked(p, vi, cutoff))
    exact.check_orbits_below(p, cutoff, orbits_below(p, cutoff))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([1e-1, 1e-2, 1e-3]), st.floats(0.25, 1))
def test_strain_tips_read_as_the_eager_list(eps, share):
    p, _ = surgery.flatten_near_intercept(ball(2, 16), 0.4)
    out = surgery.strain(p, eps).profile
    cutoff = share * 2 * surgery.input_t_min(p)
    assert_reads_as(*checked(out, 1, cutoff))
    exact.check_orbits_below(out, cutoff, orbits_below(out, cutoff))


@pytest.mark.parametrize(
    "p, vi, cutoff",
    [
        (ellipsoid(1, 1, 4), 2, 2.0),  # collinear: one orbit
        (ellipsoid(1, 1, 4), 2, 0.5),  # collinear, above the cutoff
        (ellipsoid(1, math.pi, 4), 2, 10.0),  # collinear, normal not rational
        (polydisk(1, 2), 1, 0.5),  # corner, empty
        (polydisk(1, 2), 1, 10.0),
    ],
)
def test_collinear_and_empty_vertices(p, vi, cutoff):
    assert_reads_as(*checked(p, vi, cutoff))


@pytest.mark.parametrize("vi", [0, 4, -1, 5])
def test_only_interior_vertices_have_orbits(vi):
    # ellipsoid(1, 1, 4) has interior vertices 1..3.
    with pytest.raises(IndexError, match="interior vertices"):
        orbits_at_vertex(ellipsoid(1, 1, 4), vi, 2.0)


@pytest.mark.parametrize("cutoff", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("vi", [1, 2])
def test_cutoff_must_be_finite(vi, cutoff):
    """As in ``orbits_below``: a nan cutoff reached ``math.floor`` in the
    enumerator's scan plan and raised an untyped ValueError.  Vertex 2 of
    this profile is the apex corner, vertex 1 a corner beside it."""
    out = surgery.strangulate(ball(2), 0.1, 0.3).profile
    with pytest.raises(ParamOutOfRange, match=f"^action cutoff must be finite; got {cutoff}$"):
        orbits_at_vertex(out, vi, cutoff)


@pytest.mark.parametrize(
    "cutoff, count",
    [(1e15, "1e+15"), (1e300, "1e+300"), (1e308, "inf")],
)
def test_cutoff_beyond_memory_is_out_of_range(cutoff, count):
    """polydisk(1, 1)'s corner cone is the first quadrant: at cutoff c its
    box has about c lines, which cannot be listed (nor, at 1e308, counted
    as a float)."""
    with pytest.raises(ParamOutOfRange) as exc:
        orbits_below(polydisk(1, 1), cutoff)
    assert str(exc.value) == f"action cutoff {cutoff} asks for {count} lattice lines, too many to list"


def test_a_deferred_listing_raises_its_error_on_first_read(monkeypatch):
    """A corner cone is listed on first read, so a listing that fails
    raises its typed error there and not at the call; a failed listing
    is not kept, and the next read fails again."""

    def refuse(cone, cutoff):
        raise ParamOutOfRange("too many to list")

    monkeypatch.setattr(reeb, "enumerate_in_cone", refuse)
    got = orbits_at_vertex(polydisk(1, 2), 1, 10)
    for read in (len, lambda o: o.m, lambda o: o[0], repr, lambda o: o == []):
        with pytest.raises(ParamOutOfRange, match="^too many to list$"):
            read(got)
    p, _ = surgery.flatten_near_intercept(ball(2, 16), 0.1)
    out = surgery.strain(p, 1e-3)
    with pytest.raises(ParamOutOfRange, match="^too many to list$"):
        len(out.new_orbit_witnesses)


def test_equality_between_columns():
    p = polydisk(1, 2)
    got = orbits_at_vertex(p, 1, 10)
    assert got == orbits_at_vertex(p, 1, 10)
    assert got != orbits_at_vertex(p, 1, 9)
    assert got != VertexOrbits(got.m, got.n, got.action, got.base_point, 2)
    assert got != VertexOrbits(got.m, got.n, got.action, (1.0, 2.5), 1)
    assert got != got[:1] + got[:1] + got[2:]
    assert got != 3
    with pytest.raises(TypeError):
        hash(got)
    assert repr(got) == f"VertexOrbits({len(got)} orbits at vertex 1 (1.0, 2.0))"


class TestStrainBuildsNoOrbits:
    @pytest.fixture
    def made(self, monkeypatch):
        made = []

        class Counting(OrbitDatum):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        monkeypatch.setattr(reeb, "OrbitDatum", Counting)
        return made

    def test_only_the_orbit_read_is_made(self, made):
        p, _ = surgery.flatten_near_intercept(ball(2, 16), 0.4)
        # The input's T_min comes with its witness orbit; it is memoised on
        # the input, so the strain below makes only what it returns.
        surgery.input_t_min(p)
        made.clear()
        out = surgery.strain(p, 1e-4)
        witnesses = out.new_orbit_witnesses
        assert made == [] and len(witnesses) == 20001
        first = witnesses[0]
        assert len(made) == 1
        cone = exact.Cone.at_vertex(out.profile, 1)
        exact.check_least(cone, (first.action, first.mn), 2 * surgery.input_t_min(p))
        assert (first.base_point, first.location_kind, first.location_index) == (
            out.profile.vertex(1), "vertex", 1,
        )
