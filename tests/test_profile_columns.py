"""Profiles keep their vertices and tags as arrays.

``MomentProfile`` stores ``xy`` and, per tag type, the tagged segments'
indices and numbers (``tag_columns``).  The tuples ``vertices`` and
``tags`` are made from them on first read, so a family builder followed by
``classify``, ``report``, ``scaled`` and ``dumps`` makes no ``Arc`` or
``SquaredSegment``.  A profile rebuilt from the tuples it reads back must
be the same profile in every way it is read, and so must a pickled copy
and a saved and loaded one: a profile is its arrays, family and params,
whichever path built it.
"""

import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from toricsys import geometry, profile_io, surgery
from toricsys.errors import ToricError
from toricsys.experiments import random_monotone_profile, random_star_profile
from toricsys.geometry import (
    Arc,
    MomentProfile,
    SquaredSegment,
    ball,
    classify,
    ellipsoid,
    fc_c_min,
    fc_domain,
    polydisk,
    smooth_corners,
)
from toricsys.invariants import report


@pytest.fixture
def made(monkeypatch):
    """The tag types of every Arc and SquaredSegment made while the test
    runs: builders and profiles find the tag types as attributes of
    ``geometry``, here replaced by counting subclasses."""
    made = []
    for cls in (Arc, SquaredSegment):

        def __init__(self, *args, cls=cls):
            made.append(cls)
            cls.__init__(self, *args)

        monkeypatch.setattr(geometry, cls.__name__, type(cls.__name__, (cls,), {"__init__": __init__}))
    return made


@pytest.mark.parametrize(
    "build, n_tagged, straight",
    [
        (lambda: fc_domain(2, 0.7, 256), 512, 256),
        (lambda: smooth_corners(polydisk(1, 2), 0.2, 510), 510, 0),
    ],
    ids=["fc", "rounded polydisk"],
)
def test_tags_are_made_only_when_read(build, n_tagged, straight, made):
    p = build()
    classify(p)
    report(p)
    p.scaled(2)
    profile_io.dumps(p)
    assert made == [] and len(p.tagged) == n_tagged
    tags = p.tags
    assert len(made) == n_tagged and p.tags is tags
    assert p.tag(straight) is None and len(made) == n_tagged
    assert p.tag(7) == tags[7] and len(made) == n_tagged + 1


def rebuilt_reads_the_same(p):
    q = MomentProfile(p.vertices, p.tags, p.family, p.params)
    assert q == p and p == q and not q != p
    assert hash(q) == hash(p)
    assert repr(q) == repr(p)
    assert profile_io.dumps(q) == profile_io.dumps(p)
    assert (q.vertices, q.tags) == (p.vertices, p.tags)
    assert [q.tag(i) for i in range(q.n_segments)] == list(p.tags or [None] * p.n_segments)
    assert outcome(report, q) == outcome(report, p)
    assert pickle.loads(pickle.dumps(p)) == p
    loaded = profile_io.loads(profile_io.dumps(p))
    assert loaded == p and hash(loaded) == hash(p)


def outcome(f, *args):
    try:
        return repr(f(*args))
    except ToricError as exc:
        return type(exc), str(exc)


def drawn_profiles(rng: random.Random):
    """Profiles from every path that writes columns, drawn from ``rng``."""
    b = rng.uniform(1, 4)
    lo = fc_c_min(b)
    out = [
        ellipsoid(rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.randint(1, 40)),
        polydisk(rng.uniform(0.5, 3), rng.uniform(0.5, 3)),
        ball(rng.uniform(0.5, 3), rng.randint(1, 8)),
        fc_domain(b, rng.choice([lo, rng.uniform(lo, 0.99)]), rng.randint(2, 40)),
    ]
    star = rng.choice([random_star_profile, random_monotone_profile])(rng)
    r = rng.choice([1e-11, 0.05, 0.3]) * float(star.lengths.min())
    for p in (polydisk(rng.uniform(0.5, 3), rng.uniform(0.5, 3)), star):
        try:
            out.append(smooth_corners(p, r, rng.choice([1, 3, 16])))
        except ToricError:
            pass
    out += [p.scaled(rng.choice([1e-3, 0.7, 2.5, 1e6])) for p in out]
    out += [profile_io.loads(profile_io.dumps(p)) for p in out]
    for p in out[:]:
        try:
            flat, _ = surgery.flatten_near_intercept(p, rng.uniform(0.05, 0.5) * p.a_intercept)
            out += [flat, surgery.strain(flat, rng.choice([1e-1, 1e-2])).profile]
        except ToricError:
            pass
    return out


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_rebuilt_profile_reads_the_same(seed):
    for p in drawn_profiles(random.Random(seed)):
        rebuilt_reads_the_same(p)


def test_tag_list_of_none_reads_back():
    p = MomentProfile(polydisk(1, 2).vertices)
    listed = MomentProfile(p.vertices, (None, None))
    assert listed.tags == () and p.tags == ()
    assert listed == p and hash(listed) == hash(p) and listed.tag(1) is None
    rebuilt_reads_the_same(listed)


@pytest.mark.parametrize(
    "build",
    [
        lambda v: MomentProfile(v, (None,) * (len(v) - 1)),
        lambda v: MomentProfile(v, {}),
        lambda v: smooth_corners(ball(1), 0.1),
    ],
    ids=["tag list of None", "empty columns", "nothing rounded"],
)
def test_every_untagged_build_is_the_untagged_profile(build):
    v = ball(1).vertices
    p = build(v)
    untagged = MomentProfile(v)
    assert p == untagged and hash(p) == hash(untagged) and p.tags == ()
    rebuilt_reads_the_same(p)


def test_hash_ignores_the_sign_of_zero():
    p = smooth_corners(polydisk(1, 1), 0.2, 2)
    first = p.tags[1]
    assert first.a0 == 0.0 and math.copysign(1, first.a0) == 1
    signed = Arc(first.center, first.r, -0.0, first.a1)
    q = MomentProfile(p.vertices, (None, signed) + p.tags[2:])
    assert q == p and hash(q) == hash(p)


@pytest.mark.parametrize(
    "columns, says",
    [
        ({Arc: ([1, 1], [[0.8, 0.8, 0.2, 0, 1], [0.8, 0.8, 0.2, 0, 1]])}, "must increase"),
        ({Arc: ([5], [[0.8, 0.8, 0.2, 0, 1]])}, "must increase within 0..3"),
        ({Arc: ([1], [[0.8, 0.8, 0.2, 0]])}, "need \\(k,\\) segments and \\(k, 5\\) numbers"),
        ({Arc: ([1.5], [[0.8, 0.8, 0.2, 0, 1]])}, "segments must be integers"),
        ({str: ([1], [[0.8]])}, "not a tag type"),
        ({Arc: ([1], [[0.8, 0.8, 0.2, 0, 0.7853981633974483]]), SquaredSegment: ([1], [[1, 0, 1, 0.2]])},
         "segment 1 carries two tags"),
    ],
    ids=["repeated", "out of range", "short row", "float segment", "not a tag type", "two types"],
)
def test_malformed_columns_are_out_of_range(columns, says):
    p = smooth_corners(polydisk(1, 1), 0.2, 2)
    with pytest.raises(geometry.ParamOutOfRange, match=says):
        MomentProfile(p.xy, columns)
