"""The four workloads: seeded inputs, items, and the checks on their outputs.

``build(name, seed)`` returns one round, the list of items a run repeats
whole.  An item is one closed-loop operation on toricsys.  ``run`` calls
the program through module attributes, so the wrappers of a traced run
see every call.  ``check`` returns the problems it finds in an output, an
empty list when the output is right; expected values come from
``closed_forms`` or from properties the paper proves, never from a stored
copy of an earlier output.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from toricsys import cli, experiments, geometry, invariants, profile_io, reeb, surgery

import closed_forms as cf

WORKLOADS = ("corpus", "dense", "sweep", "certify")

DIAGONAL = math.pi / 4
RAYS = (DIAGONAL, math.pi / 3, math.pi / 6)


def half_decades(lo: float, hi: float = 1e-1) -> list[float]:
    """The grid 1e-1, 10^-1.5, 1e-2, ... down to lo, limited to <= hi."""
    grid = []
    k = 2
    while 10 ** (-k / 2) >= lo * (1 - 1e-9):
        if 10 ** (-k / 2) <= hi:
            grid.append(10 ** (-k / 2))
        k += 1
    return grid


@dataclass
class Item:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    # Segments or 1/eps; the warm-up runs the smallest item of each kind.
    size: float
    eps: float = 0.0
    # Marks an output that shows the known volume fault of strangulation.
    fault: Optional[Callable[[object], bool]] = None


@dataclass(frozen=True)
class Expect:
    """What the benchmark knows about a profile without running toricsys."""

    a: float
    b: float
    area: float
    area_tol: float
    tmin: Optional[float] = None
    product: Optional[float] = None
    gromov: Optional[float] = None
    flags: tuple = ()
    product_min: float = 0.0
    product_max: float = math.inf
    segments: int = 1


def _close(problems: list, what: str, got, want: float, rel: float = 1e-12, tol: float = 0.0):
    if not abs(got - want) <= max(tol, rel * abs(want)):
        problems.append(f"{what} = {got!r}, expected {want!r}")


def check_report(exp: Expect, rep) -> list:
    """Closed forms and the paper's identities on an InvariantReport."""
    probs: list = []
    ru = exp.a + exp.b
    _close(probs, "area", rep.area, exp.area, rel=0.0, tol=exp.area_tol)
    _close(probs, "ruelle", rep.ruelle, ru)
    _close(probs, "ruelle_quadrature", rep.ruelle_quadrature, ru, rel=1e-9)
    cv = 2 * rep.area
    _close(probs, "contact_volume", rep.contact_volume, cv)
    _close(probs, "sys", rep.sys, rep.t_min**2 / cv)
    _close(probs, "ru", rep.ru, rep.ruelle / math.sqrt(cv))
    _close(probs, "product", rep.product, rep.ruelle * rep.t_min / cv)
    if exp.tmin is not None:
        _close(probs, "t_min", rep.t_min, exp.tmin)
    elif not 0 < rep.t_min <= min(exp.a, exp.b) * (1 + 1e-12):
        probs.append(f"t_min = {rep.t_min!r} outside (0, min(a, b)]")
    if exp.product is not None:
        _close(probs, "product", rep.product, exp.product, rel=1e-9 + 2 * exp.area_tol / exp.area)
    if not exp.product_min - 1e-9 <= rep.product <= exp.product_max + 1e-9:
        probs.append(f"product = {rep.product!r} outside [{exp.product_min}, {exp.product_max}]")
    for name, want in exp.flags:
        if getattr(rep.classification, name) != want:
            probs.append(f"{name} = {getattr(rep.classification, name)}, expected {want}")
    return probs


MONOTONE = (("monotone", True), ("strictly_monotone", True))
CONVEX = (("monotone", True), ("convex_4d", True))


def expect_family(family: str, args: tuple) -> Expect:
    """Closed forms for the named families: E(a, b) and B(c) have
    area ab/2 and T_min = min(a, b); P(a, b) has area ab; the extremal
    convex domain fc(b, c) has area vol_fc(b, c), Ru = 1 + b and
    T_min = c, the action of the (1, 1) orbits on its straight piece."""
    if family in ("ellipsoid", "ball"):
        a, b = (args[0], args[1]) if family == "ellipsoid" else (args[0], args[0])
        n = int(args[-1]) if len(args) > (2 if family == "ellipsoid" else 1) else 1
        lo = min(a, b)
        return Expect(
            a, b, a * b / 2, 1e-12 * a * b, tmin=lo, product=(a + b) * lo / (a * b),
            gromov=lo, flags=MONOTONE + CONVEX, product_min=0.5, product_max=3.0, segments=n,
        )
    if family == "polydisk":
        a, b = args
        lo = min(a, b)
        return Expect(
            a, b, a * b, 1e-12 * a * b, tmin=lo, product=(a + b) * lo / (2 * a * b),
            gromov=lo, flags=(("monotone", True), ("strictly_monotone", False)),
            product_min=0.5, product_max=3.0, segments=2,
        )
    if family == "fc":
        b, c, n = args
        vol = cf.vol_fc(b, c)
        return Expect(
            1.0, b, vol, 1e-8, tmin=c, product=(1 + b) * c / (2 * vol), gromov=c,
            flags=CONVEX, product_min=0.5, product_max=3.0, segments=2 * int(n) + 1,
        )
    raise ValueError(family)


def expect_vertices(pts, flags: tuple) -> Expect:
    """A polygonal profile: shoelace area, Ru = a + b, and for monotone
    paths the first touch of the antidiagonal, min(w1 + w2) over vertices."""
    area = cf.shoelace(pts)
    monotone = ("monotone", True) in flags
    return Expect(
        pts[0][0], pts[-1][1], area, 1e-12 * area,
        gromov=min(x + y for x, y in pts) if monotone else None,
        flags=flags,
        product_min=0.5 if monotone else 0.0,
        product_max=3.0 if ("convex_4d", True) in flags else math.inf,
        segments=len(pts) - 1,
    )


def _constructor(family: str, args: tuple) -> Callable[[], object]:
    fn = {"ellipsoid": "ellipsoid", "ball": "ball", "polydisk": "polydisk", "fc": "fc_domain"}[family]
    return lambda: getattr(geometry, fn)(*args)


def _spec(family: str, args: tuple) -> str:
    return f"{family}:" + ",".join(repr(x) for x in args)


def _random_family(rng: random.Random, family: str, k: int) -> tuple:
    """Family parameters with k interior vertices (polydisk: always 1)."""
    if family == "ellipsoid":
        return (rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), k + 1)
    if family == "ball":
        return (rng.uniform(0.5, 3.0), k + 1)
    if family == "polydisk":
        return (rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))
    b = rng.uniform(1.0, 3.0)
    return (b, rng.uniform(b / (1 + b) + 0.02, 0.95), max(2, k // 2))


# ---------------------------------------------------------------------------
# corpus: thousands of small profiles through classify, report, Gromov
# width and a profile_io round trip; one item in ten through the CLI.


def _corpus_item(kind: str, build, exp: Expect, scale: float) -> Item:
    def run():
        p = build()
        cls = geometry.classify(p)
        rep = invariants.report(p)
        gw = invariants.gromov_width_monotone(p) if cls.monotone else None
        back = profile_io.loads(profile_io.dumps(p))
        return p, cls, rep, gw, back

    def check(out) -> list:
        p, cls, rep, gw, back = out
        probs = check_report(exp, rep)
        if cls != rep.classification:
            probs.append(f"classify gives {cls}, report carries {rep.classification}")
        if p.n_segments != exp.segments:
            probs.append(f"{p.n_segments} segments, expected {exp.segments}")
        if exp.gromov is not None:
            if gw is None:
                probs.append("no Gromov width on a monotone profile")
            else:
                _close(probs, "gromov_width", gw, exp.gromov)
        if back.vertices != p.vertices or back.family != p.family:
            probs.append("profile_io round trip changed the profile")
        scaled = invariants.report(p.scaled(scale))
        _close(probs, "product of the scaled profile", scaled.product, rep.product, rel=1e-9)
        return probs

    return Item(kind, run, check, size=exp.segments)


REPORT_NUMBERS = (
    "area", "contact_volume", "ruelle", "ruelle_quadrature", "t_min", "sys", "ru", "product",
)


def _cli_item(family: str, args: tuple, exp: Expect) -> Item:
    spec = _spec(family, args)
    build = _constructor(family, args)

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["invariants", spec])
        return code, buf.getvalue()

    def check(out) -> list:
        code, text = out
        probs = [] if code == 0 else [f"{spec}: exit code {code}"]
        fields = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)
        want = invariants.report(build())
        for name in REPORT_NUMBERS:
            if name not in fields:
                probs.append(f"{spec}: no {name} line")
            elif float(fields[name]) != getattr(want, name):
                probs.append(f"{spec}: {name} = {fields[name]}, report gives {getattr(want, name)!r}")
        if fields.get("flags") != want.flags_string():
            probs.append(f"{spec}: flags = {fields.get('flags')}, report gives {want.flags_string()}")
        return probs + check_report(exp, want)

    return Item("corpus.cli", run, check, size=exp.segments)


CORPUS_MIX = (("star", 220), ("monotone", 220), ("convex", 220), ("family", 240), ("cli", 100))
FAMILIES = ("ellipsoid", "ball", "polydisk", "fc")
GENERATORS = {
    "star": (cf.random_star, (("star_shaped", True),)),
    "monotone": (cf.random_monotone, MONOTONE),
    "convex": (cf.random_convex_monotone, CONVEX),
}


def build_corpus(seed: int) -> list:
    rng = random.Random(f"corpus:{seed}")
    items = []
    for source, count in CORPUS_MIX:
        for i in range(count):
            # Sizes cycle through 2..12 interior vertices, so that every
            # seed gives the same mix of sizes.
            k = 2 + i % 11
            scale = rng.uniform(0.3, 3.0)
            if source in GENERATORS:
                gen, flags = GENERATORS[source]
                pts = gen(rng, k)
                build = (lambda pts: lambda: geometry.from_vertices(pts))(pts)
                items.append(_corpus_item(f"corpus.{source}", build, expect_vertices(pts, flags), scale))
                continue
            family = FAMILIES[i % len(FAMILIES)]
            args = _random_family(rng, family, k)
            exp = expect_family(family, args)
            if source == "cli":
                items.append(_cli_item(family, args, exp))
            else:
                items.append(_corpus_item(f"corpus.{family}", _constructor(family, args), exp, scale))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# dense: profiles of 32 to 512 segments through constructor, classify and
# report; the Ruelle quadrature grows like n^2 there.

DENSE_SEGMENTS = (32, 64, 128, 256, 512)


def _dense_item(kind: str, build, exp: Expect) -> Item:
    def run():
        p = build()
        return p, geometry.classify(p), invariants.report(p)

    def check(out) -> list:
        p, cls, rep = out
        probs = check_report(exp, rep)
        if cls != rep.classification:
            probs.append(f"classify gives {cls}, report carries {rep.classification}")
        if p.n_segments != exp.segments:
            probs.append(f"{p.n_segments} segments, expected {exp.segments}")
        return probs

    return Item(kind, run, check, size=exp.segments)


def _rounded_polydisk(rng: random.Random, segments: int):
    a, b = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
    r = rng.uniform(0.05, 0.25) * min(a, b)
    m = segments - 2
    area = a * b - r * r * (1 - math.pi / 4)
    lo = min(a, b)
    exp = Expect(
        a, b, area, 1e-9 * area, tmin=lo, product=(a + b) * lo / (2 * area),
        flags=(("monotone", True),), segments=segments,
    )
    return (lambda: geometry.smooth_corners(geometry.polydisk(a, b), r, m)), exp


def _rounded_polygon(rng: random.Random, segments: int):
    a, b = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
    k = rng.randint(4, 8)
    pts = cf.ellipse_polygon(rng, a, b, k)
    shortest = min(math.hypot(q[0] - p[0], q[1] - p[1]) for p, q in zip(pts, pts[1:]))
    r = 0.3 * shortest
    m = max(1, (segments - k - 1) // k)
    area = cf.shoelace(pts) - cf.rounded_corner_loss(pts, r)
    exp = Expect(a, b, area, 1e-9 * area, flags=(("monotone", True),), segments=k + 1 + k * m)
    return (lambda: geometry.smooth_corners(geometry.from_vertices(pts), r, m)), exp


def build_dense(seed: int) -> list:
    rng = random.Random(f"dense:{seed}")
    items = []
    for n in DENSE_SEGMENTS:
        args = (rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0), n)
        items.append(_dense_item("dense.ellipsoid", _constructor("ellipsoid", args), expect_family("ellipsoid", args)))
        b = rng.uniform(1.0, 3.0)
        args = (b, rng.uniform(b / (1 + b) + 0.02, 0.95), n // 2)
        items.append(_dense_item("dense.fc", _constructor("fc", args), expect_family("fc", args)))
        items.append(_dense_item("dense.rounded_polydisk", *_rounded_polydisk(rng, n)))
        items.append(_dense_item("dense.rounded_polygon", *_rounded_polygon(rng, n)))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# sweep: epsilon-sweep points of both surgeries, down to the smallest eps
# each input validates at.


@dataclass(frozen=True)
class SweepInput:
    family: str
    args: tuple
    a: float
    b: float
    vol: float
    tmin: float
    flatten: float = 0.0


def _sweep_input(family: str, args: tuple, flatten: float = 0.0) -> SweepInput:
    exp = expect_family(family, args)
    vol = exp.area
    if family == "fc" and flatten:
        _, vol = cf.fc_flattened(args[0], args[1], args[2], flatten)
    return SweepInput(family, args, exp.a, exp.b, vol, exp.tmin, flatten)


def _volume_fault(rec) -> bool:
    return bool(rec.error) or not abs(rec.vol_delta) <= rec.vol_delta_bound


def _check_volume(probs: list, inp: SweepInput, area_in: float, delta: float, bound: float):
    if not abs(delta) <= bound:
        probs.append(f"|volume_delta| = {abs(delta)!r} > bound {bound!r}")
    _close(probs, "area of the input", area_in, inp.vol, rel=1e-9, tol=1e-8 if inp.family == "fc" else 0.0)


def _sweep_item(inp: SweepInput, op: str, eps: float, ray: float) -> Item:
    build = _constructor(inp.family, inp.args)
    flatten = inp.flatten

    def prepare():
        p = build()
        if flatten:
            p, _ = surgery.flatten_near_intercept(p, flatten)
        return p

    if op == "strain" or ray == DIAGONAL:
        def run():
            config = experiments.RunConfig(command="sweep", profile=prepare(), op=op, eps_grid=(eps,))
            (rec,) = experiments.run_sweep(config)
            return rec
    else:
        def run():
            out = surgery.strangulate(prepare(), eps, ray)
            return invariants.report(out.profile), out.volume_delta, out.volume_delta_bound

    def check_diagonal(rec) -> list:
        probs: list = []
        _close(probs, "ruelle", rec.ruelle, inp.a + inp.b)
        if not rec.t_min <= 2 * eps * (1 + 1e-9):
            probs.append(f"t_min = {rec.t_min!r} > 2 eps")
        if not rec.sys <= 4 * eps * eps / inp.vol * (1 + 1e-9):
            probs.append(f"sys = {rec.sys!r} > 4 eps^2 / Vol")
        if not rec.bound_holds:
            probs.append("run_sweep reports the strangulation bound as failed")
        _check_volume(probs, inp, rec.area + rec.vol_delta, rec.vol_delta, rec.vol_delta_bound)
        return probs

    def check_ray(out) -> list:
        rep, delta, bound = out
        probs: list = []
        _close(probs, "ruelle", rep.ruelle, inp.a + inp.b)
        if not 0 < rep.t_min <= min(inp.a, inp.b) * (1 + 1e-12):
            probs.append(f"t_min = {rep.t_min!r} outside (0, min(a, b)]")
        _check_volume(probs, inp, rep.area + delta, delta, bound)
        return probs

    def check_strain(rec) -> list:
        probs: list = []
        _close(probs, "ruelle", rec.ruelle, 1 / math.sqrt(eps) + inp.b)
        if not rec.t_min >= inp.tmin / 2 * (1 - 1e-12):
            probs.append(f"t_min = {rec.t_min!r} < T_min(in)/2 = {inp.tmin / 2!r}")
        floor = inp.tmin / (6 * math.sqrt(eps) * inp.vol)
        if not rec.product >= floor * (1 - 1e-9):
            probs.append(f"product = {rec.product!r} < {floor!r}")
        if not rec.bound_holds:
            probs.append("run_sweep reports the strain bound as failed")
        _check_volume(probs, inp, rec.area - rec.vol_delta, rec.vol_delta, rec.vol_delta_bound)
        return probs

    if op == "strain":
        return Item("sweep.strain", run, check_strain, 1 / eps, eps, _volume_fault)
    if ray == DIAGONAL:
        return Item("sweep.strangulate.diagonal", run, check_diagonal, 1 / eps, eps, _volume_fault)
    return Item(
        "sweep.strangulate.ray", run, check_ray, 1 / eps, eps,
        lambda out: not abs(out[1]) <= out[2],
    )


# Smallest eps each strangulation input validates at on its whole
# parameter range (ClippingBreaksStarShape below it, see README).
STRANGULATE_FLOOR = {"ball": 1e-4, "ellipsoid": 10**-3.5, "polydisk": 1e-4, "fc": 1e-4}
# The known volume fault: these tagged inputs, fixed for every seed, fail
# the C0-small volume check at their smallest eps.
FIXED_FC = ((2.0, 0.7, 16), (1.0, 0.5, 8))
STRAIN_FLOOR = 1e-4


def _near(rng: random.Random, center: float) -> float:
    return center * rng.uniform(0.9, 1.1)


# Sweep inputs keep their size within 10 % of a fixed centre: the lattice
# searches at small eps cost in proportion to the size over eps, so a wide
# size range would make a run's cost depend on its seed.


def strangulate_inputs(rng: random.Random) -> list:
    a = _near(rng, 1.5)
    return [
        _sweep_input("ball", (_near(rng, 2.0),)),
        _sweep_input("ellipsoid", (a, a * rng.uniform(1.2, 1.4))),
        _sweep_input("polydisk", (_near(rng, 1.5), _near(rng, 1.5))),
        _sweep_input("ellipsoid", (_near(rng, 1.5), _near(rng, 1.5), rng.randint(2, 6))),
    ] + [_sweep_input("fc", args) for args in FIXED_FC]


def strain_inputs(rng: random.Random, scale: float) -> list:
    """Flattened ball, ellipsoid and fc inputs; ball and ellipsoid have
    intercepts near scale.  Ball and ellipsoid are flattened over a fifth
    of the w1-intercept, fc up to halfway to its straight piece."""
    ball = (_near(rng, scale), rng.randint(12, 20))
    ellipsoid = (_near(rng, scale / 2), _near(rng, scale), rng.randint(12, 20))
    b, c = _near(rng, 1.5), rng.uniform(0.7, 0.8)
    return [
        _sweep_input("ball", ball, flatten=0.2 * ball[0]),
        _sweep_input("ellipsoid", ellipsoid, flatten=0.2 * ellipsoid[0]),
        _sweep_input("fc", (b, c, rng.randint(8, 16)), flatten=(1 - c * c) / 2),
    ]


def strain_grid(inp: SweepInput, lo: float) -> list:
    """Half-decades down to lo, from the largest eps that every input of
    the family admits: strain needs eps below the first vertex left after
    flattening, at height >= b/5 >= 0.1 on ball and ellipsoid, and about
    0.02 or more on fc.  The grid does not depend on the seed."""
    if inp.family == "fc":
        hi = 1e-2
        (_, height), _ = cf.fc_flattened(*inp.args, inp.flatten)
    else:
        hi = 1e-1
        a, n = inp.a, inp.args[-1]
        height = inp.b * next(i / n for i in range(1, n + 1) if a * (1 - i / n) <= a - inp.flatten)
    if height < hi:
        raise ValueError(f"strain input {inp} admits no eps above {height}")
    return half_decades(lo, hi)


def build_sweep(seed: int) -> list:
    rng = random.Random(f"sweep:{seed}")
    items = []
    for inp in strangulate_inputs(rng):
        for ray in RAYS:
            for eps in half_decades(STRANGULATE_FLOOR[inp.family]):
                items.append(_sweep_item(inp, "strangulate", eps, ray))
    for inp in strain_inputs(rng, 2.0):
        for eps in strain_grid(inp, STRAIN_FLOOR):
            items.append(_sweep_item(inp, "strain", eps, DIAGONAL))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# certify: fast t_min against the cutoff-200 oracle.

# The oracle's cutoff of 200 stops certifying strangulated outputs at
# eps = 1e-2 on part of the parameter range (see README).
CERTIFY_GRID = half_decades(10**-1.5)


def _certify_item(kind: str, profile, tmax: float) -> Item:
    def run():
        return reeb.t_min(profile, method="fast"), reeb.t_min(profile, method="oracle")

    def check(out) -> list:
        (fast, fw), (oracle, ow) = out
        probs = []
        if fast != oracle or fw.mn != ow.mn:
            probs.append(f"fast t_min {fast!r} at {fw.mn}, oracle {oracle!r} at {ow.mn}")
        if not 0 < fast <= tmax * (1 + 1e-9):
            probs.append(f"t_min = {fast!r} outside (0, {tmax!r}]")
        return probs

    return Item(kind, run, check, size=profile.n_segments)


def build_certify(seed: int) -> list:
    rng = random.Random(f"certify:{seed}")
    items = []
    for gen, kind in ((cf.random_star, "certify.star"), (cf.random_monotone, "certify.monotone")):
        for i in range(40):
            pts = gen(rng, 2 + i % 11)
            a, b = pts[0][0], pts[-1][1]
            items.append(_certify_item(kind, geometry.from_vertices(pts), min(a, b)))
    for inp in strangulate_inputs(rng)[:4]:
        p = _constructor(inp.family, inp.args)()
        for ray in RAYS:
            for eps in CERTIFY_GRID:
                out = surgery.strangulate(p, eps, ray).profile
                tmax = 2 * eps if ray == DIAGONAL else min(inp.a, inp.b)
                items.append(_certify_item("certify.strangulated", out, tmax))
    for inp in strain_inputs(rng, 1.0):
        p, _ = surgery.flatten_near_intercept(_constructor(inp.family, inp.args)(), inp.flatten)
        for eps in strain_grid(inp, 10**-1.5):
            out = surgery.strain(p, eps).profile
            items.append(_certify_item("certify.strained", out, min(1 / math.sqrt(eps), inp.b)))
    rng.shuffle(items)
    return items


ROUNDS = {
    "corpus": build_corpus,
    "dense": build_dense,
    "sweep": build_sweep,
    "certify": build_certify,
}


def build(name: str, seed: int) -> list:
    return ROUNDS[name](seed)


def digest(x) -> str:
    """A text form of an output that two equal outputs share; profiles
    are reduced to vertices, family and parameters (tags are closures)."""
    if isinstance(x, geometry.MomentProfile):
        return repr((x.vertices, x.family, x.params))
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(digest(v) for v in x) + ")"
    return repr(x)
