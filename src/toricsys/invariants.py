"""Scalar invariants of a moment profile.

Area in moment coordinates equals the 4D symplectic volume; the contact
volume of the boundary is twice that.  The area sums shoelace terms on
straight segments and each tag type's closed-form integral on its
curves, with no quadrature.  The Ruelle invariant equals a + b in closed form.  The
quadrature of the rotation-density line integral, which no quantity of
the paper needs, is not an independent check of it: its integrand is
dw2 - dw1 wherever the curve's normal is defined, so it telescopes to
a + b on every segment, and on a tag it is Gauss-Legendre of dw2 - dw1.
``report`` therefore leaves it to the first read of its field.  The
convexity-criterion product is ru * sqrt(sys) = Ru * T_min /
contact_volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .errors import NotMonotone, ParamOutOfRange, integer
from .geometry import FLAGS, Classification, MomentProfile, _gl_nodes, _quiet, classify
from . import reeb

GL_ORDER = 8


def _straight(p: MomentProfile, column: np.ndarray) -> np.ndarray:
    """The rows of a per-segment array on the untagged segments: all of
    them, unmasked, on a profile without tags."""
    if not len(p.tagged):
        return column
    straight = np.ones(p.n_segments, dtype=bool)
    straight[p.tagged] = False
    return column[straight]


def area(p: MomentProfile) -> float:
    """Area between the profile and the axes: half the exact sum of the
    straight segments' shoelace terms (their ``cross_products``) and each
    tag's ``cross_integrals``, rounded once by ``math.fsum``, so that
    their order does not matter; computed once per profile
    (``MomentProfile.memo``)."""
    return p.memo("area", lambda: _area(p))


def _area(p: MomentProfile) -> float:
    terms = _straight(p, p.cross_products).tolist()
    for cls, (_, nums) in p.tag_columns.items():
        terms += cls.cross_integrals(nums.T).tolist()
    return 0.5 * math.fsum(terms)


def ruelle_closed_form(p: MomentProfile) -> float:
    return p.a_intercept + p.b_intercept


def ruelle_quadrature(p: MomentProfile, n: int = GL_ORDER) -> float:
    """The rotation-density line integral rho(w) (w1 dw2 - w2 dw1) along
    the profile.

    On a straight segment with vector d = (dw1, dw2) the integrand is
    constant, (nu1 + nu2) * cross(w, d) / (nu . w) = dw2 - dw1, so those
    segments are summed in closed form and, over a polygon, the result
    telescopes to a + b.  Tagged (curved) pieces take n Gauss-Legendre
    points each, 2 <= n <= 100 (numpy's ``leggauss`` is tested only up to
    degree 100), sampled with their derivatives on each call.  There the
    integrand is again dw2 - dw1 at every node where the curve moves, so
    the sum is Gauss-Legendre of dw2 - dw1, exact for the polynomial
    ``SquaredSegment`` and within quadrature error of the chord's
    dw2 - dw1 on an ``Arc``: it checks the sampling and the nu . w test,
    not ``ruelle_closed_form``.  On a validated straight segment
    nu . w = cross(a, b) / |b - a| > 0, so nu . w is checked at the tag
    nodes only."""
    n = integer(n, "quadrature points per segment")
    if n < 2:
        raise ParamOutOfRange(f"need at least 2 quadrature points per segment; got {n}")
    if n > 100:
        raise ParamOutOfRange(f"at most 100 quadrature points per segment; got {n}")
    d = _straight(p, p.directions)
    total = (d[:, 1] - d[:, 0]).sum()
    if p.tagged.size:
        nodes, weights = _gl_nodes(n)
        x, y, dx, dy = p.sample_curves(nodes, True)
        speed = np.hypot(dx, dy)
        # A curve stationary at a node has nu = 0/0 = nan there, which the
        # nu . w check below refuses without a numpy warning.
        with _quiet():
            nu1, nu2 = dy / speed, -dx / speed
        denom = reeb.nu_dot_w(
            p, (x, y), (nu1, nu2),
            lambda k, value: f"nu.w = {value} on segment {int(p.tagged[k[0]])}",
        )
        crs = x * dy - y * dx
        total += (weights * ((nu1 + nu2) / denom) * crs).sum()
    return float(total)


class _OnFirstRead:
    """A data descriptor for a dataclass field that may be given as a
    callable of no arguments: the first read calls it and keeps its
    value in place of it, and every read returns that value.  Read
    through the class it raises AttributeError, so the field keeps no
    default and stays a required init argument; ``__init__`` of a frozen
    dataclass sets it through ``__set__``."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)
        value = obj.__dict__[self.name]
        if callable(value):
            value = obj.__dict__[self.name] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class InvariantReport:
    """The invariants of one profile.  ``report`` gives
    ``ruelle_quadrature`` as ``partial(ruelle_quadrature, p)``, computed on
    the first read of the field (equality, ``repr``, ``replace``, pickling
    and the text and CSV rows all read it)."""

    area: float
    contact_volume: float
    ruelle: float
    ruelle_quadrature: float = _OnFirstRead()
    t_min: float
    sys: float
    ru: float
    product: float
    classification: Classification

    def flags_string(self) -> str:
        """The names of the classification's true flags, joined by ';'."""
        return ";".join(name for name in FLAGS if getattr(self.classification, name))

    def __getstate__(self):
        # Pickled with the quadrature's value, not the callable behind it.
        return {**self.__dict__, "ruelle_quadrature": self.ruelle_quadrature}


# The report's columns: its numbers in field order, then the classification
# written as ``flags``.
REPORT_FIELDS = (*(f.name for f in fields(InvariantReport)[:-1]), "flags")


def report(p: MomentProfile) -> InvariantReport:
    vol = area(p)
    cv = 2 * vol
    ru_cf = ruelle_closed_form(p)
    tmin, _ = reeb.t_min(p)
    sys_ratio = tmin * tmin / cv
    ru_ratio = ru_cf / math.sqrt(cv)
    return InvariantReport(
        area=vol,
        contact_volume=cv,
        ruelle=ru_cf,
        ruelle_quadrature=partial(ruelle_quadrature, p),
        t_min=tmin,
        sys=sys_ratio,
        ru=ru_ratio,
        product=ru_cf * tmin / cv,
        classification=classify(p),
    )


def _report_values(r: InvariantReport) -> list[str]:
    """The text of each of ``REPORT_FIELDS``."""
    return [f"{getattr(r, name):.17g}" for name in REPORT_FIELDS[:-1]] + [r.flags_string()]


def report_to_text(r: InvariantReport) -> str:
    return "".join(f"{name} = {v}\n" for name, v in zip(REPORT_FIELDS, _report_values(r)))


def report_csv_header() -> str:
    return ",".join(REPORT_FIELDS)


def report_to_csv_row(r: InvariantReport) -> str:
    return ",".join(_report_values(r))


def gromov_width_monotone(p: MomentProfile) -> float:
    """First-touch value of the antidiagonal line w1 + w2 = L: the
    minimum of w1 + w2 over the boundary path (monotone profiles only),
    taken exactly: the least vertex, and each tag's ``least_sums``."""
    cls = classify(p)
    if not cls.monotone:
        raise NotMonotone(f"witness segment {cls.witnesses.get('monotone')}")
    xy = p.xy
    low = (xy[:, 0] + xy[:, 1]).min()
    for tag_type, (_, nums) in p.tag_columns.items():
        low = min(low, tag_type.least_sums(nums.T).min())
    return float(low)


def vol_fc(b: float, c: float) -> float:
    """Closed-form volume of the extremal convex domain with parameters
    (b, c): c^2/2 + (b-c)^2 c/(6b) + c(1-c)^2/6."""
    return c * c / 2 + (b - c) ** 2 * c / (6 * b) + c * (1 - c) ** 2 / 6
