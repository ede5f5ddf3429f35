"""Exception types shared across the package, and ``integer`` and ``arange``,
which raise one."""

import operator
from typing import Callable

import numpy as np


class ToricError(Exception):
    """Base class for all validation and computation errors."""


class AxisViolation(ToricError):
    """Profile endpoints are not on the coordinate axes, or interior
    vertices touch an axis."""


class NotStarShaped(ToricError):
    """Some ray from the origin fails to cross the profile transversally
    exactly once.  Carries the index of the violating segment/vertex."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"star-shape violated at index {index}")


class SelfIntersection(ToricError):
    """The profile path intersects itself (includes zero-length segments)."""


class ParamOutOfRange(ToricError):
    """A family constructor was called with parameters outside its domain."""


class RadiusTooLarge(ToricError):
    """Corner-rounding or flattening radius exceeds what the incident
    segments allow."""


class SmoothingBreaksStarShape(ToricError):
    """Corner rounding produced a path that is no longer star-shaped."""


class DegenerateDenominator(ToricError):
    """nu . p <= 0 at an evaluation point; the profile is not star-shaped
    there."""


class NotMonotone(ToricError):
    """Operation requires a monotone profile."""


class OracleCutoffInsufficient(ToricError):
    """The brute-force orbit search cannot certify its minimum: primitive
    vectors beyond the cutoff could still beat the best action found."""


class StepTooLarge(ToricError):
    """Finite-difference step (or time horizon) unsuitable: shear residual
    exceeded the sanity threshold."""


class RayMissesBoundary(ToricError):
    """The strangulation ray does not hit the profile."""


class EpsTooLarge(ToricError):
    """Surgery epsilon exceeds the allowed range for this profile."""


class ClippingBreaksStarShape(ToricError):
    """Sector removal produced a path that is no longer star-shaped."""


class EpsTooLargeForNeighborhood(ToricError):
    """Strain epsilon does not fit inside the flattened neighborhood."""


class ValidityConditionFails(ToricError):
    """Strain validity condition on the spike slope fails (k < 0 case)."""


class NotFlattened(ToricError):
    """Strain requires a straight initial run; call flatten_near_intercept
    first."""


def integer(value, what: str) -> int:
    """value as an int, read through ``operator.index`` so that numpy
    integers pass and floats do not; ParamOutOfRange names it otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParamOutOfRange(f"{what} must be an integer; got {value!r}") from None


def arange(count: int, error: Callable[[], ToricError]) -> np.ndarray:
    """np.arange(count), or ``error()`` raised when the count is beyond
    numpy's sizes or its memory (petabytes fail at allocation, untouched)."""
    try:
        return np.arange(count)
    except (OverflowError, ValueError, MemoryError):
        raise error() from None
