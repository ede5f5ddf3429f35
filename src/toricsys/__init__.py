"""Contact and symplectic invariants of star-shaped toric domains in R^4.

A toric domain is the moment-map preimage of a planar region; its
boundary dynamics (Reeb flow, closed orbits, Ruelle invariant, systolic
ratio) are computed from the moment-plane profile alone.
"""

from .errors import (
    AxisViolation,
    ClippingBreaksStarShape,
    DegenerateDenominator,
    EpsTooLarge,
    EpsTooLargeForNeighborhood,
    NotFlattened,
    NotMonotone,
    NotStarShaped,
    OracleCutoffInsufficient,
    ParamOutOfRange,
    RadiusTooLarge,
    RayMissesBoundary,
    SelfIntersection,
    SmoothingBreaksStarShape,
    StepTooLarge,
    ToricError,
    ValidityConditionFails,
)
from .geometry import (
    Arc,
    Classification,
    MomentProfile,
    SquaredSegment,
    ball,
    classify,
    ellipsoid,
    fc_domain,
    from_vertices,
    polydisk,
    smooth_corners,
)
from .reeb import (
    OrbitDatum,
    ShearCheckResult,
    VertexOrbits,
    closed_orbit_on_segment,
    orbits_at_vertex,
    orbits_below,
    reeb_angular_velocities,
    shear_monodromy_check,
    t_min,
)
from .invariants import (
    InvariantReport,
    area,
    gromov_width_monotone,
    report,
    ruelle_closed_form,
    ruelle_quadrature,
    vol_fc,
)
from .surgery import (
    StrainSpec,
    StrangulationSpec,
    SurgeryOutcome,
    flatten_near_intercept,
    strain,
    strangulate,
)
from . import experiments, profile_io

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
