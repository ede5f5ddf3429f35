"""Contact and symplectic invariants of star-shaped toric domains in R^4.

A toric domain is the moment-map preimage of a planar region; its
boundary dynamics (Reeb flow, closed orbits, Ruelle invariant, systolic
ratio) are computed from the moment-plane profile alone.
"""

from .errors import (
    AxisViolation,
    BadThresholds,
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
    NormalCone,
    SquaredSegment,
    ball,
    classify,
    ellipsoid,
    endpoint_cone,
    fc_domain,
    from_vertices,
    normal_cone,
    polydisk,
    smooth_corners,
    sqrt_transform,
    total_turning,
)
from .reeb import (
    OrbitDatum,
    ShearCheckResult,
    closed_orbit_on_segment,
    orbits_at_vertex,
    orbits_below,
    reeb_angular_velocities,
    rotation_density,
    shear_monodromy_check,
    t_min,
)
from .invariants import (
    CriterionVerdict,
    InvariantReport,
    area,
    contact_volume,
    criterion_verdict,
    gromov_width_monotone,
    report,
    ruelle_closed_form,
    ruelle_quadrature,
    vol_fc,
    vol_gr_bound_check,
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
