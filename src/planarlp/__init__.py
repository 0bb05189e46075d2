"""planarlp: two-variable linear programs, solved and analyzed geometrically.

Solves max c.x over an intersection of half-planes (with implicit x >= 0)
by two independent methods, and reports the open cone of objective
directions under which the optimal vertex stays optimal, together with the
value reached after rotating the gradient within that cone.  A dense
angle-sweep oracle certifies the analytic cone.
"""

from . import errors
from .distance_form import (
    DistanceSolution,
    HalfPlaneSide,
    argmax_distance,
    objective_line,
    side_of,
    value_distance_ratio,
)
from .geometry import (
    Angle,
    LineThroughOrigin,
    PolarVector,
    Rotation,
    Vec2,
    apply_rotation,
    circular_delta,
    cross,
    distance_to_line,
    line_direction_angle,
    polar_of,
    rotation_of,
    wrap_angle,
)
from .lp_io import load_lp, parse_lp, serialize_lp
from .lp_model import (
    FEAS_TOL,
    MERGE_TOL,
    X1_NONNEG,
    X2_NONNEG,
    ConstraintRow,
    FeasibleRegion,
    LinearProgram2D,
    Vertex,
    evaluate,
    is_feasible,
    validate,
)
from .normalization import (
    NormalizedProblem,
    normalize,
    normalizing_rotation,
    rotate_problem,
    translate_region,
)
from .oracle import (
    TIE,
    SweepResult,
    stable_interval_by_sweep,
    sweep_argmax,
    sweep_backend,
)
from .sensitivity import (
    AngleInterval,
    SensitivityReport,
    ValueShift,
    analyze,
    classify_value_shift,
    edge_angles,
    stable_angle_interval,
    value_under_rotation,
)
from .solver import (
    Recession,
    Solution,
    check_recession,
    enumerate_vertices,
    solve_enumeration,
    solve_simplex,
)

__version__ = "0.1.0"

__all__ = [
    "Angle",
    "AngleInterval",
    "ConstraintRow",
    "DistanceSolution",
    "FEAS_TOL",
    "FeasibleRegion",
    "HalfPlaneSide",
    "LineThroughOrigin",
    "LinearProgram2D",
    "MERGE_TOL",
    "NormalizedProblem",
    "PolarVector",
    "Recession",
    "Rotation",
    "SensitivityReport",
    "Solution",
    "SweepResult",
    "TIE",
    "ValueShift",
    "Vec2",
    "Vertex",
    "X1_NONNEG",
    "X2_NONNEG",
    "analyze",
    "apply_rotation",
    "argmax_distance",
    "check_recession",
    "circular_delta",
    "classify_value_shift",
    "cross",
    "distance_to_line",
    "edge_angles",
    "enumerate_vertices",
    "errors",
    "evaluate",
    "is_feasible",
    "line_direction_angle",
    "load_lp",
    "normalize",
    "normalizing_rotation",
    "objective_line",
    "parse_lp",
    "polar_of",
    "rotate_problem",
    "rotation_of",
    "serialize_lp",
    "side_of",
    "solve_enumeration",
    "solve_simplex",
    "stable_angle_interval",
    "stable_interval_by_sweep",
    "sweep_argmax",
    "sweep_backend",
    "translate_region",
    "validate",
    "value_distance_ratio",
    "value_under_rotation",
    "wrap_angle",
]
