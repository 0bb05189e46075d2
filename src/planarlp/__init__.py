"""planarlp: two-variable linear programs, solved and analyzed geometrically.

Solves max c.x over an intersection of half-planes (with implicit x >= 0)
by two independent methods, and reports the open cone of objective
directions under which the optimal vertex stays optimal, together with the
value reached after rotating the gradient within that cone.  A dense
angle-sweep oracle certifies the analytic cone.

`import planarlp` loads none of the modules below: a public name binds at
its first read, which imports its home module (PEP 562), so a command of
the CLI compiles only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

#: The public names, by home module; `errors` is the submodule itself.
_EXPORTS = {
    "errors": ("errors",),
    "distance_form": (
        "DistanceSolution", "HalfPlaneSide", "argmax_distance", "objective_line",
        "side_of", "value_distance_ratio",
    ),
    "geometry": (
        "Angle", "LineThroughOrigin", "PolarVector", "Rotation", "Vec2",
        "apply_rotation", "circular_delta", "cross", "distance_to_line",
        "line_direction_angle", "polar_of", "rotation_of", "wrap_angle",
    ),
    "lp_io": ("load_lp", "parse_lp", "serialize_lp"),
    "lp_model": (
        "FEAS_TOL", "MERGE_TOL", "X1_NONNEG", "X2_NONNEG", "ConstraintRow",
        "FeasibleRegion", "LinearProgram2D", "Vertex", "evaluate", "is_feasible",
        "validate",
    ),
    "normalization": (
        "NormalizedProblem", "normalize", "normalizing_rotation", "rotate_problem",
        "translate_region",
    ),
    "oracle": (
        "TIE", "SweepResult", "stable_interval_by_sweep", "sweep_argmax",
        "sweep_backend",
    ),
    "sensitivity": (
        "AngleInterval", "SensitivityReport", "ValueShift", "analyze",
        "classify_value_shift", "edge_angles", "stable_angle_interval",
        "value_under_rotation",
    ),
    "solver": (
        "Recession", "Solution", "check_recession", "enumerate_vertices",
        "solve_enumeration", "solve_simplex",
    ),
}


def _binder(namespace: dict, homes: dict):
    """A module __getattr__ (PEP 562) for namespace, a module's globals: the
    first read of a name in homes imports its home module, named there, and
    binds the value into namespace, so later reads find it there."""

    def __getattr__(name: str):
        home = homes.get(name)
        if home is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        module = importlib.import_module(f"{__name__}.{home}")
        value = module if name == home else getattr(module, name)
        namespace[name] = value
        return value

    return __getattr__


_HOMES = {name: home for home, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOMES)
__getattr__ = _binder(globals(), _HOMES)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
