"""Gradient-cone sensitivity analysis around the optimal vertex.

For a bounded LP with a unique optimal vertex x0, the set of objective
directions keeping x0 optimal is the open cone between the outward normals
of the two incident edges.  analyze() reports that cone as an open angle
interval positioned to contain the current gradient angle phi_f, together
with the admissible gradient rotations nu and the value reached after such
a rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import (
    CoincidentVertices,
    DegenerateOptimum,
    ReflexVertex,
    RotationOutsideStableCone,
    ZeroObjective,
)
from .geometry import (
    TAU,
    PolarVector,
    Vec2,
    _atan2,
    cross,
    line_direction_angle,
    polar_of,
)
from .lp_model import (
    MERGE_TOL,
    FeasibleRegion,
    LinearProgram2D,
    Vertex,
    evaluate,
    validate,
)
from .normalization import normalizing_rotation
from .solver import (
    VALUE_TIE_REL,
    adjacent_vertices,
    argmax_with_ties,
    enumerate_vertices,
)


@dataclass(frozen=True)
class AngleInterval:
    """Open interval (lo, hi) of angles in radians, width strictly below pi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got ({self.lo}, {self.hi})")
        if self.hi - self.lo >= math.pi + 1e-9:
            raise ValueError(f"interval spans {self.hi - self.lo} >= pi")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, phi: float) -> bool:
        """Strict membership, no wrapping."""
        return self.lo < phi < self.hi

    def contains_circular(self, phi: float) -> bool:
        """Strict membership of phi modulo full turns."""
        d = (phi - self.lo) % TAU
        return 0.0 < d < self.width

    def shifted(self, delta: float) -> "AngleInterval":
        return AngleInterval(self.lo + delta, self.hi + delta)

    def clipped(self, lo: float, hi: float) -> "AngleInterval | None":
        """Intersection with (lo, hi), or None when empty."""
        a, b = max(self.lo, lo), min(self.hi, hi)
        if a < b:
            return AngleInterval(a, b)
        return None


@dataclass(frozen=True)
class SensitivityReport:
    optimal_vertex: Vertex
    optimal_value: float
    pred: Vertex
    succ: Vertex
    theta1: float
    theta2: float
    interval: AngleInterval
    objective_polar: PolarVector
    phi_inside: bool
    nu_interval: AngleInterval
    theta0: float
    endpoint_ties: tuple[Vertex, Vertex]


class ValueShift(Enum):
    INCREASES = "increases"
    DECREASES = "decreases"
    UNCHANGED = "unchanged"


def _check_distinct(pred: Vertex, x0: Vertex, succ: Vertex) -> None:
    pairs = ((pred, x0), (x0, succ), (pred, succ))
    if any((a.point - b.point).norm() <= MERGE_TOL for a, b in pairs):
        raise CoincidentVertices("corner triple contains coincident vertices")


def edge_angles(pred: Vertex, x0: Vertex, succ: Vertex) -> tuple[float, float]:
    """Undirected line angles in (0, pi] of the two edges meeting at x0.

    theta1 belongs to the edge toward the predecessor, theta2 to the edge
    toward the successor.
    """
    _check_distinct(pred, x0, succ)
    theta1 = line_direction_angle(pred.point - x0.point)
    theta2 = line_direction_angle(x0.point - succ.point)
    return theta1, theta2


def stable_angle_interval(pred: Vertex, x0: Vertex, succ: Vertex) -> AngleInterval:
    """Open cone of gradient angles for which x0 beats both neighbors.

    The cone runs counterclockwise from the outward normal of the edge
    (pred -> x0) to the outward normal of (x0 -> succ); its width is the
    exterior angle at x0, always below pi for a convex corner.
    """
    _check_distinct(pred, x0, succ)
    e1 = x0.point - pred.point
    e2 = succ.point - x0.point
    if cross(e1, e2) <= 1e-12 * e1.norm() * e2.norm():
        raise ReflexVertex("corner is not strictly convex counterclockwise")
    n1 = Vec2(e1.x2, -e1.x1)  # outward normal: edge rotated -90 degrees
    n2 = Vec2(e2.x2, -e2.x1)
    lo = _atan2(n1.x2, n1.x1)
    span = (_atan2(n2.x2, n2.x1) - lo) % TAU
    return AngleInterval(lo, lo + span)


def _tie_angle(first: Vertex, second: Vertex) -> float:
    """Gradient angle at which the edge first -> second is level with the
    objective: the angle of the edge's outward normal."""
    e = second.point - first.point
    return _atan2(-e.x1, e.x2)


def analyze(lp: LinearProgram2D, *, tol: float = 1e-9) -> SensitivityReport:
    """Full sensitivity report for the optimal vertex of lp.

    Raises DegenerateOptimum when the optimum ties between vertices; the
    error carries the tied vertices and, for an adjacent pair, the single
    gradient angle at which the tie occurs.
    """
    validate(lp)
    if lp.objective.is_zero():
        raise ZeroObjective("objective is (0, 0)")
    return _analyze_region(lp, enumerate_vertices(lp, tol=tol))


def _analyze_region(lp: LinearProgram2D, region: FeasibleRegion) -> SensitivityReport:
    """analyze() on the already built region of lp, whose objective is
    nonzero."""
    c = lp.objective
    values = [evaluate(lp, v.point) for v in region.vertices]
    best, tied = argmax_with_ties(values)
    n = len(region.vertices)
    if tied:
        verts = [region.vertices[best]] + [region.vertices[i] for i in tied]
        angle = None
        if len(tied) == 1:
            i = tied[0]
            if (i - best) % n == 1:
                angle = _tie_angle(region.vertices[best], region.vertices[i])
            elif (best - i) % n == 1:
                angle = _tie_angle(region.vertices[i], region.vertices[best])
        raise DegenerateOptimum(
            "optimal value is tied between vertices", verts, angle
        )

    x0 = region.vertices[best]
    pred, succ = adjacent_vertices(region, x0)
    theta1, theta2 = edge_angles(pred, x0, succ)

    # The cone turns with the polygon, so it needs no rotated copy; theta0
    # only reports the rotation that would normalize the objective.
    interval = stable_angle_interval(pred, x0, succ)
    theta0 = normalizing_rotation(c) if c.x1 < 0.0 or c.x2 < 0.0 else 0.0

    pv = polar_of(c)
    d = (pv.phi - interval.lo) % TAU
    if not 0.0 < d < interval.width:
        # The gradient sits on the cone boundary yet no value tie fired;
        # only reachable at the numerical knife edge.
        partner = succ if d >= interval.width else pred
        raise DegenerateOptimum(
            "gradient lies on the stable-cone boundary", (x0, partner), pv.phi
        )
    interval = AngleInterval(pv.phi - d, pv.phi - d + interval.width)

    return SensitivityReport(
        optimal_vertex=x0,
        optimal_value=values[best],
        pred=pred,
        succ=succ,
        theta1=theta1,
        theta2=theta2,
        interval=interval,
        objective_polar=pv,
        phi_inside=interval.contains(pv.phi),
        nu_interval=interval.shifted(-pv.phi),
        theta0=theta0,
        endpoint_ties=(pred, succ),
    )


def value_under_rotation(report: SensitivityReport, nu: float) -> float:
    """Objective value at x0 after rotating the gradient by nu radians.

    nu must lie strictly inside the admissible interval, so x0 is still
    the optimum and the value is |c| * |x0| * cos(angle(x0) - (phi_f + nu)).
    """
    if not report.nu_interval.contains(nu):
        raise RotationOutsideStableCone(
            f"nu = {nu} outside ({report.nu_interval.lo}, {report.nu_interval.hi})"
        )
    p = report.optimal_vertex.point
    beta = _atan2(p.x2, p.x1)
    return (
        report.objective_polar.r
        * p.norm()
        * math.cos(beta - (report.objective_polar.phi + nu))
    )


def classify_value_shift(report: SensitivityReport, nu: float) -> ValueShift:
    """Whether rotating the gradient by nu raises or lowers the value."""
    delta = value_under_rotation(report, nu) - report.optimal_value
    thr = VALUE_TIE_REL * max(1.0, abs(report.optimal_value))
    if delta > thr:
        return ValueShift.INCREASES
    if delta < -thr:
        return ValueShift.DECREASES
    return ValueShift.UNCHANGED
