"""Gradient-cone sensitivity analysis around the optimal vertex.

For a bounded LP with a unique optimal vertex x0, the set of objective
directions keeping x0 optimal is the open cone between the outward normals
of the two incident edges.  analyze() reports that cone as an open angle
interval positioned to contain the current gradient angle phi_f, together
with the admissible gradient rotations nu and the value reached after such
a rotation.  It reads the normals off the rows along those edges, and finds
x0 and the two rows through solver._optimum, the one route it shares with
solve_enumeration.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import (
    CoincidentVertices,
    DegenerateOptimum,
    ReflexVertex,
    RotationOutsideStableCone,
)
from .geometry import (
    TAU,
    Frozen,
    PolarVector,
    _atan2,
    _line_angle,
    _set,
    _turns_left,
    line_direction_angle,
    polar_of,
)
from .lp_model import FEAS_TOL, MERGE_TOL, LinearProgram2D, Vertex, evaluate
from .normalization import _normalizing_angle
from .solver import VALUE_TIE_REL, _optimum


class AngleInterval(Frozen):
    """Open interval (lo, hi) of angles in radians, width strictly below pi."""

    __slots__ = ("lo", "hi")
    lo: float
    hi: float

    def __init__(self, lo: float, hi: float):
        if not lo < hi:
            raise ValueError(f"need lo < hi, got ({lo}, {hi})")
        if hi - lo >= math.pi + 1e-9:
            raise ValueError(f"interval spans {hi - lo} >= pi")
        _set(self, "lo", lo)
        _set(self, "hi", hi)

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


class SensitivityReport(Frozen):
    __slots__ = (
        "optimal_vertex",
        "optimal_value",
        "pred",
        "succ",
        "theta1",
        "theta2",
        "interval",
        "objective_polar",
        "phi_inside",
        "nu_interval",
        "theta0",
        "endpoint_ties",
    )
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


def _check_distinct(*pairs: tuple[Vertex, Vertex]) -> None:
    if any((a.point - b.point).norm() <= MERGE_TOL for a, b in pairs):
        raise CoincidentVertices("corner triple contains coincident vertices")


def edge_angles(pred: Vertex, x0: Vertex, succ: Vertex) -> tuple[float, float]:
    """Undirected line angles in (0, pi] of the two edges meeting at x0.

    theta1 belongs to the edge toward the predecessor, theta2 to the edge
    toward the successor.
    """
    _check_distinct((pred, x0), (x0, succ), (pred, succ))
    theta1 = line_direction_angle(pred.point - x0.point)
    theta2 = line_direction_angle(x0.point - succ.point)
    return theta1, theta2


def _normal_angle(e1: float, e2: float) -> float:
    """Angle of the outward normal of a counterclockwise edge (e1, e2), the
    edge rotated -90 degrees: the gradient angle at which the edge is level
    with the objective."""
    return _atan2(-e1, e2)


def stable_angle_interval(pred: Vertex, x0: Vertex, succ: Vertex) -> AngleInterval:
    """Open cone of gradient angles for which x0 beats both neighbors.

    The cone runs counterclockwise from the outward normal of the edge
    (pred -> x0) to the outward normal of (x0 -> succ); its width is the
    exterior angle at x0.  The corner must be an exact strict left turn,
    the test FeasibleRegion makes, so the width lies in (0, pi);
    ReflexVertex is raised for a corner that is exactly straight or reflex.
    A cone narrower than the rounding of its ends, which then come out
    equal or swapped, is given one ulp wide.  analyze reads the same cone
    off the rows along the two edges instead.
    """
    _check_distinct((pred, x0), (x0, succ), (pred, succ))
    p, x, q = pred.point, x0.point, succ.point
    if not _turns_left(p.x1, p.x2, x.x1, x.x2, q.x1, q.x2):
        raise ReflexVertex("corner is not strictly convex counterclockwise")
    e1 = x - p
    e2 = q - x
    lo = _normal_angle(e1.x1, e1.x2)
    span = (_normal_angle(e2.x1, e2.x2) - lo) % TAU
    if not 0.0 < span < 1.5 * math.pi:  # 0, or a full turn less a rounding
        span = math.ulp(lo)
    return AngleInterval(lo, lo + span)


def analyze(lp: LinearProgram2D, *, tol: float = FEAS_TOL) -> SensitivityReport:
    """Full sensitivity report for the optimal vertex of lp.

    Finds x0, its neighbours and the rows along its two edges by
    solver._optimum: from the rows in O(m) expected where they certify x0,
    most often at the corner of the two rows whose normals bracket c, else
    from enumerate_vertices' polygon, to the same bits.  The cone's ends
    are the normal angles of those two rows, theta1 and theta2 their
    line_direction_angle, and theta0 normalizing_rotation(c), each from the
    floats by the rule those functions use.
    Raises DegenerateOptimum when the optimum ties between vertices; the
    error carries the tied vertices and, for an adjacent pair, the single
    gradient angle at which the tie occurs, that of the row they share.
    """
    vertices, into, out, tied, angle = _optimum(lp, tol, (-1, 0, 1))
    if tied:
        raise DegenerateOptimum("optimal value is tied between vertices", vertices, angle)
    pred, x0, succ = vertices
    c = lp.objective
    # Each edge's line angle is that of its row's direction (-a2, a1).
    theta1 = _line_angle(-into[3], into[2])
    theta2 = _line_angle(-out[3], out[2])
    # The cone runs from the normal of the row along pred -> x0 to that of
    # the row along x0 -> succ, each moved by a turn at most to its side of
    # phi_f, with one rounding; they span less than a turn exactly when
    # phi_f lies inside.  The cone turns with the polygon, so it needs no
    # rotated copy; theta0 only reports the rotation that would normalize c,
    # normalizing_rotation(c) from the polar angle at hand.
    pv = polar_of(c)
    phi = pv.phi
    theta0 = _normalizing_angle(c.x1, c.x2, phi) if c.x1 < 0.0 or c.x2 < 0.0 else 0.0
    lo = into[0] if into[0] < phi else into[0] - TAU
    hi = out[0] if out[0] > phi else out[0] + TAU
    if not hi - lo < TAU:
        # The gradient sits on the cone boundary yet no value tie fired;
        # only reachable at the numerical knife edge.  Blame the nearer end.
        partner = succ if phi - lo < hi - phi else pred
        raise DegenerateOptimum(
            "gradient lies on the stable-cone boundary", (x0, partner), phi
        )
    interval = AngleInterval(lo, hi)

    return SensitivityReport(
        optimal_vertex=x0,
        optimal_value=evaluate(lp, x0.point),
        pred=pred,
        succ=succ,
        theta1=theta1,
        theta2=theta2,
        interval=interval,
        objective_polar=pv,
        phi_inside=interval.contains(phi),
        nu_interval=interval.shifted(-phi),
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
