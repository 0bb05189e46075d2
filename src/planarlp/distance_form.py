"""The LP objective as a distance: half-plane sides and farthest vertices.

The zero line of the objective passes through the origin with normal c.  On
each open side of it the ratio (objective value) / (distance to the line)
is constant, +|c| on the positive side and -|c| on the negative side, so
for nonnegative objectives maximizing the value over the region equals
maximizing the distance to the line.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import NegativeCoefficient, PointOnLine, ZeroObjective
from .geometry import LineThroughOrigin, Vec2, distance_to_line
from .lp_model import FeasibleRegion, Vertex
from .solver import argmax_with_ties

SIDE_TOL = 1e-12


class HalfPlaneSide(Enum):
    PLUS = "plus"
    MINUS = "minus"
    ON = "on"


def objective_line(c: Vec2) -> LineThroughOrigin:
    """The zero line {x : c . x = 0} of the objective."""
    if c.is_zero():
        raise ZeroObjective("no zero line for a zero objective")
    return LineThroughOrigin(c)


def side_of(x: Vec2, c: Vec2, tol: float = SIDE_TOL) -> HalfPlaneSide:
    """Which side of the objective's zero line x lies on."""
    if c.is_zero():
        raise ZeroObjective("no zero line for a zero objective")
    s = c.dot(x)
    thr = tol * c.norm() * x.norm()
    if s > thr:
        return HalfPlaneSide.PLUS
    if s < -thr:
        return HalfPlaneSide.MINUS
    return HalfPlaneSide.ON


def value_distance_ratio(x: Vec2, c: Vec2) -> float:
    """(c . x) / dist(x, zero line); equals +|c| or -|c| off the line."""
    side = side_of(x, c)
    if side is HalfPlaneSide.ON:
        raise PointOnLine("ratio undefined on the objective's zero line")
    # The ratio does not depend on |x|; on the unit vector along x a
    # subnormal coordinate cannot underflow in the quotient.
    n = x.norm()
    u = Vec2(x.x1 / n, x.x2 / n)
    return c.dot(u) / distance_to_line(u, objective_line(c))


@dataclass(frozen=True)
class DistanceSolution:
    vertex: Vertex
    distance: float
    unique: bool


def argmax_distance(region: FeasibleRegion, c: Vec2) -> DistanceSolution:
    """Vertex of the region farthest from the objective's zero line.

    Requires c >= 0 componentwise (and nonzero) so that distance and value
    rank the vertices identically.  Ties are flagged with the same relative
    tolerance the solvers use.
    """
    if c.is_zero():
        raise ZeroObjective("objective is (0, 0)")
    if c.x1 < 0.0 or c.x2 < 0.0:
        raise NegativeCoefficient(
            f"need a componentwise-nonnegative objective, got ({c.x1}, {c.x2})"
        )
    line = objective_line(c)
    dists = [distance_to_line(v.point, line) for v in region.vertices]
    best, tied = argmax_with_ties(dists)
    return DistanceSolution(region.vertices[best], dists[best], not tied)
