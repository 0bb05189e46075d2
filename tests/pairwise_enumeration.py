"""Reference region builder: the O(m^3) pairwise enumeration.

This is the algorithm enumerate_vertices used before the sorted half-plane
intersection replaced it, kept verbatim so tests can compare the two.  It
intersects every pair of boundary lines, keeps the intersections feasible
within tol, clusters them at MERGE_TOL and orders the cluster means around
their centroid.  Its recession test is the O(m^2) search over candidate
directions that check_recession used before the normal-gap test, kept
verbatim as well, so the reference shares no boundedness code with the
builder it checks.
"""

from __future__ import annotations

import math

from planarlp.errors import (
    DegenerateRegion,
    Infeasible,
    NonFiniteEntry,
    UnboundedRegion,
)
from planarlp.geometry import Vec2
from planarlp.lp_model import (
    MERGE_TOL,
    FeasibleRegion,
    LinearProgram2D,
    Vertex,
    is_feasible,
    validate,
)
from planarlp.solver import (
    _DET_TOL,
    _RECESSION_TOL,
    Recession,
    _indexed_rows,
    active_rows_at,
)


def candidate_recession(lp: LinearProgram2D) -> Recession:
    """Decide whether the region admits a nonzero recession direction.

    The recession cone is {d >= 0 : A d <= 0}.  Its intersection with the
    unit quarter circle is a single arc, so it is nonempty iff one of the
    arc endpoint candidates (the axes, or a constraint boundary direction
    gamma_i +- pi/2 clipped to the quarter) satisfies every row.
    """
    validate(lp)
    candidates = {0.0, 0.5 * math.pi}
    for row in lp.constraints:
        gamma = math.atan2(row.a2, row.a1)
        for e in (gamma + 0.5 * math.pi, gamma - 0.5 * math.pi):
            e %= math.tau
            if -1e-12 <= e <= 0.5 * math.pi + 1e-12:
                candidates.add(min(max(e, 0.0), 0.5 * math.pi))
    for t in sorted(candidates):
        d1, d2 = math.cos(t), math.sin(t)
        if all(
            row.a1 * d1 + row.a2 * d2 <= _RECESSION_TOL * math.hypot(row.a1, row.a2)
            for row in lp.constraints
        ):
            return Recession.UNBOUNDED
    return Recession.BOUNDED


def pairwise_enumerate_vertices(
    lp: LinearProgram2D, *, tol: float = 1e-9
) -> FeasibleRegion:
    """Build the feasible polygon by pairwise line intersection.

    Raises Infeasible when no intersection is feasible, UnboundedRegion when
    the recession cone is nonzero, and DegenerateRegion when fewer than
    three distinct vertices survive deduplication.
    """
    validate(lp)
    rows = _indexed_rows(lp)
    candidates: list[Vec2] = []
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            _, ri = rows[a]
            _, rj = rows[b]
            det = ri.a1 * rj.a2 - ri.a2 * rj.a1
            scale = math.hypot(ri.a1, ri.a2) * math.hypot(rj.a1, rj.a2)
            if abs(det) <= _DET_TOL * scale:
                continue
            x1 = (ri.b * rj.a2 - rj.b * ri.a2) / det
            x2 = (ri.a1 * rj.b - rj.a1 * ri.b) / det
            try:
                p = Vec2(x1, x2)
            except NonFiniteEntry:
                continue
            if is_feasible(lp, p, tol):
                candidates.append(p)
    if not candidates:
        raise Infeasible("no feasible intersection of constraint boundaries")
    if candidate_recession(lp) is Recession.UNBOUNDED:
        raise UnboundedRegion("the feasible region has a recession direction")

    # Deduplicate: greedy clustering at the merge tolerance, cluster mean as
    # the representative point.
    clusters: list[list[Vec2]] = []
    for p in candidates:
        for cl in clusters:
            if (p - cl[0]).norm() <= MERGE_TOL:
                cl.append(p)
                break
        else:
            clusters.append([p])
    points = [
        Vec2(sum(q.x1 for q in cl) / len(cl), sum(q.x2 for q in cl) / len(cl))
        for cl in clusters
    ]
    if len(points) < 3:
        raise DegenerateRegion(
            f"feasible set has only {len(points)} distinct corner(s)"
        )

    cx = sum(p.x1 for p in points) / len(points)
    cy = sum(p.x2 for p in points) / len(points)
    points.sort(key=lambda p: math.atan2(p.x2 - cy, p.x1 - cx))
    return FeasibleRegion(
        tuple(Vertex(p, active_rows_at(lp, p, tol)) for p in points)
    )
