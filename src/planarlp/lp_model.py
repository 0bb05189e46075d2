"""Data model for two-variable linear programs.

A program is  max  c . x  subject to  A x <= b  and  x >= 0.  The
nonnegativity bounds are implicit in the type; solvers materialize them as
synthetic rows with the negative indices below so that vertices on the axes
still carry two active constraints.
"""

from __future__ import annotations

import math

from .errors import (
    EmptyConstraintList,
    NonFiniteEntry,
    VertexNotInRegion,
    ZeroRow,
)
from .geometry import Frozen, Vec2, _cycle_fault, _non_finite, _set

# Synthetic row indices for the implicit bounds x1 >= 0 and x2 >= 0.
X1_NONNEG = -1
X2_NONNEG = -2

#: Two candidate vertices closer than this are treated as one.
MERGE_TOL = 1e-7

#: Default feasibility tolerance (scaled per row).
FEAS_TOL = 1e-9


class ConstraintRow(Frozen):
    """One half-plane constraint a1*x1 + a2*x2 <= b."""

    __slots__ = ("a1", "a2", "b")
    a1: float
    a2: float
    b: float

    # Written out, not Frozen's binder: a row is built per parsed line and
    # two per solve, and this form is about twice as fast.
    def __init__(self, a1: float, a2: float, b: float):
        _set(self, "a1", a1)
        _set(self, "a2", a2)
        _set(self, "b", b)

    def scale(self) -> float:
        return max(1.0, abs(self.a1), abs(self.a2), abs(self.b))

    def residual(self, x: Vec2) -> float:
        """a . x - b; nonpositive means x satisfies the row."""
        return self.a1 * x.x1 + self.a2 * x.x2 - self.b


class LinearProgram2D(Frozen):
    __slots__ = ("objective", "constraints")
    objective: Vec2
    constraints: tuple[ConstraintRow, ...]

    def __init__(self, objective: Vec2, constraints: tuple[ConstraintRow, ...]):
        _set(self, "objective", objective)
        _set(self, "constraints", tuple(constraints))


class Vertex(Frozen):
    """A corner of the feasible region.

    active_rows holds the indices of the constraints tight at the point
    (0-based; X1_NONNEG / X2_NONNEG for the implicit bounds).  Degenerate
    vertices simply carry three or more indices.
    """

    __slots__ = ("point", "active_rows")
    point: Vec2
    active_rows: frozenset[int]

    def __init__(self, point: Vec2, active_rows: frozenset[int] = frozenset()):
        _set(self, "point", point)
        _set(self, "active_rows", frozenset(active_rows))


class FeasibleRegion(Frozen):
    """A bounded feasible polygon as a counterclockwise cycle of vertices."""

    __slots__ = ("vertices",)
    vertices: tuple[Vertex, ...]

    def __init__(self, vertices: tuple[Vertex, ...]):
        vs = tuple(vertices)
        n = len(vs)
        if n < 3:
            raise ValueError(f"a region needs at least 3 vertices, got {n}")
        # Edges must be finite (one that overflows raises as Vec2 would) and
        # longer than the merge tolerance, and the corners strictly convex.
        xs = [v.point.x1 for v in vs]
        ys = [v.point.x2 for v in vs]
        isfinite, hypot = math.isfinite, math.hypot
        lengths = []
        for px, py, qx, qy in zip(xs, ys, xs[1:] + xs[:1], ys[1:] + ys[:1]):
            e1, e2 = qx - px, qy - py
            if not (isfinite(e1) and isfinite(e2)):
                raise _non_finite(e1, e2)
            lengths.append(hypot(e1, e2))
        for i, length in enumerate(lengths):
            if length <= MERGE_TOL:
                raise ValueError(
                    f"vertices {i} and {(i + 1) % n} coincide within the merge tolerance"
                )
        fault = _cycle_fault(xs, ys)
        if fault is not None:
            raise ValueError(fault)
        _set(self, "vertices", vs)

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def points(self) -> list[Vec2]:
        return [v.point for v in self.vertices]

    def index_of(self, v, tol: float = MERGE_TOL) -> int:
        """Index of the vertex matching v (a Vertex or bare Vec2)."""
        p = v.point if isinstance(v, Vertex) else v
        best, best_d = -1, math.inf
        for i, w in enumerate(self.vertices):
            d = (w.point - p).norm()
            if d < best_d:
                best, best_d = i, d
        if best_d > tol:
            raise VertexNotInRegion(f"({p.x1}, {p.x2}) matches no vertex")
        return best


def validate(lp: LinearProgram2D) -> None:
    """Raise if the program's data is structurally unusable.

    Checks: at least one row, every coefficient finite, no all-zero rows.
    A zero objective is legal here; solve entry points reject it separately.
    """
    if len(lp.constraints) == 0:
        raise EmptyConstraintList("the program has no constraint rows")
    isfinite = math.isfinite
    for i, row in enumerate(lp.constraints):
        a1, a2, b = row.a1, row.a2, row.b
        if not (isfinite(a1) and isfinite(a2) and isfinite(b)):
            val = next(val for val in (a1, a2, b) if not isfinite(val))
            raise NonFiniteEntry(f"row {i} contains {val}")
        if a1 == 0.0 and a2 == 0.0:
            raise ZeroRow(f"row {i} has a zero coefficient vector")


def evaluate(lp: LinearProgram2D, x: Vec2) -> float:
    """Objective value c . x."""
    return lp.objective.dot(x)


def is_feasible(lp: LinearProgram2D, x: Vec2, tol: float = FEAS_TOL) -> bool:
    """Row-wise scaled feasibility test, including the implicit x >= 0."""
    if x.x1 < -tol or x.x2 < -tol:
        return False
    for row in lp.constraints:
        if row.residual(x) > tol * row.scale():
            return False
    return True
