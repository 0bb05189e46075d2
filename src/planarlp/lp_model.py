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
from .geometry import Frozen, Vec2, _cycle_fault, _Deferred, _non_finite, _set

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

    def scale(self) -> float:
        """max(1.0, |a1|, |a2|, |b|), with the builtin's comparisons written
        out in its order, so that NaN and inf give its bits too: a value
        replaces the one kept only when it is > it.  This runs once per row
        of every active_rows_at and is_feasible call, where the builtin's
        call costs more than the comparisons."""
        big = 1.0
        t = abs(self.a1)
        if t > big:
            big = t
        t = abs(self.a2)
        if t > big:
            big = t
        t = abs(self.b)
        if t > big:
            big = t
        return big

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

    active_rows holds the indices of the rows within tol * row.scale() of
    the point, as active_rows_at finds them (0-based; X1_NONNEG / X2_NONNEG
    for the implicit bounds).  Degenerate vertices carry three or more.
    """

    __slots__ = ("point", "active_rows")
    point: Vec2
    active_rows: frozenset[int]

    def __init__(self, point: Vec2, active_rows: frozenset[int] = frozenset()):
        _set(self, "point", point)
        _set(self, "active_rows", frozenset(active_rows))


class _Cycle(_Deferred):
    """FeasibleRegion's slots outside its fields: the coordinates of its
    cycle, set only where the package's check has passed them."""

    __slots__ = ("_xs", "_ys")


class FeasibleRegion(_Cycle):
    """A bounded feasible polygon as a counterclockwise cycle of vertices.

    The constructor checks the cycle and keeps its coordinates.  The region
    enumerate_vertices returns keeps those of the cycle it has checked, and
    builds its vertices at their first read (_Deferred): len, index_of and
    the sweeps read the coordinates alone, so build no Vertex."""

    __slots__ = ("vertices",)
    vertices: tuple[Vertex, ...]
    _deferred = "vertices"

    def __init__(self, vertices: tuple[Vertex, ...]):
        vs = tuple(vertices)
        xs, ys = [v.point.x1 for v in vs], [v.point.x2 for v in vs]
        _check_cycle(xs, ys)
        _set(self, "vertices", vs)
        _set(self, "_xs", xs)
        _set(self, "_ys", ys)

    def _coords(self) -> tuple[list[float], list[float], bool]:
        """The coordinates of the cycle, as lists not to be changed, and
        whether the package's check passed them: False only for a region of
        _unchecked_region."""
        try:
            return self._xs, self._ys, True
        except AttributeError:
            vs = self.vertices
            return [v.point.x1 for v in vs], [v.point.x2 for v in vs], False

    def __len__(self) -> int:
        return len(self._coords()[0])

    def __iter__(self):
        return iter(self.vertices)

    def points(self) -> list[Vec2]:
        return [v.point for v in self.vertices]

    def index_of(self, v) -> int:
        """Index of the vertex within MERGE_TOL of v (a Vertex or bare Vec2),
        the first of the nearest.  Where the first vertex with v's x also
        has v's y, it is the first at distance 0, found without the scan of
        the distances; the scan raises NonFiniteEntry where a difference
        overflows."""
        p = v.point if isinstance(v, Vertex) else v
        x, y = p.x1, p.x2
        xs, ys, _ = self._coords()
        try:
            i = xs.index(x)
        except ValueError:
            pass
        else:
            if ys[i] == y:
                return i
        isfinite, hypot = math.isfinite, math.hypot
        best, best_d = -1, math.inf
        for i, (wx, wy) in enumerate(zip(xs, ys)):
            dx, dy = wx - x, wy - y
            if not (isfinite(dx) and isfinite(dy)):
                raise _non_finite(dx, dy)
            d = hypot(dx, dy)
            if d < best_d:
                best, best_d = i, d
        if best_d > MERGE_TOL:
            raise VertexNotInRegion(f"({p.x1}, {p.x2}) matches no vertex")
        return best


def _check_cycle(xs: list[float], ys: list[float]) -> None:
    """Raise ValueError unless (xs[k], ys[k]) make a cycle FeasibleRegion accepts: 3 or
    more, edges finite (else NonFiniteEntry) and over MERGE_TOL, corners strictly convex."""
    n = len(xs)
    if n < 3:
        raise ValueError(f"a region needs at least 3 vertices, got {n}")
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


def _checked_region(xs: list[float], ys: list[float], vertices) -> FeasibleRegion:
    """The FeasibleRegion of the checked cycle (xs[k], ys[k]), whose Vertex
    tuple vertices() gives at the first read.  The solver calls this, as
    perfbench's tracer replaces solver.FeasibleRegion with a function."""
    return FeasibleRegion.deferred(vertices, _xs=xs, _ys=ys)


def _unchecked_region(vertices: tuple[Vertex, ...]) -> FeasibleRegion:
    """A FeasibleRegion of vertices, unchecked and with no coordinates kept,
    so the sweeps decide its convexity again.  Only the tests use it, to
    hand the sweeps cycles that FeasibleRegion refuses."""
    region = FeasibleRegion.__new__(FeasibleRegion)
    _set(region, "vertices", vertices)
    return region


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
