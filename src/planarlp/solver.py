"""Two independent solvers for the planar LP, plus region construction.

solve_enumeration builds the feasible polygon by sorted half-plane
intersection and picks the best vertex.  solve_simplex runs a classic
two-phase tableau simplex with Bland's rule.  They share no code on the
solve path, which is what makes cross-checking one against the other
meaningful.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from enum import Enum

from .errors import (
    DegenerateRegion,
    Infeasible,
    Unbounded,
    UnboundedRegion,
    ZeroObjective,
)
from .geometry import TAU, Vec2, _atan2, _pow2_scaled
from .lp_model import (
    MERGE_TOL,
    X1_NONNEG,
    X2_NONNEG,
    ConstraintRow,
    FeasibleRegion,
    LinearProgram2D,
    Vertex,
    evaluate,
    validate,
)

#: Relative tolerance for "two vertices have the same objective value".
VALUE_TIE_REL = 1e-9

_DET_TOL = 1e-12
_RECESSION_TOL = 1e-12


class Recession(Enum):
    BOUNDED = "bounded"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class Solution:
    vertex: Vertex
    value: float
    unique: bool


def _indexed_rows(lp: LinearProgram2D):
    """Constraint rows plus the synthetic nonnegativity rows."""
    rows = list(enumerate(lp.constraints))
    rows.append((X1_NONNEG, ConstraintRow(-1.0, 0.0, 0.0)))
    rows.append((X2_NONNEG, ConstraintRow(0.0, -1.0, 0.0)))
    return rows


def active_rows_at(lp: LinearProgram2D, p: Vec2, tol: float = 1e-9) -> frozenset[int]:
    """Indices of all rows (synthetic included) tight at p."""
    out = set()
    for idx, row in _indexed_rows(lp):
        if abs(row.residual(p)) <= tol * row.scale():
            out.add(idx)
    return frozenset(out)


def check_recession(lp: LinearProgram2D) -> Recession:
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


def _parallel(ri: ConstraintRow, rj: ConstraintRow) -> bool:
    """The rows' normals point the same way, to within _DET_TOL."""
    det = ri.a1 * rj.a2 - ri.a2 * rj.a1
    scale = math.hypot(ri.a1, ri.a2) * math.hypot(rj.a1, rj.a2)
    return abs(det) <= _DET_TOL * scale and ri.a1 * rj.a1 + ri.a2 * rj.a2 > 0.0


def _turns_left(ri: ConstraintRow, rj: ConstraintRow) -> bool:
    """rj's normal lies counterclockwise of ri's by strictly less than a
    half turn, so the two boundary lines cross."""
    det = ri.a1 * rj.a2 - ri.a2 * rj.a1
    return det > _DET_TOL * math.hypot(ri.a1, ri.a2) * math.hypot(rj.a1, rj.a2)


def _crossing(ri: ConstraintRow, rj: ConstraintRow) -> Vec2:
    """Where the boundary lines of two crossing rows meet."""
    det = ri.a1 * rj.a2 - ri.a2 * rj.a1
    x1 = (ri.b * rj.a2 - rj.b * ri.a2) / det
    x2 = (ri.a1 * rj.b - rj.a1 * ri.b) / det
    return Vec2(x1, x2)


def _outside(row: ConstraintRow, p: Vec2, tol: float) -> bool:
    """The row rejects p, by the scaled test of is_feasible."""
    return row.residual(p) > tol * row.scale()


def _advance(row: ConstraintRow, other: ConstraintRow, corner: Vec2) -> float:
    """Signed distance from corner to the crossing of row and other, along
    row's boundary line walked with the region on its left."""
    p = _crossing(row, other)
    along = (p.x2 - corner.x2) * row.a1 - (p.x1 - corner.x1) * row.a2
    return along / math.hypot(row.a1, row.a2)


def _foot(row: ConstraintRow) -> Vec2:
    """A point on the row's boundary line."""
    norm = math.hypot(row.a1, row.a2)
    s = row.b / norm / norm
    return Vec2(s * row.a1, s * row.a2)


def _sweep(lines, tol: float, closed: bool):
    """Intersect half-planes given in increasing normal angle.

    lines holds (angle, row) pairs, angles unwrapped so they increase.
    Returns the pairs that bound the intersection, counterclockwise, with
    the corners between consecutive ones, or None when it is empty.  When
    closed, the normals go round the full circle and the boundary is a
    cycle; otherwise they span at most a half turn and the boundary is an
    open chain, whose corners the caller does not need.
    """
    dq = deque()
    corners = deque()  # corners[k] is where dq[k] and dq[k + 1] cross

    def cuts_back(h: ConstraintRow) -> bool:
        # h drops dq[-1] if it rejects the last corner, or if the tolerance
        # let that corner stand but h crosses dq[-1] more than MERGE_TOL
        # before it: the corners along dq[-1] would run backwards.
        last = dq[-1][1]
        return _outside(h, corners[-1], tol) or (
            _turns_left(last, h) and _advance(last, h, corners[-1]) < -MERGE_TOL
        )

    def cuts_front(h: ConstraintRow) -> bool:
        # The same test at the front, where h closes the cycle.
        first = dq[0][1]
        return _outside(h, corners[0], tol) or (
            _turns_left(h, first) and _advance(first, h, corners[0]) > MERGE_TOL
        )

    for line in lines:
        h = line[1]
        while corners and cuts_back(h):
            dq.pop()
            corners.pop()
        while corners and _outside(h, corners[0], tol):
            dq.popleft()
            corners.popleft()
        if dq and not _turns_left(dq[-1][1], h):
            # h faces dq[-1]: a cycle cannot continue, and an open chain
            # has reached its far end, where the strip between the two
            # rows is all that can still be empty.
            if closed or _outside(h, _foot(dq[-1][1]), tol):
                return None
            return list(dq), list(corners)
        if dq:
            corners.append(_crossing(dq[-1][1], h))
        dq.append(line)
    if closed:
        while len(corners) >= 2 and cuts_back(dq[0][1]):
            dq.pop()
            corners.pop()
        while len(corners) >= 2 and cuts_front(dq[-1][1]):
            dq.popleft()
            corners.popleft()
        if len(dq) < 3 or not _turns_left(dq[-1][1], dq[0][1]):
            return None
        corners.append(_crossing(dq[-1][1], dq[0][1]))
    return list(dq), list(corners)


def enumerate_vertices(lp: LinearProgram2D, *, tol: float = 1e-9) -> FeasibleRegion:
    """Build the feasible polygon by sorted half-plane intersection, O(m log m).

    The constraint rows and the two x >= 0 rows are sorted by normal angle
    and swept once with a deque (Preparata & Shamos 1985; de Berg et al.,
    ch. 4).  A point is outside a row when its residual exceeds
    tol * row.scale(), as in is_feasible; corners within MERGE_TOL of each
    other merge into one vertex.

    Raises ValueError for a negative or non-finite tol, Infeasible when the
    rows leave no feasible point, UnboundedRegion when the recession cone is
    nonzero, and DegenerateRegion when fewer than three distinct vertices
    remain.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"need a finite tolerance >= 0, got {tol}")
    validate(lp)
    rows = sorted(
        ((_atan2(row.a2, row.a1), idx, row) for idx, row in _indexed_rows(lp)),
        key=lambda t: t[0],
    )
    # Start after the widest gap between normals, so that an unbounded
    # region's boundary is a chain from the first line to the last.
    n_rows = len(rows)
    gaps = [rows[k + 1][0] - rows[k][0] for k in range(n_rows - 1)]
    gaps.append(rows[0][0] + TAU - rows[-1][0])
    start = (max(range(n_rows), key=gaps.__getitem__) + 1) % n_rows
    lines: list[tuple[float, ConstraintRow]] = []
    for k in range(n_rows):
        ang, _, row = rows[(start + k) % n_rows]
        if start + k >= n_rows:
            ang += TAU
        if lines and _parallel(lines[-1][1], row):
            # Of rows facing the same way only the tightest bounds.
            kept = lines[-1][1]
            if row.b / math.hypot(row.a1, row.a2) < kept.b / math.hypot(
                kept.a1, kept.a2
            ):
                lines[-1] = (ang, row)
            continue
        lines.append((ang, row))

    bounded = check_recession(lp) is Recession.BOUNDED
    swept = _sweep(lines, tol, closed=bounded)
    if swept is None:
        raise Infeasible("the constraints leave no feasible point")
    if not bounded:
        raise UnboundedRegion("the feasible region has a recession direction")
    lines, corners = swept

    # Merge runs of consecutive corners within MERGE_TOL of the run's first
    # corner, starting where a run begins so that none wraps past the end.
    n_corners = len(corners)
    first = next(
        (
            k
            for k in range(n_corners)
            if (corners[k] - corners[k - 1]).norm() > MERGE_TOL
        ),
        0,
    )
    runs: list[list[Vec2]] = []
    run_of = [0] * n_corners
    for j in range(n_corners):
        k = (first + j) % n_corners
        if runs and (corners[k] - runs[-1][0]).norm() <= MERGE_TOL:
            runs[-1].append(corners[k])
        else:
            runs.append([corners[k]])
        run_of[k] = len(runs) - 1
    points = [
        Vec2(sum(q.x1 for q in run) / len(run), sum(q.x2 for q in run) / len(run))
        for run in runs
    ]
    n = len(points)
    if n < 3:
        raise DegenerateRegion(f"feasible set has only {n} distinct corner(s)")

    # Corner k owns the normal angles from lines[k] to lines[k + 1].  A row
    # can be tight only at the vertex owning its normal angle or at one of
    # that vertex's two neighbours.
    phis = [ang for ang, _ in lines]
    active: list[set[int]] = [set() for _ in range(n)]
    for ang, idx, row in rows:
        k = bisect_right(phis, phis[0] + (ang - phis[0]) % TAU) - 1
        limit = tol * row.scale()
        for j in (run_of[k] - 1, run_of[k], run_of[k] + 1):
            j %= n
            if abs(row.residual(points[j])) <= limit:
                active[j].add(idx)

    # Begin the cycle where sorting by angle about the centroid begins it.
    cx = sum(p.x1 for p in points) / n
    cy = sum(p.x2 for p in points) / n
    s = min(range(n), key=lambda i: math.atan2(points[i].x2 - cy, points[i].x1 - cx))
    return FeasibleRegion(
        tuple(Vertex(points[(s + i) % n], active[(s + i) % n]) for i in range(n))
    )


def argmax_with_ties(values: list[float]) -> tuple[int, list[int]]:
    """Index of the first strict maximum of values, and the other indices
    whose value is not more than VALUE_TIE_REL * max(1, |max|) below it."""
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best]:
            best = i
    top = values[best]
    thr = VALUE_TIE_REL * max(1.0, abs(top))
    # "not >" rather than "<=": a NaN gap (overflowed values) is a tie.
    tied = [i for i, v in enumerate(values) if i != best and not top - v > thr]
    return best, tied


def objective_values(c: Vec2, points: list[Vec2]) -> list[float]:
    """c . p for each point, to rank the points by.  When a value overflows,
    c is scaled by a power of two first: the ranking depends only on the
    direction of c."""
    values = [c.dot(p) for p in points]
    if all(map(math.isfinite, values)):
        return values
    c = _pow2_scaled(c)
    return [c.dot(p) for p in points]


def solve_enumeration(lp: LinearProgram2D, *, tol: float = 1e-9) -> Solution:
    """Maximize by brute force over the region's vertices."""
    if lp.objective.is_zero():
        raise ZeroObjective("objective is (0, 0)")
    region = enumerate_vertices(lp, tol=tol)
    best, tied = argmax_with_ties(objective_values(lp.objective, region.points()))
    x = region.vertices[best]
    return Solution(x, evaluate(lp, x.point), not tied)


def adjacent_vertices(region: FeasibleRegion, v) -> tuple[Vertex, Vertex]:
    """Counterclockwise predecessor and successor of v in the cycle."""
    i = region.index_of(v)
    n = len(region.vertices)
    return region.vertices[i - 1], region.vertices[(i + 1) % n]


# --- two-phase simplex -------------------------------------------------------

_PIV_TOL = 1e-10
_MAX_ITERS = 1000


def _reduced_costs(T, basis, cost):
    z = cost.copy()
    for r, bv in enumerate(basis):
        if cost[bv] != 0.0:
            z -= cost[bv] * T[r, :-1]
    return z


def _pivot(T, zrow, basis, r, j):
    T[r] /= T[r, j]
    for i in range(T.shape[0]):
        if i != r and T[i, j] != 0.0:
            T[i] -= T[i, j] * T[r]
    if zrow[j] != 0.0:
        zrow -= zrow[j] * T[r, :-1]
    basis[r] = j


def _choose_leaving(T, basis, j):
    """Minimum-ratio row for entering column j; Bland tie-break on the
    basic variable index.  Returns -1 when the column is unbounded."""
    best_r, best_ratio = -1, math.inf
    for r in range(T.shape[0]):
        if T[r, j] > _PIV_TOL:
            ratio = T[r, -1] / T[r, j]
            if ratio < best_ratio - 1e-12 or (
                abs(ratio - best_ratio) <= 1e-12
                and (best_r == -1 or basis[r] < basis[best_r])
            ):
                best_r, best_ratio = r, ratio
    return best_r


def _run_simplex(T, zrow, basis):
    """Maximize until no reduced cost is positive.  Bland's rule: smallest
    eligible entering index, so the method cannot cycle."""
    for _ in range(_MAX_ITERS):
        enter = -1
        for j in range(len(zrow)):
            if zrow[j] > _PIV_TOL:
                enter = j
                break
        if enter == -1:
            return
        leave = _choose_leaving(T, basis, enter)
        if leave == -1:
            raise Unbounded("objective is unbounded over the region")
        _pivot(T, zrow, basis, leave, enter)
    raise RuntimeError("simplex failed to terminate")


def solve_simplex(lp: LinearProgram2D, *, tol: float = 1e-9) -> Solution:
    """Two-phase tableau simplex on the slack form of the program.

    Rows with negative right-hand side are negated and given an artificial
    variable; phase one drives the artificials out, phase two maximizes the
    real objective.  Raises Infeasible or Unbounded accordingly.
    """
    import numpy as np  # loaded on first use; the rest of the package needs none

    validate(lp)
    if lp.objective.is_zero():
        raise ZeroObjective("objective is (0, 0)")
    m = len(lp.constraints)
    A = np.array([[r.a1, r.a2] for r in lp.constraints], dtype=float)
    b = np.array([r.b for r in lp.constraints], dtype=float)
    c = np.array([lp.objective.x1, lp.objective.x2], dtype=float)

    neg = b < 0.0
    n_art = int(neg.sum())
    S = np.eye(m)
    A1 = A.copy()
    b1 = b.copy()
    A1[neg] *= -1.0
    b1[neg] *= -1.0
    S[neg] *= -1.0

    art = np.zeros((m, n_art))
    basis: list[int] = []
    k = 0
    for i in range(m):
        if neg[i]:
            art[i, k] = 1.0
            basis.append(2 + m + k)
            k += 1
        else:
            basis.append(2 + i)
    T = np.hstack([A1, S, art, b1[:, None]])

    if n_art:
        cost1 = np.zeros(2 + m + n_art)
        cost1[2 + m :] = -1.0  # maximize -(sum of artificials)
        zrow = _reduced_costs(T, basis, cost1)
        _run_simplex(T, zrow, basis)
        art_sum = sum(T[r, -1] for r in range(m) if basis[r] >= 2 + m)
        if art_sum > 1e-8 * max(1.0, float(np.abs(b).max())):
            raise Infeasible("phase one ended with positive artificial mass")
        # Drive surviving (zero-valued) artificials out of the basis.
        drop: list[int] = []
        for r in range(m):
            if basis[r] >= 2 + m:
                for j in range(2 + m):
                    if abs(T[r, j]) > _PIV_TOL:
                        dummy = np.zeros(T.shape[1] - 1)
                        _pivot(T, dummy, basis, r, j)
                        break
                else:
                    drop.append(r)  # redundant row
        if drop:
            keep = [r for r in range(m) if r not in drop]
            T = T[keep]
            basis = [basis[r] for r in keep]
        T = np.hstack([T[:, : 2 + m], T[:, -1:]])

    cost2 = np.zeros(2 + m)
    cost2[:2] = c
    zrow = _reduced_costs(T, basis, cost2)
    _run_simplex(T, zrow, basis)

    x = np.zeros(2 + m)
    for r, bv in enumerate(basis):
        x[bv] = T[r, -1]
    point = Vec2(float(x[0]), float(x[1]))
    value = float(c @ x[:2])

    # Alternative optima: a nonbasic column with (numerically) zero reduced
    # cost can be pivoted in; if that lands on a different point with the
    # same value, the optimum is not unique.  Probe on copies.
    unique = True
    val_thr = VALUE_TIE_REL * max(1.0, abs(value))
    for j in range(2 + m):
        if j in basis or abs(zrow[j]) > 1e-7:
            continue
        T2 = T.copy()
        basis2 = list(basis)
        leave = _choose_leaving(T2, basis2, j)
        if leave == -1:
            continue  # equal-value ray, no second vertex
        dummy = np.zeros(T2.shape[1] - 1)
        _pivot(T2, dummy, basis2, leave, j)
        x2 = np.zeros(2 + m)
        for r, bv in enumerate(basis2):
            x2[bv] = T2[r, -1]
        other = Vec2(float(x2[0]), float(x2[1]))
        if (other - point).norm() > MERGE_TOL and abs(
            float(c @ x2[:2]) - value
        ) <= val_thr:
            unique = False
            break

    return Solution(Vertex(point, active_rows_at(lp, point, tol)), value, unique)
