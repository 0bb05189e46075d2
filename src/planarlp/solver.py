"""Two independent solvers for the planar LP, plus region construction.

solve_enumeration builds the feasible polygon by sorted half-plane
intersection and picks the best vertex; the same sort of the row normals
decides boundedness, by a gap of a half turn.  solve_simplex is a two-phase
revised simplex with Bland's rule whose basis is the pair of tight
constraints, in both phases, so a pivot is a 2 x 2 solve and one O(m) pass
over the rows.  Neither needs numpy.  They share no code on the solve path,
which is what makes cross-checking one against the other meaningful.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from enum import Enum
from itertools import chain
from operator import itemgetter

from .errors import (
    DegenerateRegion,
    Infeasible,
    Unbounded,
    UnboundedRegion,
    ZeroObjective,
)
from .geometry import TAU, Frozen, Vec2, _atan2, _non_finite, _pow2_scaled, _set
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
    validate,
)

#: Relative tolerance for "two vertices have the same objective value".
VALUE_TIE_REL = 1e-9

_DET_TOL = 1e-12
_RECESSION_TOL = 1e-12


class Recession(Enum):
    BOUNDED = "bounded"
    UNBOUNDED = "unbounded"


class Solution(Frozen):
    __slots__ = ("vertex", "value", "unique")
    vertex: Vertex
    value: float
    unique: bool

    # Written out, not Frozen's binder: one is built per solve, and this
    # form is about twice as fast.
    def __init__(self, vertex: Vertex, value: float, unique: bool):
        _set(self, "vertex", vertex)
        _set(self, "value", value)
        _set(self, "unique", unique)


def _indexed_rows(lp: LinearProgram2D):
    """Constraint rows plus the synthetic nonnegativity rows."""
    rows = list(enumerate(lp.constraints))
    rows.append((X1_NONNEG, ConstraintRow(-1.0, 0.0, 0.0)))
    rows.append((X2_NONNEG, ConstraintRow(0.0, -1.0, 0.0)))
    return rows


def active_rows_at(lp: LinearProgram2D, p: Vec2, tol: float = FEAS_TOL) -> frozenset[int]:
    """Indices of all rows (synthetic included) tight at p."""
    out = {
        i
        for i, row in enumerate(lp.constraints)
        if abs(row.residual(p)) <= tol * row.scale()
    }
    # The synthetic rows -x1 <= 0 and -x2 <= 0 have residuals -x1, -x2 and
    # scale 1, so the same test reads |x1| <= tol and |x2| <= tol.
    if abs(p.x1) <= tol:
        out.add(X1_NONNEG)
    if abs(p.x2) <= tol:
        out.add(X2_NONNEG)
    return frozenset(out)


def _sorted_normals(lp: LinearProgram2D):
    """The rows, the two x >= 0 rows included, as (angle, index, row) sorted
    by normal angle; the position just after the widest counterclockwise gap
    between consecutive normals; and whether that gap leaves the region
    bounded, that is, falls short of pi - _RECESSION_TOL (see
    check_recession)."""
    rows = [(_atan2(row.a2, row.a1), idx, row) for idx, row in _indexed_rows(lp)]
    rows.sort(key=itemgetter(0))
    n_rows = len(rows)
    angles = [ang for ang, _, _ in rows]
    gaps = [b - a for a, b in zip(angles, angles[1:])]
    gaps.append(angles[0] + TAU - angles[-1])
    widest = gaps.index(max(gaps))
    return rows, (widest + 1) % n_rows, gaps[widest] < math.pi - _RECESSION_TOL


def check_recession(lp: LinearProgram2D) -> Recession:
    """Decide whether the region admits a nonzero recession direction.

    The recession cone {d : A d <= 0, d >= 0} is nonzero exactly when all
    row normals, the two x >= 0 rows included, lie in one closed half-plane:
    when the sorted normal angles leave a gap of at least pi (Rockafellar,
    Convex Analysis, 1970, section 8).  enumerate_vertices decides it from
    the same sort.

    A gap counts from pi - _RECESSION_TOL on.  That is the edge of the test
    a . d <= _RECESSION_TOL |a| for every row a, with d perpendicular to one
    row bounding the gap: d makes an angle with the other row's normal whose
    cosine is sin(pi - gap).
    """
    validate(lp)
    return Recession.BOUNDED if _sorted_normals(lp)[2] else Recession.UNBOUNDED


# The sweep below works on one record per row, (a1, a2, b, |a|, tol * scale),
# and on corners as (x1, x2) float pairs.  Each expression keeps the order of
# operations of the ConstraintRow and Vec2 methods it stands for, and a
# corner that overflows raises NonFiniteEntry as Vec2 would.


def _pair(x1: float, x2: float) -> tuple[float, float]:
    """(x1, x2), checked as Vec2(x1, x2) checks it."""
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise _non_finite(x1, x2)
    return x1, x2


def _parallel(ri, rj) -> bool:
    """The rows' normals point the same way, to within _DET_TOL."""
    det = ri[0] * rj[1] - ri[1] * rj[0]
    return (
        abs(det) <= _DET_TOL * (ri[3] * rj[3])
        and ri[0] * rj[0] + ri[1] * rj[1] > 0.0
    )


def _turns_left(ri, rj) -> bool:
    """rj's normal lies counterclockwise of ri's by strictly less than a
    half turn, so the two boundary lines cross."""
    return ri[0] * rj[1] - ri[1] * rj[0] > _DET_TOL * ri[3] * rj[3]


def _crossing(ri, rj) -> tuple[float, float]:
    """Where the boundary lines of two crossing rows meet."""
    a1, a2, b, _, _ = ri
    c1, c2, d, _, _ = rj
    det = a1 * c2 - a2 * c1
    x1 = (b * c2 - d * a2) / det
    x2 = (a1 * d - c1 * b) / det
    if math.isfinite(x1) and math.isfinite(x2):
        return x1, x2
    raise _non_finite(x1, x2)


def _outside(row, p) -> bool:
    """The row rejects p, by the scaled test of is_feasible."""
    return row[0] * p[0] + row[1] * p[1] - row[2] > row[4]


def _advance(row, p, corner) -> float:
    """Signed distance from corner to p, the crossing of row and another
    row, along row's boundary line walked with the region on its left."""
    return ((p[1] - corner[1]) * row[0] - (p[0] - corner[0]) * row[1]) / row[3]


def _foot(row) -> tuple[float, float]:
    """A point on the row's boundary line."""
    a1, a2, b, norm, _ = row
    s = b / norm / norm
    return _pair(s * a1, s * a2)


def _distance(p, q) -> float:
    """|p - q|, the difference checked as Vec2 checks it."""
    return math.hypot(*_pair(p[0] - q[0], p[1] - q[1]))


def _sweep(lines, closed: bool):
    """Intersect half-planes given in increasing normal angle.

    lines holds (angle, record) pairs, angles unwrapped so they increase.
    Returns the pairs that bound the intersection, counterclockwise, with
    the corners between consecutive ones, or None when it is empty.  When
    closed, the normals go round the full circle and the boundary is a
    cycle; otherwise they span at most a half turn and the boundary is an
    open chain, whose corners the caller does not need.
    """
    dq = deque()
    corners = deque()  # corners[k] is where dq[k] and dq[k + 1] cross

    def cuts_back(h):
        # h drops dq[-1] if it rejects the last corner, or if the tolerance
        # let that corner stand but h crosses dq[-1] more than MERGE_TOL
        # before it: the corners along dq[-1] would run backwards.  True
        # when h drops dq[-1]; otherwise their crossing, for the caller to
        # keep as a corner, or None when they do not cross.  This runs once
        # or more per line, so _outside, _turns_left and _advance are
        # written out.
        a1, a2, _, norm, _ = last = dq[-1][1]
        x, y = corners[-1]
        if h[0] * x + h[1] * y - h[2] > h[4]:
            return True
        if not a1 * h[1] - a2 * h[0] > _DET_TOL * norm * h[3]:
            return None
        p = _crossing(last, h)
        return True if ((p[1] - y) * a1 - (p[0] - x) * a2) / norm < -MERGE_TOL else p

    def cuts_front(h) -> bool:
        # The same test at the front, where h closes the cycle.
        first = dq[0][1]
        return _outside(h, corners[0]) or (
            _turns_left(h, first)
            and _advance(first, _crossing(first, h), corners[0]) > MERGE_TOL
        )

    for line in lines:
        h = line[1]
        p = None
        while corners and (p := cuts_back(h)) is True:
            dq.pop()
            corners.pop()
        while corners and _outside(h, corners[0]):
            dq.popleft()
            corners.popleft()
        # p is the crossing of dq[-1] and h if cuts_back kept dq[-1] and
        # found one; popping the front never removes dq[-1].
        if dq and not isinstance(p, tuple):
            if not _turns_left(dq[-1][1], h):
                # h faces dq[-1]: a cycle cannot continue, and an open chain
                # has reached its far end, where the strip between the two
                # rows is all that can still be empty.
                if closed or _outside(h, _foot(dq[-1][1])):
                    return None
                return list(dq), list(corners)
            p = _crossing(dq[-1][1], h)
        if dq:
            corners.append(p)
        dq.append(line)
    if closed:
        while len(corners) >= 2 and cuts_back(dq[0][1]) is True:
            dq.pop()
            corners.pop()
        while len(corners) >= 2 and cuts_front(dq[-1][1]):
            dq.popleft()
            corners.popleft()
        if len(dq) < 3 or not _turns_left(dq[-1][1], dq[0][1]):
            return None
        corners.append(_crossing(dq[-1][1], dq[0][1]))
    return list(dq), list(corners)


def enumerate_vertices(lp: LinearProgram2D, *, tol: float = FEAS_TOL) -> FeasibleRegion:
    """Build the feasible polygon by sorted half-plane intersection, O(m log m).

    The constraint rows and the two x >= 0 rows are sorted by normal angle
    and swept once with a deque (Preparata & Shamos 1985; de Berg et al.,
    ch. 4).  A point is outside a row when its residual exceeds
    tol * row.scale(), as in is_feasible; corners within MERGE_TOL of each
    other merge into one vertex.

    Raises ValueError for a negative or non-finite tol, Infeasible when the
    rows leave no feasible point, UnboundedRegion when the recession cone is
    nonzero, and DegenerateRegion when fewer than three distinct vertices
    remain or the corners do not make a strictly convex counterclockwise
    cycle, FeasibleRegion's exact test: rounded crossings can make a corner
    straight or reflex.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"need a finite tolerance >= 0, got {tol}")
    validate(lp)
    # Start after the widest gap between normals, so that an unbounded
    # region's boundary is a chain from the first line to the last.
    rows, start, bounded = _sorted_normals(lp)
    # row.scale(), written out: one record is built per row.
    records = [
        (a1, a2, b, math.hypot(a1, a2), tol * max(1.0, abs(a1), abs(a2), abs(b)))
        for _, _, row in rows
        for a1, a2, b in ((row.a1, row.a2, row.b),)
    ]
    n_rows = len(rows)
    lines: list[tuple[float, tuple]] = []
    for i in chain(range(start, n_rows), range(start)):
        ang, rec = rows[i][0], records[i]
        if i < start:
            ang += TAU
        if lines and _parallel(lines[-1][1], rec):
            # Of rows facing the same way only the tightest bounds.
            kept = lines[-1][1]
            if rec[2] / rec[3] < kept[2] / kept[3]:
                lines[-1] = (ang, rec)
            continue
        lines.append((ang, rec))

    swept = _sweep(lines, closed=bounded)
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
            if _distance(corners[k], corners[k - 1]) > MERGE_TOL
        ),
        0,
    )
    runs = [[corners[first]]]
    run_of = [0] * n_corners
    for k in chain(range(first + 1, n_corners), range(first)):
        p, q = corners[k], runs[-1][0]
        # _distance, which checks the difference, only where hypot overflowed.
        d = math.hypot(p[0] - q[0], p[1] - q[1])
        if d == math.inf:
            d = _distance(p, q)
        if d <= MERGE_TOL:
            runs[-1].append(p)
        else:
            runs.append([p])
        run_of[k] = len(runs) - 1
    # A run's mean is sum(xs) / len(run).  sum() starts from 0, so a mean of
    # -0.0 is 0.0; for one corner, x + 0.0 gives the same.
    px: list[float] = []
    py: list[float] = []
    for run in runs:
        if len(run) == 1:
            x, y = run[0]
            x, y = x + 0.0, y + 0.0
        else:
            xs, ys = zip(*run)
            x, y = _pair(sum(xs) / len(run), sum(ys) / len(run))
        px.append(x)
        py.append(y)
    n = len(px)
    if n < 3:
        raise DegenerateRegion(f"feasible set has only {n} distinct corner(s)")

    # Corner k owns the normal angles from lines[k] to lines[k + 1].  A row
    # can be tight only at the vertex owning its normal angle or at one of
    # that vertex's two neighbours; index -1 is the last vertex.
    phis = [ang for ang, _ in lines]
    phi0 = phis[0]
    last = n - 1
    active: list[set[int]] = [set() for _ in range(n)]
    for (ang, idx, _), (a1, a2, b, _, limit) in zip(rows, records):
        j = run_of[bisect_right(phis, phi0 + (ang - phi0) % TAU) - 1]
        for i in (j - 1, j, j + 1 if j < last else 0):
            if abs(a1 * px[i] + a2 * py[i] - b) <= limit:
                active[i].add(idx)

    # Begin the cycle where sorting by angle about the centroid begins it.
    cx = sum(px) / n
    cy = sum(py) / n
    bearing = [math.atan2(y - cy, x - cx) for x, y in zip(px, py)]
    s = bearing.index(min(bearing))
    try:
        return FeasibleRegion(
            [Vertex(Vec2(px[i], py[i]), active[i]) for i in chain(range(s, n), range(s))]
        )
    except ValueError as exc:
        # The tolerance let through a sliver, or rounding bent the cycle:
        # the corners bound no proper polygon.
        raise DegenerateRegion(f"the corners make no convex polygon: {exc}") from None


def argmax_with_ties(values: list[float]) -> tuple[int, list[int]]:
    """Index of the first strict maximum of values, and the other indices
    whose value is not more than VALUE_TIE_REL * max(1, |max|) below it."""
    top = max(values)
    best = values.index(top)
    thr = VALUE_TIE_REL * max(1.0, abs(top))
    # "not >" rather than "<=": a NaN gap (overflowed values) is a tie.
    tied = [i for i, v in enumerate(values) if i != best and not top - v > thr]
    return best, tied


def objective_values(c: Vec2, points: list[Vec2]) -> list[float]:
    """c . p for each point, to rank the points by.  When a value overflows,
    c is scaled by a power of two first: the ranking depends only on the
    direction of c."""
    c1, c2 = c.x1, c.x2
    values = [c1 * p.x1 + c2 * p.x2 for p in points]  # c.dot(p), written out
    if all(map(math.isfinite, values)):
        return values
    c = _pow2_scaled(c)
    return [c.dot(p) for p in points]


def _check_arguments(lp: LinearProgram2D, tol: float) -> None:
    """Raise what a solve entry point raises for a zero objective or a bad
    tol, in the order they all keep: a structural error (validate), then
    ZeroObjective, then ValueError for a negative or non-finite tol.

    With a nonzero objective and a good tol it checks nothing, as the
    entry points that build the region leave validation to
    enumerate_vertices.
    """
    if lp.objective.is_zero() or not 0.0 <= tol < math.inf:
        validate(lp)
        if lp.objective.is_zero():
            raise ZeroObjective("objective is (0, 0)")
        raise ValueError(f"need a finite tolerance >= 0, got {tol}")


def solve_enumeration(lp: LinearProgram2D, *, tol: float = FEAS_TOL) -> Solution:
    """Maximize by brute force over the region's vertices."""
    _check_arguments(lp, tol)
    region = enumerate_vertices(lp, tol=tol)
    best, tied = argmax_with_ties(objective_values(lp.objective, region.points()))
    x = region.vertices[best]
    return Solution(x, evaluate(lp, x.point), not tied)


# --- two-phase simplex -------------------------------------------------------
#
# The slack tableau of  max c . x,  A x <= b,  x >= 0  has two nonbasic
# columns, and its basic solution is where their constraints are tight.  So
# the simplex keeps just that pair, as column indices in the tableau's order:
# 0 is x1 (the row -x1 <= 0), 1 is x2, and 2 + i is the slack of row i.
# Bland's rule breaks every tie by that index.  Each row is scaled to a unit
# normal, and c to a unit vector, so that no decision below depends on the
# scale of c, of a row or of b.

#: A unit dual below -_DUAL_TOL marks an improving edge.
_DUAL_TOL = 1e-10
#: A row blocks a unit move d only where a . d > _PIV_TOL for its unit a.
_PIV_TOL = 1e-10
#: Two ratios tie within this relative window, and a slack below this
#: times |x|_1 counts as zero, so that degenerate steps tie exactly.
_TIE_REL = 1e-12
#: Unit duals this close to zero are probed for a second optimal vertex.
_PROBE_TOL = 1e-7
#: Phase one counts a row as violated when its unit residual exceeds this
#: times |b| + |x|_1, for the row's unit b and the basis point x.
_INFEAS_REL = 1e-9


def _unit_columns(lp: LinearProgram2D) -> list[tuple[int, float, float, float]]:
    """(j, a1, a2, b) for each column j, its row scaled to a unit normal."""
    out = [(0, -1.0, 0.0, 0.0), (1, 0.0, -1.0, 0.0)]
    for j, row in enumerate(lp.constraints, 2):
        h = math.hypot(row.a1, row.a2)
        out.append((j, row.a1 / h, row.a2 / h, row.b / h))
    return out


def _meet(r, s) -> Vec2:
    """Where the boundary lines of columns r = (j, a1, a2, b) and s cross.
    The + 0.0 makes a zero coordinate +0.0 whichever column comes first."""
    det = r[1] * s[2] - r[2] * s[1]
    x1 = (r[3] * s[2] - s[3] * r[2]) / det + 0.0
    return Vec2(x1, (r[1] * s[3] - s[1] * r[3]) / det + 0.0)


def _max_pivots(n_cols: int) -> int:
    """A cap on the pivots of phase two, far above what Bland's rule needs.

    Each nondegenerate pivot reaches a vertex not seen before, of a polygon
    with at most n_cols vertices.  The cap is four times that, to leave room
    for the degenerate pivots in between.
    """
    return 4 * n_cols + 8


def _blocking(cols, leave: int, stay: int) -> tuple[int, float]:
    """The first row met when walking from the vertex of (leave, stay) along
    stay's line into leave's half-plane: the column with the least ratio,
    the lowest one among ties.  Returns it with the distance walked, or
    (-1, inf) when nothing blocks.  O(len(cols)).
    """
    _, l1, l2, lb = cols[leave]
    _, s1, s2, sb = cols[stay]
    det = l1 * s2 - l2 * s1
    x1 = (lb * s2 - sb * l2) / det
    x2 = (l1 * sb - s1 * lb) / det
    # The unit direction along stay's line with a_leave . d < 0.  Along it
    # a_stay . d is exactly zero, so neither member of the basis can block.
    d1, d2 = (-s2, s1) if det > 0.0 else (s2, -s1)
    piv, win = _PIV_TOL, 1.0 - _TIE_REL
    tight = _TIE_REL * (abs(x1) + abs(x2))
    best, best_t, bound = -1, math.inf, math.inf
    for j, a1, a2, b in cols:
        den = a1 * d1 + a2 * d2
        if den > piv:
            slack = b - a1 * x1 - a2 * x2
            if slack <= tight:
                return j, 0.0  # a degenerate step: the least ratio, first met
            if slack < bound * den:  # slack / den beats the best ratio
                best, best_t = j, slack / den
                bound = best_t * win
    return best, best_t


def _phase_one(cols) -> tuple[int, int]:
    """A feasible basis for the unit columns cols, some of whose b are
    negative.

    A dual simplex (Lemke 1954) for max -(x1 + x2), on the same pairs of
    tight rows as phase two.  The start (0, 1), the origin, has the duals
    (1, 1) for that objective, and each pivot keeps them nonnegative: the
    lowest column whose row is violated enters, and of the members with a
    positive coefficient when its normal is written in the basis, the one
    with the least ratio of dual to coefficient leaves, the lower column on
    a tie (Bland's rule).  When no coefficient is positive, the entering
    normal is a nonpositive combination of the two tight ones, so no point
    satisfies all three rows.  Raises Infeasible then.

    This is the primal simplex with Bland's rule on the dual program
    (Bland 1977), which never repeats a basis; so the loop meets each of the
    C(n, 2) pairs of the n columns at most once.
    """
    p, q = 0, 1
    for _ in range(len(cols) * (len(cols) - 1) // 2):
        _, p1, p2, pb = cols[p]
        _, q1, q2, qb = cols[q]
        det = p1 * q2 - p2 * q1
        x1 = (pb * q2 - qb * p2) / det
        x2 = (p1 * qb - q1 * pb) / det
        size = abs(x1) + abs(x2)
        for r, r1, r2, rb in cols:
            if r1 * x1 + r2 * x2 - rb > _INFEAS_REL * (abs(rb) + size):
                break
        else:
            return p, q
        # a_r = alpha_p a_p + alpha_q a_q, and (-1, -1) = y_p a_p + y_q a_q.
        members = sorted(
            (
                (p, (q1 - q2) / det, (r1 * q2 - r2 * q1) / det),
                (q, (p2 - p1) / det, (p1 * r2 - p2 * r1) / det),
            )
        )
        leave, best = -1, math.inf
        for k, y, alpha in members:
            if alpha > _PIV_TOL and y / alpha < best:
                leave, best = k, y / alpha * (1.0 - _TIE_REL)
        if leave < 0:
            raise Infeasible("the constraints leave no feasible point")
        p, q = (r, q) if leave == p else (p, r)
    raise RuntimeError("simplex failed to terminate")


def solve_simplex(lp: LinearProgram2D, *, tol: float = FEAS_TOL) -> Solution:
    """Two-phase revised simplex with Bland's rule, O(m) per pivot.

    A basis is two tight constraints (rows or bounds); x and the duals of c
    come from 2 x 2 solves and the ratio test is one pass over the rows.
    When some b < 0, so that the origin is infeasible, phase one (a dual
    simplex on the same bases) finds a feasible basis first.  Raises
    Infeasible or Unbounded accordingly.  The solution is not unique when
    an edge with zero unit dual leads to a second vertex of the same value,
    or is a ray of optimal points.
    """
    validate(lp)
    _check_arguments(lp, tol)
    cols = _unit_columns(lp)
    big = max(abs(lp.objective.x1), abs(lp.objective.x2))
    c1, c2 = lp.objective.x1 / big, lp.objective.x2 / big
    h = math.hypot(c1, c2)
    c1, c2 = c1 / h, c2 / h

    p, q = _phase_one(cols) if any(col[3] < 0.0 for col in cols) else (0, 1)
    for _ in range(_max_pivots(len(cols))):
        _, p1, p2, _ = cols[p]
        _, q1, q2, _ = cols[q]
        det = p1 * q2 - p2 * q1
        yp = (c1 * q2 - c2 * q1) / det
        yq = (p1 * c2 - p2 * c1) / det
        # Bland's rule: of the members with a negative dual, the lower leaves.
        if yp < -_DUAL_TOL and (p < q or not yq < -_DUAL_TOL):
            leave, stay = p, q
        elif yq < -_DUAL_TOL:
            leave, stay = q, p
        else:
            break
        r, _ = _blocking(cols, leave, stay)
        if r < 0:
            raise Unbounded("objective is unbounded over the region")
        p, q = r, stay
    else:
        raise RuntimeError("simplex failed to terminate")

    # Unit rows keep the 2 x 2 solve clear of the underflow and overflow
    # that products of raw coefficients can hit.
    point = _meet(cols[p], cols[q])
    value = evaluate(lp, point)

    # Alternative optima: leaving a member whose unit dual is about zero
    # keeps the value, so if that walk reaches another vertex of the same
    # value, the optimum is not unique.
    unique = True
    for leave, stay, y in sorted(((p, q, yp), (q, p, yq))):
        if abs(y) > _PROBE_TOL:
            continue
        r, t = _blocking(cols, leave, stay)
        if r < 0 and abs(y) <= _DUAL_TOL:  # a ray of optimal points
            unique = False
            break
        if r < 0 or t == 0.0:
            continue  # a ray of worse points, or a degenerate step
        other = _meet(cols[r], cols[stay])
        gap = c1 * (other.x1 - point.x1) + c2 * (other.x2 - point.x2)
        scale = abs(point.x1) + abs(point.x2) + abs(other.x1) + abs(other.x2)
        if abs(gap) <= VALUE_TIE_REL * scale:
            unique = False
            break

    return Solution(Vertex(point, active_rows_at(lp, point, tol)), value, unique)
