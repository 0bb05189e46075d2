"""Two independent solvers for the planar LP, plus region construction.

solve_enumeration builds the feasible polygon by sorted half-plane
intersection and picks the best vertex; the same sort of the row normals
decides boundedness, by a gap of a half turn.  solve_enumeration and
analyze rank the builder's float lists and build a Vertex only for the
vertices they return.  solve_simplex is a two-phase revised simplex with
Bland's rule whose basis is the pair of tight constraints, in both phases,
so a pivot is a 2 x 2 solve and one O(m) pass over the rows.  Neither
needs numpy.  They share no code on the solve path, which is what makes
cross-checking one against the other meaningful.
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
from .geometry import TAU, Frozen, Vec2, _cycle_fault, _non_finite, _pow2_scaled, _set
from .lp_model import (
    FEAS_TOL,
    MERGE_TOL,
    X1_NONNEG,
    X2_NONNEG,
    FeasibleRegion,
    LinearProgram2D,
    Vertex,
    _check_cycle,
    _unchecked_region,
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


def _sorted_normals(lp: LinearProgram2D, tol: float):
    """One record per row, the two x >= 0 rows included, sorted by normal
    angle (see the sweep below); the position just after the widest
    counterclockwise gap between consecutive normals; and whether that gap
    leaves the region bounded, that is, falls short of pi - _RECESSION_TOL
    (see check_recession)."""
    # _atan2 and row.scale(), written out: this runs once per row.
    atan2, hypot = math.atan2, math.hypot
    rows = [
        (atan2(a2 + 0.0, a1), idx, a1, a2, b, hypot(a1, a2),
         tol * max(1.0, abs(a1), abs(a2), abs(b)))
        for idx, row in enumerate(lp.constraints)
        for a1, a2, b in ((row.a1, row.a2, row.b),)
    ]
    rows.append((math.pi, X1_NONNEG, -1.0, 0.0, 0.0, 1.0, tol))
    rows.append((-0.5 * math.pi, X2_NONNEG, 0.0, -1.0, 0.0, 1.0, tol))
    rows.sort(key=itemgetter(0))
    n_rows = len(rows)
    angles = [rec[0] for rec in rows]
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
    return Recession.BOUNDED if _sorted_normals(lp, FEAS_TOL)[2] else Recession.UNBOUNDED


# The sweep below works on one record per row, (angle, index, a1, a2, b, |a|,
# limit), where angle is the normal's atan2 in [-pi, pi], index the row's
# (X1_NONNEG and X2_NONNEG for x >= 0), and limit tol * row.scale(); and on
# corners as (x1, x2) float pairs.  Each expression keeps the order of
# operations of the ConstraintRow and Vec2 methods it stands for, and a
# corner that overflows raises NonFiniteEntry as Vec2 would.


def _pair(x1: float, x2: float) -> tuple[float, float]:
    """(x1, x2), checked as Vec2(x1, x2) checks it."""
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise _non_finite(x1, x2)
    return x1, x2


def _turns_left(ri, rj) -> bool:
    """rj's normal lies counterclockwise of ri's by strictly less than a
    half turn, so the two boundary lines cross."""
    return ri[2] * rj[3] - ri[3] * rj[2] > _DET_TOL * ri[5] * rj[5]


def _crossing(ri, rj) -> tuple[float, float]:
    """Where the boundary lines of two crossing rows meet."""
    _, _, a1, a2, b, _, _ = ri
    _, _, c1, c2, d, _, _ = rj
    det = a1 * c2 - a2 * c1
    return _pair((b * c2 - d * a2) / det, (a1 * d - c1 * b) / det)


def _outside(row, p) -> bool:
    """The row rejects p, by the scaled test of is_feasible."""
    return row[2] * p[0] + row[3] * p[1] - row[4] > row[6]


def _advance(row, p, corner) -> float:
    """Signed distance from corner to p, the crossing of row and another
    row, along row's boundary line walked with the region on its left."""
    return ((p[1] - corner[1]) * row[2] - (p[0] - corner[0]) * row[3]) / row[5]


def _foot(row) -> tuple[float, float]:
    """A point on the row's boundary line."""
    _, _, a1, a2, b, norm, _ = row
    s = b / norm / norm
    return _pair(s * a1, s * a2)


def _distance(p, q) -> float:
    """|p - q|, the difference checked as Vec2 checks it."""
    return math.hypot(*_pair(p[0] - q[0], p[1] - q[1]))


def _sweep(lines, closed: bool):
    """Intersect the half-planes of records given counterclockwise by
    normal angle, from any start.

    Returns the records that bound the intersection, counterclockwise, with
    the corners between consecutive ones, or None when it is empty.  When
    closed, the normals go round the full circle and the boundary is a
    cycle; otherwise they span at most a half turn and the boundary is an
    open chain, whose corners the caller does not need.
    """
    dq = deque()
    corners = deque()  # corners[k] is where dq[k] and dq[k + 1] cross
    isfinite = math.isfinite
    for h in lines:
        _, _, c1, c2, d, h_norm, h_limit = h
        # h drops dq[-1] if it rejects the last corner, or if the tolerance
        # let that corner stand but h crosses dq[-1] more than MERGE_TOL
        # before it: the corners along dq[-1] would run backwards.  Else
        # their crossing p, if they cross, is the next corner.  This runs
        # once or more per line, so _outside, _turns_left, _crossing and
        # _advance are written out.
        p = None
        while corners:
            _, _, a1, a2, b, norm, _ = dq[-1]
            x, y = corners[-1]
            if not c1 * x + c2 * y - d > h_limit:
                det = a1 * c2 - a2 * c1
                if not det > _DET_TOL * norm * h_norm:
                    break
                x1 = (b * c2 - d * a2) / det
                x2 = (a1 * d - c1 * b) / det
                if not (isfinite(x1) and isfinite(x2)):
                    raise _non_finite(x1, x2)
                if not ((x2 - y) * a1 - (x1 - x) * a2) / norm < -MERGE_TOL:
                    p = x1, x2
                    break
            dq.pop()
            corners.pop()
        while corners and c1 * corners[0][0] + c2 * corners[0][1] - d > h_limit:
            dq.popleft()
            corners.popleft()
        # p is the crossing of dq[-1] and h if the loop above kept dq[-1]
        # and found one; popping the front never removes dq[-1].
        if dq and p is None:
            if not _turns_left(dq[-1], h):
                # h faces dq[-1]: a cycle cannot continue, and an open chain
                # has reached its far end, where the strip between the two
                # rows is all that can still be empty.
                if closed or _outside(h, _foot(dq[-1])):
                    return None
                return list(dq), list(corners)
            p = _crossing(dq[-1], h)
        if dq:
            corners.append(p)
        dq.append(h)
    if closed:
        # The same tests where the cycle closes: dq[0] cutting back dq[-1],
        # then dq[-1] cutting dq[0] at the front, until neither pops: a new
        # dq[0] can cut back dq[-1] again.
        front_popped = True
        while front_popped:
            while len(corners) >= 2 and (
                _outside(dq[0], corners[-1])
                or _turns_left(dq[-1], dq[0])
                and _advance(dq[-1], _crossing(dq[-1], dq[0]), corners[-1]) < -MERGE_TOL
            ):
                dq.pop()
                corners.pop()
            front_popped = False
            while len(corners) >= 2 and (
                _outside(dq[-1], corners[0])
                or _turns_left(dq[-1], dq[0])
                and _advance(dq[0], _crossing(dq[0], dq[-1]), corners[0]) > MERGE_TOL
            ):
                dq.popleft()
                corners.popleft()
                front_popped = True
        if len(dq) < 3 or not _turns_left(dq[-1], dq[0]):
            return None
        corners.append(_crossing(dq[-1], dq[0]))
    return list(dq), list(corners)


def enumerate_vertices(lp: LinearProgram2D, *, tol: float = FEAS_TOL) -> FeasibleRegion:
    """Build the feasible polygon by sorted half-plane intersection, O(m log m).

    The constraint rows and the two x >= 0 rows are sorted by normal angle
    and swept once with a deque (Preparata & Shamos 1985; de Berg et al.,
    ch. 4).  A point is outside a row when its residual exceeds
    tol * row.scale(), as in is_feasible; corners within MERGE_TOL of each
    other merge into one vertex, which carries the rows active at it.

    Raises ValueError for a negative or non-finite tol, Infeasible when the
    rows leave no feasible point, UnboundedRegion when the recession cone is
    nonzero, and DegenerateRegion when fewer than three distinct vertices
    remain or the corners do not make a strictly convex counterclockwise
    cycle, FeasibleRegion's exact test: rounded crossings can make a corner
    straight or reflex.
    """
    return _region(_polygon(lp, tol))


def _polygon(lp: LinearProgram2D, tol: float):
    """enumerate_vertices' cycle, checked as FeasibleRegion checks it, as
    (xs, ys, rows, owners, edges): vertex k is (xs[k], ys[k]), entered
    along the row of record edges[k]; rows holds the records of
    _sorted_normals, x >= 0 rows included, by normal angle; and owners[i]
    is the vertex that owns rows[i]'s normal angle.  A row can be tight only
    at its owner or a neighbour of it, and it is tight at a vertex x where
    |a1 x1 + a2 x2 - b| <= limit."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"need a finite tolerance >= 0, got {tol}")
    validate(lp)
    # Start after the widest gap between normals, so that an unbounded
    # region's boundary is a chain from the first line to the last.
    rows, start, bounded = _sorted_normals(lp, tol)
    # Of rows whose normals point the same way, to within _DET_TOL, only the
    # tightest bounds.  lines[-1] is (.., k1, k2, kb, kn, ..).
    lines = []
    for rec in chain(rows[start:], rows[:start]):
        _, _, a1, a2, b, norm, _ = rec
        if (
            lines
            and abs(k1 * a2 - k2 * a1) <= _DET_TOL * (kn * norm)
            and k1 * a1 + k2 * a2 > 0.0
        ):
            if not b / norm < kb / kn:
                continue
            lines.pop()
        lines.append(rec)
        k1, k2, kb, kn = a1, a2, b, norm

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
    # A run that starts at corner k, where lines[k] meets lines[k + 1], is
    # entered along lines[k].
    runs = [[corners[first]]]
    run_of = [0] * n_corners
    edges = [lines[first]]
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
            edges.append(lines[k])
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

    # Begin the cycle where sorting by angle about the centroid begins it.
    cx = sum(px) / n
    cy = sum(py) / n
    bearing = [math.atan2(y - cy, x - cx) for x, y in zip(px, py)]
    s = bearing.index(min(bearing))
    xs, ys = px[s:] + px[:s], py[s:] + py[:s]
    if n == n_corners:
        # No corners merged, so the merge and the search for `first` have
        # measured every edge of the cycle: each is finite and longer than
        # MERGE_TOL, and only _check_cycle's convexity test is left.
        fault = _cycle_fault(xs, ys)
    else:
        try:
            _check_cycle(xs, ys)
            fault = None
        except ValueError as exc:
            fault = exc
    if fault is not None:
        # The tolerance let through a sliver, or rounding bent the cycle:
        # the corners bound no proper polygon.
        raise DegenerateRegion(f"the corners make no convex polygon: {fault}")

    # Corner k owns the normal angles from lines[k] to lines[k + 1], which
    # increase from lines[0] once the rows before `start` count a turn on.
    lo = rows[start][0]
    phis = [ang if ang >= lo else ang + TAU for ang in map(itemgetter(0), lines)]
    phi0 = phis[0]
    owner = [(k - s) % n for k in run_of]
    owners = [owner[bisect_right(phis, phi0 + (rec[0] - phi0) % TAU) - 1] for rec in rows]
    return xs, ys, rows, owners, edges[s:] + edges[:s]


def _region(poly) -> FeasibleRegion:
    """The FeasibleRegion of a _polygon result, not checked a second time."""
    xs, ys, rows, owners, _ = poly
    last = len(xs) - 1
    active: list[set[int]] = [set() for _ in xs]
    for j, (_, idx, a1, a2, b, _, limit) in zip(owners, rows):
        for i in (j - 1, j, j + 1 if j < last else 0):  # -1 is the last vertex
            if abs(a1 * xs[i] + a2 * ys[i] - b) <= limit:
                active[i].add(idx)
    vertices = [Vertex(Vec2(x, y), a) for x, y, a in zip(xs, ys, active)]
    return _unchecked_region(tuple(vertices))


def _vertices(poly, ks) -> list[Vertex]:
    """Vertices ks (distinct) of a _polygon result, active rows as _region finds them."""
    xs, ys, rows, owners, _ = poly
    n = len(xs)
    active: dict[int, set[int]] = {k: set() for k in ks}
    near = {(k + d) % n for k in ks for d in (-1, 0, 1)}  # owners worth testing
    for j, (_, idx, a1, a2, b, _, limit) in zip(owners, rows):
        if j in near:
            for i in ((j - 1) % n, j, (j + 1) % n):
                if i in active and abs(a1 * xs[i] + a2 * ys[i] - b) <= limit:
                    active[i].add(idx)
    return [Vertex(Vec2(xs[k], ys[k]), active[k]) for k in ks]


def argmax_with_ties(values: list[float]) -> tuple[int, list[int]]:
    """Index of the first strict maximum of values, and the other indices
    whose value is not more than VALUE_TIE_REL * max(1, |max|) below it."""
    top = max(values)
    best = values.index(top)
    thr = VALUE_TIE_REL * max(1.0, abs(top))
    # "not >" rather than "<=": a NaN gap (overflowed values) is a tie.
    tied = [i for i, v in enumerate(values) if i != best and not top - v > thr]
    return best, tied


def _ranked(c: Vec2, xs: list[float], ys: list[float]) -> tuple[int, list[int]]:
    """argmax_with_ties of c . (xs[k], ys[k]).  When a value overflows, c is
    scaled by a power of two first: only the direction of c matters."""
    c1, c2 = c.x1, c.x2
    values = [c1 * x + c2 * y for x, y in zip(xs, ys)]  # c.dot(p), written out
    if not all(map(math.isfinite, values)):
        c = _pow2_scaled(c)
        values = [c.x1 * x + c.x2 * y for x, y in zip(xs, ys)]
    return argmax_with_ties(values)


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
    """Maximize by brute force over the polygon's vertices, building only the best."""
    _check_arguments(lp, tol)
    poly = _polygon(lp, tol)
    best, tied = _ranked(lp.objective, poly[0], poly[1])
    (x,) = _vertices(poly, (best,))
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
