"""Two independent solvers for the planar LP, plus region construction.

solve_enumeration and analyze find x0 through _optimum, which checks the
arguments and sorts the row normals once, then certifies in one O(m) pass
the corner of the two rows whose normals bracket c; only where that fails
does Seidel's incremental LP walk from it, O(m) expected, to a corner that
is certified again.  The answer is the certificate's where it holds; only
where it does not does _optimum convert the sorted records for the sweep
and build the feasible polygon from them, by half-plane intersection, and
rank its vertices.  enumerate_vertices always builds the polygon: it makes
each row's sweep record once and sorts those.  Either sort, _fan, also
decides boundedness, by a gap of a half turn.  solve_simplex is a
two-phase revised simplex with Bland's rule whose basis is the pair of
tight constraints, in both phases, so a pivot is a 2 x 2 solve and one
O(m) pass over the rows.  Neither needs numpy.  They share no code on the
solve path, which is what makes cross-checking one against the other
meaningful.
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
    NonFiniteEntry,
    Unbounded,
    UnboundedRegion,
    ZeroObjective,
)
from .geometry import TAU, Frozen, Vec2, _cycle_fault, _non_finite, _pow2_scaled, _set
from .geometry import _turns_left as _left_turn
from .lp_model import (
    FEAS_TOL,
    MERGE_TOL,
    X1_NONNEG,
    X2_NONNEG,
    FeasibleRegion,
    LinearProgram2D,
    Vertex,
    _check_cycle,
    _checked_region,
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


def active_rows_at(lp: LinearProgram2D, p: Vec2, tol: float = FEAS_TOL) -> frozenset[int]:
    """Indices of all rows (synthetic included) tight at p."""
    out = {
        i
        for i, row in enumerate(lp.constraints)
        if abs(row.residual(p)) <= tol * row.scale()
    }
    # The rows -x1 <= 0 and -x2 <= 0, written out (as ConstraintRows they
    # cost 20 % or more on small LPs): residuals -x1, -x2 and scale 1.
    if abs(p.x1) <= tol:
        out.add(X1_NONNEG)
    if abs(p.x2) <= tol:
        out.add(X2_NONNEG)
    return frozenset(out)


def _sorted_normals(lp: LinearProgram2D, tol: float):
    """The rows route's records, sorted, with their start, bounded and tol,
    as _fan returns them: one record per row, the two x >= 0 rows included,
    (angle, index, a1, a2, b, room), angle the normal's atan2 in [-pi, pi]
    and index the row's (X1_NONNEG and X2_NONNEG for x >= 0).
    enumerate_vertices builds records of its own, with |a| and the limit
    in place of the room.

    room = 4 max(tol, MERGE_TOL) (1 + a1^2 + a2^2 + b^2) is plain
    arithmetic, and bounds from above the need of _clears, 2 max(limit,
    MERGE_TOL |a|) with limit = tol * row.scale(), so a slack above the
    room clears the row without the hypot and the limit.  With
    M = max(1, |a1|, |a2|, |b|): 1 + a1^2 + a2^2 + b^2 >= M, since it is
    at least 1, and at least 1 + M^2 >= 2M when an entry reaches M; and
    1 + a1^2 + a2^2 >= 2|a|.  So the exact room is at least 4 limit and
    8 MERGE_TOL |a|, twice the need.  That factor 2 covers the rounding of
    the few operations on either side, each within 2^-53 relative; a square
    that underflows loses less than 2^-1074 beside the 1.  A room that
    overflows is inf, which no slack exceeds, so its row takes _clears.
    """
    # _atan2, written out: this runs once per row.
    atan2 = math.atan2
    scale = 4.0 * max(tol, MERGE_TOL)
    rows = [
        (atan2(a2 + 0.0, a1), idx, a1, a2, b, scale * (1.0 + a1 * a1 + a2 * a2 + b * b))
        for idx, row in enumerate(lp.constraints)
        for a1, a2, b in ((row.a1, row.a2, row.b),)
    ]
    # x >= 0 written out: from ConstraintRows, small LPs cost 20 % or more.
    rows.append((math.pi, X1_NONNEG, -1.0, 0.0, 0.0, 2.0 * scale))
    rows.append((-0.5 * math.pi, X2_NONNEG, 0.0, -1.0, 0.0, 2.0 * scale))
    return _fan(rows, tol)


def _fan(rows, tol: float):
    """(rows, start, bounded, tol) for records whose first field is the
    row's normal angle: rows sorted by that angle in place; start the
    position just after the widest counterclockwise gap between consecutive
    normals, the first of equal gaps and the one round the turn last; and
    whether that gap leaves the region bounded, that is, falls short of
    pi - _RECESSION_TOL (see check_recession)."""
    rows.sort(key=itemgetter(0))
    prev = rows[0][0]
    widest, start = -1.0, 0
    for k in range(1, len(rows)):
        angle = rows[k][0]
        if angle - prev > widest:
            widest, start = angle - prev, k
        prev = angle
    gap = rows[0][0] + TAU - prev
    if gap > widest:
        widest, start = gap, 0
    return rows, start, widest < math.pi - _RECESSION_TOL, tol


def check_recession(lp: LinearProgram2D) -> Recession:
    """Decide whether the region admits a nonzero recession direction.

    The recession cone {d : A d <= 0, d >= 0} is nonzero exactly when all
    row normals, the two x >= 0 rows included, lie in one closed half-plane:
    when the sorted normal angles leave a gap of at least pi (Rockafellar,
    Convex Analysis, 1970, section 8).  enumerate_vertices, analyze and
    solve_enumeration decide it by the same test, _fan's, on their sort.

    A gap counts from pi - _RECESSION_TOL on.  That is the edge of the test
    a . d <= _RECESSION_TOL |a| for every row a, with d perpendicular to one
    row bounding the gap: d makes an angle with the other row's normal whose
    cosine is sin(pi - gap).
    """
    validate(lp)
    return Recession.BOUNDED if _sorted_normals(lp, FEAS_TOL)[2] else Recession.UNBOUNDED


# The sweep below works on one record per row, (angle, index, a1, a2, b, |a|,
# limit), with |a| = hypot(a1, a2) and limit tol * row.scale():
# enumerate_vertices builds them, and _optimum's fallback converts the
# records of _sorted_normals, (angle, index, a1, a2, b, room), to the same
# bits.  The rows route reads the shorter records and computes |a| and the
# limit only where it needs them.  Corners are (x1, x2) float pairs.  Each
# expression keeps the order of operations of the ConstraintRow and Vec2
# methods it stands for, and a corner that overflows raises NonFiniteEntry
# as Vec2 would.


def _pair(x1: float, x2: float) -> tuple[float, float]:
    """(x1, x2), checked as Vec2(x1, x2) checks it."""
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise _non_finite(x1, x2)
    return x1, x2


def _limit(a1: float, a2: float, b: float, tol: float) -> float:
    """tol * row.scale(), tol * max(1, |a1|, |a2|, |b|), to the same bits:
    the comparisons, written out, cost less than the builtin max's call."""
    big = abs(a1)
    t = abs(a2)
    if t > big:
        big = t
    t = abs(b)
    if t > big:
        big = t
    return tol * big if big > 1.0 else tol


def _point(x1: float, x2: float) -> Vec2:
    """Vec2(x1, x2) for coordinates that have passed _pair, without its
    check again."""
    p = object.__new__(Vec2)
    _set(p, "x1", x1)
    _set(p, "x2", x2)
    return p


def _turns_left(ri, rj) -> bool:
    """rj's normal lies counterclockwise of ri's by strictly less than a
    half turn, so the two boundary lines of the sweep records cross."""
    return ri[2] * rj[3] - ri[3] * rj[2] > _DET_TOL * ri[5] * rj[5]


def _crossing(ri, rj) -> tuple[float, float]:
    """Where the boundary lines of two crossing rows meet, for records of
    either length."""
    a1, a2, b = ri[2], ri[3], ri[4]
    c1, c2, d = rj[2], rj[3], rj[4]
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

    Each constraint row and the two x >= 0 rows get one sweep record, with
    |a| and the limit, built once; the records are sorted by normal angle
    and swept once with a deque (Preparata & Shamos 1985; de Berg et al.,
    ch. 4).  A point is outside a row when its residual exceeds
    tol * row.scale(), as in is_feasible; corners within MERGE_TOL of each
    other merge into one vertex, which carries every row within
    tol * row.scale() of it, as active_rows_at finds them.  Vertex 0 is the
    one whose edge to vertex 1 has the least outward normal angle.  The
    region keeps the checked coordinates and builds its Vertex tuple at the
    first read of vertices, which cannot fail: len, index_of and the sweeps
    build none.

    Raises a structural error (validate) first, then ValueError for a
    negative or non-finite tol, Infeasible when the rows leave no feasible
    point, UnboundedRegion when the recession cone is nonzero, and
    DegenerateRegion when fewer than three distinct vertices remain or the
    corners do not make a strictly convex counterclockwise cycle,
    FeasibleRegion's exact test: rounded crossings can make a corner
    straight or reflex.
    """
    validate(lp)
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"need a finite tolerance >= 0, got {tol}")
    # _atan2 and _limit written out: this runs once per row.
    atan2, hypot = math.atan2, math.hypot
    rows = [
        (atan2(a2 + 0.0, a1), idx, a1, a2, b, hypot(a1, a2), tol * big if big > 1.0 else tol)
        for idx, row in enumerate(lp.constraints)
        for a1, a2, b in ((row.a1, row.a2, row.b),)
        for big in (abs(a1),)
        for big in (abs(a2) if abs(a2) > big else big,)
        for big in (abs(b) if abs(b) > big else big,)
    ]
    rows.append((math.pi, X1_NONNEG, -1.0, 0.0, 0.0, 1.0, tol))
    rows.append((-0.5 * math.pi, X2_NONNEG, 0.0, -1.0, 0.0, 1.0, tol))
    poly = _polygon(_fan(rows, tol))
    xs, ys = poly[0], poly[1]
    # _polygon has checked the cycle as FeasibleRegion would.
    return _checked_region(xs, ys, lambda: tuple(_vertices(poly, range(len(xs)))))


def _polygon(fan):
    """enumerate_vertices' cycle from fan, the _fan result of sweep records,
    checked as FeasibleRegion checks it, as (xs, ys, rows, edges): vertex k
    is (xs[k], ys[k]), entered along the row of record edges[k]; and rows
    holds the records, x >= 0 rows included, in normal-angle order from the
    one after the widest gap.  The cycle keeps the normal fan's order from
    the vertex whose out-edge row, edges[1], has the least normal angle."""
    # Start after the widest gap between normals, so that an unbounded
    # region's boundary is a chain from the first line to the last.
    rows, start, bounded, _ = fan
    rows = rows[start:] + rows[:start]
    # Of rows whose normals point the same way, to within _DET_TOL, only the
    # tightest where the normal through the origin meets it bounds; of two
    # not exactly parallel, that need not be the one that binds.  lines[-1]
    # is (.., k1, k2, kb, kn, ..).
    lines = []
    for rec in rows:
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
    # entered along lines[k].  A run of one corner is its vertex, + 0.0;
    # the corners of a longer run are kept, by vertex, to take their mean.
    q = corners[first]
    px, py, edges = [q[0] + 0.0], [q[1] + 0.0], [lines[first]]
    runs, run = [], None
    hypot = math.hypot
    for k in chain(range(first + 1, n_corners), range(first)):
        p = corners[k]
        # _distance, which checks the difference, only where hypot overflowed.
        d = hypot(p[0] - q[0], p[1] - q[1])
        if d == math.inf:
            d = _distance(p, q)
        if d <= MERGE_TOL:
            if run is None:
                run = [q]
                runs.append((len(px) - 1, run))
            run.append(p)
        else:
            q, run = p, None
            px.append(p[0] + 0.0)
            py.append(p[1] + 0.0)
            edges.append(lines[k])
    # A run's mean is sum(xs) / len(run).  sum() starts from 0, so a mean of
    # -0.0 is 0.0, as x + 0.0 makes it for one corner.
    for j, run in runs:
        xs, ys = zip(*run)
        px[j], py[j] = _pair(sum(xs) / len(run), sum(ys) / len(run))
    n = len(px)
    if n < 3:
        raise DegenerateRegion(f"feasible set has only {n} distinct corner(s)")

    # Begin the cycle at the vertex whose out-edge row has the least normal
    # angle: edges[1], ..., edges[n - 1], edges[0] ascend, and vertex k owns
    # the angles from edges[k]'s to edges[k + 1]'s, round the turn for k = 0.
    angles = [e[0] for e in edges]
    s = (angles.index(min(angles)) - 1) % n
    xs, ys, edges = px[s:] + px[:s], py[s:] + py[:s], edges[s:] + edges[:s]
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

    return xs, ys, rows, edges


def _vertices(poly, ks) -> list[Vertex]:
    """Vertices ks of a _polygon result, each with the rows within their limit
    there, as active_rows_at finds them, by the limits of its records: a . x
    is unimodal round the convex cycle, so a row is tested at its owner, the
    vertex whose cone in the normal fan holds the row's normal angle, and on
    each side past the vertices beyond the limit (the float cycle may violate
    the row there), then while it holds."""
    xs, ys, rows, edges = poly
    n = len(xs)
    ends = [e[0] for e in edges[1:] + edges[:1]]
    active: list[set[int]] = [set() for _ in xs]
    for angle, idx, a1, a2, b, _, limit in rows:
        j = bisect_right(ends, angle) % n
        if abs(a1 * xs[j] + a2 * ys[j] - b) <= limit:
            active[j].add(idx)
        lo, hi = j - 1, j + 1  # down to j + 1 - n, then up to where that stopped
        while lo > j - n and a1 * xs[lo] + a2 * ys[lo] - b > limit:
            lo -= 1
        while lo > j - n and abs(a1 * xs[lo] + a2 * ys[lo] - b) <= limit:
            active[lo].add(idx)
            lo -= 1
        while hi < lo + n and a1 * xs[hi % n] + a2 * ys[hi % n] - b > limit:
            hi += 1
        while hi < lo + n and abs(a1 * xs[hi % n] + a2 * ys[hi % n] - b) <= limit:
            active[hi % n].add(idx)
            hi += 1
    return [Vertex(_point(xs[k], ys[k]), active[k]) for k in ks]


# --- x0 from the rows, in O(m) -----------------------------------------------


def _corner_of(ri, rj):
    """_crossing(ri, rj) + 0.0, or None where the rows meet at no finite
    point: a vertex as _polygon makes it where no other corner merges.  The
    records are _sorted_normals', so _turns_left's test is written out, with
    the two |a| it reads."""
    _, _, a1, a2, _, _ = ri
    _, _, c1, c2, _, _ = rj
    if a1 * c2 - a2 * c1 > _DET_TOL * math.hypot(a1, a2) * math.hypot(c1, c2):
        try:
            x, y = _crossing(ri, rj)
            return x + 0.0, y + 0.0
        except NonFiniteEntry:
            pass
    return None


def _on_line(h, seen, c1: float, c2: float):
    """(into, out, corner) where the records seen first stop a walk along
    h's line the way c grows; the corner is None where c is level with the
    line, nothing stops the walk, or _corner_of finds none.  Seidel's test
    for an empty interval is left out: where the LP is infeasible, the point
    left fails _certified instead.  The records are _sorted_normals';
    _foot's point on h's line reads |h|, computed here."""
    _, _, h1, h2, hb, _ = h
    forward = c2 * h1 - c1 * h2
    if forward == 0.0:
        return h, h, None
    d1, d2 = (-h2, h1) if forward > 0.0 else (h2, -h1)
    hn = math.hypot(h1, h2)
    s = hb / hn / hn
    q1, q2 = s * h1, s * h2  # a point on the line
    hi, block = math.inf, h  # h where nothing stops it: _corner_of(h, h) is None
    for g in seen:
        _, _, g1, g2, gb, _ = g
        den = g1 * d1 + g2 * d2
        t = (gb - g1 * q1 - g2 * q2) / den if den > 0.0 else math.inf
        if t < hi:
            hi, block = t, g
    into, out = (h, block) if forward > 0.0 else (block, h)
    return into, out, _corner_of(into, out)


def _optimal_edges(rows, c1: float, c2: float, into, out, x):
    """(into, out, x0), x0's two edge records, counterclockwise, and their
    _corner_of, for max c . x over _sorted_normals' records of a bounded
    region, or None where in doubt: Seidel's incremental LP (Seidel 1991; de
    Berg et al., Computational Geometry, 3rd ed., 4.3-4.4).  It starts from
    into and out, the two rows whose normals bracket c, and x, their
    _corner_of, which _certified has rejected; so it needs no bounding box.
    It visits the rows in strides of isqrt(len(rows)) through the angle
    order; a row that rejects the point moves it along the row's line."""
    first = into, out
    step = math.isqrt(len(rows))
    order = list(chain.from_iterable(rows[j::step] for j in range(step)))
    for i, h in enumerate(order):
        if x is None:
            return None
        if h[2] * x[0] + h[3] * x[1] - h[4] > 0.0 and h is not into and h is not out:
            into, out, x = _on_line(h, chain(first, order[:i]), c1, c2)
    return None if x is None else (into, out, x)


def _clears(rec, slack: float, tol: float) -> bool:
    """The row of rec, a _sorted_normals record, holds with this slack by
    twice its limit and 2 MERGE_TOL in distance.  _certified asks this only
    where the slack does not clear the record's room.  The need is >= 0 (or
    NaN), so a slack <= 0 (or NaN) is refused without computing it."""
    _, _, a1, a2, b, _ = rec
    return slack > 0.0 and slack > 2.0 * max(_limit(a1, a2, b, tol), MERGE_TOL * math.hypot(a1, a2))


def _optimal_corner(lp: LinearProgram2D, normals):
    """pred, x0 and succ in O(m), each as its point and the pair of records
    that meet there, the one into it first; or None where the region is
    unbounded, _corner_of forms no corner, or the certificate fails.  lp's
    objective is nonzero, normals _sorted_normals(lp, tol) for a good tol.
    It tries first the corner of the two rows whose normals bracket c, found
    by one bisection of the angles: that is x0 unless some row's normal lies
    between theirs and binds.  Only where _certified rejects that corner
    does _optimal_edges walk from it, and only a walk that ends at another
    pair of rows is certified again.  The certificate alone proves the
    answer from the rows, so it does not matter how x0 was reached."""
    rows, _, bounded, tol = normals
    if not bounded:
        return None
    c1, c2 = lp.objective.x1, lp.objective.x2
    k = bisect_right(rows, math.atan2(c2 + 0.0, c1), key=itemgetter(0))
    into, out = rows[k - 1], rows[k % len(rows)]
    x = _corner_of(into, out)
    if x is None:
        return None
    corner = _certified(rows, into, out, x, c1, c2, tol)
    if corner is None:
        edges = _optimal_edges(rows, c1, c2, into, out, x)
        if edges is None or edges[0] is into and edges[1] is out:
            return None
        corner = _certified(rows, *edges, c1, c2, tol)
    return corner


def _certified(rows, into, out, x0, c1: float, c2: float, tol: float):
    """pred, x0 and succ as _optimal_corner returns them, where x0 is the
    _corner_of into and out, _sorted_normals' records rows, tol theirs and
    (c1, c2) the objective; or None where in doubt.  Each row but a
    vertex's two holds there by twice its limit and 2 MERGE_TOL in
    distance: no other is tight and no corner merges, so the pairs hold
    every row tight at the points, which are _polygon's wherever its
    parallel filter keeps every row that binds.  A slack above the row's
    room proves that, the room being an upper bound on what _clears asks;
    only a row the room leaves in doubt, and not one of the vertex's two,
    takes _clears, so each answer is the one the exact test alone gives.
    Ratio tests along x0's rows find pred's and succ's other rows.  x0
    beats both by twice _ranked's tie threshold, so c lies in the normal
    cone of x0's rows (LP duality), and _ranked would find no tie; pred,
    x0, succ turn left by one exact orientation test, _cycle_fault's for 3
    points."""
    x, y = x0
    p1, p2, s1, s2 = into[3], -into[2], -out[3], out[2]  # towards pred, succ
    tp = tp2 = ts = ts2 = math.inf
    before = after = None
    for rec in rows:
        _, _, a1, a2, b, room = rec
        slack = b - a1 * x - a2 * y
        if not slack > room and rec is not into and rec is not out:  # their d is never > 0
            if not _clears(rec, slack, tol):
                return None
        d = a1 * p1 + a2 * p2
        if d > 0.0 and slack / d < tp2:
            t = slack / d
            tp, tp2, before = (t, tp, rec) if t < tp else (tp, t, before)
        d = a1 * s1 + a2 * s2
        if d > 0.0 and slack / d < ts2:
            t = slack / d
            ts, ts2, after = (t, ts, rec) if t < ts else (ts, t, after)
    # Near-tie: two rows cross an edge at nearly one point, or none does.
    if tp2 <= tp * (1.0 + VALUE_TIE_REL) or ts2 <= ts * (1.0 + VALUE_TIE_REL):
        return None
    pred, succ = _corner_of(before, into), _corner_of(out, after)
    if pred is None or succ is None:
        return None
    (px, py), (sx, sy) = pred, succ
    for rec in rows:
        _, _, a1, a2, b, room = rec
        slack = b - a1 * px - a2 * py
        if not slack > room and rec is not before and rec is not into:
            if not _clears(rec, slack, tol):
                return None
        slack = b - a1 * sx - a2 * sy
        if not slack > room and rec is not out and rec is not after:
            if not _clears(rec, slack, tol):
                return None
    # pred, x0, succ must also turn left, as _polygon's convexity test asks.
    v0, vp, vs = c1 * x + c2 * y, c1 * px + c2 * py, c1 * sx + c2 * sy
    thr = 2.0 * VALUE_TIE_REL * max(1.0, abs(v0))
    if not (v0 - vp > thr and v0 - vs > thr and _left_turn(px, py, x, y, sx, sy)):
        return None
    return (pred, (before, into)), ((x, y), (into, out)), (succ, (out, after))


def _corner_vertex(point, pair, tol: float) -> Vertex:
    """The Vertex of one corner of _optimal_corner: its rows of the pair,
    those within their limit, are all the rows tight there.  A residual
    within tol is within the limit, tol * row.scale() with row.scale() >= 1,
    so the limit is computed only past that.  The corner has passed _pair,
    so _point builds its Vec2."""
    u, v = point
    tight = set()
    for _, idx, a1, a2, b, _ in pair:
        r = abs(a1 * u + a2 * v - b)
        if r <= tol or r <= _limit(a1, a2, b, tol):
            tight.add(idx)
    return Vertex(_point(u, v), tight)


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
    """Raise what a solve entry point raises for a bad LP, a zero objective
    or a bad tol, in the order they all keep: a structural error
    (validate), then ZeroObjective, then ValueError for a negative or
    non-finite tol."""
    validate(lp)
    if lp.objective.is_zero():
        raise ZeroObjective("objective is (0, 0)")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"need a finite tolerance >= 0, got {tol}")


def _optimum(lp: LinearProgram2D, tol: float, around):
    """x0 of max c . x, for analyze and solve_enumeration, as (vertices,
    into, out, tied, angle), after one argument check and one sort: the
    certificate's, from the rows in O(m) expected, where _optimal_corner's
    holds, else enumerate_vertices' polygon's.  The two agree bit for bit
    wherever the polygon's parallel filter keeps every row that binds.
    Without a tie, vertices are those at each offset in around from x0
    (-1 pred, 1 succ), into and out the records of the rows along x0's two
    edges.  With a tie, which only the polygon finds, vertices are x0 and
    those that tie it, and angle is, for an adjacent pair, the normal angle
    of the row they share.  It builds a Vertex for the returned ones alone.
    """
    _check_arguments(lp, tol)
    normals = _sorted_normals(lp, tol)
    corner = _optimal_corner(lp, normals)
    if corner is not None:
        vertices = []
        for d in around:  # a loop, not a comprehension: this is the hot route
            vertices.append(_corner_vertex(*corner[1 + d], tol))
        into, out = corner[1][1]
        return vertices, into, out, False, None
    # The polygon's sweep records, converted from the same sort, in its
    # order: the bits enumerate_vertices builds.
    rows, start, bounded, _ = normals
    records = [
        (angle, idx, a1, a2, b, math.hypot(a1, a2), _limit(a1, a2, b, tol))
        for angle, idx, a1, a2, b, _ in rows
    ]
    poly = _polygon((records, start, bounded, tol))
    xs, edges = poly[0], poly[3]
    best, tied = _ranked(lp.objective, xs, poly[1])
    n = len(xs)
    if not tied:
        vertices = _vertices(poly, [(best + d) % n for d in around])
        return vertices, edges[best], edges[(best + 1) % n], False, None
    angle = None
    if len(tied) == 1:
        for a, b in ((best, tied[0]), (tied[0], best)):
            if (b - a) % n == 1:  # the edge a -> b, along edges[b], is level
                angle = edges[b][0]
    return _vertices(poly, (best, *tied)), None, None, True, angle


def solve_enumeration(lp: LinearProgram2D, *, tol: float = FEAS_TOL) -> Solution:
    """Maximize c . x by _optimum: from the rows in O(m) expected where
    they certify x0, which is then unique, else by ranking the vertices of
    enumerate_vertices' polygon."""
    vertices, _, _, tied, _ = _optimum(lp, tol, (0,))
    return Solution(vertices[0], evaluate(lp, vertices[0].point), not tied)


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
    # x >= 0 written out: from ConstraintRows, small LPs cost 20 % or more.
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
