"""Exact reference for the feasible region, its boundedness and the LP's
optimum.

Every float is an exact rational, so exact_region, exact_bounded and
exact_optimum compute in integers and fractions.Fraction and use no
tolerance.  They share no code with the package but validate, the indices
of the x >= 0 rows and the error classes; not even its exact orientation
test, which FeasibleRegion uses and which is among the things checked.
"""

from fractions import Fraction
from functools import cmp_to_key
from math import lcm, ulp

from planarlp.errors import DegenerateRegion, Infeasible, Unbounded, UnboundedRegion
from planarlp.lp_model import X1_NONNEG, X2_NONNEG, validate


def _rows(lp):
    """(index, a1, a2, b) of every row, the two x >= 0 rows included, each
    times a positive integer that makes a1, a2 and b integers."""
    rows = []
    for i, r in enumerate(lp.constraints):
        a1, a2, b = Fraction(r.a1), Fraction(r.a2), Fraction(r.b)
        s = lcm(a1.denominator, a2.denominator, b.denominator)
        rows.append((i, int(a1 * s), int(a2 * s), int(b * s)))
    return rows + [(X1_NONNEG, -1, 0, 0), (X2_NONNEG, 0, -1, 0)]


def _corners(rows) -> set[tuple[Fraction, Fraction]]:
    """Each crossing of two rows that satisfies every row."""
    points = set()
    for _, a1, a2, b in rows:
        for _, c1, c2, d in rows:
            det = a1 * c2 - a2 * c1
            if det > 0:  # each crossing once, as (n1, n2) / det
                n1, n2 = b * c2 - d * a2, a1 * d - c1 * b
                if all(r1 * n1 + r2 * n2 <= rb * det for _, r1, r2, rb in rows):
                    points.add((Fraction(n1, det), Fraction(n2, det)))
    return points


def exact_bounded(lp) -> bool:
    """The recession cone {d : A d <= 0, d >= 0} is zero.  If not, it has an
    extreme ray on which some row is tight: one of the directions
    +-(-a2, a1) of the rows (the x >= 0 rows give the axes) passes every
    row's test a . d <= 0, the x >= 0 rows' test d >= 0 included."""
    validate(lp)
    rows = _rows(lp)
    return not any(
        all(r1 * d1 + r2 * d2 <= 0 for _, r1, r2, _ in rows)
        for _, a1, a2, _ in rows
        for d1, d2 in ((-a2, a1), (a2, -a1))
    )


def exact_region(lp) -> list[tuple[Fraction, Fraction, frozenset[int]]]:
    """The vertices (x1, x2, active rows) of the feasible polygon.

    Keeps each crossing of two rows that satisfies every row; each
    such point is an extreme point, so no three are collinear.  Raises
    Infeasible, then UnboundedRegion, then DegenerateRegion, as
    enumerate_vertices does.  The cycle runs counterclockwise from the
    least (x2, x1), ordered by exact cross products; a row is active where
    a . x == b.
    """
    validate(lp)
    rows = _rows(lp)
    points = _corners(rows)
    if not points:
        raise Infeasible("no crossing of two rows is feasible")
    if not exact_bounded(lp):
        raise UnboundedRegion("the recession cone is nonzero")
    if len(points) < 3:
        raise DegenerateRegion(f"feasible set has only {len(points)} corner(s)")
    ox, oy = start = min(points, key=lambda p: (p[1], p[0]))

    def clockwise(p, q):  # the sign of (q - start) x (p - start)
        cross = (q[0] - ox) * (p[1] - oy) - (q[1] - oy) * (p[0] - ox)
        return (cross > 0) - (cross < 0)

    cycle = [start] + sorted(points - {start}, key=cmp_to_key(clockwise))
    return [
        (x1, x2, frozenset(i for i, r1, r2, rb in rows if r1 * x1 + r2 * x2 == rb))
        for x1, x2 in cycle
    ]


def exact_optimum(lp) -> tuple[list[tuple[Fraction, Fraction, frozenset[int]]], bool]:
    """The optimal crossings (x1, x2, active rows) of max c . x, and whether
    the optimum is unique.

    The feasible crossings of two rows are the vertices (the x >= 0 rows
    make the region pointed, so a region without one is empty): Infeasible
    where there is none.  The candidate rays +-(-a2, a1) of the rows that
    pass every row's test a . d <= 0 span the recession cone: Unbounded
    where c . d > 0 on one.  Otherwise the crossings of the greatest value
    are optimal, and the optimum is unique when there is one such crossing
    and c . d < 0 on every ray kept.
    """
    validate(lp)
    rows = _rows(lp)
    c1, c2 = Fraction(lp.objective.x1), Fraction(lp.objective.x2)
    points = _corners(rows)
    if not points:
        raise Infeasible("no crossing of two rows is feasible")
    rays = [
        (d1, d2)
        for _, a1, a2, _ in rows
        for d1, d2 in ((-a2, a1), (a2, -a1))
        if all(r1 * d1 + r2 * d2 <= 0 for _, r1, r2, _ in rows)
    ]
    if any(c1 * d1 + c2 * d2 > 0 for d1, d2 in rays):
        raise Unbounded("c grows along a recession direction")
    top = max(c1 * x1 + c2 * x2 for x1, x2 in points)
    optima = [
        (x1, x2, frozenset(i for i, r1, r2, rb in rows if r1 * x1 + r2 * x2 == rb))
        for x1, x2 in sorted(points, key=lambda p: (p[1], p[0]))
        if c1 * x1 + c2 * x2 == top
    ]
    unique = len(optima) == 1 and not any(c1 * d1 + c2 * d2 == 0 for d1, d2 in rays)
    return optima, unique


def near(p, exact, ulps=8) -> bool:
    """Each coordinate of the point p lies within ulps units in the last
    place of max(1, |x1|, |x2|) of the exact point (x1, x2, ...)."""
    x1, x2 = exact[0], exact[1]
    tol = ulps * ulp(float(max(1, abs(x1), abs(x2))))
    return abs(Fraction(p.x1) - x1) <= tol and abs(Fraction(p.x2) - x2) <= tol
