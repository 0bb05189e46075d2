"""Exact reference for the feasible region and its boundedness.

Every float is an exact rational, so exact_region and exact_bounded compute
in integers and fractions.Fraction and use no tolerance.  They share no
code with the package but validate, the indices of the x >= 0 rows and the
error classes; not even its exact orientation test, which FeasibleRegion
uses and which is among the things checked.
"""

from fractions import Fraction
from functools import cmp_to_key
from math import lcm

from planarlp.errors import DegenerateRegion, Infeasible, UnboundedRegion
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
    points = set()
    for _, a1, a2, b in rows:
        for _, c1, c2, d in rows:
            det = a1 * c2 - a2 * c1
            if det > 0:  # each crossing once, as (n1, n2) / det
                n1, n2 = b * c2 - d * a2, a1 * d - c1 * b
                if all(r1 * n1 + r2 * n2 <= rb * det for _, r1, r2, rb in rows):
                    points.add((Fraction(n1, det), Fraction(n2, det)))
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
