import math
import struct

import pytest
from hypothesis import assume, given, settings, strategies as st

import planarlp as pl
from planarlp.errors import (
    EmptyConstraintList,
    NonFiniteEntry,
    VertexNotInRegion,
    ZeroRow,
)
from conftest import region_of_points, same_cycle, square_lp

coord = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


def test_validate_accepts_reference(ref_lp):
    pl.validate(ref_lp)  # must not raise


def test_validate_empty_constraints():
    lp = pl.LinearProgram2D(pl.Vec2(1.0, 1.0), ())
    with pytest.raises(EmptyConstraintList):
        pl.validate(lp)


def test_validate_zero_row():
    lp = pl.LinearProgram2D(
        pl.Vec2(1.0, 1.0), (pl.ConstraintRow(0.0, 0.0, 5.0),)
    )
    with pytest.raises(ZeroRow):
        pl.validate(lp)


def test_validate_non_finite_rhs():
    lp = pl.LinearProgram2D(
        pl.Vec2(1.0, 1.0), (pl.ConstraintRow(1.0, 0.0, math.inf),)
    )
    with pytest.raises(NonFiniteEntry):
        pl.validate(lp)


def test_validate_nan_coefficient():
    lp = pl.LinearProgram2D(
        pl.Vec2(1.0, 1.0), (pl.ConstraintRow(math.nan, 1.0, 1.0),)
    )
    with pytest.raises(NonFiniteEntry):
        pl.validate(lp)


def test_evaluate_reference(ref_lp):
    assert pl.evaluate(ref_lp, pl.Vec2(80.0, 40.0)) == 280.0
    assert pl.evaluate(ref_lp, pl.Vec2(0.0, 0.0)) == 0.0


@given(coord, coord, coord, coord, coord, coord)
def test_evaluate_is_linear(c1, c2, x1, x2, y1, y2):
    lp = pl.LinearProgram2D(pl.Vec2(c1, c2), (pl.ConstraintRow(1.0, 0.0, 1.0),))
    x, y = pl.Vec2(x1, x2), pl.Vec2(y1, y2)
    lhs = pl.evaluate(lp, x + y)
    rhs = pl.evaluate(lp, x) + pl.evaluate(lp, y)
    assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(lhs))


def test_is_feasible_reference(ref_lp):
    assert pl.is_feasible(ref_lp, pl.Vec2(80.0, 40.0))
    assert pl.is_feasible(ref_lp, pl.Vec2(0.0, 0.0))
    assert not pl.is_feasible(ref_lp, pl.Vec2(101.0, 0.0))
    assert not pl.is_feasible(ref_lp, pl.Vec2(-1.0, 0.0))


def test_is_feasible_tolerance_is_scaled():
    # row scale is max(1, |a1|, |a2|, |b|) = 100
    lp = pl.LinearProgram2D(pl.Vec2(1.0, 0.0), (pl.ConstraintRow(100.0, 0.0, 100.0),))
    assert pl.is_feasible(lp, pl.Vec2(1.0 + 9e-10, 0.0), tol=1e-9)
    assert not pl.is_feasible(lp, pl.Vec2(1.0 + 1e-6, 0.0), tol=1e-9)


_any_float = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, -(2.0**-1023), 1.0, -1.0]
)


@settings(max_examples=500)
@given(_any_float, _any_float, _any_float)
def test_row_scale_is_the_builtin_max(a1, a2, b):
    # scale() writes out max(1.0, |a1|, |a2|, |b|); is_feasible can see rows
    # that were never validated, so it must give the builtin's bits for any
    # floats, NaN and inf included.
    got = pl.ConstraintRow(a1, a2, b).scale()
    want = max(1.0, abs(a1), abs(a2), abs(b))
    assert struct.pack("<d", got) == struct.pack("<d", want)


@given(st.floats(min_value=0, max_value=1e-6), st.floats(min_value=0, max_value=1e-6))
def test_is_feasible_monotone_in_tol(eps, extra):
    lp = square_lp()
    x = pl.Vec2(1.0 + eps, 0.5)
    # enlarging the tolerance can only keep or gain feasibility
    if pl.is_feasible(lp, x, tol=1e-9):
        assert pl.is_feasible(lp, x, tol=1e-9 + extra)


def test_region_requires_three_vertices():
    with pytest.raises(ValueError):
        region_of_points([(0.0, 0.0), (1.0, 0.0)])


def test_region_rejects_duplicates():
    with pytest.raises(ValueError, match="vertices 1 and 2 coincide"):
        region_of_points([(0.0, 0.0), (1.0, 0.0), (1.0, 1e-9), (0.0, 1.0)])


def test_region_checks_finite_edges_first():
    # edge 2 overflows; edge 0 joins a coincident pair, which is checked later
    cycle = [(0.0, 0.0), (0.0, 0.0), (-1.5e308, 1.0), (1.5e308, 0.0)]
    with pytest.raises(NonFiniteEntry, match=r"non-finite coordinates \(inf, -1.0\)"):
        region_of_points(cycle)


def test_region_checks_coincidence_before_turns():
    # vertices 1 and 2 coincide, and the turn at vertex 3 is clockwise
    with pytest.raises(ValueError, match="vertices 1 and 2 coincide"):
        region_of_points([(0.0, 0.0), (0.0, 1.0), (0.0, 1.0), (1.0, 0.0)])


def test_region_rejects_doubly_wound_cycle():
    # a regular pentagram: pentagon corners taken in the order 0, 2, 4, 1, 3
    # turn left everywhere and never coincide, but wind round twice
    corners = [
        (math.cos(math.tau * k / 5), math.sin(math.tau * k / 5)) for k in range(5)
    ]
    with pytest.raises(ValueError, match="^vertex cycle winds 2 times, not once$"):
        region_of_points([corners[k] for k in (0, 2, 4, 1, 3)])


@pytest.mark.parametrize("scale", [1e300, 8e307])
def test_region_winding_at_large_scale(scale):
    # edge products overflow here, so exact rationals decide each turn
    corners = [
        (scale * math.cos(math.tau * k / 5), scale * math.sin(math.tau * k / 5))
        for k in range(5)
    ]
    with pytest.raises(ValueError, match="^vertex cycle winds 2 times, not once$"):
        region_of_points([corners[k] for k in (0, 2, 4, 1, 3)])
    assert len(region_of_points(corners)) == 5


def test_region_rejects_clockwise_order():
    # a clockwise triangle; a corner at (1/3, 1) that turns right by a
    # rounding error, as fl(1/3) < 1/3; an exactly straight corner; and a
    # clockwise cycle whose first cross product is inf - inf
    for cycle in (
        [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)],
        [(0.0, 0.0), (1.0 / 3.0, 1.0), (1.0, 3.0), (0.0, 3.0)],
        [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)],
        [(0.0, 0.0), (0.5e300, 1e300), (1e300, 1.2e300), (1e300, 0.0)],
    ):
        with pytest.raises(
            ValueError, match="^vertex cycle is not convex counterclockwise at index 1$"
        ):
            region_of_points(cycle)
    # one ulp further right, the corner turns left
    x = math.nextafter(1.0 / 3.0, 1.0)
    assert len(region_of_points([(0.0, 0.0), (x, 1.0), (1.0, 3.0), (0.0, 3.0)])) == 4


def test_region_cyclic_equality():
    a = region_of_points([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    b = region_of_points([(1.0, 1.0), (0.0, 1.0), (0.0, 0.0), (1.0, 0.0)])
    c = region_of_points([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 2.0)])
    d = region_of_points([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    assert same_cycle(a, b)
    assert same_cycle(b, a)
    assert not same_cycle(a, c)
    assert not same_cycle(a, d) and not same_cycle(d, a)  # 4 vertices against 3
    assert list(b) == list(b.vertices)


def test_region_index_of(ref_region):
    i = ref_region.index_of(pl.Vec2(80.0, 40.0))
    assert ref_region.vertices[i].active_rows == frozenset({0, 1})
    with pytest.raises(VertexNotInRegion):
        ref_region.index_of(pl.Vec2(50.0, 50.0))


def _index_by_vec2(region, p):
    # the Vec2 loop that index_of replaced, kept as its reference
    best, best_d = -1, math.inf
    for i, w in enumerate(region.vertices):
        d = (w.point - p).norm()
        if d < best_d:
            best, best_d = i, d
    if best_d > pl.MERGE_TOL:
        raise VertexNotInRegion("no match")
    return best


def _outcome(f, *args):
    try:
        return f(*args)
    except (NonFiniteEntry, VertexNotInRegion) as exc:
        return type(exc)


@settings(deadline=None, max_examples=200)
@given(
    corner=st.sampled_from([(0.0, 0.0), (1.5e-7, 0.0), (0.0, 1.0)]),
    exponent=st.sampled_from([0, 1, 300, 1023]),
    dx=st.sampled_from([0.0, 7.5e-8, -1e-7, 1e-7, 2e-7, math.nextafter(1e-7, 1.0), -1.5e308]),
    dy=st.sampled_from([0.0, 1e-8, 0.5, -1e308, 1.7e308, -1.7e308]),
    as_vertex=st.booleans(),
)
def test_region_index_of_equals_vec2_loop(corner, exponent, dx, dy, as_vertex):
    # the float loop gives what the Vec2 loop gave: the first vertex at the
    # least distance, NonFiniteEntry where a difference overflows, and
    # VertexNotInRegion past MERGE_TOL, also where hypot overflows
    f = 2.0**exponent
    region = region_of_points([(0.0, 0.0), (1.5e-7 * f, 0.0), (0.0, f)])
    x, y = corner[0] * f + dx, corner[1] * f + dy
    assume(math.isfinite(y))
    p = pl.Vec2(x, y)
    query = pl.Vertex(p) if as_vertex else p
    assert _outcome(region.index_of, query) == _outcome(_index_by_vec2, region, p)


def test_region_index_of_edge_cases():
    # vertices 0 and 1 lie 1.5e-7 apart, so their midpoint is 7.5e-8 from
    # both: the first wins
    region = region_of_points([(0.0, 0.0), (1.5e-7, 0.0), (0.0, 1.0)])
    assert region.index_of(pl.Vec2(7.5e-8, 0.0)) == 0
    assert region.index_of(pl.Vec2(1.5e-7 + pl.MERGE_TOL, 0.0)) == 1
    with pytest.raises(VertexNotInRegion):
        region.index_of(pl.Vec2(0.0, 1.0 + math.nextafter(pl.MERGE_TOL, 1.0)))
    # 1e308 - (-1e308) overflows
    far = region_of_points([(0.0, 0.0), (1e308, 0.0), (0.0, 1.0)])
    with pytest.raises(NonFiniteEntry):
        far.index_of(pl.Vec2(-1e308, 0.0))


def test_vertex_active_rows_coerced_to_frozenset():
    v = pl.Vertex(pl.Vec2(0.0, 0.0), {1, 2})
    assert isinstance(v.active_rows, frozenset)
