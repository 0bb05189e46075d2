import math

import pytest
from hypothesis import given, settings, strategies as st

import planarlp as pl
from planarlp.errors import (
    DegenerateRegion,
    Infeasible,
    Unbounded,
    UnboundedRegion,
    ZeroObjective,
)
from planarlp.solver import argmax_with_ties
from pairwise_enumeration import pairwise_enumerate_vertices
from conftest import (
    REF_OPTIMUM,
    REF_VERTICES,
    random_bounded_lp,
    rng_for,
    square_lp,
    triangle_lp,
)


def test_enumerate_reference_region(ref_lp):
    region = pl.enumerate_vertices(ref_lp)
    assert len(region) == 5
    for v, (ex, ey) in zip(region.vertices, REF_VERTICES):
        assert abs(v.point.x1 - ex) < 1e-9
        assert abs(v.point.x2 - ey) < 1e-9


def test_enumerate_active_rows(ref_region):
    by_point = {
        (round(v.point.x1), round(v.point.x2)): v.active_rows
        for v in ref_region.vertices
    }
    assert by_point[(0, 0)] == frozenset({pl.X1_NONNEG, pl.X2_NONNEG})
    assert by_point[(100, 0)] == frozenset({1, pl.X2_NONNEG})
    assert by_point[(80, 40)] == frozenset({0, 1})
    assert by_point[(60, 50)] == frozenset({0, 2})
    assert by_point[(0, 50)] == frozenset({pl.X1_NONNEG, 2})


def test_enumerate_is_ccw(ref_region):
    vs = ref_region.points()
    n = len(vs)
    for i in range(n):
        e1 = vs[(i + 1) % n] - vs[i]
        e2 = vs[(i + 2) % n] - vs[(i + 1) % n]
        assert pl.cross(e1, e2) > 0.0


def test_enumerate_unit_triangle():
    region = pl.enumerate_vertices(triangle_lp())
    assert region.same_polygon(
        pl.FeasibleRegion(
            (
                pl.Vertex(pl.Vec2(0.0, 0.0)),
                pl.Vertex(pl.Vec2(1.0, 0.0)),
                pl.Vertex(pl.Vec2(0.0, 1.0)),
            )
        )
    )


def test_enumerate_infeasible():
    lp = pl.LinearProgram2D(pl.Vec2(1.0, 0.0), (pl.ConstraintRow(1.0, 1.0, -1.0),))
    with pytest.raises(Infeasible):
        pl.enumerate_vertices(lp)


def test_enumerate_unbounded_region():
    lp = pl.LinearProgram2D(pl.Vec2(1.0, 0.0), (pl.ConstraintRow(0.0, 1.0, 1.0),))
    with pytest.raises(UnboundedRegion):
        pl.enumerate_vertices(lp)


def test_enumerate_infeasible_before_unbounded():
    # x2 <= -1 alone: the recession cone holds (1, 0), but no point is
    # feasible, and emptiness is reported first
    lp = pl.LinearProgram2D(pl.Vec2(1.0, 0.0), (pl.ConstraintRow(0.0, 1.0, -1.0),))
    assert pl.check_recession(lp) is pl.Recession.UNBOUNDED
    with pytest.raises(Infeasible):
        pl.enumerate_vertices(lp)


def test_enumerate_nearly_parallel_rows():
    # 4 x1 + 5 x2 <= -4 admits no x >= 0.  The next two rows are almost the
    # same line, so they cross far from the corner the first of them makes;
    # the sweep must not let that crossing push the first row out.
    lp = pl.LinearProgram2D(
        pl.Vec2(1.0, 1.0),
        (
            pl.ConstraintRow(4.0, 5.0, -4.0),
            pl.ConstraintRow(3.0, 5.0, 3.0),
            pl.ConstraintRow(2.99999999997861, 5.000000000064201, 2.999999999957425),
            pl.ConstraintRow(-1.0, 1.0, 2.0),
        ),
    )
    with pytest.raises(Infeasible):
        pl.enumerate_vertices(lp)


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_enumerate_rejects_bad_tolerance(ref_lp, tol):
    with pytest.raises(ValueError):
        pl.enumerate_vertices(ref_lp, tol=tol)


def test_enumerate_degenerate_region():
    # x1 <= 0 and x2 <= 0 leave only the origin
    lp = pl.LinearProgram2D(
        pl.Vec2(1.0, 1.0),
        (pl.ConstraintRow(1.0, 0.0, 0.0), pl.ConstraintRow(0.0, 1.0, 0.0)),
    )
    with pytest.raises(DegenerateRegion):
        pl.enumerate_vertices(lp)


def test_check_recession():
    assert pl.check_recession(square_lp()) is pl.Recession.BOUNDED
    lp = pl.LinearProgram2D(pl.Vec2(1.0, 0.0), (pl.ConstraintRow(0.0, 1.0, 1.0),))
    assert pl.check_recession(lp) is pl.Recession.UNBOUNDED
    # diagonal cap leaves no recession direction in the quarter
    assert pl.check_recession(triangle_lp()) is pl.Recession.BOUNDED


def test_solve_enumeration_reference(ref_lp):
    sol = pl.solve_enumeration(ref_lp)
    assert abs(sol.vertex.point.x1 - REF_OPTIMUM[0]) < 1e-9
    assert abs(sol.vertex.point.x2 - REF_OPTIMUM[1]) < 1e-9
    assert abs(sol.value - 280.0) < 1e-9 * 280.0
    assert sol.unique


def test_solve_enumeration_tie(ref_lp):
    lp = pl.LinearProgram2D(pl.Vec2(2.0, 1.0), ref_lp.constraints)
    sol = pl.solve_enumeration(lp)
    assert not sol.unique
    assert abs(sol.value - 200.0) < 1e-9 * 200.0


def test_argmax_with_ties():
    # first strict maximum; the threshold is relative above |max| = 1
    assert argmax_with_ties([1.0, 3e9, 3e9 - 2.0, 3e9 - 4.0]) == (1, [2])
    assert argmax_with_ties([0.5, 0.5 - 5e-10, 0.5 - 2e-9]) == (0, [1])
    assert argmax_with_ties([2.0, 2.0]) == (0, [1])
    # a NaN gap proves no margin, so it counts as a tie
    assert argmax_with_ties([math.inf, math.inf]) == (0, [1])


def test_solve_enumeration_triangle():
    sol = pl.solve_enumeration(triangle_lp(pl.Vec2(1.0, 0.0)))
    assert abs(sol.vertex.point.x1 - 1.0) < 1e-9
    assert abs(sol.value - 1.0) < 1e-12


def test_solve_zero_objective():
    with pytest.raises(ZeroObjective):
        pl.solve_enumeration(square_lp(pl.Vec2(0.0, 0.0)))
    with pytest.raises(ZeroObjective):
        pl.solve_simplex(square_lp(pl.Vec2(0.0, 0.0)))


def test_solve_simplex_reference(ref_lp):
    sol = pl.solve_simplex(ref_lp)
    assert abs(sol.vertex.point.x1 - 80.0) < 1e-6
    assert abs(sol.vertex.point.x2 - 40.0) < 1e-6
    assert abs(sol.value - 280.0) < 1e-9 * 280.0
    assert sol.unique


def test_solve_simplex_tie_flag(ref_lp):
    lp = pl.LinearProgram2D(pl.Vec2(2.0, 1.0), ref_lp.constraints)
    sol = pl.solve_simplex(lp)
    assert not sol.unique
    assert abs(sol.value - 200.0) < 1e-9 * 200.0


def test_solve_simplex_unbounded():
    lp = pl.LinearProgram2D(pl.Vec2(1.0, 0.0), (pl.ConstraintRow(0.0, 1.0, 1.0),))
    with pytest.raises(Unbounded):
        pl.solve_simplex(lp)


def test_solve_simplex_bounded_objective_on_unbounded_region():
    # region unbounded upward, objective looks only at x1
    lp = pl.LinearProgram2D(
        pl.Vec2(1.0, 0.0),
        (pl.ConstraintRow(1.0, 0.0, 2.0), pl.ConstraintRow(-1.0, 1.0, 100.0)),
    )
    sol = pl.solve_simplex(lp)
    assert abs(sol.value - 2.0) < 1e-9


def test_solve_simplex_phase_one():
    # b < 0 forces artificial variables: x1 + x2 >= 1 as -x1 - x2 <= -1
    lp = pl.LinearProgram2D(
        pl.Vec2(1.0, 1.0),
        (
            pl.ConstraintRow(-1.0, -1.0, -1.0),
            pl.ConstraintRow(1.0, 0.0, 2.0),
            pl.ConstraintRow(0.0, 1.0, 2.0),
        ),
    )
    sol = pl.solve_simplex(lp)
    assert abs(sol.value - 4.0) < 1e-9
    assert abs(sol.vertex.point.x1 - 2.0) < 1e-6
    assert abs(sol.vertex.point.x2 - 2.0) < 1e-6


def test_solve_simplex_phase_one_infeasible():
    lp = pl.LinearProgram2D(
        pl.Vec2(1.0, 0.0),
        (pl.ConstraintRow(1.0, 1.0, 1.0), pl.ConstraintRow(-1.0, -1.0, -2.0)),
    )
    with pytest.raises(Infeasible):
        pl.solve_simplex(lp)


def test_solvers_agree_on_random_batch():
    rng = rng_for(1234)
    for _ in range(200):
        lp = random_bounded_lp(rng)
        s1 = pl.solve_enumeration(lp)
        s2 = pl.solve_simplex(lp)
        assert pl.is_feasible(lp, s1.vertex.point, tol=1e-9)
        assert pl.is_feasible(lp, s2.vertex.point, tol=1e-9)
        if s1.unique and s2.unique:
            assert abs(s1.value - s2.value) <= 1e-9 * max(1.0, abs(s1.value))
            assert abs(s1.vertex.point.x1 - s2.vertex.point.x1) <= 1e-6
            assert abs(s1.vertex.point.x2 - s2.vertex.point.x2) <= 1e-6


def test_adjacent_vertices_reference(ref_region):
    x0 = ref_region.vertices[ref_region.index_of(pl.Vec2(80.0, 40.0))]
    pred, succ = pl.adjacent_vertices(ref_region, x0)
    assert abs(pred.point.x1 - 100.0) < 1e-9 and abs(pred.point.x2) < 1e-9
    assert abs(succ.point.x1 - 60.0) < 1e-9 and abs(succ.point.x2 - 50.0) < 1e-9


def test_adjacent_vertices_wraps(ref_region):
    first = ref_region.vertices[0]
    pred, succ = pl.adjacent_vertices(ref_region, first)
    assert pred == ref_region.vertices[-1]
    assert succ == ref_region.vertices[1]


def _same_outcome(lp):
    """enumerate_vertices agrees with the pairwise reference: the same
    exception class, or the same cycle with the same active rows."""
    outcomes = []
    for build in (pl.enumerate_vertices, pairwise_enumerate_vertices):
        try:
            outcomes.append(build(lp))
        except pl.errors.PlanarLPError as exc:
            outcomes.append(type(exc))
    new, ref = outcomes
    if isinstance(new, type) or isinstance(ref, type):
        assert new == ref
        return
    assert new.same_polygon(ref, pl.MERGE_TOL)
    for v in new.vertices:
        assert v.active_rows == ref.vertices[ref.index_of(v)].active_rows


small_int = st.integers(min_value=-10, max_value=10).map(float)
small_row = st.builds(pl.ConstraintRow, small_int, small_int, small_int)


@settings(max_examples=400, deadline=None)
@given(st.lists(small_row, min_size=1, max_size=6))
def test_enumerate_matches_pairwise_reference(rows):
    # Small integers make duplicate and parallel rows, three rows through
    # one point, empty, point and segment regions common.
    _same_outcome(pl.LinearProgram2D(pl.Vec2(1.0, 1.0), tuple(rows)))


def test_enumerate_matches_pairwise_reference_on_random_lps():
    rng = rng_for(2718)
    for _ in range(200):
        _same_outcome(random_bounded_lp(rng))
