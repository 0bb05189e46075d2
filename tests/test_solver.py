import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import planarlp as pl
from planarlp.errors import (
    DegenerateRegion,
    Infeasible,
    Unbounded,
    UnboundedRegion,
    ZeroObjective,
    ZeroRow,
)
from planarlp import cli
from planarlp.solver import argmax_with_ties
from pairwise_enumeration import candidate_recession, pairwise_enumerate_vertices
from conftest import (
    FIXTURES,
    REF_OPTIMUM,
    REF_VERTICES,
    random_bounded_lp,
    region_of_points,
    rng_for,
    same_cycle,
    square_lp,
    tangent_circle_lp,
    triangle_lp,
)


@pytest.mark.parametrize("c", [1e307, 1.5e308])
def test_solve_enumeration_large_objective(ref_lp, c):
    # c . x overflows, but the direction (1, 1) has the unique optimum (80, 40)
    lp = pl.LinearProgram2D(pl.Vec2(c, c), ref_lp.constraints)
    sol = pl.solve_enumeration(lp)
    assert sol.unique
    assert sol.vertex.point.x1 == pytest.approx(80.0)
    assert sol.vertex.point.x2 == pytest.approx(40.0)
    assert sol.value == math.inf


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
    assert same_cycle(region, region_of_points([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]))


def test_enumerate_merges_close_corners():
    # x1 <= 1, x2 <= 1 and x1 + x2 <= b, b just below 2, cross in two corners
    # 1.4e-9 apart, (1, b - 1) and (b - 1, 1).  They merge into one vertex
    # at their mean, tight for all three rows.
    b = 2.0 - 1e-9
    rows = (
        pl.ConstraintRow(1.0, 0.0, 1.0),
        pl.ConstraintRow(0.0, 1.0, 1.0),
        pl.ConstraintRow(1.0, 1.0, b),
    )
    region = pl.enumerate_vertices(pl.LinearProgram2D(pl.Vec2(1.0, 1.0), rows))
    mean = (1.0 + (b - 1.0)) / 2
    assert mean not in (1.0, b - 1.0)
    merged = [v for v in region.vertices if v.active_rows == {0, 1, 2}]
    assert len(region) == 4 and len(merged) == 1
    assert merged[0].point == pl.Vec2(mean, mean)


def test_enumerate_zero_coordinates_are_positive():
    # The crossing of -x1 <= 0 and -x2 <= 0 has a -0.0 coordinate; a vertex
    # has +0.0 there, as the mean of its corners gives.
    region = pl.enumerate_vertices(triangle_lp())
    (origin,) = [
        v.point
        for v in region.vertices
        if v.active_rows == {pl.X1_NONNEG, pl.X2_NONNEG}
    ]
    assert math.copysign(1.0, origin.x1) == 1.0
    assert math.copysign(1.0, origin.x2) == 1.0


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


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_enumerate_sliver_makes_no_polygon(tol):
    # A sliver ~1e-9 wide and ~5.4e9 tall: the merged corners turn right at
    # vertex 1, so the builder refuses them rather than return a region.
    lp = pl.LinearProgram2D(
        pl.Vec2(1.0, 1.0),
        (
            pl.ConstraintRow(0.0, 0.10352011439222264, 562341325.1903491),
            pl.ConstraintRow(0.0, -1.0, 0.0),
            pl.ConstraintRow(1.0, 0.0, 0.0),
            pl.ConstraintRow(1.0, 0.0, 0.0),
            pl.ConstraintRow(0.1171875, 0.0, -1e-10),
        ),
    )
    with pytest.raises(
        DegenerateRegion,
        match=r"^the corners make no convex polygon: vertex cycle is not convex "
        r"counterclockwise at index 1$",
    ):
        pl.enumerate_vertices(lp, tol=tol)


def test_enumerate_overflowing_corner():
    # The two rows cross at x2 ~ 1e451, beyond the float range: the corner
    # is refused as any point with an infinite coordinate is.
    lp = pl.LinearProgram2D(
        pl.Vec2(1.0, 1.0),
        (
            pl.ConstraintRow(
                -3.7212721426252894e-178, 5.116135936153807e-178, 1.4843609689414512e273
            ),
            pl.ConstraintRow(
                2.1973025195661484e154, -6.288076535025183e154, 5.9829183832128654e-120
            ),
        ),
    )
    with pytest.raises(pl.errors.NonFiniteEntry, match=r"non-finite coordinates \(0.0, inf\)"):
        pl.enumerate_vertices(lp)


def test_enumerate_crossing_beyond_the_float_range():
    # x2 <= 1e300 and x2 <= 2e-12 x1 - 1e300 turn by more than _DET_TOL, so
    # the sweep crosses them, at x1 = 1e312: the crossing itself is refused
    lp = pl.LinearProgram2D(
        pl.Vec2(1.0, 1.0),
        (pl.ConstraintRow(0.0, 1.0, 1e300), pl.ConstraintRow(-2e-12, 1.0, -1e300)),
    )
    with pytest.raises(pl.errors.NonFiniteEntry, match=r"non-finite coordinates \(inf, 1e\+300\)"):
        pl.enumerate_vertices(lp)


def test_enumerate_open_chain_ends_at_a_facing_row():
    # The normals of row 0 and of x2 >= 0 are a half turn apart but for
    # 1e-13, within _DET_TOL: the sweep drops row 1 and x1 >= 0, and then
    # x2 >= 0 faces row 0, which ends the open chain.  Their gap, pi - 1e-13,
    # counts as a recession direction.
    lp = pl.LinearProgram2D(
        pl.Vec2(1.0, 1.0),
        (pl.ConstraintRow(1e-13, 1.0000000000001, 1.0), pl.ConstraintRow(-1e-13, 1e-13, -1.0)),
    )
    assert pl.check_recession(lp) is pl.Recession.UNBOUNDED
    with pytest.raises(UnboundedRegion):
        pl.enumerate_vertices(lp)


def test_enumerate_closing_drops_the_first_row():
    # Row 1, x1 <= x2 with coefficients 1e-13, tolerates x1 - x2 up to 1e4
    # (a row's scale is at least 1), so it keeps the first corner, (11, 4),
    # where the redundant row 2 meets row 0.  Closing the cycle drops row 2
    # from the front, as row 1 meets it at (4, 4), 7 units past that corner.
    lp = pl.LinearProgram2D(
        pl.Vec2(1.0, 1.0),
        (
            pl.ConstraintRow(-1.0, 3.0, 1.0),
            pl.ConstraintRow(1e-13, -1e-13, 0.0),
            pl.ConstraintRow(-1e-13, 0.5, 2.0),
        ),
    )
    region = pl.enumerate_vertices(lp)
    expected = region_of_points([(0.0, 0.0), (0.5, 0.5), (0.0, 1.0 / 3.0)])
    assert same_cycle(region, expected, tol=1e-15)
    assert [v.active_rows for v in region] == [{1, -1, -2}, {0, 1}, {0, 1, -1}]


def test_enumerate_merge_measures_past_hypot_overflow():
    # The corners (1.3e308, 2e307) and (0, 1.5e308) are farther apart than
    # the largest float, so hypot overflows and the merge measures them again
    # from their checked difference: they stay two vertices.
    lp = pl.LinearProgram2D(
        pl.Vec2(1.0, 1.0),
        (pl.ConstraintRow(1.0, 0.0, 1.3e308), pl.ConstraintRow(1.0, 1.0, 1.5e308)),
    )
    region = pl.enumerate_vertices(lp)
    assert [(p.x1, p.x2) for p in region.points()] == [
        (0.0, 0.0),
        (1.3e308, 0.0),
        (1.3e308, 1.5e308 - 1.3e308),
        (0.0, 1.5e308),
    ]


extreme = st.builds(
    lambda m, e: m * 10.0**e,
    st.one_of(st.floats(-1.0, 1.0), st.integers(-3, 3).map(float)),
    st.floats(-300.0, 300.0),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.builds(pl.ConstraintRow, extreme, extreme, extreme), min_size=1, max_size=6),
    st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]),
)
def test_enumerate_extreme_scales_fail_cleanly(rows, tol):
    # Products of coefficients near 1e+-300 overflow and underflow; every
    # outcome must still be a region or one of the package's errors.
    lp = pl.LinearProgram2D(pl.Vec2(1.0, 1.0), tuple(rows))
    try:
        region = pl.enumerate_vertices(lp, tol=tol)
    except pl.errors.PlanarLPError:
        return
    assert isinstance(region, pl.FeasibleRegion)


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


_ENTRY_POINTS = {
    "solve_enumeration": lambda lp, tol, path: pl.solve_enumeration(lp, tol=tol),
    "solve_simplex": lambda lp, tol, path: pl.solve_simplex(lp, tol=tol),
    "analyze": lambda lp, tol, path: pl.analyze(lp, tol=tol),
    "cli.run_solve": lambda lp, tol, path: cli.run_solve(path, tol),
    "cli.run_sensitivity": lambda lp, tol, path: cli.run_sensitivity(path, tol=tol),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize(
    "c, row, tol, error",
    [
        # a structural error first, then the objective, then tol
        ((0.0, 0.0), (0.0, 0.0, 1.0), 1e-9, ZeroRow),
        ((0.0, 0.0), (0.0, 0.0, 1.0), -1.0, ZeroRow),
        ((0.0, 0.0), (1.0, 1.0, 1.0), math.nan, ZeroObjective),
        ((1.0, 1.0), (1.0, 1.0, 1.0), -1.0, ValueError),
        ((1.0, 1.0), (1.0, 1.0, 1.0), math.nan, ValueError),
        ((1.0, 1.0), (1.0, 1.0, 1.0), math.inf, ValueError),
    ],
)
def test_entry_points_check_arguments_in_one_order(entry, c, row, tol, error, tmp_path):
    lp = pl.LinearProgram2D(pl.Vec2(*c), (pl.ConstraintRow(*row),))
    path = tmp_path / "lp.lp"
    path.write_text(pl.serialize_lp(lp))
    with pytest.raises(error):
        _ENTRY_POINTS[entry](lp, tol, str(path))


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
    # b < 0 leaves the origin infeasible, so phase one runs: x1 + x2 >= 1
    # as -x1 - x2 <= -1
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


def test_solve_simplex_duplicate_negative_rows():
    # x2 >= 1 twice and x1 + x2 <= 1 leave only (0, 1), where four
    # constraints are tight, two of them the same row.
    row = pl.ConstraintRow(0.0, -3.0, -3.0)
    lp = pl.LinearProgram2D(
        pl.Vec2(-2.0, -1.0), (pl.ConstraintRow(2.0, 2.0, 2.0), row, row)
    )
    sol = pl.solve_simplex(lp)
    assert (sol.vertex.point.x1, sol.vertex.point.x2) == (0.0, 1.0)
    assert sol.value == -1.0 and sol.unique
    assert sol.vertex.active_rows == frozenset({0, 1, 2, pl.X1_NONNEG})


@pytest.mark.parametrize(
    "c, extra",
    [
        # x1 + x2 <= 120 passes through the optimum (80, 40) of paper.lp
        ((2.0, 3.0), (1.0, 1.0, 120.0)),
        # x1 <= x2, or x2 <= 2 x1, is tight at the start (0, 0) with both
        # bounds, so the first pivot is degenerate
        ((1.0, 1.0), (1.0, -1.0, 0.0)),
        ((1.0, 1.0), (-2.0, 1.0, 0.0)),
    ],
)
def test_solve_simplex_degenerate_vertex(ref_lp, c, extra):
    lp = pl.LinearProgram2D(
        pl.Vec2(*c), ref_lp.constraints + (pl.ConstraintRow(*extra),)
    )
    sol = pl.solve_simplex(lp)
    ref = pl.solve_enumeration(lp)
    assert sol.unique and ref.unique
    assert (sol.vertex.point - ref.vertex.point).norm() <= 1e-9
    assert sol.vertex.active_rows == ref.vertex.active_rows


def test_solve_simplex_star_of_tight_rows():
    # ten rows through (0, 0), x2 <= (2 + k) x1 and x1 <= (2 + k) x2, and a
    # cap: the simplex starts at (0, 0) with twelve tight constraints
    rows = [pl.ConstraintRow(-2.0 - k, 1.0, 0.0) for k in range(5)]
    rows += [pl.ConstraintRow(1.0, -2.0 - k, 0.0) for k in range(5)]
    rows.append(pl.ConstraintRow(1.0, 1.0, 10.0))
    lp = pl.LinearProgram2D(pl.Vec2(1.0, 2.0), tuple(rows))
    sol = pl.solve_simplex(lp)
    ref = pl.solve_enumeration(lp)
    assert (sol.vertex.point - ref.vertex.point).norm() <= 1e-9
    assert sol.unique and sol.vertex.active_rows == ref.vertex.active_rows


def test_solve_simplex_infeasible_before_unbounded():
    # x2 <= -1 admits no x >= 0, while x1 alone could grow without bound
    lp = pl.LinearProgram2D(pl.Vec2(1.0, 0.0), (pl.ConstraintRow(0.0, 1.0, -1.0),))
    with pytest.raises(Infeasible):
        pl.solve_simplex(lp)


@pytest.mark.parametrize(
    "c, row",
    [
        # every point with x1 = 3 and x2 >= 0 is optimal
        ((1.0, 0.0), (1.0, 0.0, 3.0)),
        # c is the row's normal: the whole boundary ray from (0, 5/3) is
        ((-2.0, 3.0), (-4.0, 6.0, 10.0)),
    ],
)
def test_solve_simplex_ray_of_optima_is_not_unique(c, row):
    lp = pl.LinearProgram2D(pl.Vec2(*c), (pl.ConstraintRow(*row),))
    assert not pl.solve_simplex(lp).unique
    with pytest.raises(UnboundedRegion):
        pl.solve_enumeration(lp)


def test_solve_simplex_ray_of_worse_points_stays_unique():
    # up the line x1 = 3 the value falls, by 1e-8 per unit
    lp = pl.LinearProgram2D(pl.Vec2(1.0, -1e-8), (pl.ConstraintRow(1.0, 0.0, 3.0),))
    sol = pl.solve_simplex(lp)
    assert sol.unique and sol.vertex.point == pl.Vec2(3.0, 0.0)


def test_solve_simplex_zero_coordinates_are_positive():
    lp = pl.LinearProgram2D(pl.Vec2(1.0, 0.0), (pl.ConstraintRow(1.0, 0.0, 3.0),))
    p = pl.solve_simplex(lp).vertex.point
    assert p == pl.Vec2(3.0, 0.0)
    assert math.copysign(1.0, p.x2) == 1.0


@pytest.mark.parametrize(
    "rows",
    [
        # one large b must not hide the violated x1 + x2 <= -1
        [(1.0, 1.0, -1.0), (1.0, 0.0, 1e12), (0.0, 1.0, 1e12)],
        # nor a huge unit b, 1 / 2.28e-172, the violated x2 <= -1
        [(0.0, 1.0, -1.0), (0.0, 2.28e-172, 1.0)],
    ],
)
def test_solve_simplex_violated_row_beside_a_large_b(rows):
    lp = pl.LinearProgram2D(pl.Vec2(1.0, 1.0), tuple(pl.ConstraintRow(*r) for r in rows))
    with pytest.raises(Infeasible):
        pl.solve_simplex(lp)
    with pytest.raises(Infeasible):
        pl.solve_enumeration(lp)


@pytest.mark.parametrize("m", [1500, 2500])
def test_solve_simplex_many_rows(m):
    # The pivot count grows with m: phase one takes about 0.13 m pivots here
    # (313 at 2500) and phase two m / 2, so a fixed cap of 1000 pivots per
    # phase would stop a bounded LP at 2500.
    lp = tangent_circle_lp(rng_for(1), m)
    sol = pl.solve_simplex(lp)
    ref = pl.solve_enumeration(lp)
    assert sol.unique and ref.unique
    assert (sol.vertex.point - ref.vertex.point).norm() <= 1e-9 * ref.vertex.point.norm()
    assert sol.vertex.active_rows == ref.vertex.active_rows


def _scaled(lp, which, s):
    """lp with c (which == "c"), b (which == "b") or row which times s."""
    rows = list(lp.constraints)
    if which == "c":
        return pl.LinearProgram2D(lp.objective.scaled(s), rows)
    if which == "b":
        rows = [pl.ConstraintRow(r.a1, r.a2, s * r.b) for r in rows]
    else:
        r = rows[which]
        rows[which] = pl.ConstraintRow(s * r.a1, s * r.a2, s * r.b)
    return pl.LinearProgram2D(lp.objective, rows)


def test_solve_simplex_tiny_row(ref_lp):
    # a pivot tolerance blind to tiny entries returned (75, 50), which
    # violates row 0: 0.25 * 75 + 0.5 * 50 = 43.75 > 40
    sol = pl.solve_simplex(_scaled(ref_lp, 0, 1e-12))
    assert sol.vertex.point.x1 == pytest.approx(80.0, rel=1e-12)
    assert sol.vertex.point.x2 == pytest.approx(40.0, rel=1e-12)
    assert sol.unique


def test_solve_simplex_tiny_objective(ref_lp):
    # absolute reduced-cost tolerances stopped at (0, 0) with unique=False
    sol = pl.solve_simplex(_scaled(ref_lp, "c", 1e-12))
    assert sol.vertex.point.x1 == pytest.approx(80.0, rel=1e-12)
    assert sol.vertex.point.x2 == pytest.approx(40.0, rel=1e-12)
    assert sol.unique


@pytest.mark.parametrize("s", [1e-200, 1e200])
def test_solve_simplex_extreme_row_scale(ref_lp, s):
    # every row times s: products of raw coefficients would underflow or
    # overflow in the 2 x 2 solves
    lp = ref_lp
    for i in range(len(lp.constraints)):
        lp = _scaled(lp, i, s)
    sol = pl.solve_simplex(lp)
    assert sol.vertex.point.x1 == pytest.approx(80.0, rel=1e-12)
    assert sol.vertex.point.x2 == pytest.approx(40.0, rel=1e-12)
    assert sol.unique


def _phase_one_lp():
    return pl.LinearProgram2D(
        pl.Vec2(1.0, 1.0),
        (
            pl.ConstraintRow(-1.0, -1.0, -1.0),
            pl.ConstraintRow(1.0, 0.0, 2.0),
            pl.ConstraintRow(0.0, 1.0, 2.0),
        ),
    )


@settings(max_examples=300, deadline=None)
@given(
    base=st.sampled_from(["paper", "tie", "phase one", "random"]),
    seed=st.integers(0, 10**6),
    which=st.one_of(st.sampled_from(["c", "b"]), st.integers(0, 20)),
    exponent=st.one_of(st.sampled_from([-9.0, 9.0]), st.floats(-9.0, 9.0)),
)
# b times 1e-9 puts the tied vertices 4.5e-8 apart, within an absolute 1e-7
@example(base="tie", seed=0, which="b", exponent=-9.0)
def test_solve_simplex_scale_invariance(base, seed, which, exponent):
    # Scaling c or one row by s > 0 leaves the optimum; scaling b scales it.
    # active_rows is left out: active_rows_at tests each row against
    # tol * ConstraintRow.scale(), which floors at 1, so it is not invariant.
    lp = {
        "paper": lambda: pl.load_lp(FIXTURES / "paper.lp"),
        "tie": lambda: pl.LinearProgram2D(
            pl.Vec2(2.0, 1.0), pl.load_lp(FIXTURES / "paper.lp").constraints
        ),
        "phase one": _phase_one_lp,
        "random": lambda: random_bounded_lp(rng_for(seed)),
    }[base]()
    s = 10.0**exponent
    target = which if isinstance(which, str) else which % len(lp.constraints)
    sol = pl.solve_simplex(lp)
    got = pl.solve_simplex(_scaled(lp, target, s))
    want = sol.vertex.point.scaled(s) if target == "b" else sol.vertex.point
    assert (got.vertex.point - want).norm() <= 1e-9 * want.norm()
    assert got.unique == sol.unique


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
    vs = ref_region.vertices
    i = ref_region.index_of(pl.Vec2(80.0, 40.0))
    pred, succ = vs[i - 1], vs[(i + 1) % len(vs)]
    assert abs(pred.point.x1 - 100.0) < 1e-9 and abs(pred.point.x2) < 1e-9
    assert abs(succ.point.x1 - 60.0) < 1e-9 and abs(succ.point.x2 - 50.0) < 1e-9


def test_adjacent_vertices_wraps(ref_lp, ref_region):
    # the optimum of -x1 - x2 is the cycle's first vertex, (0, 0): analyze
    # takes its neighbours across the end of the cycle
    rep = pl.analyze(pl.LinearProgram2D(pl.Vec2(-1.0, -1.0), ref_lp.constraints))
    assert rep.optimal_vertex == ref_region.vertices[0]
    assert rep.pred == ref_region.vertices[-1]
    assert rep.succ == ref_region.vertices[1]


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
    assert same_cycle(new, ref)
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


def _recession_outcomes(rows):
    """check_recession and the candidate search of the reference on rows:
    each a Recession, or the class of the exception it raised."""
    lp = pl.LinearProgram2D(pl.Vec2(1.0, 1.0), tuple(rows))
    outcomes = []
    for test in (pl.check_recession, candidate_recession):
        try:
            outcomes.append(test(lp))
        except pl.errors.PlanarLPError as exc:
            outcomes.append(type(exc))
    return outcomes


real = st.floats(-10.0, 10.0)
real_row = st.builds(pl.ConstraintRow, real, real, st.floats(-5.0, 100.0))


@settings(max_examples=400, deadline=None)
@given(
    st.lists(small_row, min_size=1, max_size=6)
    | st.lists(real_row, min_size=1, max_size=6)
)
def test_check_recession_matches_candidate_search(rows):
    new, ref = _recession_outcomes(rows)
    assert new == ref


def _solve_outcome(solve, lp):
    try:
        return solve(lp)
    except pl.errors.PlanarLPError as exc:
        return type(exc)


# Floats in [-10, 10] with five decimals.  Nothing smaller than 1e-5: the
# enumeration's tolerance is absolute below 1, tol * max(1, |a1|, |a2|, |b|),
# and the simplex's is relative, so on rows of tiny magnitude the two may
# decide feasibility differently by design.
decimal = st.integers(-(10**6), 10**6).map(lambda k: k / 1e5)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(small_row, min_size=1, max_size=6)
    | st.lists(st.builds(pl.ConstraintRow, decimal, decimal, decimal), min_size=1, max_size=6),
    st.builds(pl.Vec2, small_int, small_int) | st.builds(pl.Vec2, decimal, decimal),
)
def test_simplex_matches_enumeration_with_negative_b(rows, c):
    # Unlike test_solvers_agree_on_random_batch, which draws b >= 1, b may be
    # negative here, so the simplex often starts with phase one.
    assume(not c.is_zero())
    lp = pl.LinearProgram2D(c, tuple(rows))
    enum = _solve_outcome(pl.solve_enumeration, lp)
    simplex = _solve_outcome(pl.solve_simplex, lp)
    if enum is Infeasible:
        assert simplex is Infeasible
    elif enum is UnboundedRegion or isinstance(enum, pl.Solution):
        assert simplex is not Infeasible
    if isinstance(enum, pl.Solution) and isinstance(simplex, pl.Solution):
        if enum.unique and simplex.unique:
            want = enum.vertex.point
            assert (simplex.vertex.point - want).norm() <= 1e-9 * want.norm()


def _tilted(delta):
    # x1 cos(delta) + x2 sin(delta) <= 1 leaves a gap of pi - delta between
    # its normal and the one of x1 >= 0; delta stays clear of the ~1e-15
    # rounding band around _RECESSION_TOL
    return [pl.ConstraintRow(math.cos(delta), math.sin(delta), 1.0)]


def _paper_scaled(s):
    rows = pl.load_lp(FIXTURES / "paper.lp").constraints
    return [pl.ConstraintRow(r.a1 * s, r.a2 * s, r.b * s) for r in rows]


@pytest.mark.parametrize(
    "rows, expected",
    [
        # x1 - x2 <= 1 and -x1 + x2 <= 1: a strip along (1, 1)
        (
            [pl.ConstraintRow(1.0, -1.0, 1.0), pl.ConstraintRow(-1.0, 1.0, 1.0)],
            pl.Recession.UNBOUNDED,
        ),
        (_tilted(0.5e-12), pl.Recession.UNBOUNDED),
        (_tilted(1.5e-12), pl.Recession.BOUNDED),
        (_tilted(1e-9), pl.Recession.BOUNDED),
        ([pl.ConstraintRow(0.0, 1.0, -1.0)], pl.Recession.UNBOUNDED),
        (_paper_scaled(1e-200), pl.Recession.BOUNDED),
        (_paper_scaled(1e200), pl.Recession.BOUNDED),
    ],
    ids=[
        "strip",
        "tilt-0.5e-12",
        "tilt-1.5e-12",
        "tilt-1e-9",
        "x2<=-1",
        "paper-1e-200",
        "paper-1e200",
    ],
)
def test_check_recession_edge_cases(rows, expected):
    assert _recession_outcomes(rows) == [expected, expected]
