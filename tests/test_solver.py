import math
import random
from fractions import Fraction

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
from planarlp import cli, oracle, solver
from planarlp.sensitivity import _normal_angle
from planarlp.solver import _RECESSION_TOL, argmax_with_ties
from exact_reference import exact_bounded, exact_optimum, exact_region, near
from region_digest import (
    _concurrent_lp,
    _extreme_lp,
    _family,
    _integer_lp,
    _mixed_lp,
    exact_outcome,
    exact_verdict,
    random_lps,
)
from conftest import (
    FIXTURES,
    REF_OPTIMUM,
    REF_VERTICES,
    circ_close,
    random_bounded_lp,
    region_of_points,
    rng_for,
    same_cycle,
    square_lp,
    tangent_circle_lp,
    tangent_pool,
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


@pytest.mark.parametrize("m", [3, 4, 8, 16, 64, 256])
def test_enumerate_starts_the_cycle_at_the_least_normal_angle(m):
    # The cycle runs in the normal fan's order: the edge from vertex 0 to
    # vertex 1 lies along the row of least normal angle, so the sweep
    # oracle's fan, which starts at the least edge normal, starts at vertex 0.
    for seed in (1, 2, 3):
        for t in tangent_pool(seed, m, 16):
            try:
                edges = solver._polygon(solver._sorted_normals(t.lp, pl.FEAS_TOL))[3]
            except UnboundedRegion:  # some of the three-row LPs
                continue
            assert edges[1][0] == min(e[0] for e in edges)
            vx, vy, _ = oracle._coords(pl.enumerate_vertices(t.lp))
            n = len(vx)
            normals = [
                _normal_angle(vx[k + 1 - n] - vx[k], vy[k + 1 - n] - vy[k]) for k in range(n)
            ]
            assert normals.index(min(normals)) == 0  # oracle._walk's k0


def _assert_active_rows_at(lp, region, tol):
    """Every vertex of region carries exactly the rows within tol * scale of
    it, as active_rows_at finds them."""
    for v in region.vertices:
        assert v.active_rows == solver.active_rows_at(lp, v.point, tol)


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
@pytest.mark.parametrize("m", [16, 64, 256])
def test_enumerate_active_rows_are_active_rows_at(m, tol):
    # At tol = 1e-3 a row tangent to the circle stays within its limit for
    # several vertices on each side of the one that owns its normal angle.
    for t in tangent_pool(1, m, 4):
        _assert_active_rows_at(t.lp, pl.enumerate_vertices(t.lp, tol=tol), tol)


@settings(max_examples=600, deadline=None)  # ~200 per family, as before
@given(
    st.sampled_from([_integer_lp, _mixed_lp, _extreme_lp]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1e-9, 0.0, 1e-3]),
)
# On seed 68802 row 0 holds at vertex (0, 2.1557e126) only: the float cycle
# violates it at the vertices from its owner to there, which the walk from
# the owner steps past, downwards; on 37375 a walk steps past upwards.
@example(_extreme_lp, 68802, 1e-9)
@example(_extreme_lp, 68802, 1e-3)
@example(_extreme_lp, 37375, 1e-9)
def test_enumerate_active_rows_are_active_rows_at_on_random_lps(make, seed, tol):
    # the region digest's small integer, mixed and extreme-scale LPs; the
    # region, whose vertices are built at their first read, also equals
    # the one the checking constructor makes of them, in ==, hash and
    # repr, and keeps the same coordinates, as checked
    lp = make(random.Random(seed))
    try:
        region = pl.enumerate_vertices(lp, tol=tol)
    except pl.errors.PlanarLPError:
        return
    checked = pl.FeasibleRegion(region.vertices)
    assert region == checked and hash(region) == hash(checked) and repr(region) == repr(checked)
    assert region._coords() == checked._coords() and region._coords()[2]
    _assert_active_rows_at(lp, region, tol)


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


def test_enumerate_checks_the_rows_before_tolerance():
    # the order of the solve entry points: a structural error comes first
    lp = pl.LinearProgram2D(pl.Vec2(1.0, 1.0), (pl.ConstraintRow(0.0, 0.0, 1.0),))
    with pytest.raises(ZeroRow):
        pl.enumerate_vertices(lp, tol=-1.0)


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
    # x2 <= 1e300 and x2 <= 2e-12 x1 - 1e300 turn by more than the sweep's
    # 1e-12 parallel tolerance, so it crosses them, at x1 = 1e312: the
    # crossing itself is refused
    lp = pl.LinearProgram2D(
        pl.Vec2(1.0, 1.0),
        (pl.ConstraintRow(0.0, 1.0, 1e300), pl.ConstraintRow(-2e-12, 1.0, -1e300)),
    )
    with pytest.raises(pl.errors.NonFiniteEntry, match=r"non-finite coordinates \(inf, 1e\+300\)"):
        pl.enumerate_vertices(lp)


def test_enumerate_crossing_beyond_the_float_range_after_a_corner():
    # The same turn after the corner (1e300, 1e300), which the third row
    # keeps: its crossing with x2 <= 1e300 lies at x1 = -1e309
    lp = pl.LinearProgram2D(
        pl.Vec2(1.0, 1.0),
        (
            pl.ConstraintRow(1.0, 0.0, 1e300),
            pl.ConstraintRow(0.0, 1.0, 1e300),
            pl.ConstraintRow(-2e-12, 1.0, 1.002e300),
        ),
    )
    with pytest.raises(pl.errors.NonFiniteEntry, match=r"non-finite coordinates \(-inf, 1e\+300\)"):
        pl.enumerate_vertices(lp)


def test_enumerate_strip_within_the_tolerance_is_empty():
    # x2 <= 1 and x2 >= 1.0005 leave no point.  At tol = 1e-3 the corners
    # on x2 <= 1 lie within the second row's tolerance, so it drops only
    # x1 >= 0; then it faces x2 <= 1 and does not cross it.
    lp = pl.LinearProgram2D(
        pl.Vec2(1.0, 1.0),
        (
            pl.ConstraintRow(0.0, 1.0, 1.0),
            pl.ConstraintRow(0.0, -1.0, -1.0005),
            pl.ConstraintRow(1.0, 0.0, 1.0),
        ),
    )
    with pytest.raises(Infeasible):
        pl.enumerate_vertices(lp, tol=1e-3)


def _counting_check_cycle(monkeypatch) -> list:
    """A list that gains one entry for each _check_cycle call the builder
    makes from now on."""
    calls = []
    check = solver._check_cycle

    def counting(xs, ys):
        calls.append(len(xs))
        check(xs, ys)

    monkeypatch.setattr(solver, "_check_cycle", counting)
    return calls


def test_polygon_checks_edges_only_after_a_merge(monkeypatch):
    # Where no corners merge, the merge has measured every edge, and only
    # the convexity test runs; the result passes the full check all the same
    calls = _counting_check_cycle(monkeypatch)
    region = pl.enumerate_vertices(tangent_circle_lp(rng_for(64), 64))
    assert calls == [] and len(region) == 64
    assert pl.FeasibleRegion(region.vertices) == region
    # Three rows through (1, 1) give three corners there, which merge
    lp = pl.LinearProgram2D(
        pl.Vec2(1.0, 1.0),
        (
            pl.ConstraintRow(1.0, 0.0, 1.0),
            pl.ConstraintRow(0.0, 1.0, 1.0),
            pl.ConstraintRow(1.0, 1.0, 2.0),
        ),
    )
    region = pl.enumerate_vertices(lp)
    assert calls == [4]
    assert [((v.point.x1, v.point.x2), v.active_rows) for v in region] == [
        ((0.0, 0.0), {-2, -1}),
        ((1.0, 0.0), {-2, 0}),
        ((1.0, 1.0), {0, 1, 2}),
        ((0.0, 1.0), {-1, 1}),
    ]


@pytest.mark.parametrize(
    "rows, n_checks, index",
    [
        # the sliver of test_enumerate_sliver_makes_no_polygon: its corners
        # merge, and the full check refuses the cycle
        (
            (
                (0.0, 0.10352011439222264, 562341325.1903491),
                (0.0, -1.0, 0.0),
                (1.0, 0.0, 0.0),
                (1.0, 0.0, 0.0),
                (0.1171875, 0.0, -1e-10),
            ),
            1,
            1,
        ),
        # rows 1 and 2 both meet x2 >= 0 at x1 = 1e5, but their own
        # crossing rounds to 6.6e-7 short of that, too far to merge, so the
        # cycle runs back along x2 = 0 at vertex 1
        (((1.0, 1.00001, 100001.0), (1.0, 1.0, 100000.0), (1.00001, 1.0, 100001.0)), 0, 1),
    ],
)
def test_polygon_refuses_a_bent_cycle_with_or_without_a_merge(monkeypatch, rows, n_checks, index):
    calls = _counting_check_cycle(monkeypatch)
    lp = pl.LinearProgram2D(pl.Vec2(1.0, 1.0), tuple(pl.ConstraintRow(*r) for r in rows))
    with pytest.raises(
        DegenerateRegion,
        match=rf"^the corners make no convex polygon: vertex cycle is not convex "
        rf"counterclockwise at index {index}$",
    ):
        pl.enumerate_vertices(lp)
    assert len(calls) == n_checks


def test_enumerate_open_chain_ends_at_a_facing_row():
    # The normals of row 0 and of x2 >= 0 are a half turn apart but for
    # 1e-13, within the sweep's 1e-12 parallel tolerance: the sweep drops
    # row 1 and x1 >= 0, and then x2 >= 0 faces row 0, which ends the open
    # chain.  Their gap, pi - 1e-13, counts as a recession direction.
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


def test_enumerate_closing_retests_the_back_after_a_front_drop():
    # Closing first finds that row 0 (x2 <= 250) cuts back nothing, then
    # drops row 0 from the front.  Row 2 is the new front, and it cuts back
    # x1 <= 2e-6 (row 1), whose corners would otherwise run backwards along
    # it, at x2 = 6.67 and then 2.57: the back test must run again.
    lp = pl.LinearProgram2D(
        pl.Vec2(1.0, 1.0),
        (
            pl.ConstraintRow(0.0, 0.2, 50.0),
            pl.ConstraintRow(1.0, 0.0, 2e-6),
            pl.ConstraintRow(0.04, -6e-9, 4e-8),
            pl.ConstraintRow(-1.0, 7e-7, -2e-7),
        ),
    )
    region = pl.enumerate_vertices(lp, tol=1e-3)
    expected = region_of_points([(2e-7, 0.0), (1e-6, 0.0), (1.2181818181818e-6, 1.4545454545454)])
    assert same_cycle(region, expected, tol=1e-12)
    enum = pl.solve_enumeration(lp, tol=1e-3).vertex.point
    simplex = pl.solve_simplex(lp, tol=1e-3).vertex.point
    assert (enum - simplex).norm() <= 1e-12


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


def _counting_vertices(monkeypatch) -> list:
    """A list that gains one entry for each Vertex built from now on."""
    built = []
    init = pl.Vertex.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(pl.Vertex, "__init__", counting)
    return built


@pytest.mark.parametrize("entry, n_built", [(pl.analyze, 3), (pl.solve_enumeration, 1)])
@pytest.mark.parametrize("c", [1.0, 1e307])  # c . x overflows at 1e307
def test_entry_points_build_only_the_vertices_they_return(monkeypatch, entry, n_built, c):
    # analyze returns x0 and its two neighbours, solve_enumeration x0; the
    # m = 64 polygon's other corners stay floats.
    lp = tangent_circle_lp(rng_for(64), 64)
    lp = pl.LinearProgram2D(pl.Vec2(c, c), lp.constraints)
    built = _counting_vertices(monkeypatch)
    entry(lp)
    assert len(built) == n_built


def test_analyze_tie_builds_only_the_tied_vertices(ref_lp, monkeypatch):
    lp = pl.LinearProgram2D(pl.Vec2(2.0, 1.0), ref_lp.constraints)
    built = _counting_vertices(monkeypatch)
    with pytest.raises(pl.errors.DegenerateOptimum) as ei:
        pl.analyze(lp)
    assert built == list(ei.value.tied_vertices) and len(built) == 2


@pytest.mark.parametrize("entry", [pl.analyze, pl.solve_enumeration, pl.enumerate_vertices])
@pytest.mark.parametrize("c", [(2.0, 3.0), (2.0, 1.0)])  # x0 from the rows; a tie
def test_entry_points_validate_and_sort_once(ref_lp, monkeypatch, entry, c):
    # the polygon, where an entry point builds it, reuses the one sort
    counts = dict.fromkeys(("validate", "_sorted_normals", "_polygon"), 0)
    for name in counts:

        def counting(*args, name=name, call=getattr(solver, name)):
            counts[name] += 1
            return call(*args)

        monkeypatch.setattr(solver, name, counting)
    try:
        entry(pl.LinearProgram2D(pl.Vec2(*c), ref_lp.constraints))
    except pl.errors.DegenerateOptimum:
        assert entry is pl.analyze and c == (2.0, 1.0)
    polygon = entry is pl.enumerate_vertices or c == (2.0, 1.0)
    assert counts == {"validate": 1, "_sorted_normals": 1, "_polygon": int(polygon)}


def _corner_with_rooms(lp, tol, room=None):
    """_optimal_corner on lp's normals at tol, every room set to room unless
    it is None: each corner as the float.hex of its point and its pair of
    records without their rooms."""
    normals = solver._sorted_normals(lp, tol)
    if room is not None:
        normals = ([r[:5] + (room,) for r in normals[0]], *normals[1:])
    corner = solver._optimal_corner(lp, normals)
    if corner is None:
        return None
    return [((x.hex(), y.hex()), tuple(r[:5] for r in pair)) for (x, y), pair in corner]


_TANGENT_LPS = [t.lp for seed in (1, 2, 3) for m in (3, 8, 64) for t in tangent_pool(seed, m, 4)]


@settings(max_examples=600, deadline=None)
@given(
    st.builds(
        lambda make, seed: make(random.Random(seed)),
        st.sampled_from([_integer_lp, _mixed_lp, _extreme_lp]),
        st.integers(0, 2**32 - 1),
    )
    | st.sampled_from(_TANGENT_LPS),
    st.sampled_from([1e-9, 0.0, 1e-3]),
)
def test_room_bound_is_a_filter_only(lp, tol):
    # With every room inf, no slack clears it and every row the certificate
    # tests takes the exact test: the rows route must answer the same, the
    # same None, points and record pairs, as with the rooms it computes.
    try:
        solver._check_arguments(lp, tol)
    except pl.errors.PlanarLPError:
        return
    assert _corner_with_rooms(lp, tol) == _corner_with_rooms(lp, tol, math.inf)


# 0 or k * 2**e, from the subnormals to 2**1000.
_binary_entry = st.builds(math.ldexp, st.integers(-7, 7), st.integers(-1074, 997)) | st.sampled_from(
    [2.0**1000, -(2.0**1000)]
)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.tuples(_binary_entry, _binary_entry, _binary_entry), min_size=1, max_size=4),
    st.sampled_from([0.0, 1e-9, 1e-3, 1.0, 1e300]),
)
def test_room_bounds_the_exact_need(rows, tol):
    # room >= 2 max(limit, MERGE_TOL |a|) as floats, for every record, the
    # x >= 0 rows included: where a square underflows or overflows too.
    lp = pl.LinearProgram2D(pl.Vec2(1.0, 1.0), tuple(pl.ConstraintRow(*r) for r in rows))
    for _, _, a1, a2, b, room in solver._sorted_normals(lp, tol)[0]:
        limit = tol * pl.ConstraintRow(a1, a2, b).scale()
        assert room >= 2.0 * max(limit, pl.MERGE_TOL * math.hypot(a1, a2))


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


def test_solve_simplex_stops_at_the_pivot_cap(ref_lp, monkeypatch):
    # paper.lp's origin is feasible, so no phase one runs, and phase two
    # with a cap of no pivots gives up before it reads a dual.
    monkeypatch.setattr(solver, "_max_pivots", lambda n_cols: 0)
    with pytest.raises(RuntimeError, match="^simplex failed to terminate$"):
        pl.solve_simplex(ref_lp)


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
    # active_rows is left out: the simplex tests each row against
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
    """enumerate_vertices agrees with the exact reference: the same
    exception class, or the same cycle up to a cyclic shift, with the same
    active rows and every vertex within 8 ulps of the exact one."""
    outcomes = []
    for build in (pl.enumerate_vertices, exact_region):
        try:
            outcomes.append(build(lp))
        except pl.errors.PlanarLPError as exc:
            outcomes.append(type(exc))
    new, ref = outcomes
    if isinstance(new, type) or isinstance(ref, type):
        assert new == ref
        return
    n = len(ref)
    assert len(new) == n
    shift = next(k for k in range(n) if near(new.vertices[k].point, ref[0]))
    for k, exact in enumerate(ref):
        v = new.vertices[(shift + k) % n]
        assert near(v.point, exact) and v.active_rows == exact[2]


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


def _bits(v):
    """A vertex's coordinates bit for bit, and its active rows."""
    return v.point.x1.hex(), v.point.x2.hex(), v.active_rows


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 2**32 - 1).map(lambda seed: random_bounded_lp(rng_for(seed)))
    | st.builds(
        lambda rows, c: pl.LinearProgram2D(c, tuple(rows)),
        st.lists(small_row, min_size=1, max_size=6),
        st.builds(pl.Vec2, small_int, small_int).filter(lambda c: not c.is_zero()),
    ),
    st.sampled_from([1e-9, 0.0, 1e-3]),
)
def test_returned_vertices_match_enumerate_vertices(lp, tol):
    # analyze and solve_enumeration build only the vertices they return,
    # each with its own pass over the rows; every one must be the Vertex
    # enumerate_vertices builds at that place of the cycle.
    region = _solve_outcome(lambda lp: pl.enumerate_vertices(lp, tol=tol), lp)
    sol = _solve_outcome(lambda lp: pl.solve_enumeration(lp, tol=tol), lp)
    try:
        rep = pl.analyze(lp, tol=tol)
    except pl.errors.PlanarLPError as exc:
        rep = exc
    if isinstance(region, type):
        assert sol is region and type(rep) is region
        return
    cycle = [_bits(v) for v in region.vertices]
    assert _bits(sol.vertex) in cycle
    k = cycle.index(_bits(sol.vertex))
    if isinstance(rep, pl.errors.DegenerateOptimum):
        got = [_bits(v) for v in rep.tied_vertices]
        assert got[0] == cycle[k] and all(v in cycle for v in got)
        return
    assert sol.unique
    assert [_bits(rep.pred), _bits(rep.optimal_vertex), _bits(rep.succ)] == [
        cycle[k - 1], cycle[k], cycle[(k + 1) % len(cycle)]
    ]


def _recession_outcomes(rows):
    """check_recession and the exact reference on rows: each a Recession,
    or the class of the exception it raised."""
    lp = pl.LinearProgram2D(pl.Vec2(1.0, 1.0), tuple(rows))
    outcomes = []
    for test in (
        pl.check_recession,
        lambda lp: pl.Recession.BOUNDED if exact_bounded(lp) else pl.Recession.UNBOUNDED,
    ):
        try:
            outcomes.append(test(lp))
        except pl.errors.PlanarLPError as exc:
            outcomes.append(type(exc))
    return outcomes


def _widest_normal_gap(rows):
    """The widest counterclockwise gap between the rows' normal angles, the
    two x >= 0 rows included, in floats."""
    normals = [(r.a1, r.a2) for r in rows] + [(-1.0, 0.0), (0.0, -1.0)]
    angles = sorted(math.atan2(a2 + 0.0, a1) for a1, a2 in normals)
    return max(b - a for a, b in zip(angles, angles[1:] + [angles[0] + math.tau]))


real = st.floats(-10.0, 10.0)
real_row = st.builds(pl.ConstraintRow, real, real, st.floats(-5.0, 100.0))
dyadic = st.builds(math.ldexp, small_int, st.integers(-16, 16))
dyadic_row = st.builds(pl.ConstraintRow, dyadic, dyadic, dyadic)


@settings(max_examples=400, deadline=None)
@given(
    st.tuples(
        st.just(True),
        st.lists(small_row, min_size=1, max_size=6)
        | st.lists(dyadic_row, min_size=1, max_size=6),
    )
    | st.tuples(st.just(False), st.lists(real_row, min_size=1, max_size=6))
)
# bounded, but its widest normal gap, pi - 2.5e-83, rounds to pi
@example((False, [pl.ConstraintRow(1.0, 2.5e-83, 0.0)]))
def test_check_recession_matches_candidate_search(case):
    # Small-integer and dyadic rows must agree exactly.  Real rows may
    # disagree only in check_recession's documented band: a bounded region
    # whose widest normal gap counts as a half turn, from pi -
    # _RECESSION_TOL on (twice that here, for the rounding of atan2).
    exact_rows, rows = case
    new, ref = _recession_outcomes(rows)
    in_band = (new, ref) == (pl.Recession.UNBOUNDED, pl.Recession.BOUNDED) and (
        _widest_normal_gap(rows) >= math.pi - 2 * _RECESSION_TOL
    )
    assert new == ref or (in_band and not exact_rows)


@settings(max_examples=400, deadline=None)
@given(st.lists(small_row, min_size=1, max_size=6), st.builds(pl.Vec2, small_int, small_int))
@example(  # cone ends 2.2e-15 off when re-anchored on phi_f by a rounded difference
    [
        pl.ConstraintRow(*map(float, r))
        for r in ((1, 4, 4), (-9, -10, -7), (3, -3, -2), (4, 4, 3), (-1, -6, -2), (-5, -9, 4))
    ],
    pl.Vec2(7.0, -10.0),
)
def test_solvers_and_analyze_give_the_exact_answer(rows, c):
    # On small integers distinct vertices and values lie far apart, so each
    # float answer must match the exact one: the same error, the exact
    # optimum, uniqueness, a tie, and cone ends at the normals of the rows
    # along x0's two edges, lo on the edge from pred and hi on the edge to
    # succ.  Each end is atan2 of its row, moved by a turn at most to
    # enclose phi_f; that rounding and the comparison's are an ulp of pi each.
    assume(not c.is_zero())
    lp = pl.LinearProgram2D(c, tuple(rows))
    try:
        cycle = exact_region(lp)
    except pl.errors.PlanarLPError as exc:
        for solve in (pl.solve_enumeration, pl.analyze):
            assert _solve_outcome(solve, lp) is type(exc)
        return
    values = [Fraction(c.x1) * x1 + Fraction(c.x2) * x2 for x1, x2, _ in cycle]
    best = [k for k, v in enumerate(values) if v == max(values)]
    for solve in (pl.solve_enumeration, pl.solve_simplex):
        sol = solve(lp)
        assert sol.unique == (len(best) == 1)
        x = sol.vertex.point
        assert any(
            max(abs(Fraction(x.x1) - x1), abs(Fraction(x.x2) - x2))
            <= 1e-12 * max(1, abs(x1), abs(x2))
            for x1, x2, _ in (cycle[k] for k in best)
        )
    if len(best) > 1:
        assert _solve_outcome(pl.analyze, lp) is pl.errors.DegenerateOptimum
        return
    rep = pl.analyze(lp)
    k = best[0]
    at_x0, at_pred, at_succ = cycle[k][2], cycle[k - 1][2], cycle[(k + 1) % len(cycle)][2]
    by_index = dict(enumerate(rows))
    by_index[pl.X1_NONNEG] = pl.ConstraintRow(-1.0, 0.0, 0.0)
    by_index[pl.X2_NONNEG] = pl.ConstraintRow(0.0, -1.0, 0.0)
    for end, edge in ((rep.interval.lo, at_x0 & at_pred), (rep.interval.hi, at_x0 & at_succ)):
        normals = [math.atan2(by_index[i].a2, by_index[i].a1) for i in edge]
        assert any(circ_close(end, normal, 2 * math.ulp(math.pi)) for normal in normals)


def _solve_outcome(solve, lp):
    try:
        return solve(lp)
    except pl.errors.PlanarLPError as exc:
        return type(exc)


# Rows 0 and 1 have normals whose cross product is 1e-13, within _DET_TOL,
# and row 0 binds along the edge x2 in [5e6, 1e7]: the exact answer is
# x0 = (1e6, 1e7) with rows {0, 2}.
_NEAR_PARALLEL_LP = pl.LinearProgram2D(
    pl.Vec2(1.0, 1.0),
    (
        pl.ConstraintRow(1.0, 0.0, 1e6),
        pl.ConstraintRow(1.0, -1e-13, 999999.9999999),
        pl.ConstraintRow(0.0, 1.0, 1e7),
        pl.ConstraintRow(0.0, -1.0, -5e6),
    ),
)


def _exact_vertex(v):
    return Fraction(v.point.x1), Fraction(v.point.x2), v.active_rows


def test_rows_within_det_tol_of_parallel_give_the_exact_answer():
    # The rows route certifies x0 from the rows, whatever their normals'
    # angles, so the entry points never meet _polygon's parallel filter
    # here.
    lp = _NEAR_PARALLEL_LP
    x0 = max(exact_region(lp), key=lambda v: v[0] + v[1])
    assert x0 == (1_000_000, 10_000_000, frozenset({0, 2}))
    assert _exact_vertex(pl.analyze(lp, tol=0.0).optimal_vertex) == x0
    assert _exact_vertex(pl.solve_enumeration(lp, tol=0.0).vertex) == x0


@pytest.mark.xfail(
    strict=True,
    reason="the parallel filter keeps the near-parallel row that does not bind "
    "(ROADMAP item 12)",
)
def test_enumerate_keeps_the_binding_row_of_two_within_det_tol_of_parallel():
    # _polygon keeps one of rows 0 and 1: row 1, tighter where the normal
    # through the origin meets it, though row 0 binds.  At tol 0 its x0 then
    # lies 9e-7 outside row 0, at (1000000.0000009, 1e7) with rows {1, 2}.
    lp = _NEAR_PARALLEL_LP
    cycle = {_exact_vertex(v) for v in pl.enumerate_vertices(lp, tol=0.0).vertices}
    assert cycle == set(exact_region(lp))


@st.composite
def _near_parallel_lp(draw):
    """Rows (1, 0, B) and (1, +-e, B (1 + d)), their normals within about
    e of parallel, between two bounds on x2; shuffled, and with a1 and a2
    swapped or not.  c > 0 puts x0 on the pair's edge or next to it."""
    big = 10.0 ** draw(st.floats(3.0, 9.0))
    e = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-16.0, -12.5))
    d = draw(st.floats(-1e-12, 1e-12))
    hi = big * 10.0 ** draw(st.floats(0.0, 3.0))
    lo = hi * draw(st.floats(0.1, 0.9))
    pair = [(1.0, 0.0, big), (1.0, e, big * (1.0 + d))]
    rows = draw(st.permutations(pair + [(0.0, 1.0, hi), (0.0, -1.0, -lo)]))
    if draw(st.booleans()):
        rows = [(a2, a1, b) for a1, a2, b in rows]
    positive = st.integers(1, 10).map(float)
    c = draw(st.builds(pl.Vec2, positive, positive))
    return pl.LinearProgram2D(c, tuple(pl.ConstraintRow(*row) for row in rows))


#: region_digest's concurrent family: 3 to 5 unit rows through one point,
#: each b moved by up to 3 ulps
_concurrent = st.builds(_concurrent_lp, st.randoms(use_true_random=False))


def _violations(lp, x):
    # the rows x misses by more than the default limit, FEAS_TOL * scale
    rows = enumerate(lp.constraints)
    return [i for i, row in rows if row.residual(x) > pl.FEAS_TOL * row.scale()]


_ANSWERS = {
    "analyze": lambda lp, tol: pl.analyze(lp, tol=tol).optimal_vertex.point,
    "solve": lambda lp, tol: pl.solve_enumeration(lp, tol=tol).vertex.point,
    "simplex": lambda lp, tol: pl.solve_simplex(lp, tol=tol).vertex.point,
}


@settings(max_examples=300, deadline=None)
@given(_near_parallel_lp() | _concurrent)
def test_answers_satisfy_every_row(lp):
    # at the default tol every answer of the three entry points satisfies
    # every row within FEAS_TOL * row.scale(), on the two families the
    # float path gets wrong most often (ROADMAP item 21)
    for entry, answer in _ANSWERS.items():
        try:
            x = answer(lp, pl.FEAS_TOL)
        except pl.errors.PlanarLPError:
            continue
        assert _violations(lp, x) == [], entry


# A concurrent LP on which enumerate_vertices drops row 0 at tol 0, so that
# analyze and solve_enumeration return (55.4349..., 0), 2.2 outside row 0
# (0.061 of its scale).  The exact optimum is (44.2928..., 7.6043...).
_CONCURRENT_LP = pl.LinearProgram2D(
    pl.Vec2(0.8723844109702098, 0.9490662985942433),
    (
        pl.ConstraintRow(0.6918911023751061, 0.7220018715032257, 36.13614773060174),
        pl.ConstraintRow(0.35300334022929675, 0.9356220614045819, 22.750279092717143),
        pl.ConstraintRow(0.5637130883074131, 0.8259706738564746, 31.249389892201375),
        pl.ConstraintRow(0.35472614905810473, 0.9349702450743592, 22.82163058086516),
        pl.ConstraintRow(0.5400536642177385, 0.8416305839054294, 30.3205295203936),
    ),
)

_ROWS_DROPPED = pytest.mark.xfail(
    strict=True,
    reason="at tol 0 the builder drops a binding row of the concurrent LP, "
    "and the answer lies outside it (ROADMAP item 19)",
)


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param("analyze", marks=_ROWS_DROPPED),
        pytest.param("solve", marks=_ROWS_DROPPED),
        "simplex",
    ],
)
def test_concurrent_lp_answer_satisfies_every_row_at_tol_0(entry):
    assert _violations(_CONCURRENT_LP, _ANSWERS[entry](_CONCURRENT_LP, 0.0)) == []


def test_certified_answers_are_the_exact_optimum():
    # The rows route's certificate proves x0 from the rows alone, so
    # wherever it answers, analyze's x0 is the unique exact optimum, near
    # parallel rows included.  It answers in 7-13 % of 400 draws (12
    # seeds), and must in 5 %, so that the property tests it.
    answered = []

    @settings(max_examples=400, deadline=None)
    @given(
        _near_parallel_lp()
        | st.builds(
            lambda rows, c: pl.LinearProgram2D(c, tuple(rows)),
            st.lists(small_row, min_size=1, max_size=6),
            st.builds(pl.Vec2, small_int, small_int).filter(lambda c: not c.is_zero()),
        ),
        st.sampled_from([0.0, 1e-9]),
    )
    @example(_NEAR_PARALLEL_LP, 0.0)
    def check(lp, tol):
        try:
            solver._check_arguments(lp, tol)
            corner = solver._optimal_corner(lp, solver._sorted_normals(lp, tol))
        except pl.errors.PlanarLPError:
            corner = None
        answered.append(corner is not None)
        if corner is not None:
            optima, unique = exact_optimum(lp)
            assert unique and near(pl.analyze(lp, tol=tol).optimal_vertex.point, optima[0])

    check()
    assert sum(answered) >= 0.05 * len(answered)


def test_entry_points_agree_with_the_exact_optimum_on_integer_lps():
    # The exact-agreement ledger (tests/region_digest.py --exact-share) on
    # the first 300 integer LPs of the region digest that pass the argument
    # checks, at tol 0: analyze and solve_enumeration may refuse a finite
    # optimum, but are never wrong, and solve_simplex always agrees.
    entries = {"analyze": pl.analyze, "solve": pl.solve_enumeration, "simplex": pl.solve_simplex}
    checked = 0
    for name, lp in random_lps():
        if _family(name) != "integer":
            continue
        exact = exact_outcome(lp)
        verdict = {e: exact_verdict(call, lp, 0.0, exact)[0] for e, call in entries.items()}
        if "arguments" in verdict.values():
            continue
        assert verdict["analyze"] in ("agree", "refuses"), name
        assert verdict["solve"] in ("agree", "refuses"), name
        assert verdict["simplex"] == "agree", name
        checked += 1
        if checked == 300:
            break
    assert checked == 300


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
    "rows, expected, exact",
    [
        # x1 - x2 <= 1 and -x1 + x2 <= 1: a strip along (1, 1)
        (
            [pl.ConstraintRow(1.0, -1.0, 1.0), pl.ConstraintRow(-1.0, 1.0, 1.0)],
            pl.Recession.UNBOUNDED,
            pl.Recession.UNBOUNDED,
        ),
        # a gap of pi - 0.5e-12 is in check_recession's band
        (_tilted(0.5e-12), pl.Recession.UNBOUNDED, pl.Recession.BOUNDED),
        (_tilted(1.5e-12), pl.Recession.BOUNDED, pl.Recession.BOUNDED),
        (_tilted(1e-9), pl.Recession.BOUNDED, pl.Recession.BOUNDED),
        ([pl.ConstraintRow(0.0, 1.0, -1.0)], pl.Recession.UNBOUNDED, pl.Recession.UNBOUNDED),
        (_paper_scaled(1e-200), pl.Recession.BOUNDED, pl.Recession.BOUNDED),
        (_paper_scaled(1e200), pl.Recession.BOUNDED, pl.Recession.BOUNDED),
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
def test_check_recession_edge_cases(rows, expected, exact):
    assert _recession_outcomes(rows) == [expected, exact]
