import math

import pytest
from hypothesis import given, strategies as st

import planarlp as pl
from planarlp.errors import NegativeCoefficient, PointOnLine, ZeroObjective
from conftest import random_bounded_lp, region_of_points, rng_for

coord = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


def test_objective_line_normal_and_direction():
    line = pl.objective_line(pl.Vec2(2.0, 3.0))
    assert line.normal == pl.Vec2(2.0, 3.0)
    assert line.direction == pl.Vec2(-3.0, 2.0)
    with pytest.raises(ZeroObjective):
        pl.objective_line(pl.Vec2(0.0, 0.0))


def test_side_of_examples():
    c = pl.Vec2(2.0, 3.0)
    assert pl.side_of(pl.Vec2(1.0, 1.0), c) is pl.HalfPlaneSide.PLUS
    assert pl.side_of(pl.Vec2(-1.0, -1.0), c) is pl.HalfPlaneSide.MINUS
    assert pl.side_of(pl.Vec2(-3.0, 2.0), c) is pl.HalfPlaneSide.ON
    with pytest.raises(ZeroObjective):
        pl.side_of(pl.Vec2(1.0, 1.0), pl.Vec2(0.0, 0.0))


def test_ratio_examples():
    c = pl.Vec2(2.0, 3.0)
    assert abs(pl.value_distance_ratio(pl.Vec2(1.0, 1.0), c) - math.sqrt(13.0)) < 1e-12
    assert abs(
        pl.value_distance_ratio(pl.Vec2(-1.0, -1.0), c) + math.sqrt(13.0)
    ) < 1e-12
    # a subnormal coordinate must not underflow the quotient to 1
    tiny = pl.value_distance_ratio(pl.Vec2(0.0, 5e-324), pl.Vec2(1.0, 1.0))
    assert abs(tiny - math.sqrt(2.0)) < 1e-12


def test_ratio_on_line_raises():
    with pytest.raises(PointOnLine):
        pl.value_distance_ratio(pl.Vec2(-3.0, 2.0), pl.Vec2(2.0, 3.0))


@given(coord, coord, coord, coord)
def test_ratio_is_constant_off_the_line(x1, x2, c1, c2):
    c = pl.Vec2(c1, c2)
    x = pl.Vec2(x1, x2)
    if c.norm() < 1e-3:
        return
    if pl.side_of(x, c, tol=1e-6) is pl.HalfPlaneSide.ON:
        return
    r = pl.value_distance_ratio(x, c)
    assert abs(abs(r) - c.norm()) <= 1e-9 * max(1.0, c.norm())
    sign = 1.0 if pl.side_of(x, c) is pl.HalfPlaneSide.PLUS else -1.0
    assert math.copysign(1.0, r) == sign


def test_argmax_distance_reference(ref_region, ref_lp):
    ds = pl.argmax_distance(ref_region, ref_lp.objective)
    assert abs(ds.vertex.point.x1 - 80.0) < 1e-9
    assert abs(ds.vertex.point.x2 - 40.0) < 1e-9
    assert abs(ds.distance - 280.0 / math.sqrt(13.0)) < 1e-9
    assert ds.unique


@pytest.mark.parametrize("c", [1e307, 1.5e308])
def test_argmax_distance_large_objective(ref_region, c):
    # c . x (and for 1.5e308 also |c|) overflows; the distance does not
    ds = pl.argmax_distance(ref_region, pl.Vec2(c, c))
    assert ds.vertex.point.x1 == pytest.approx(80.0)
    assert ds.vertex.point.x2 == pytest.approx(40.0)
    assert ds.distance == pytest.approx(120.0 / math.sqrt(2.0))
    assert ds.unique


def test_argmax_distance_axis_objective(ref_region):
    ds = pl.argmax_distance(ref_region, pl.Vec2(1.0, 0.0))
    assert abs(ds.vertex.point.x1 - 100.0) < 1e-9


def test_argmax_distance_tie_flagged():
    region = region_of_points([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    ds = pl.argmax_distance(region, pl.Vec2(1.0, 1.0))
    assert not ds.unique


def test_argmax_distance_rejects_negative():
    region = region_of_points([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    with pytest.raises(NegativeCoefficient):
        pl.argmax_distance(region, pl.Vec2(-1.0, 1.0))
    with pytest.raises(ZeroObjective):
        pl.argmax_distance(region, pl.Vec2(0.0, 0.0))


def test_distance_argmax_matches_solver_on_random_lps():
    rng = rng_for(99)
    checked = 0
    while checked < 50:
        lp = random_bounded_lp(rng, positive=True)
        sol = pl.solve_enumeration(lp)
        if not sol.unique:
            continue
        region = pl.enumerate_vertices(lp)
        ds = pl.argmax_distance(region, lp.objective)
        assert (ds.vertex.point - sol.vertex.point).norm() <= 1e-9 * max(
            1.0, sol.vertex.point.norm()
        )
        checked += 1
