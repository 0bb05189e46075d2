import math

import pytest
from hypothesis import given, strategies as st

import planarlp as pl
from planarlp.errors import NonPositiveAlpha, ZeroObjective
from conftest import region_of_points, same_cycle

comp = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)

TRIANGLE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]


def test_rotation_angle_examples():
    assert pl.normalizing_rotation(pl.Vec2(2.0, 3.0)) == 0.0
    assert abs(pl.normalizing_rotation(pl.Vec2(-1.0, -1.0)) - math.pi) < 1e-12
    got = math.degrees(pl.normalizing_rotation(pl.Vec2(3.0, -4.0)))
    assert abs(got - 2.0 * math.degrees(math.atan2(4.0, 3.0))) < 1e-9  # 106.26deg


def test_rotation_angle_zero_objective():
    with pytest.raises(ZeroObjective):
        pl.normalizing_rotation(pl.Vec2(0.0, 0.0))


@given(comp, comp)
def test_rotation_lands_on_absolute_components(c1, c2):
    c = pl.Vec2(c1, c2)
    if c.norm() < 1e-6:
        return
    theta = pl.normalizing_rotation(c)
    got = pl.apply_rotation(pl.rotation_of(theta), c)
    assert abs(got.x1 - abs(c1)) <= 1e-9 * max(1.0, c.norm())
    assert abs(got.x2 - abs(c2)) <= 1e-9 * max(1.0, c.norm())
    assert -math.pi < theta <= math.pi


def test_rotate_problem_identity(ref_region, ref_lp):
    region, c = pl.rotate_problem(ref_region, ref_lp.objective, 0.0)
    assert same_cycle(region, ref_region, tol=0.0)
    assert c == ref_lp.objective


def test_rotate_problem_half_turn_triangle():
    region, c = pl.rotate_problem(
        region_of_points(TRIANGLE), pl.Vec2(-1.0, -1.0), math.pi
    )
    expected = region_of_points([(0.0, 0.0), (-1.0, 0.0), (0.0, -1.0)])
    assert same_cycle(region, expected, tol=1e-12)
    assert abs(c.x1 - 1.0) < 1e-12 and abs(c.x2 - 1.0) < 1e-12


def test_rotate_problem_preserves_values(ref_region, ref_lp):
    theta = 0.5 * math.pi
    region, c = pl.rotate_problem(ref_region, ref_lp.objective, theta)
    for old, new in zip(ref_region.vertices, region.vertices):
        a = ref_lp.objective.dot(old.point)
        b = c.dot(new.point)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))
        assert old.active_rows == new.active_rows


def test_translate_region_offsets_vertices(ref_region):
    shifted, offset = pl.translate_region(ref_region, 100.0, pl.Vec2(2.0, 3.0))
    assert offset == pl.Vec2(200.0, 300.0)
    i = ref_region.index_of(pl.Vec2(80.0, 40.0))
    moved = shifted.vertices[i].point
    assert abs(moved.x1 - 280.0) < 1e-9
    assert abs(moved.x2 - 340.0) < 1e-9
    # pairwise differences (hence the polygon's shape) are untouched
    for a, b in zip(ref_region.vertices, shifted.vertices):
        d = b.point - a.point
        assert abs(d.x1 - 200.0) < 1e-12 and abs(d.x2 - 300.0) < 1e-12


def test_translate_region_keeps_argmax(ref_region, ref_lp):
    shifted, _ = pl.translate_region(ref_region, 100.0, pl.Vec2(2.0, 3.0))
    values = [ref_lp.objective.dot(v.point) for v in shifted.vertices]
    best = max(range(len(values)), key=values.__getitem__)
    assert shifted.vertices[best].point == pl.Vec2(280.0, 340.0)


def test_translate_region_rejects_nonpositive_alpha(ref_region):
    with pytest.raises(NonPositiveAlpha):
        pl.translate_region(ref_region, 0.0, pl.Vec2(1.0, 1.0))
    with pytest.raises(NonPositiveAlpha):
        pl.translate_region(ref_region, -1.0, pl.Vec2(1.0, 1.0))


def test_normalize_reference_is_identity(ref_region, ref_lp):
    res = pl.normalize(ref_region, ref_lp.objective)
    assert res.theta0 == 0.0
    assert res.translation == pl.Vec2(0.0, 0.0)
    assert not res.translated_along_ones
    assert res.objective == pl.Vec2(2.0, 3.0)
    assert same_cycle(res.region, ref_region, tol=0.0)


def test_normalize_mixed_sign_objective(ref_region):
    c = pl.Vec2(-2.0, 3.0)
    res = pl.normalize(ref_region, c)
    assert res.objective == pl.Vec2(2.0, 3.0)
    # same optimum index before and after (argmax is conjugated)
    vals_before = [c.dot(v.point) for v in ref_region.vertices]
    shift = res.objective.dot(res.translation)
    vals_after = [res.objective.dot(v.point) - shift for v in res.region.vertices]
    for a, b in zip(vals_before, vals_after):
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))
    # every vertex moved into the first quadrant
    for v in res.region.vertices:
        assert v.point.x1 >= 0.0 and v.point.x2 >= 0.0


def test_normalize_negative_objective_translates():
    res = pl.normalize(region_of_points(TRIANGLE), pl.Vec2(-1.0, -1.0))
    assert abs(res.theta0 - math.pi) < 1e-12
    assert res.objective == pl.Vec2(1.0, 1.0)
    assert not res.translated_along_ones
    for v in res.region.vertices:
        assert v.point.x1 >= 0.0 and v.point.x2 >= 0.0
    # alpha = (1 + 1)/min(1, 1) = 2, so the offset is (2, 2)
    assert (res.translation - pl.Vec2(2.0, 2.0)).norm() < 1e-9


def test_normalize_zero_component_falls_back_to_ones():
    res = pl.normalize(region_of_points(TRIANGLE), pl.Vec2(0.0, -1.0))
    assert res.objective == pl.Vec2(0.0, 1.0)
    assert res.translated_along_ones
    for v in res.region.vertices:
        assert v.point.x1 >= 0.0 and v.point.x2 >= 0.0
