import math

import numpy as np
import pytest

import planarlp as pl
from planarlp import oracle
from planarlp.errors import VertexNeverOptimal, VertexNotInRegion
from conftest import circ_close, region_of_points, rng_for, square_lp

STEP = math.radians(0.01)


def vertex_at(region, x, y):
    return region.vertices[region.index_of(pl.Vec2(x, y))]


def test_sweep_argmax_samples(ref_region):
    # at 45 degrees the winner is (80, 40); at 20 degrees it is (100, 0)
    res = pl.sweep_argmax(ref_region, math.radians(45.0), math.radians(46.0), STEP)
    assert res.argmax[0] == ref_region.index_of(pl.Vec2(80.0, 40.0))
    res = pl.sweep_argmax(ref_region, math.radians(20.0), math.radians(21.0), STEP)
    assert res.argmax[0] == ref_region.index_of(pl.Vec2(100.0, 0.0))


def test_sweep_argmax_reports_tie(ref_region):
    phi = math.atan(0.5)  # boundary between (100,0) and (80,40)
    res = pl.sweep_argmax(ref_region, phi, phi + STEP, STEP)
    assert res.argmax[0] == pl.TIE
    first = next(res.samples())
    assert first[1] is None


def test_sweep_argmax_grid_layout(ref_region):
    res = pl.sweep_argmax(ref_region, 0.0, 1.0, 0.25)
    assert np.allclose(res.phis, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert res.step == 0.25


def test_sweep_argmax_validates_arguments(ref_region):
    with pytest.raises(ValueError):
        pl.sweep_argmax(ref_region, 1.0, 0.0, STEP)
    with pytest.raises(ValueError):
        pl.sweep_argmax(ref_region, 0.0, 1.0, 0.0)


def test_interval_by_sweep_reference(ref_region):
    res = pl.stable_interval_by_sweep(ref_region, vertex_at(ref_region, 80, 40), STEP)
    iv = res.estimated_interval
    assert circ_close(iv.lo, math.atan(0.5), 2.0 * STEP)
    assert circ_close(iv.hi, math.atan(2.0), 2.0 * STEP)


def test_interval_by_sweep_square():
    region = pl.enumerate_vertices(square_lp())
    res = pl.stable_interval_by_sweep(region, vertex_at(region, 1, 1), STEP)
    iv = res.estimated_interval
    assert circ_close(iv.lo, 0.0, 2.0 * STEP)
    assert circ_close(iv.hi, 0.5 * math.pi, 2.0 * STEP)


def test_interval_by_sweep_origin_cone(ref_region):
    # the cone of (0, 0) hugs the domain seam: (-180, -90) degrees
    res = pl.stable_interval_by_sweep(ref_region, vertex_at(ref_region, 0, 0), STEP)
    iv = res.estimated_interval
    assert circ_close(iv.lo, -math.pi, 2.0 * STEP)
    assert circ_close(iv.hi, -0.5 * math.pi, 2.0 * STEP)
    assert abs(iv.width - 0.5 * math.pi) < 2.0 * STEP


def test_interval_by_sweep_crosses_zero(ref_region):
    res = pl.stable_interval_by_sweep(ref_region, vertex_at(ref_region, 100, 0), STEP)
    iv = res.estimated_interval
    assert circ_close(iv.lo, -0.5 * math.pi, 2.0 * STEP)
    assert circ_close(iv.hi, math.atan(0.5), 2.0 * STEP)


def test_sweep_self_consistent(ref_region):
    x0 = vertex_at(ref_region, 80, 40)
    res = pl.stable_interval_by_sweep(ref_region, x0, math.radians(0.5))
    iv = res.estimated_interval
    idx = ref_region.index_of(x0)
    for phi, winner in zip(res.phis, res.argmax):
        inside = iv.lo + res.step < phi < iv.hi - res.step
        if inside:
            assert winner == idx


def test_sweep_is_deterministic(ref_region):
    x0 = vertex_at(ref_region, 80, 40)
    a = pl.stable_interval_by_sweep(ref_region, x0, math.radians(0.1))
    b = pl.stable_interval_by_sweep(ref_region, x0, math.radians(0.1))
    assert (a.phis == b.phis).all()
    assert (a.argmax == b.argmax).all()
    assert a.estimated_interval == b.estimated_interval


def test_sweep_vertex_not_in_region(ref_region):
    with pytest.raises(VertexNotInRegion):
        pl.stable_interval_by_sweep(ref_region, pl.Vertex(pl.Vec2(7.0, 7.0)), STEP)


def test_sweep_never_optimal():
    # a sliver corner whose cone (~0.0006 degrees) slips between samples
    region = region_of_points([(0.0, 0.0), (1.0, 0.0), (2.0, 1e-5), (0.0, 1.0)])
    with pytest.raises(VertexNeverOptimal):
        pl.stable_interval_by_sweep(region, region.vertices[1], math.radians(1.0))


def test_sweep_simplex_mode(ref_lp, ref_region):
    res = pl.stable_interval_by_sweep(
        ref_region,
        vertex_at(ref_region, 80, 40),
        math.radians(1.0),
        cross_check_lp=ref_lp,
    )
    iv = res.estimated_interval
    assert circ_close(iv.lo, math.atan(0.5), 2.0 * math.radians(1.0))
    assert circ_close(iv.hi, math.atan(2.0), 2.0 * math.radians(1.0))


def test_backends_agree(ref_region):
    # the grid kernel and the point kernel that bisection calls must pick
    # the same winner at the same angle, to the bit
    vx, vy = oracle._coords(ref_region)
    phis = np.linspace(-math.pi, math.pi, 20001)
    grid = oracle._argmax_grid(phis, vx, vy, 1e-9)
    assert grid.tolist() == [oracle._argmax_at(float(p), vx, vy, 1e-9) for p in phis]
    five = [-2.0, -0.5, 0.3, math.atan(0.5), 1.4]
    at = [oracle._argmax_at(p, vx, vy, 1e-9) for p in five]
    assert oracle._argmax_grid(np.array(five), vx, vy, 1e-9).tolist() == at
    assert at[3] == pl.TIE


def test_backend_reports_name():
    assert pl.sweep_backend() == "python"
