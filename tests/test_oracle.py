import copy
import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import planarlp as pl
from planarlp import oracle
from planarlp.errors import GridTooCoarse, PlanarLPError, VertexNeverOptimal, VertexNotInRegion
from planarlp.geometry import _cycle_fault
from planarlp.lp_model import _unchecked_region
from planarlp.sensitivity import _normal_angle
from planarlp.solver import VALUE_TIE_REL
from conftest import (
    FIXTURES,
    circ_close,
    random_bounded_lp,
    region_of_points,
    rng_for,
    square_lp,
    tangent_circle_lp,
    tangent_pool,
    walked_lengths,
)

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


def test_sweep_argmax_grid_layout(ref_region):
    res = pl.sweep_argmax(ref_region, 0.0, 1.0, 0.25)
    assert np.allclose(np.asarray(res.phis), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert res.step == 0.25


def test_sweep_argmax_validates_arguments(ref_region):
    with pytest.raises(ValueError):
        pl.sweep_argmax(ref_region, 1.0, 0.0, STEP)
    with pytest.raises(ValueError):
        pl.sweep_argmax(ref_region, 0.0, 1.0, 0.0)
    for step in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            pl.sweep_argmax(ref_region, 0.0, 1.0, step)
    for lo, hi in ((-math.inf, 0.0), (0.0, math.inf), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError):
            pl.sweep_argmax(ref_region, lo, hi, STEP)


@pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf, 4.0])
def test_interval_by_sweep_validates_step(ref_region, step):
    with pytest.raises(ValueError):
        pl.stable_interval_by_sweep(ref_region, vertex_at(ref_region, 80, 40), step)


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
    assert list(a.phis) == list(b.phis)
    assert list(a.argmax) == list(b.argmax)
    assert a.estimated_interval == b.estimated_interval


def test_sweep_vertex_not_in_region(ref_region):
    with pytest.raises(VertexNotInRegion):
        pl.stable_interval_by_sweep(ref_region, pl.Vertex(pl.Vec2(7.0, 7.0)), STEP)


def test_sweep_never_optimal():
    # a sliver corner whose cone (~0.0006 degrees) slips between samples
    region = region_of_points([(0.0, 0.0), (1.0, 0.0), (2.0, 1e-5), (0.0, 1.0)])
    with pytest.raises(VertexNeverOptimal):
        pl.stable_interval_by_sweep(region, region.vertices[1], math.radians(1.0))


def test_sweep_grid_too_coarse():
    # the cone of (10, 20) spans ~177 degrees, so both angles of a 162 degree
    # grid fall in it and neither cone end is bracketed
    lp = pl.load_lp(FIXTURES / "sharp.lp")
    region = pl.enumerate_vertices(lp)
    x0 = pl.analyze(lp).optimal_vertex
    with pytest.raises(GridTooCoarse, match="too coarse to bracket") as err:
        pl.stable_interval_by_sweep(region, x0, math.radians(162.0))
    assert isinstance(err.value, PlanarLPError)
    iv = pl.stable_interval_by_sweep(region, x0, math.radians(1.0)).estimated_interval
    assert circ_close(iv.lo, math.radians(-25.5), math.radians(2.0))


def test_sweep_trims_the_angle_past_pi(ref_region):
    # three steps overshoot pi by ~1.9e-9, past the 1e-9 allowance
    step = math.tau / (3 - 0.9e-9)
    assert -math.pi + step * 3 > math.pi + 1e-9
    res = pl.stable_interval_by_sweep(ref_region, vertex_at(ref_region, 100, 0), step)
    assert list(res.phis) == [-math.pi + step, -math.pi + 2.0 * step]
    assert res.argmax[0] == ref_region.index_of(pl.Vec2(100.0, 0.0))


def test_simplex_confirms_cone_edges(ref_lp, ref_region):
    # the simplex, which never builds the polygon, picks x0 just inside the
    # analytic cone and its neighbours just outside it
    i = ref_region.index_of(pl.Vec2(80.0, 40.0))
    vs = ref_region.vertices
    pred, x0, succ = vs[i - 1], vs[i], vs[(i + 1) % len(vs)]
    iv = pl.stable_angle_interval(pred, x0, succ)
    one = math.radians(1.0)
    for phi, expected in (
        (iv.lo - one, pred),
        (iv.lo + one, x0),
        (iv.hi - one, x0),
        (iv.hi + one, succ),
    ):
        c = pl.Vec2(math.cos(phi), math.sin(phi))
        sol = pl.solve_simplex(pl.LinearProgram2D(c, ref_lp.constraints))
        assert sol.unique
        assert (sol.vertex.point - expected.point).norm() < 1e-9


def _walk_winners(phis, vx, vy, rel_tol):
    # the walk's winner at every angle of a sorted array, as a view of its runs
    limit = oracle._limits(vx, vy, rel_tol)
    return oracle._Runs(oracle._walk(phis, vx, vy, rel_tol, limit), range(len(phis)))


def test_backends_agree(ref_region):
    # the grid kernel and the point kernel that bisection calls must pick
    # the same winner at the same angle, to the bit
    vx, vy, _ = oracle._coords(ref_region)
    phis = np.linspace(-math.pi, math.pi, 20001)
    grid = _walk_winners(phis, vx, vy, 1e-9)
    assert list(grid) == [oracle._scan(float(p), vx, vy, 1e-9) for p in phis]
    five = [-2.0, -0.5, 0.3, math.atan(0.5), 1.4]
    at = [oracle._scan(p, vx, vy, 1e-9) for p in five]
    assert list(_walk_winners(np.array(five), vx, vy, 1e-9)) == at
    assert at[3] == pl.TIE


def test_backend_reports_name():
    assert pl.sweep_backend() == "python"


# The near-straight corner: (1/3, 1) in floats lies just right of the line
# from (0, 0) to (1, 3), so the cycle turns right there by a rounding error.
NEAR_STRAIGHT = [(0.0, 0.0), (1.0 / 3.0, 1.0), (1.0, 3.0), (0.0, 3.0)]
SLIVER = [(0.0, 0.0), (1.0, 0.0), (2.0, 1e-5), (0.0, 1.0)]
STRAIGHT = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]
TRIANGLE = region_of_points([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
# Cycles no FeasibleRegion accepts, which the kernel must still get right:
# the straight and near-straight ones above, a reflex corner at (1, 1), and a
# star whose turns are all left but wind twice.
DART = [(0.0, 0.0), (2.0, 1.0), (0.0, 2.0), (1.0, 1.0)]
PENTAGRAM = [(math.cos(0.8 * math.pi * k), math.sin(0.8 * math.pi * k)) for k in range(5)]


def _xy(points):
    return [p[0] for p in points], [p[1] for p in points]


def test_convexity_check():
    # the kernel walks only a cycle that FeasibleRegion's check accepts
    assert _cycle_fault(*_xy(SLIVER)) is None
    assert _cycle_fault(*_xy(STRAIGHT))  # a straight turn takes the full scan
    assert _cycle_fault(*_xy(NEAR_STRAIGHT))
    assert _cycle_fault(*_xy(STRAIGHT[::-1]))  # clockwise
    assert _cycle_fault(*_xy(DART))
    assert _cycle_fault(*_xy(PENTAGRAM))
    assert _cycle_fault(*_xy([(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0)]))
    for points in ([], [(0.0, 0.0)], [(0.0, 0.0), (1.0, 0.0)]):  # too few to wind
        assert _cycle_fault(*_xy(points))


@pytest.mark.parametrize(
    "points, p", [(STRAIGHT, 3), (DART, 1), (PENTAGRAM, 1), (SLIVER, 2)],
    ids=["straight", "dart", "pentagram", "checked"],
)
def test_unchecked_cycles_keep_the_convexity_check(points, p, monkeypatch):
    # a region of _unchecked_region keeps no coordinates, so each sweep
    # decides its convexity again, once, and a refused cycle takes the full
    # scan at every angle; a region the constructor checked skips it
    if points is SLIVER:
        region = region_of_points(points)
    else:
        region = _unchecked_region(tuple(pl.Vertex(pl.Vec2(x, y)) for x, y in points))
        with pytest.raises(AttributeError):
            region._xs
    assert oracle._coords(region) == (*_xy(points), points is SLIVER)
    faults, fault, scan = [], oracle._cycle_fault, oracle._scan

    def counting_fault(xs, ys):
        faults.append(fault(xs, ys))
        return faults[-1]

    monkeypatch.setattr(oracle, "_cycle_fault", counting_fault)
    scans = _counting_scans(monkeypatch)
    step = math.radians(1.0)
    for sweep in (
        lambda: pl.sweep_argmax(region, -math.pi, math.pi, step),
        lambda: pl.stable_interval_by_sweep(region, region.vertices[p], step),
    ):
        faults.clear()
        scans.clear()
        res = sweep()
        if points is SLIVER:
            assert faults == [] and len(scans) < len(res.phis) // 4
        else:
            assert len(faults) == 1 and faults[0]
            assert _holds_runs(res.argmax) and len(scans) >= len(res.phis)
            assert list(res.argmax) == [scan(phi, *_xy(points), VALUE_TIE_REL) for phi in res.phis]


def _cycle(kind, rng):
    if kind == "lp":
        return oracle._coords(pl.enumerate_vertices(random_bounded_lp(rng)))[:2]
    if kind == "tangent":
        m = int(rng.integers(4, 65))
        return oracle._coords(pl.enumerate_vertices(tangent_circle_lp(rng, m)))[:2]
    if kind == "sliver":
        return oracle._coords(region_of_points(SLIVER))[:2]
    points = {"near-straight": NEAR_STRAIGHT, "straight": STRAIGHT, "dart": DART}
    return _xy(points.get(kind, PENTAGRAM))


@settings(deadline=None, max_examples=350)
@given(
    kind=st.sampled_from(
        ["lp", "tangent", "sliver", "near-straight", "straight", "dart", "pentagram"]
    ),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-6, 1e-3, 1.0, 7.0, 1e3, 1e8]),
    order=st.sampled_from(["up", "repeats", "turns"]),
    log_step=st.floats(-6.0, math.log10(3.0)),
    count=st.integers(1, 400),
    start=st.floats(-4.0, 4.0),
    rel_tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]),
)
def test_grid_equals_full_scan(kind, seed, scale, order, log_step, count, start, rel_tol):
    # the walk must return exactly what the full scan returns at every angle
    rng = rng_for(seed)
    vx, vy = _cycle(kind, rng)
    vx = [x * scale for x in vx]
    vy = [y * scale for y in vy]
    step = 10.0**log_step
    phis = start + step * np.arange(count, dtype=float)
    # edge normals (ties) and their neighbouring floats
    n = len(vx)
    normals = [math.atan2(vx[k] - vx[(k + 1) % n], vy[(k + 1) % n] - vy[k]) for k in range(n)]
    normals = np.array(normals)
    phis = np.concatenate(
        [phis, normals, np.nextafter(normals, -np.inf), np.nextafter(normals, np.inf)]
    )
    up = np.sort(phis)
    if order == "up":
        phis = up
    elif order == "repeats":  # nondecreasing, with repeated angles
        phis = np.repeat(up, rng.integers(1, 4, len(up)))
    else:  # the grid sweep_argmax samples over four turns
        phis = pl.sweep_argmax(TRIANGLE, -3.0 * math.pi, 5.0 * math.pi, max(step, 0.02)).phis
    grid = _walk_winners(phis, vx, vy, rel_tol)
    assert grid.tobytes() == np.array(list(grid), dtype=np.int64).tobytes()
    assert list(grid) == [oracle._scan(float(p), vx, vy, rel_tol) for p in phis]


@settings(deadline=None, max_examples=150)
@given(
    first=st.floats(-10.0, 10.0),
    log_step=st.floats(-17.0, 0.5),
    start=st.integers(0, 2),
    count=st.integers(1, 1500),
    probes=st.lists(st.floats(-20.0, 20.0), max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_arithmetic_grid_equals_numpy(first, log_step, start, count, probes, seed):
    # every angle, the bytes and searchsorted match numpy's grid to the bit,
    # plateaus of equal angles (a step below an ulp of first) included, and
    # the walk's runs over the grid are maximal and equal the full scan
    step = 10.0**log_step
    grid = oracle._Grid(first, step, range(start, start + count))
    phis = first + step * np.arange(start, start + count, dtype=float)
    assert grid.tobytes() == phis.tobytes()
    assert [grid[k] for k in range(count)] == phis.tolist()
    xs = np.concatenate([phis[:: max(1, count // 40)], phis[-1:], probes])
    for x in np.concatenate([xs, np.nextafter(xs, -np.inf), np.nextafter(xs, np.inf)]):
        assert grid.searchsorted(float(x)) == np.searchsorted(phis, x)
    vx, vy, _ = oracle._coords(pl.enumerate_vertices(tangent_circle_lp(rng_for(seed), 8)))
    runs = oracle._walk(grid, vx, vy, VALUE_TIE_REL, oracle._limits(vx, vy, VALUE_TIE_REL))
    assert [s for s, _, _ in runs] == [0] + [e + 1 for _, e, _ in runs[:-1]]
    assert runs[-1][1] == count - 1
    assert all(a[2] != b[2] for a, b in zip(runs, runs[1:]))
    winners = [p for s, e, p in runs for _ in range(s, e + 1)]
    assert winners == [oracle._scan(grid[k], vx, vy, VALUE_TIE_REL) for k in range(count)]


def test_arithmetic_grid_search_bounds():
    # (x - first) / step overflows to inf for a subnormal step
    grid = oracle._Grid(0.0, 5e-324, range(10))
    assert grid.searchsorted(1.0) == 10
    assert grid.searchsorted(-1.0) == 0
    assert grid.searchsorted(1e-323) == 2


class _CountingMath:
    """Stands in for the math module, counting calls to cos."""

    def __init__(self):
        self.cos_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def cos(self, x):
        self.cos_calls += 1
        return math.cos(x)


@pytest.mark.parametrize("m", [4, 16, 64])
def test_grid_work_does_not_grow_with_density(m, monkeypatch):
    # the walk evaluates cos a bounded number of times per fan edge, full
    # scans included, at any grid density; one per angle would be 36,000
    region = pl.enumerate_vertices(tangent_circle_lp(rng_for(m), m))
    vx, vy, _ = oracle._coords(region)
    limit = oracle._limits(vx, vy, 1e-9)
    n = len(vx)
    grids = [
        (oracle._Grid(-math.pi, step, range(round(turns * math.tau / step) + 1)), turns)
        for step, turns in ((STEP, 1), (0.1 * STEP, 1), (STEP, 3))
    ]
    counting = _CountingMath()
    monkeypatch.setattr(oracle, "math", counting)
    for grid, turns in grids:
        counting.cos_calls = 0
        oracle._walk(grid, vx, vy, 1e-9, limit)
        assert counting.cos_calls <= (4 * n + 4) * turns


@pytest.mark.parametrize("which", ["paper", "tangent-16"])
def test_grid_full_scans_are_few(which, ref_region, monkeypatch):
    # at the 0.01 degree grid the kernel needs the full scan only near the
    # edge normals, also outside (-pi, pi]; a broken certificate would scan
    # every angle and give the speed back
    if which == "paper":
        region = ref_region
    else:
        region = pl.enumerate_vertices(tangent_circle_lp(rng_for(16), 16))
    vx, vy, _ = oracle._coords(region)
    limit = oracle._limits(vx, vy, 1e-9)
    n = len(vx)
    res = pl.sweep_argmax(region, -math.pi, math.pi, STEP)
    scans = []
    scan = oracle._scan

    def counting_scan(*args):
        scans.append(args[0])
        return scan(*args)

    monkeypatch.setattr(oracle, "_scan", counting_scan)
    argmax = res.argmax
    for grid in (oracle._Grid(-math.pi, STEP, range(len(argmax))), np.asarray(res.phis) + math.tau):
        scans.clear()
        runs = oracle._walk(grid, vx, vy, 1e-9, limit)
        assert len(scans) <= 1 + 2 * n
        assert list(oracle._Runs(runs, range(len(grid)))) == list(argmax)


def _counting_scans(monkeypatch):
    # the angle of every later _scan call
    scans, scan = [], oracle._scan

    def counting_scan(*args):
        scans.append(args[0])
        return scan(*args)

    monkeypatch.setattr(oracle, "_scan", counting_scan)
    return scans


def test_sweep_bisection_scans_are_few(ref_region, monkeypatch):
    # at 0.01 degrees the bisection decides its midpoints from x0 and its
    # two neighbours, and needs the full scan only within a rounding error
    # of the cone edge; a full scan per midpoint is 20-22 per sweep
    cases = [(ref_region, vertex_at(ref_region, 80, 40))]
    for t in tangent_pool(1, 16, 16):
        region = pl.enumerate_vertices(t.lp)
        cases.append((region, pl.analyze(t.lp).optimal_vertex))
    scans = _counting_scans(monkeypatch)
    window = oracle._window_runs
    windowed = []

    def counting_window(*args):
        runs = window(*args)
        windowed.append(len(scans))
        return runs

    monkeypatch.setattr(oracle, "_window_runs", counting_window)
    for region, x0 in cases:
        scans.clear()
        windowed.clear()
        pl.stable_interval_by_sweep(region, x0, STEP)
        assert len(windowed) == 1 and len(scans) - windowed[0] <= 4


def _scaled(points, exponent):
    return [(math.ldexp(x, exponent), math.ldexp(y, exponent)) for x, y in points]


def _edge_angles(vx, vy, p, ulps):
    # the normal angles of p's two edges and floats up to ulps either side
    n = len(vx)
    out = []
    for k in (p - 1, p):
        a = _normal_angle(vx[(k + 1) % n] - vx[k % n], vy[(k + 1) % n] - vy[k % n])
        out.append(a)
        lo = hi = a
        for _ in range(ulps):
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
            out += [lo, hi]
    return out


# 2**500 and 2**-500 stay under the walk's 2**1000 gate, 2**1003 is past it
EXPONENTS = [-500, 0, 500, 1003]


@settings(deadline=None, max_examples=200)
@given(
    kind=st.sampled_from(
        ["lp", "tangent", "sliver", "near-straight", "straight", "dart", "pentagram"]
    ),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.sampled_from(EXPONENTS),
    rel_tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]),
    probes=st.lists(st.floats(-4.0, 4.0), max_size=4),
)
def test_wins_equals_full_scan(kind, seed, exponent, rel_tol, probes):
    # the bisection's predicate is the full scan's verdict at every angle,
    # within a few ulps of each cone edge included
    vx, vy = _cycle(kind, rng_for(seed))
    vx, vy = _xy(_scaled(zip(vx, vy), exponent))
    limit = oracle._limits(vx, vy, rel_tol)
    assert bool(limit) == (exponent < 1000 and _cycle_fault(vx, vy) is None)
    for p in range(len(vx)):
        for phi in _edge_angles(vx, vy, p, 4) + probes:
            want = oracle._scan(phi, vx, vy, rel_tol) == p
            assert oracle._wins(p, vx, vy, rel_tol, limit)(phi) == want


def _scan_bisect(inside, outside, p, vx, vy, tol):
    # the bisection on the full scan, the predicate's reference
    while abs(outside - inside) > tol:
        mid = 0.5 * (inside + outside)
        if oracle._scan(mid, vx, vy, VALUE_TIE_REL) == p:
            inside = mid
        else:
            outside = mid
    return 0.5 * (inside + outside)


@settings(deadline=None, max_examples=60)
@given(
    kind=st.sampled_from(["lp", "tangent", "sliver"]),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.sampled_from(EXPONENTS),
    degrees=st.sampled_from([0.25, 1.0, 3.0]),
    picks=st.lists(st.integers(0, 63), min_size=1, max_size=3),
)
def test_sweep_interval_equals_scan_bisection(kind, seed, exponent, degrees, picks):
    # every cone edge the sweep bisects lands on the bit where the full
    # scan's bisection lands, and so does the interval
    vx, vy = _cycle(kind, rng_for(seed))
    # unchecked, as at 2**-500 the edges are shorter than MERGE_TOL
    region = _unchecked_region(
        tuple(pl.Vertex(pl.Vec2(x, y)) for x, y in _scaled(zip(vx, vy), exponent))
    )
    vx, vy, _ = oracle._coords(region)
    bisect = oracle._bisect
    for p in sorted({k % len(vx) for k in picks}):
        calls = []

        def recording(inside, outside, wins, tol):
            got = bisect(inside, outside, wins, tol)
            calls.append((got, _scan_bisect(inside, outside, p, vx, vy, tol)))
            return got

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_bisect", recording)
            try:
                res = pl.stable_interval_by_sweep(region, region.vertices[p], math.radians(degrees))
            except (VertexNeverOptimal, GridTooCoarse):
                continue
        (lo, lo_ref), (hi, hi_ref) = calls
        assert (lo.hex(), hi.hex()) == (lo_ref.hex(), hi_ref.hex())
        shift = pl.wrap_angle(lo_ref) - lo_ref
        assert res.estimated_interval == pl.AngleInterval(lo_ref + shift, hi_ref + shift)


def test_wins_falls_back_to_the_full_scan(ref_region, monkeypatch):
    # next to a cone edge x0 beats its neighbour by less than limit, and the
    # predicate asks the full scan; past the edge the neighbour wins and it
    # does not; a cycle past the 2**1000 gate always takes the full scan
    vx, vy, _ = oracle._coords(ref_region)
    p = ref_region.index_of(pl.Vec2(80.0, 40.0))
    scan = oracle._scan
    scans = _counting_scans(monkeypatch)
    for rel_tol in (0.0, VALUE_TIE_REL):
        limit = oracle._limits(vx, vy, rel_tol)
        close = [
            phi
            for phi in _edge_angles(vx, vy, p, 8)
            if 0.0 < oracle._margin(p, math.cos(phi), math.sin(phi), vx, vy) <= limit[p]
        ]
        assert close
        for phi in close:
            scans.clear()
            assert oracle._wins(p, vx, vy, rel_tol, limit)(phi) == (scan(phi, vx, vy, rel_tol) == p)
            assert scans == [phi]
    limit = oracle._limits(vx, vy, VALUE_TIE_REL)
    outside = _edge_angles(vx, vy, p, 0)[1] + 0.01
    scans.clear()
    assert not oracle._wins(p, vx, vy, VALUE_TIE_REL, limit)(outside)
    assert oracle._wins(p, vx, vy, VALUE_TIE_REL, limit)(outside - 0.02)
    assert scans == []
    big = region_of_points(_scaled(zip(vx, vy), 1003))
    bx, by, _ = oracle._coords(big)
    assert oracle._limits(bx, by, VALUE_TIE_REL) == []
    step = math.radians(1.0)
    res = pl.stable_interval_by_sweep(big, big.vertices[p], step)
    ref = pl.stable_interval_by_sweep(ref_region, ref_region.vertices[p], step)
    assert res.estimated_interval == ref.estimated_interval  # exact scaling
    assert oracle._wins(p, bx, by, VALUE_TIE_REL, [])(outside - 0.02)
    assert scans[-1] == outside - 0.02


@pytest.mark.parametrize("m", [16, 64, 1024])
def test_sweep_work_does_not_grow_with_vertices(m, monkeypatch):
    # with argmax unread, one sweep proves x0's run and that x0 loses
    # elsewhere from a few angles, and bisects: a bounded number of cos
    # calls at any m, where the whole walk makes up to 4n + 4
    region = pl.enumerate_vertices(tangent_circle_lp(rng_for(m), m))
    counting = _CountingMath()
    monkeypatch.setattr(oracle, "math", counting)
    for p in range(0, m, m // 8):
        counting.cos_calls = 0
        res = pl.stable_interval_by_sweep(region, region.vertices[p], STEP)
        assert counting.cos_calls <= 64
        assert not _holds_runs(res.argmax)


def _holds_runs(view):
    # whether a _Runs view holds its runs, found without reading them
    try:
        oracle._Runs.runs.__get__(view)
    except AttributeError:
        return False
    return True


def _outcome(region, x0, step):
    # the interval's bits and the argmax bytes, or the error class
    try:
        res = pl.stable_interval_by_sweep(region, x0, step)
    except (VertexNeverOptimal, GridTooCoarse) as err:
        return type(err)
    iv = res.estimated_interval
    return iv.lo.hex(), iv.hi.hex(), res.argmax.tobytes()


def _full_walk_outcome(region, x0, step):
    # _outcome with the window refused, so that the sweep walks the grid
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_window_runs", lambda *args: None)
        return _outcome(region, x0, step)


def test_window_splits_at_the_seam(ref_region, monkeypatch):
    # the cone of (0, 0) starts at -pi, and both its edges lie within an ulp
    # of grid angles, where x0 ties a neighbour: those angles are decided
    # one by one, x0's run is proved on both sides of the seam with no
    # walk, and the sweep gives the whole walk's answer
    x0 = vertex_at(ref_region, 0, 0)
    lengths = walked_lengths(monkeypatch)
    res = pl.stable_interval_by_sweep(ref_region, x0, STEP)
    assert lengths == [] and not _holds_runs(res.argmax)
    iv = res.estimated_interval
    assert (iv.lo.hex(), iv.hi.hex(), res.argmax.tobytes()) == _full_walk_outcome(
        ref_region, x0, STEP
    )


def test_window_runs_split_at_the_seam(monkeypatch):
    # x0's cone holds the seam on entry 13 of the certify-sweep pool: the
    # window proves, with no walk, one run of x0 that wraps the seam, the
    # whole walk's, and the sweep gives the whole walk's answer
    t = tangent_pool(1, 16, 16)[13]
    region, x0 = pl.enumerate_vertices(t.lp), pl.analyze(t.lp).optimal_vertex
    window, answers = oracle._window_runs, []

    def recording(*args):
        answers.append(window(*args))
        return answers[-1]

    monkeypatch.setattr(oracle, "_window_runs", recording)
    lengths = walked_lengths(monkeypatch)
    res = pl.stable_interval_by_sweep(region, x0, STEP)
    assert lengths == [] and not _holds_runs(res.argmax)
    [[(first, last)]] = answers
    assert first > last
    p, n = region.index_of(x0), len(res.phis)
    assert [(first, last)] == oracle._cyclic_runs(res.argmax.runs, p, n)
    iv = res.estimated_interval
    assert (iv.lo.hex(), iv.hi.hex(), res.argmax.tobytes()) == _full_walk_outcome(region, x0, STEP)


# x0 = (0, 0) of each.  TILTED's edge out has its normal 1e-12 past the
# grid angle -pi/2 at 1 degree; SHARP's cone spans ~3.1 rad.
TILTED = [(0.0, 0.0), (10.0, 1e-11), (-3.0, 7.0)]
SHARP = [(0.0, 0.0), (-10.0, -0.3), (-10.0, -0.7)]


@pytest.mark.parametrize(
    "case, k, degrees",
    [
        pytest.param("square", 2, 1.0, id="square"),
        pytest.param("tilted", 0, 1.0, id="tilted"),
        pytest.param("sharp", 0, 1.0, id="sharp"),
        pytest.param("paper.lp", 1, 90.0, id="coarse"),
        pytest.param("never", 1, 0.37, id="never"),
    ]
    + [
        pytest.param(name, k, degrees, id=f"{name}-{k}-{degrees:g}")
        for name, count in (("paper.lp", 5), ("sharp.lp", 3))
        for k in range(count)
        for degrees in (0.01, 1.0, 2.0)
    ],
)
def test_window_needs_no_walk(case, k, degrees, monkeypatch):
    # at 1 degree every cone edge of the unit square lies on a grid angle,
    # TILTED's x0 = (0, 0) ties its successor at the last grid angle of its
    # cone, SHARP's x0 wins on a run longer than the 3 rad a piece may span,
    # at 90 degrees x0 = (100, 0) of paper.lp ties at one of its two grid
    # angles, and test_sweep_never_optimal's sliver corner wins at no angle
    # of the 0.37 degree grid.  Here and at every vertex of paper.lp and
    # sharp.lp the window proves x0's runs with no walk, and the sweep gives
    # the whole walk's answer
    if case == "square":
        region = pl.enumerate_vertices(square_lp())
        assert region.vertices[k].point == pl.Vec2(1.0, 1.0)
    elif case in ("tilted", "sharp"):
        region = region_of_points(TILTED if case == "tilted" else SHARP)
    elif case == "never":
        region = region_of_points([(0.0, 0.0), (1.0, 0.0), (2.0, 1e-5), (0.0, 1.0)])
    else:
        region = pl.enumerate_vertices(pl.load_lp(FIXTURES / case))
    x0, step = region.vertices[k], math.radians(degrees)
    want = _full_walk_outcome(region, x0, step)
    lengths = walked_lengths(monkeypatch)
    try:
        res = pl.stable_interval_by_sweep(region, x0, step)
    except (VertexNeverOptimal, GridTooCoarse) as err:
        assert lengths == [] and type(err) is want
    else:
        assert lengths == [] and not _holds_runs(res.argmax)
        iv = res.estimated_interval
        assert (iv.lo.hex(), iv.hi.hex(), res.argmax.tobytes()) == want
    if case == "sharp":
        vx, vy, _ = oracle._coords(region)
        lo, hi = (_normal_angle(vx[j] - vx[j - 1], vy[j] - vy[j - 1]) for j in (0, 1))
        assert 3.0 < hi - lo < math.pi


# A corner whose cone, ~1e-10 rad, is too narrow for the proof at the
# middle of the rest of the turn, where x0's successor beats it by ~5e-11.
NEEDLE = [(0.0, 0.0), (1.0, 0.0), (2.0, 1e-10), (0.0, 1.0)]


@pytest.mark.parametrize(
    "case", ["needle", "coarse", "past-gate", "fan-late", "fan-early", "fan-beside"]
)
def test_window_falls_back_to_the_full_walk(case, ref_region, monkeypatch):
    # a failed proof, a cone whose grid angles and rest overlap in the turn,
    # a cycle that _limits refuses, a fan formula 0.01 rad off, so that a
    # piece of x0's run fails, and one 1e-4 rad off, under a step, so that
    # x0 wins at the grid angle beside its guessed cone, each take the whole
    # walk, with an eager argmax and the same answer
    region, x0, step = ref_region, vertex_at(ref_region, 80, 40), STEP
    if case == "needle":
        region = region_of_points(NEEDLE)
        x0, step = region.vertices[1], math.radians(1.0)
    elif case == "coarse":  # both grid angles lie in x0's cone
        lp = pl.load_lp(FIXTURES / "sharp.lp")
        region, x0 = pl.enumerate_vertices(lp), pl.analyze(lp).optimal_vertex
        step = math.radians(162.0)
    elif case == "past-gate":
        region = region_of_points(_scaled(zip(*oracle._coords(ref_region)[:2]), 1003))
        x0 = region.vertices[ref_region.index_of(x0.point)]
    want = _full_walk_outcome(region, x0, step)
    if case.startswith("fan"):
        skew = {"fan-late": 0.01, "fan-early": -0.01, "fan-beside": 1e-4}[case]
        normal_angle = oracle._normal_angle
        monkeypatch.setattr(oracle, "_normal_angle", lambda e1, e2: normal_angle(e1, e2) + skew)
    lengths = walked_lengths(monkeypatch)
    try:
        res = pl.stable_interval_by_sweep(region, x0, step)
    except (VertexNeverOptimal, GridTooCoarse) as err:
        assert type(err) is want
    else:
        assert _holds_runs(res.argmax)
        iv = res.estimated_interval
        assert (iv.lo.hex(), iv.hi.hex(), res.argmax.tobytes()) == want
    assert lengths[-1] == int(math.floor(math.tau / step + 1e-9))


@settings(deadline=None, max_examples=200)
@given(
    kind=st.sampled_from(
        ["lp", "tangent", "sliver", "near-straight", "straight", "dart", "pentagram"]
    ),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.sampled_from(EXPONENTS),
    degrees=st.floats(0.01, 3.0),
    pick=st.integers(0, 63),
)
def test_window_equals_full_walk(kind, seed, exponent, degrees, pick):
    # the interval's bits, the error class and the argmax bytes are those
    # of the sweep that walks the whole grid
    vx, vy = _cycle(kind, rng_for(seed))
    region = _unchecked_region(
        tuple(pl.Vertex(pl.Vec2(x, y)) for x, y in _scaled(zip(vx, vy), exponent))
    )
    x0 = region.vertices[pick % len(region.vertices)]
    step = math.radians(degrees)
    assert _outcome(region, x0, step) == _full_walk_outcome(region, x0, step)


def test_deferred_argmax_reads_as_the_eager_view(ref_region):
    # the window leaves argmax unwalked; len needs no walk, and a copy made
    # at the first read equals one made after it, a view of the whole
    # walk's runs, in ==, hash and repr; a pickle holds the runs
    x0 = vertex_at(ref_region, 80, 40)
    first = pl.stable_interval_by_sweep(ref_region, x0, STEP).argmax
    later = pl.stable_interval_by_sweep(ref_region, x0, STEP).argmax
    assert len(first) == 36000 and not _holds_runs(first)
    early = copy.copy(first)
    later[0]
    assert _holds_runs(first) and _holds_runs(later)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_window_runs", lambda *args: None)
        eager = pl.stable_interval_by_sweep(ref_region, x0, STEP).argmax
    assert _holds_runs(eager)
    for view in (early, copy.deepcopy(later), first, later):
        assert view == eager and hash(view) == hash(eager) and repr(view) == repr(eager)
    fresh = pl.stable_interval_by_sweep(ref_region, x0, STEP).argmax
    data = pickle.dumps(fresh)
    assert len(data) < 8 * 1024
    loaded = pickle.loads(data)
    assert type(loaded) is oracle._Runs and _holds_runs(loaded) and loaded == eager


def _runs_by_loop(mask):
    # the index-by-index loop over a winner mask that the run-list merge
    # replaced, kept as its reference
    idx = np.flatnonzero(mask)
    runs = []
    start = prev = int(idx[0])
    for k in idx[1:]:
        k = int(k)
        if k == prev + 1:
            prev = k
        else:
            runs.append((start, prev))
            start = prev = k
    runs.append((start, prev))
    if len(runs) > 1 and runs[0][0] == 0 and runs[-1][1] == len(mask) - 1:
        s, _ = runs.pop()
        runs[0] = (s, runs[0][1])
    return runs


def _walk_runs(mask):
    # the maximal (start, end, winner) runs the walk emits for these winners
    runs, k = [], 0
    for value, group in itertools.groupby(mask.tolist()):
        size = len(list(group))
        runs.append((k, k + size - 1, int(value)))
        k += size
    return runs


@settings(deadline=None, max_examples=300)
@given(
    bits=st.lists(st.booleans(), min_size=1, max_size=60).filter(any),
    kind=st.sampled_from(["random", "one-run", "at-start", "at-end", "wraps"]),
    a=st.integers(0, 59),
    b=st.integers(0, 59),
)
def test_cyclic_runs_equals_loop(bits, kind, a, b):
    mask = np.array(bits)
    n = len(mask)
    lo, hi = sorted((a % n, b % n))
    if kind != "random":
        mask[:] = False
    if kind == "one-run":
        mask[lo : hi + 1] = True
    elif kind == "at-start":
        mask[: hi + 1] = True
    elif kind == "at-end":
        mask[lo:] = True
    elif kind == "wraps":
        mask[: lo + 1] = True
        mask[hi:] = True
    assert oracle._cyclic_runs(_walk_runs(mask), 1, n) == _runs_by_loop(mask)


def test_cyclic_runs_merges_the_seam():
    mask = np.array([True, True, False, True, False, False, True])
    assert oracle._cyclic_runs(_walk_runs(mask), 1, 7) == [(6, 1), (3, 3)]
    assert oracle._cyclic_runs(_walk_runs(np.array([True])), 1, 1) == [(0, 0)]


@pytest.mark.parametrize(
    "sweep",
    [
        lambda r: pl.stable_interval_by_sweep(r, r.vertices[0], 5e-324),
        lambda r: pl.sweep_argmax(r, -1e308, 1e308, 1.0),
        lambda r: pl.sweep_argmax(r, -1.0, 1.0, 1e-300),
    ],
    ids=["interval-subnormal-step", "argmax-huge-range", "argmax-tiny-step"],
)
def test_sweep_refuses_too_many_angles(ref_region, sweep):
    # a ValueError before the grid size is converted or allocated, not an
    # OverflowError or numpy's allocation error
    with pytest.raises(ValueError, match="angles"):
        sweep(ref_region)


def test_sweep_angle_cap_is_exact(ref_region, monkeypatch):
    # a grid of exactly _MAX_SWEEP_ANGLES angles runs; one more is refused
    x0 = ref_region.vertices[0]
    monkeypatch.setattr(oracle, "_MAX_SWEEP_ANGLES", 1000)
    assert len(pl.sweep_argmax(ref_region, 0.0, 1.0, 1.0 / 999).phis) == 1000
    assert len(pl.stable_interval_by_sweep(ref_region, x0, math.tau / 1000).phis) == 1000
    monkeypatch.setattr(oracle, "_MAX_SWEEP_ANGLES", 999)
    with pytest.raises(ValueError, match="999 angles"):
        pl.sweep_argmax(ref_region, 0.0, 1.0, 1.0 / 999)
    with pytest.raises(ValueError, match="999 angles"):
        pl.stable_interval_by_sweep(ref_region, x0, math.tau / 1000)


@pytest.mark.parametrize("turns", [1, 10])
def test_grid_memory_is_blockwise(turns):
    # the kernel walks an arithmetic grid without building it: its peak is
    # an allowance that does not grow with the grid
    region = pl.enumerate_vertices(tangent_circle_lp(rng_for(16), 16))
    vx, vy, _ = oracle._coords(region)
    grid = oracle._Grid(-math.pi, STEP, range(1, 1 + turns * 36000))
    tracemalloc.start()
    try:
        oracle._walk(grid, vx, vy, 1e-9, oracle._limits(vx, vy, 1e-9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


@pytest.mark.parametrize(
    "sweep",
    [
        lambda r: pl.stable_interval_by_sweep(r, r.vertices[0], STEP),
        lambda r: pl.sweep_argmax(r, -math.pi, math.pi, STEP),
    ],
    ids=["interval", "argmax"],
)
def test_sweep_builds_nothing_when_read(sweep):
    # neither a sweep nor a read of its phis and argmax allocates a block of
    # 8 bytes per angle: both are views of the grid and of the runs, and a
    # pickle of the result holds the runs, not the angles
    region = pl.enumerate_vertices(tangent_circle_lp(rng_for(16), 16))
    warm = sweep(region)  # lazy set-up
    warm.phis[-1], warm.argmax[-1]
    tracemalloc.start()
    try:
        res = sweep(region)
        _, sweep_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        phis, argmax = res.phis, res.argmax
        len(phis), phis[0], phis[-1], len(argmax), argmax[0], argmax[-1]
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = 8 * len(phis)
    assert size >= 8 * 36000
    assert sweep_peak < size // 4
    assert read_peak - before < 8 * 1024
    assert res.phis is phis and res.argmax is argmax
    assert len(pickle.dumps(res)) < 8 * 1024
    assert phis.tobytes() == warm.phis.tobytes()
    assert argmax.tobytes() == warm.argmax.tobytes()


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r)), None],
    ids=["copy", "deepcopy", "pickle", "repr"],
)
def test_kernel_result_copies_eager_arrays(ref_region, clone):
    # a copy of a sweep's result holds the bytes that the eager numpy
    # expressions give, float64 angles and int64 winners; its repr shows
    # the two views, whose size does not grow with the grid
    x0 = vertex_at(ref_region, 80, 40)
    step = math.radians(0.5)
    res = pl.stable_interval_by_sweep(ref_region, x0, step)
    phis = -math.pi + step * np.arange(1, 721, dtype=float)
    vx, vy, _ = oracle._coords(ref_region)
    argmax = np.array([oracle._scan(p, vx, vy, VALUE_TIE_REL) for p in phis.tolist()], np.int64)
    if clone is None:
        assert repr(res.phis) == f"_Grid(first={-math.pi!r}, step={step!r}, indices=range(1, 721))"
        assert len(repr(res.argmax)) < 200
        assert repr(res) == (
            f"SweepResult(region={ref_region!r}, phis={res.phis!r}, argmax={res.argmax!r}, "
            f"step={step!r}, estimated_interval={res.estimated_interval!r})"
        )
        return
    other = clone(res)
    assert type(other) is pl.SweepResult and other is not res
    assert other.phis == res.phis and other.argmax == res.argmax
    assert other.phis.tobytes() == phis.tobytes()
    assert len(other.argmax.tobytes()) == 8 * len(argmax)
    assert other.argmax.tobytes() == argmax.tobytes()
    assert (other.region, other.step) == (ref_region, step)
    assert other.estimated_interval == res.estimated_interval


@settings(deadline=None, max_examples=200)
@given(
    cut=st.slices(720),
    k=st.integers(-720, 719),
    probes=st.lists(st.floats(-4.0, 4.0), max_size=4),
)
def test_sweep_views_index_as_the_arrays(cut, k, probes):
    # indexing, slicing (of a slice too) and searchsorted on an upward
    # slice give what the eager arrays give, to the bit
    region = pl.enumerate_vertices(pl.load_lp(FIXTURES / "paper.lp"))
    step = math.radians(0.5)
    res = pl.stable_interval_by_sweep(region, region.vertices[2], step)
    phis = -math.pi + step * np.arange(1, 721, dtype=float)
    vx, vy, _ = oracle._coords(region)
    argmax = np.array([oracle._scan(p, vx, vy, VALUE_TIE_REL) for p in phis.tolist()], np.int64)
    for view, array in ((res.phis, phis), (res.argmax, argmax)):
        assert view[k] == array[k]
        for bad in (720, -721):
            with pytest.raises(IndexError):
                view[bad]
        part = view[cut]
        assert len(part) == len(array[cut])
        assert part.tobytes() == array[cut].tobytes()
        assert part[::-2].tobytes() == array[cut][::-2].tobytes()
    if (cut.step or 1) > 0:
        part = res.phis[cut]
        for x in probes + list(phis[cut][:3]):
            assert part.searchsorted(x) == np.searchsorted(phis[cut], x)
