import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import planarlp as pl

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# The reference program: max 2 x1 + 3 x2 over three capacity rows.
REF_VERTICES = [(0.0, 0.0), (100.0, 0.0), (80.0, 40.0), (60.0, 50.0), (0.0, 50.0)]
REF_OPTIMUM = (80.0, 40.0)
REF_VALUE = 280.0
REF_THETA1 = math.pi - math.atan(2.0)        # 116.565...deg
REF_THETA2 = math.pi - math.atan(0.5)        # 153.434...deg
REF_CONE_LO = math.atan(0.5)                 # 26.565...deg
REF_CONE_HI = math.atan(2.0)                 # 63.434...deg
REF_PHI = math.atan2(3.0, 2.0)               # 56.309...deg
REF_R = math.sqrt(13.0)


@pytest.fixture
def ref_lp():
    return pl.load_lp(FIXTURES / "paper.lp")


@pytest.fixture
def ref_region(ref_lp):
    return pl.enumerate_vertices(ref_lp)


@pytest.fixture
def ref_report(ref_lp):
    return pl.analyze(ref_lp)


def square_lp(objective=pl.Vec2(1.0, 1.0)):
    """Unit square: x1 <= 1, x2 <= 1 (plus the implicit x >= 0)."""
    return pl.LinearProgram2D(
        objective,
        (pl.ConstraintRow(1.0, 0.0, 1.0), pl.ConstraintRow(0.0, 1.0, 1.0)),
    )


def triangle_lp(objective=pl.Vec2(1.0, 0.0)):
    """Unit triangle: x1 + x2 <= 1."""
    return pl.LinearProgram2D(objective, (pl.ConstraintRow(1.0, 1.0, 1.0),))


def region_of_points(points):
    """A FeasibleRegion from bare coordinates (empty active sets)."""
    return pl.FeasibleRegion(tuple(pl.Vertex(pl.Vec2(x, y)) for x, y in points))


def random_bounded_lp(rng, *, mixed_sign=False, positive=False, max_rows=8):
    """A bounded LP with b >= 1 (so the origin is strictly feasible).

    mixed_sign forces at least one negative objective component; positive
    forces both components >= 0.1.
    """
    while True:
        m = int(rng.integers(1, max_rows + 1))
        rows = tuple(
            pl.ConstraintRow(
                float(rng.uniform(-10, 10)),
                float(rng.uniform(-10, 10)),
                float(rng.uniform(1, 100)),
            )
            for _ in range(m)
        )
        while True:
            c = pl.Vec2(float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)))
            if c.norm() <= 0.1:
                continue
            if positive and (c.x1 < 0.1 or c.x2 < 0.1):
                continue
            if mixed_sign and c.x1 >= 0.0 and c.x2 >= 0.0:
                continue
            break
        lp = pl.LinearProgram2D(c, rows)
        if pl.check_recession(lp) is pl.Recession.BOUNDED:
            return lp


def tangent_circle_lp(rng, m):
    """m >= 4 lines tangent to the circle of radius 10 about (40, 40), one
    normal angle drawn in each of m equal slots, so the region is bounded;
    the objective is (1, 1)."""
    slot = 2.0 * math.pi / m
    rows = []
    for k in range(m):
        a = -math.pi + slot * (k + float(rng.uniform(0.1, 0.9)))
        ca, sa = math.cos(a), math.sin(a)
        rows.append(pl.ConstraintRow(ca, sa, 40.0 * ca + 40.0 * sa + 10.0))
    return pl.LinearProgram2D(pl.Vec2(1.0, 1.0), tuple(rows))


def tangent_pool(seed, m, count):
    """perfbench's pool of tangent-circle LPs, which the benchmark and the
    digests run, loaded under its own module name."""
    name = "perfbench_instances"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "instances.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name].tangent_pool(seed, m, count)


def same_cycle(a, b, tol=pl.MERGE_TOL):
    """The two regions' vertex cycles match point for point, each within
    tol, after some cyclic shift."""
    p, q = a.points(), b.points()
    n = len(p)
    return len(q) == n and any(
        all((p[i] - q[(i + k) % n]).norm() <= tol for i in range(n)) for k in range(n)
    )


def circ_close(a, b, tol):
    """Angles equal modulo full turns, within tol radians."""
    return abs(pl.circular_delta(a, b)) <= tol


def rng_for(seed):
    return np.random.default_rng(seed)
