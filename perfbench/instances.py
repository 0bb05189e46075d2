"""Seeded instance generators for the pipeline benchmark.

Nothing here calls a planarlp solver.  Boundedness comes from the
construction, and so do the expected answers the benchmark checks against:
only constructors (and, in the worker, serialize_lp) touch the package.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from planarlp import ConstraintRow, LinearProgram2D, Vec2

# Circle the tangent lines touch.  Every polygon vertex lies within
# R / cos(0.9 * pi / 8) < 1.32 R of the centre for m >= 8, so with the centre
# at (4R, 4R) the implicit bounds x >= 0 are never active.
_CENTRE = (40.0, 40.0)
_RADIUS = 10.0

# Objective angles closer than this to a tangent angle are redrawn: there the
# optimum ties between two vertices and analyze() rightly refuses to answer.
_TIE_MARGIN = 1e-6


@dataclass(frozen=True)
class TangentLP:
    """A tangent-circle LP with its closed-form answer.

    cone is the open interval (lo, hi) of gradient angles keeping vertex
    optimal, unwrapped so that lo < phi < hi for the objective angle phi in
    (-pi, pi].
    """

    lp: LinearProgram2D
    vertex: tuple[float, float]
    cone: tuple[float, float]
    rotated: bool  # the objective has a negative component


def tangent_circle_lp(rng: random.Random, m: int, quadrant: int) -> TangentLP:
    """m tangent lines to a fixed circle; the objective angle lies in the
    open quadrant `quadrant` (0 is the first quadrant, counted ccw).

    Tangent angle k is drawn inside slot k of width 2*pi/m, at 10..90 % of
    the slot, so consecutive angles are less than pi apart (the region is
    bounded) and no two vertices crowd together.
    """
    cx, cy = _CENTRE
    slot = math.tau / m
    alphas = [-math.pi + slot * (k + rng.uniform(0.1, 0.9)) for k in range(m)]
    rows = tuple(
        ConstraintRow(math.cos(a), math.sin(a), math.cos(a) * cx + math.sin(a) * cy + _RADIUS)
        for a in alphas
    )
    while True:
        phi = math.remainder(quadrant * 0.5 * math.pi + rng.uniform(0.0, 0.5 * math.pi), math.tau)
        if all(abs(math.remainder(phi - a, math.tau)) > _TIE_MARGIN for a in alphas):
            break
    r = rng.uniform(0.5, 5.0)
    objective = Vec2(r * math.cos(phi), r * math.sin(phi))

    # The optimal vertex joins the two tangent lines whose angles bracket phi.
    k = sum(1 for a in alphas if a < phi) - 1  # -1: phi precedes every alpha
    if k == -1:
        lo, hi, i, j = alphas[-1] - math.tau, alphas[0], m - 1, 0
    elif k == m - 1:
        lo, hi, i, j = alphas[-1], alphas[0] + math.tau, m - 1, 0
    else:
        lo, hi, i, j = alphas[k], alphas[k + 1], k, k + 1
    vertex = _meet(rows[i], rows[j])
    return TangentLP(
        LinearProgram2D(objective, rows),
        vertex,
        (lo, hi),
        objective.x1 < 0.0 or objective.x2 < 0.0,
    )


def tangent_pool(seed: int, m: int, count: int) -> list[TangentLP]:
    """count instances of size m; instance i draws its objective from
    quadrant i % 4, so every pool of a multiple of four has exactly the
    share 3/4 of objectives with a negative component."""
    rng = random.Random(seed)
    return [tangent_circle_lp(rng, m, i % 4) for i in range(count)]


def _meet(p: ConstraintRow, q: ConstraintRow) -> tuple[float, float]:
    det = p.a1 * q.a2 - p.a2 * q.a1
    return ((p.b * q.a2 - q.b * p.a2) / det, (p.a1 * q.b - q.a1 * p.b) / det)


def small_random_lp(rng: random.Random, m: int) -> LinearProgram2D:
    """m random rows with b >= 1 (the origin is interior), one of them with
    a normal in the open first quadrant, so the region is bounded."""
    rows = [
        ConstraintRow(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(1, 100))
        for _ in range(m - 1)
    ]
    g = rng.uniform(0.1, 0.5 * math.pi - 0.1)
    s = rng.uniform(1, 10)
    rows.insert(
        rng.randrange(m), ConstraintRow(s * math.cos(g), s * math.sin(g), rng.uniform(1, 100))
    )
    phi = rng.uniform(-math.pi, math.pi)
    r = rng.uniform(1, 10)
    return LinearProgram2D(Vec2(r * math.cos(phi), r * math.sin(phi)), tuple(rows))


def batch_pool(seed: int, batch_size: int, count: int) -> list[list[LinearProgram2D]]:
    """count batches; LP i of a batch has 1 + i % 8 rows, so every batch has
    the same mix of sizes and batches differ only in their coefficients."""
    rng = random.Random(seed)
    return [
        [small_random_lp(rng, 1 + i % 8) for i in range(batch_size)] for _ in range(count)
    ]
