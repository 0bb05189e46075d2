"""Normalization of a solved region to a canonical pose.

A rotation theta0 takes the objective c to (|c1|, |c2|), which has no
negative component; when the rotated region leaves the first quadrant, a
translation along the new objective direction restores nonnegative
coordinates.  Objective values at matching vertices are preserved by the
rotation and shifted by a constant by the translation, so argmax identity
is preserved by both.
"""

from __future__ import annotations

from .errors import NonPositiveAlpha, ZeroObjective
from .geometry import (
    Frozen,
    Vec2,
    _atan2,
    apply_rotation,
    polar_of,
    rotation_of,
    wrap_angle,
)
from .lp_model import FeasibleRegion, Vertex


class NormalizedProblem(Frozen):
    """A region/objective pair after rotation and (maybe) translation.

    translated_along_ones records the fallback direction: when the rotated
    objective has a zero component, the translation cannot follow it into
    the open first quadrant and moves along (1, 1) instead.
    """

    __slots__ = ("region", "objective", "theta0", "translation", "translated_along_ones")
    region: FeasibleRegion
    objective: Vec2
    theta0: float
    translation: Vec2
    translated_along_ones: bool

    _defaults = {"translated_along_ones": False}


def normalizing_rotation(c: Vec2) -> float:
    """The angle in (-pi, pi] rotating c onto (|c1|, |c2|)."""
    if c.is_zero():
        raise ZeroObjective("cannot normalize a zero objective")
    return _normalizing_angle(c.x1, c.x2, polar_of(c).phi)


def _normalizing_angle(c1: float, c2: float, phi: float) -> float:
    """normalizing_rotation of the nonzero objective (c1, c2) whose polar
    angle is phi.  (|c1|, |c2|) lies in the closed first quadrant, so its
    polar angle is _atan2's, which polar_of would not wrap."""
    return wrap_angle(_atan2(abs(c2), abs(c1)) - phi)


def rotate_problem(
    region: FeasibleRegion, c: Vec2, theta: float
) -> tuple[FeasibleRegion, Vec2]:
    """Rotate region and objective rigidly by theta about the origin.

    Vertex order (hence counterclockwise orientation) and active-row sets
    are carried over unchanged.
    """
    rot = rotation_of(theta)
    vertices = tuple(
        Vertex(apply_rotation(rot, v.point), v.active_rows) for v in region.vertices
    )
    return FeasibleRegion(vertices), apply_rotation(rot, c)


def translate_region(
    region: FeasibleRegion, alpha: float, c_rotated: Vec2
) -> tuple[FeasibleRegion, Vec2]:
    """Shift every vertex by alpha * c_rotated; returns (region, offset)."""
    if not alpha > 0.0:
        raise NonPositiveAlpha(f"alpha must be positive, got {alpha}")
    offset = c_rotated.scaled(alpha)
    vertices = tuple(
        Vertex(v.point + offset, v.active_rows) for v in region.vertices
    )
    return FeasibleRegion(vertices), offset


def normalize(region: FeasibleRegion, c: Vec2) -> NormalizedProblem:
    """Rotate the pair to a nonnegative objective, then translate the
    region into the first quadrant if the rotation pushed it out."""
    theta0 = normalizing_rotation(c)
    rotated, _ = rotate_problem(region, c, theta0)
    objective = Vec2(abs(c.x1), abs(c.x2))

    min_coord = min(
        min(v.point.x1, v.point.x2) for v in rotated.vertices
    )
    if min_coord >= 0.0:
        return NormalizedProblem(rotated, objective, theta0, Vec2(0.0, 0.0))

    along_ones = objective.x1 == 0.0 or objective.x2 == 0.0
    if along_ones:
        alpha = -min_coord + 1.0
        shifted, offset = translate_region(rotated, alpha, Vec2(1.0, 1.0))
    else:
        alpha = (max(0.0, -min_coord) + 1.0) / min(
            1.0, min(objective.x1, objective.x2)
        )
        shifted, offset = translate_region(rotated, alpha, objective)
    return NormalizedProblem(shifted, objective, theta0, offset, along_ones)
