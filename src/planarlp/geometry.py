"""Planar geometric primitives: vectors, rotations, lines through the origin.

Angles are plain floats in radians throughout the package; converting to
degrees is left to the presentation layer.  Two wrapping conventions matter:

* polar angles live in (-pi, pi],
* undirected line angles live in (0, pi], with the positive x-axis mapped
  to pi (not 0) so that every line gets exactly one angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonFiniteEntry, ZeroVector

Angle = float  # radians

TAU = math.tau


def _atan2(y: float, x: float) -> float:
    # The +0.0 turns a -0.0 ordinate into +0.0 so atan2 never returns -pi
    # for points on the negative x-axis.
    return math.atan2(y + 0.0, x)


def wrap_angle(a: Angle) -> Angle:
    """Wrap an angle into the half-open range (-pi, pi]."""
    a = math.remainder(a, TAU)
    if a <= -math.pi:
        a += TAU
    return a


def circular_delta(a: Angle, b: Angle) -> float:
    """Signed circular difference a - b, wrapped into (-pi, pi]."""
    return wrap_angle(a - b)


@dataclass(frozen=True)
class Vec2:
    """A point or vector in the plane with finite coordinates."""

    x1: float
    x2: float

    def __post_init__(self):
        if not (math.isfinite(self.x1) and math.isfinite(self.x2)):
            raise NonFiniteEntry(f"non-finite coordinates ({self.x1}, {self.x2})")

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x1 - other.x1, self.x2 - other.x2)

    def scaled(self, s: float) -> "Vec2":
        return Vec2(s * self.x1, s * self.x2)

    def dot(self, other: "Vec2") -> float:
        return self.x1 * other.x1 + self.x2 * other.x2

    def norm(self) -> float:
        return math.hypot(self.x1, self.x2)

    def is_zero(self) -> bool:
        return self.x1 == 0.0 and self.x2 == 0.0


def _pow2_scaled(v: Vec2) -> Vec2:
    """v times the power of two that brings its larger component into
    [1/4, 1/2): the same direction, exactly unless the smaller component
    underflows, and its dot product with a finite point cannot overflow."""
    _, e = math.frexp(max(abs(v.x1), abs(v.x2)))
    return Vec2(math.ldexp(v.x1, -e - 1), math.ldexp(v.x2, -e - 1))


def cross(u: Vec2, v: Vec2) -> float:
    """z-component of the cross product u x v."""
    return u.x1 * v.x2 - u.x2 * v.x1


@dataclass(frozen=True)
class Rotation:
    """A rotation matrix [[cos, -sin], [sin, cos]] stored by its generators."""

    cos_theta: float
    sin_theta: float

    def __post_init__(self):
        r2 = self.cos_theta * self.cos_theta + self.sin_theta * self.sin_theta
        if abs(r2 - 1.0) > 1e-12:
            raise ValueError(f"not a rotation: cos^2+sin^2 = {r2}")

    def transpose(self) -> "Rotation":
        """The inverse rotation."""
        return Rotation(self.cos_theta, -self.sin_theta)

    @property
    def matrix(self) -> tuple[tuple[float, float], tuple[float, float]]:
        c, s = self.cos_theta, self.sin_theta
        return ((c, -s), (s, c))


@dataclass(frozen=True)
class PolarVector:
    """Polar form r (cos phi, sin phi), r >= 0 and phi in (-pi, pi]."""

    r: float
    phi: Angle

    def __post_init__(self):
        if self.r < 0.0:
            raise ValueError(f"negative radius {self.r}")

    def to_vec2(self) -> Vec2:
        return Vec2(self.r * math.cos(self.phi), self.r * math.sin(self.phi))


@dataclass(frozen=True)
class LineThroughOrigin:
    """A line through the origin given by a nonzero normal vector.

    The direction is the normal rotated a quarter turn counterclockwise,
    so (normal, direction) is a positively oriented frame.
    """

    normal: Vec2

    def __post_init__(self):
        if self.normal.is_zero():
            raise ZeroVector("line normal must be nonzero")

    @property
    def direction(self) -> Vec2:
        return Vec2(-self.normal.x2, self.normal.x1)


def rotation_of(theta: Angle) -> Rotation:
    """Rotation by theta radians, counterclockwise."""
    if not math.isfinite(theta):
        raise NonFiniteEntry(f"non-finite angle {theta}")
    return Rotation(math.cos(theta), math.sin(theta))


def apply_rotation(rot: Rotation, v: Vec2) -> Vec2:
    c, s = rot.cos_theta, rot.sin_theta
    return Vec2(c * v.x1 - s * v.x2, s * v.x1 + c * v.x2)


def polar_of(v: Vec2) -> PolarVector:
    """Polar form of v; the zero vector maps to r = 0, phi = 0."""
    r = v.norm()
    if r == 0.0:
        return PolarVector(0.0, 0.0)
    phi = _atan2(v.x2, v.x1)
    if phi <= -math.pi:  # atan2 can round a just-below-axis direction to -pi
        phi += TAU
    return PolarVector(r, phi)


def line_direction_angle(v: Vec2) -> Angle:
    """Angle in (0, pi] of the undirected line spanned by v.

    v and -v give the same answer; a horizontal direction maps to pi.
    """
    if v.is_zero():
        raise ZeroVector("no direction for the zero vector")
    a = _atan2(v.x2, v.x1)
    if a <= 0.0:
        a += math.pi
    if a == 0.0:  # direction rounded to -pi: the line is horizontal
        a = math.pi
    return a


def project_onto_line(x: Vec2, d: LineThroughOrigin) -> Vec2:
    """Orthogonal projection of x onto the line d."""
    n = d.normal
    t = x.dot(n) / n.dot(n)
    return Vec2(x.x1 - t * n.x1, x.x2 - t * n.x2)


def distance_to_line(x: Vec2, d: LineThroughOrigin) -> float:
    """Euclidean distance from x to the line d."""
    n = d.normal
    return abs(x.dot(n)) / n.norm()


def angle_between(u: Vec2, v: Vec2) -> Angle:
    """Unsigned angle between two nonzero vectors, in [0, pi]."""
    nu, nv = u.norm(), v.norm()
    if nu == 0.0 or nv == 0.0:
        raise ZeroVector("angle undefined for the zero vector")
    c = u.dot(v) / (nu * nv)
    return math.acos(max(-1.0, min(1.0, c)))
