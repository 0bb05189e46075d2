"""Planar geometric primitives: vectors, rotations, lines through the origin.

Angles are plain floats in radians throughout the package; converting to
degrees is left to the presentation layer.  Two wrapping conventions matter:

* polar angles live in (-pi, pi],
* undirected line angles live in (0, pi], with the positive x-axis mapped
  to pi (not 0) so that every line gets exactly one angle.
"""

from __future__ import annotations

import math

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


# Stores a field of a Frozen instance, past the __setattr__ that refuses it.
_set = object.__setattr__

_MISSING = object()  # an argument or default that was not given


class Frozen:
    """Base of the package's immutable value types.

    A subclass names its fields in ``__slots__``, in order, and the defaults
    of trailing fields in a ``_defaults`` dict.  The ``__init__`` here binds
    positional, then keyword arguments to the fields, and raises TypeError
    for a missing, extra, unknown or repeated one, as a real signature would.
    A subclass writes its own ``__init__``, storing each field with ``_set``,
    when it checks or converts its fields, or when it is built once per row
    or per solve, where that form is about twice as fast.  Instances of the
    same class are equal when their fields are; repr is ``Name(field=value,
    ...)``; copy and pickle rebuild an instance by calling the class.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names, cls = self.__slots__, self.__class__.__qualname__
        if len(args) > len(names):
            raise TypeError(f"{cls}() takes {len(names)} arguments, got {len(args)}")
        for name, value in zip(names, args):
            _set(self, name, value)
        for name in names[len(args):]:
            value = kwargs.pop(name, _MISSING)
            if value is _MISSING:
                value = self._defaults.get(name, _MISSING)
                if value is _MISSING:
                    raise TypeError(f"{cls}() missing argument {name!r}")
            _set(self, name, value)
        for name in kwargs:
            kind = "repeated" if name in names else "unexpected"
            raise TypeError(f"{cls}() got {kind} argument {name!r}")

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._astuple()


def _non_finite(x1: float, x2: float) -> NonFiniteEntry:
    return NonFiniteEntry(f"non-finite coordinates ({x1}, {x2})")


class Vec2(Frozen):
    """A point or vector in the plane with finite coordinates."""

    __slots__ = ("x1", "x2")
    x1: float
    x2: float

    def __init__(self, x1: float, x2: float):
        if not (math.isfinite(x1) and math.isfinite(x2)):
            raise _non_finite(x1, x2)
        _set(self, "x1", x1)
        _set(self, "x2", x2)

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


# Shewchuk's (1997) error bound for a 2x2 orientation determinant of float
# differences, (3 + 16 eps) eps with eps = 2**-53, and an absolute term for
# products that fall below the normal range.
_ORIENT_ERR = (3.0 + 16.0 * 2.0**-53) * 2.0**-53
_UNDERFLOW = 2.0**-1060


def _turns_left(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> bool:
    """The turn a -> b -> c of finite points is exactly a strict left turn:
    not straight, not a reversal, not at a zero-length edge, and not right.
    Floats decide it when the filter is sure; otherwise, as when a product
    overflows, exact rationals do."""
    left = (bx - ax) * (cy - by)
    right = (by - ay) * (cx - bx)
    det = left - right
    err = _ORIENT_ERR * (abs(left) + abs(right)) + _UNDERFLOW
    if det > err:
        return True
    if det < -err:
        return False
    from fractions import Fraction

    ax, ay, bx, by, cx, cy = map(Fraction, (ax, ay, bx, by, cx, cy))
    return (bx - ax) * (cy - by) > (by - ay) * (cx - bx)


def _cycle_fault(xs: list[float], ys: list[float]) -> str | None:
    """Why the cycle of finite points (xs[k], ys[k]) is not strictly convex
    and counterclockwise, or None if it is: it must have 3 points or more,
    every turn must be exactly a strict left turn (_turns_left), tested at
    vertex 1, 2, ..., n - 1 and then 0, and the edge directions must wind
    once.  They wind k times when they cross from the lower half-turn
    [pi, 2 pi) into the upper [0, pi) k times, as each turn is below a half
    turn."""
    n = len(xs)
    if n < 3:
        return f"a cycle needs at least 3 vertices, got {n}"
    ax, ay, bx, by = xs[0], ys[0], xs[1], ys[1]
    up_before = by > ay or (by == ay and bx > ax)
    crossings = 0
    for i, (cx, cy) in enumerate(zip(xs[2:] + xs[:2], ys[2:] + ys[:2]), 1):
        # _turns_left's filter, written out so that a sure left turn costs
        # no call
        left = (bx - ax) * (cy - by)
        right = (by - ay) * (cx - bx)
        sure = left - right > _ORIENT_ERR * (abs(left) + abs(right)) + _UNDERFLOW
        if not (sure or _turns_left(ax, ay, bx, by, cx, cy)):
            return f"vertex cycle is not convex counterclockwise at index {i % n}"
        up_after = cy > by or (cy == by and cx > bx)
        crossings += up_after and not up_before
        ax, ay, bx, by, up_before = bx, by, cx, cy, up_after
    if crossings != 1:
        return f"vertex cycle winds {crossings} times, not once"
    return None


class Rotation(Frozen):
    """A rotation matrix [[cos, -sin], [sin, cos]] stored by its generators."""

    __slots__ = ("cos_theta", "sin_theta")
    cos_theta: float
    sin_theta: float

    def __init__(self, cos_theta: float, sin_theta: float):
        r2 = cos_theta * cos_theta + sin_theta * sin_theta
        if not abs(r2 - 1.0) <= 1e-12:  # written so that NaN fails
            raise ValueError(f"not a rotation: cos^2+sin^2 = {r2}")
        _set(self, "cos_theta", cos_theta)
        _set(self, "sin_theta", sin_theta)


class PolarVector(Frozen):
    """Polar form r (cos phi, sin phi), r >= 0 and phi in (-pi, pi].

    r may be infinite (the norm of a huge finite vector overflows); NaN is
    rejected in both fields.
    """

    __slots__ = ("r", "phi")
    r: float
    phi: Angle

    def __init__(self, r: float, phi: Angle):
        if not r >= 0.0:
            raise ValueError(f"negative or NaN radius {r}")
        if not -math.inf < phi < math.inf:
            raise ValueError(f"non-finite angle {phi}")
        _set(self, "r", r)
        _set(self, "phi", phi)

    def to_vec2(self) -> Vec2:
        return Vec2(self.r * math.cos(self.phi), self.r * math.sin(self.phi))


class LineThroughOrigin(Frozen):
    """A line through the origin given by a nonzero normal vector.

    The direction is the normal rotated a quarter turn counterclockwise,
    so (normal, direction) is a positively oriented frame.
    """

    __slots__ = ("normal",)
    normal: Vec2

    def __init__(self, normal: Vec2):
        if normal.is_zero():
            raise ZeroVector("line normal must be nonzero")
        _set(self, "normal", normal)

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
    return _line_angle(v.x1, v.x2)


def _line_angle(x1: float, x2: float) -> Angle:
    """line_direction_angle of the nonzero vector (x1, x2), from its floats."""
    a = _atan2(x2, x1)
    if a <= 0.0:
        a += math.pi
    if a == 0.0:  # direction rounded to -pi: the line is horizontal
        a = math.pi
    return a


def distance_to_line(x: Vec2, d: LineThroughOrigin) -> float:
    """Euclidean distance from x to the line d."""
    n = d.normal
    return abs(x.dot(n)) / n.norm()

