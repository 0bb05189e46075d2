import math

import pytest
from hypothesis import given, strategies as st

import planarlp as pl
from planarlp.errors import NonFiniteEntry, ZeroVector
from planarlp.geometry import TAU

finite = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)
angles = st.floats(min_value=-10.0, max_value=10.0)


def nonzero_vec(x, y):
    return abs(x) > 1e-6 or abs(y) > 1e-6


# --- Vec2 / Rotation construction -------------------------------------------

def test_vec2_rejects_non_finite():
    with pytest.raises(NonFiniteEntry):
        pl.Vec2(math.inf, 0.0)
    with pytest.raises(NonFiniteEntry):
        pl.Vec2(0.0, math.nan)


def test_rotation_validates_generators():
    with pytest.raises(ValueError):
        pl.Rotation(1.0, 1.0)


@pytest.mark.parametrize("c, s", [(math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan)])
def test_rotation_rejects_nan(c, s):
    with pytest.raises(ValueError):
        pl.Rotation(c, s)


def test_rotation_quarter_turn():
    rot = pl.rotation_of(0.5 * math.pi)
    v = pl.apply_rotation(rot, pl.Vec2(2.0, 3.0))
    assert abs(v.x1 - (-3.0)) < 1e-12
    assert abs(v.x2 - 2.0) < 1e-12


def test_rotation_half_turn_flips():
    v = pl.apply_rotation(pl.rotation_of(math.pi), pl.Vec2(-1.0, -1.0))
    assert abs(v.x1 - 1.0) < 1e-12
    assert abs(v.x2 - 1.0) < 1e-12


@given(angles, finite, finite)
def test_rotation_preserves_norm(theta, x, y):
    v = pl.Vec2(x, y)
    w = pl.apply_rotation(pl.rotation_of(theta), v)
    assert abs(w.norm() - v.norm()) <= 1e-9 * max(1.0, v.norm())


@given(angles, finite, finite, finite, finite)
def test_rotation_preserves_dot(theta, x1, y1, x2, y2):
    rot = pl.rotation_of(theta)
    u, v = pl.Vec2(x1, y1), pl.Vec2(x2, y2)
    before = u.dot(v)
    after = pl.apply_rotation(rot, u).dot(pl.apply_rotation(rot, v))
    assert abs(before - after) <= 1e-9 * max(1.0, abs(before))


@given(angles, finite, finite)
def test_transpose_inverts(theta, x, y):
    rot = pl.rotation_of(theta)
    v = pl.Vec2(x, y)
    w = pl.apply_rotation(rot.transpose(), pl.apply_rotation(rot, v))
    assert abs(w.x1 - v.x1) <= 1e-9 * max(1.0, abs(v.x1))
    assert abs(w.x2 - v.x2) <= 1e-9 * max(1.0, abs(v.x2))


# --- polar form --------------------------------------------------------------

@pytest.mark.parametrize(
    "r, phi", [(math.nan, 0.0), (1.0, math.nan), (-1.0, 0.0), (1.0, math.inf)]
)
def test_polar_vector_rejects_nan_negative_and_infinite_angle(r, phi):
    with pytest.raises(ValueError):
        pl.PolarVector(r, phi)


def test_polar_vector_allows_infinite_radius():
    # analyze reports r = inf when |c| overflows (test_analyze_large_objective)
    assert pl.PolarVector(math.inf, 0.25).r == math.inf


def test_polar_of_reference_gradient():
    p = pl.polar_of(pl.Vec2(2.0, 3.0))
    assert abs(p.r - math.sqrt(13.0)) < 1e-12
    assert abs(p.phi - math.atan2(3.0, 2.0)) < 1e-15


def test_polar_of_edge_vector():
    p = pl.polar_of(pl.Vec2(-20.0, 40.0))
    assert abs(p.r - 20.0 * math.sqrt(5.0)) < 1e-12
    assert abs(math.degrees(p.phi) - 116.56505117707799) < 1e-9


def test_polar_of_zero_is_zero():
    p = pl.polar_of(pl.Vec2(0.0, 0.0))
    assert p.r == 0.0 and p.phi == 0.0


def test_polar_phi_range_negative_zero():
    # (-1, -0.0) must land on +pi, not -pi
    p = pl.polar_of(pl.Vec2(-1.0, -0.0))
    assert p.phi == math.pi


@given(finite, finite)
def test_polar_round_trip(x, y):
    v = pl.Vec2(x, y)
    p = pl.polar_of(v)
    w = p.to_vec2()
    assert (w - v).norm() <= 1e-9 * max(1.0, v.norm())
    assert -math.pi < p.phi <= math.pi


# --- line direction angle ----------------------------------------------------

@pytest.mark.parametrize(
    "v,expected_deg",
    [
        ((1.0, 1.0), 45.0),
        ((-1.0, -1.0), 45.0),
        ((5.0, 0.0), 180.0),
        ((-5.0, 0.0), 180.0),
        ((0.0, 3.0), 90.0),
        ((-20.0, 40.0), 116.56505117707799),
        ((-20.0, 10.0), 153.43494882292202),
    ],
)
def test_line_direction_angle_examples(v, expected_deg):
    a = pl.line_direction_angle(pl.Vec2(*v))
    assert abs(math.degrees(a) - expected_deg) < 1e-9
    assert 0.0 < a <= math.pi


def test_line_direction_angle_zero_vector():
    with pytest.raises(ZeroVector):
        pl.line_direction_angle(pl.Vec2(0.0, 0.0))


@given(finite, finite, st.floats(min_value=-100, max_value=100))
def test_line_direction_angle_scale_invariant(x, y, s):
    if not nonzero_vec(x, y) or abs(s) < 1e-6:
        return
    v = pl.Vec2(x, y)
    a = pl.line_direction_angle(v)
    b = pl.line_direction_angle(v.scaled(s))
    assert abs(a - b) < 1e-9 or abs(abs(a - b) - math.pi) < 1e-9
    # sign flips keep the angle in (0, pi], so they must agree exactly there
    assert 0.0 < b <= math.pi


# --- projection and distance -------------------------------------------------

def test_project_reference_point():
    line = pl.LineThroughOrigin(pl.Vec2(2.0, 3.0))
    q = pl.project_onto_line(pl.Vec2(80.0, 40.0), line)
    assert abs(q.x1 - 480.0 / 13.0) < 1e-12
    assert abs(q.x2 - (-320.0 / 13.0)) < 1e-12
    # the residual x - P(x) is parallel to the normal
    assert abs(q.dot(pl.Vec2(2.0, 3.0))) < 1e-9


def test_distance_reference_point():
    line = pl.LineThroughOrigin(pl.Vec2(2.0, 3.0))
    d = pl.distance_to_line(pl.Vec2(80.0, 40.0), line)
    assert abs(d - 280.0 / math.sqrt(13.0)) < 1e-12


@given(finite, finite, finite, finite)
def test_projection_idempotent(x, y, nx, ny):
    if not nonzero_vec(nx, ny):
        return
    line = pl.LineThroughOrigin(pl.Vec2(nx, ny))
    p1 = pl.project_onto_line(pl.Vec2(x, y), line)
    p2 = pl.project_onto_line(p1, line)
    assert (p2 - p1).norm() <= 1e-9 * max(1.0, p1.norm())


@given(finite, finite, finite, finite)
def test_projected_point_is_on_line(x, y, nx, ny):
    if not nonzero_vec(nx, ny):
        return
    line = pl.LineThroughOrigin(pl.Vec2(nx, ny))
    p = pl.project_onto_line(pl.Vec2(x, y), line)
    assert abs(p.dot(line.normal)) <= 1e-6 * max(1.0, p.norm()) * line.normal.norm()


@given(angles, angles, finite, finite, st.floats(min_value=-50, max_value=50))
def test_projected_segment_shrinks_by_cos(a, b, ox, oy, t):
    # M, N on a line with direction angle a; project both onto the line
    # with direction angle b: |P(M)-P(N)| = |M-N| |cos(angle between)|.
    if abs(t) < 1e-3:
        return
    u = pl.Vec2(math.cos(a), math.sin(a))
    m = pl.Vec2(ox, oy)
    n = m + u.scaled(t)
    line = pl.LineThroughOrigin(pl.Vec2(-math.sin(b), math.cos(b)))
    pm = pl.project_onto_line(m, line)
    pn = pl.project_onto_line(n, line)
    lhs = (pm - pn).norm()
    rhs = (m - n).norm() * abs(math.cos(pl.angle_between(u, line.direction)))
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)


# --- angle helpers -----------------------------------------------------------

def test_angle_between_example():
    a = pl.angle_between(pl.Vec2(2.0, 3.0), pl.Vec2(-1.0, 2.0))
    assert abs(a - math.acos(4.0 / math.sqrt(65.0))) < 1e-12


def test_angle_between_zero_vector():
    with pytest.raises(ZeroVector):
        pl.angle_between(pl.Vec2(0.0, 0.0), pl.Vec2(1.0, 0.0))


def test_line_through_origin_direction():
    line = pl.LineThroughOrigin(pl.Vec2(2.0, 3.0))
    assert line.direction == pl.Vec2(-3.0, 2.0)
    with pytest.raises(ZeroVector):
        pl.LineThroughOrigin(pl.Vec2(0.0, 0.0))


@pytest.mark.parametrize(
    "a,expected",
    [
        (0.0, 0.0),
        (math.pi, math.pi),
        (-math.pi, math.pi),
        (1.5 * math.pi, -0.5 * math.pi),
        (-1.5 * math.pi, 0.5 * math.pi),
        (5.0 * TAU + 0.25, 0.25),
    ],
)
def test_wrap_angle(a, expected):
    assert abs(pl.wrap_angle(a) - expected) < 1e-12
    assert -math.pi < pl.wrap_angle(a) <= math.pi


@given(angles, angles)
def test_circular_delta_is_wrapped_difference(a, b):
    d = pl.circular_delta(a, b)
    assert -math.pi < d <= math.pi
    assert abs(math.remainder(a - b - d, TAU)) < 1e-9
