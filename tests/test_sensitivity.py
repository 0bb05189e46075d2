import math
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import planarlp as pl
from planarlp import solver
from planarlp.errors import (
    CoincidentVertices,
    DegenerateOptimum,
    ReflexVertex,
    RotationOutsideStableCone,
    ZeroObjective,
)
from conftest import (
    FIXTURES,
    REF_CONE_HI,
    REF_CONE_LO,
    REF_PHI,
    REF_R,
    REF_THETA1,
    REF_THETA2,
    circ_close,
    random_bounded_lp,
    region_of_points,
    rng_for,
    square_lp,
    tangent_circle_lp,
    tangent_pool,
)


def corner(p, x0, s):
    return pl.Vertex(pl.Vec2(*p)), pl.Vertex(pl.Vec2(*x0)), pl.Vertex(pl.Vec2(*s))


# --- AngleInterval -----------------------------------------------------------

def test_interval_validation():
    with pytest.raises(ValueError):
        pl.AngleInterval(1.0, 1.0)
    with pytest.raises(ValueError):
        pl.AngleInterval(2.0, 1.0)
    with pytest.raises(ValueError):
        pl.AngleInterval(0.0, math.pi + 0.1)


def test_interval_membership_is_open():
    iv = pl.AngleInterval(0.0, 1.0)
    assert iv.contains(0.5)
    assert not iv.contains(0.0)
    assert not iv.contains(1.0)
    assert iv.contains_circular(0.5 + math.tau)
    assert not iv.contains_circular(1.0 - math.tau)


def test_interval_shift_and_clip():
    iv = pl.AngleInterval(0.2, 1.2)
    assert iv.shifted(1.0).lo == 1.2
    assert iv.clipped(0.5, 2.0) == pl.AngleInterval(0.5, 1.2)
    assert iv.clipped(2.0, 3.0) is None


# --- edge angles -------------------------------------------------------------

def test_edge_angles_reference(ref_report):
    assert abs(ref_report.theta1 - REF_THETA1) < 1e-9
    assert abs(ref_report.theta2 - REF_THETA2) < 1e-9


def test_edge_angles_unit_square_corner():
    t1, t2 = pl.edge_angles(*corner((1, 0), (1, 1), (0, 1)))
    assert abs(t1 - 0.5 * math.pi) < 1e-12
    assert abs(t2 - math.pi) < 1e-12


def test_edge_angles_coincident():
    with pytest.raises(CoincidentVertices):
        pl.edge_angles(*corner((1, 0), (1, 0), (0, 1)))


# --- stable cone of a corner -------------------------------------------------

def test_stable_interval_reference_corner():
    pred, x0, succ = corner((100, 0), (80, 40), (60, 50))
    iv = pl.stable_angle_interval(pred, x0, succ)
    assert abs(iv.lo - REF_CONE_LO) < 1e-12
    assert abs(iv.hi - REF_CONE_HI) < 1e-12


def test_stable_interval_square_corner():
    iv = pl.stable_angle_interval(*corner((1, 0), (1, 1), (0, 1)))
    assert abs(iv.lo - 0.0) < 1e-12
    assert abs(iv.hi - 0.5 * math.pi) < 1e-12


def test_stable_interval_matches_theta_minus_quarter_turn():
    # With both edge angles in (0, pi], the cone endpoints are the edge
    # angles shifted down a quarter turn.
    pred, x0, succ = corner((100, 0), (80, 40), (60, 50))
    iv = pl.stable_angle_interval(pred, x0, succ)
    t1, t2 = pl.edge_angles(pred, x0, succ)
    assert abs(iv.lo - (t1 - 0.5 * math.pi)) < 1e-12
    assert abs(iv.hi - (t2 - 0.5 * math.pi)) < 1e-12


def test_stable_interval_reflex_rejected():
    with pytest.raises(ReflexVertex):
        pl.stable_angle_interval(*corner((0, 1), (1, 1), (1, 0)))
    with pytest.raises(ReflexVertex):  # collinear triple
        pl.stable_angle_interval(*corner((0, 0), (1, 0), (2, 0)))
    with pytest.raises(ReflexVertex):  # right by a rounding error: fl(1/3) < 1/3
        pl.stable_angle_interval(*corner((0, 0), (1 / 3, 1), (1, 3)))


def test_stable_interval_ulp_corners():
    # one ulp right of 1/3 the corner turns left, and has its ~1e-16 wide cone
    x = math.nextafter(1 / 3, 1)
    iv = pl.stable_angle_interval(*corner((0, 0), (x, 1), (1, 3)))
    assert iv.lo == math.atan2(-x, 1.0)
    assert 0.0 < iv.width < 1e-15
    # left turns whose cone ends round equal, or swapped: one ulp wide
    for triple in (
        ((-1.0, 0.0), (0.0, 0.0), (1.0, 1e-300)),
        (
            (-5.496925967272565, -5.59982819283858),
            (0.3, 0.3056159875271382),
            (3.1932586564947787, 3.253036325780781),
        ),
    ):
        iv = pl.stable_angle_interval(*corner(*triple))
        assert iv.hi == math.nextafter(iv.lo, math.inf)


def test_stable_interval_against_local_grid():
    # Brute-force check: inside the cone x0 beats both neighbors, outside
    # (sampled on the rest of the circle) it loses to one of them.
    rng = rng_for(42)
    for _ in range(20):
        x0 = pl.Vec2(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
        a1 = float(rng.uniform(-math.pi, math.pi))
        a2 = a1 + float(rng.uniform(0.2, math.pi - 0.2))
        r1 = float(rng.uniform(0.5, 3.0))
        r2 = float(rng.uniform(0.5, 3.0))
        pred = pl.Vertex(x0 + pl.Vec2(r1 * math.cos(a1), r1 * math.sin(a1)))
        succ = pl.Vertex(x0 + pl.Vec2(r2 * math.cos(a2), r2 * math.sin(a2)))
        try:
            iv = pl.stable_angle_interval(pred, pl.Vertex(x0), succ)
        except ReflexVertex:
            continue
        for k in range(720):
            phi = -math.pi + (k + 0.5) * math.tau / 720
            c = pl.Vec2(math.cos(phi), math.sin(phi))
            wins = c.dot(x0) > max(c.dot(pred.point), c.dot(succ.point))
            inside = iv.contains_circular(phi)
            margin = min(
                abs(pl.circular_delta(phi, iv.lo)), abs(pl.circular_delta(phi, iv.hi))
            )
            if margin > 1e-3:  # skip samples right at the boundary
                assert wins == inside


# --- analyze -----------------------------------------------------------------

def test_analyze_reference_report(ref_report):
    r = ref_report
    assert abs(r.optimal_vertex.point.x1 - 80.0) < 1e-9
    assert abs(r.optimal_vertex.point.x2 - 40.0) < 1e-9
    assert abs(r.optimal_value - 280.0) < 1e-9 * 280.0
    assert abs(r.interval.lo - REF_CONE_LO) < 1e-9
    assert abs(r.interval.hi - REF_CONE_HI) < 1e-9
    assert abs(r.objective_polar.r - REF_R) < 1e-12
    assert abs(r.objective_polar.phi - REF_PHI) < 1e-12
    assert r.phi_inside
    assert r.theta0 == 0.0
    assert abs(r.nu_interval.lo - (REF_CONE_LO - REF_PHI)) < 1e-9
    assert abs(r.nu_interval.hi - (REF_CONE_HI - REF_PHI)) < 1e-9
    assert abs(r.endpoint_ties[0].point.x1 - 100.0) < 1e-9
    assert abs(r.endpoint_ties[1].point.x1 - 60.0) < 1e-9


def test_analyze_duplicate_and_redundant_rows(ref_lp):
    # a copy of row 0 and the redundant x1 + x2 <= 120 both pass through
    # the optimum (80, 40), which must keep the reference cone
    extra = (ref_lp.constraints[0], pl.ConstraintRow(1.0, 1.0, 120.0))
    rows = ref_lp.constraints + extra
    rep = pl.analyze(pl.LinearProgram2D(ref_lp.objective, rows))
    assert abs(rep.optimal_vertex.point.x1 - 80.0) < 1e-9
    assert abs(rep.optimal_vertex.point.x2 - 40.0) < 1e-9
    assert rep.optimal_vertex.active_rows == frozenset({0, 1, 3, 4})
    assert abs(rep.interval.lo - REF_CONE_LO) < 1e-9
    assert abs(rep.interval.hi - REF_CONE_HI) < 1e-9


def test_analyze_square():
    rep = pl.analyze(square_lp(pl.Vec2(1.0, 1.0)))
    assert rep.optimal_vertex.point == pl.Vec2(1.0, 1.0)
    assert abs(rep.interval.lo - 0.0) < 1e-9
    assert abs(rep.interval.hi - 0.5 * math.pi) < 1e-9


def test_analyze_zero_objective():
    with pytest.raises(ZeroObjective):
        pl.analyze(square_lp(pl.Vec2(0.0, 0.0)))


def _edge_normal(lp, u, v):
    """(a1, a2) of the one row tight at both vertices u and v, the x >= 0
    rows included."""
    (i,) = u.active_rows & v.active_rows
    if i == pl.X1_NONNEG:
        return -1.0, 0.0
    if i == pl.X2_NONNEG:
        return 0.0, -1.0
    return lp.constraints[i].a1, lp.constraints[i].a2


# The paper's region has edges on both axes; the tangent one has none, so
# that c along an axis does not tie.
_ANGLE_ROWS = [
    pl.load_lp(FIXTURES / "paper.lp").constraints,
    tangent_circle_lp(rng_for(8), 8).constraints,
]
_component = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.0**-1030, -(2.0**-1022)]
) | st.floats(-10.0, 10.0)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(_ANGLE_ROWS),
    st.builds(pl.Vec2, _component, _component).filter(lambda c: not c.is_zero()),
)
def test_report_angles_keep_the_public_rules(rows, c):
    # No digest hashes theta0, theta1 or theta2: analyze must give, bit for
    # bit, normalizing_rotation(c) and the line_direction_angle of each edge
    # row's direction (-a2, a1), for c in every quadrant.
    lp = pl.LinearProgram2D(c, rows)
    try:
        rep = pl.analyze(lp)
    except DegenerateOptimum:
        return
    assert rep.theta0.hex() == pl.normalizing_rotation(c).hex()
    x0 = rep.optimal_vertex
    for theta, u, v in ((rep.theta1, rep.pred, x0), (rep.theta2, x0, rep.succ)):
        a1, a2 = _edge_normal(lp, u, v)
        assert theta.hex() == pl.line_direction_angle(pl.Vec2(-a2, a1)).hex()


@pytest.mark.parametrize("k", [0.5, 3.0, 1000.0])
def test_analyze_scale_invariant(ref_lp, k):
    base = pl.analyze(ref_lp)
    scaled = pl.analyze(
        pl.LinearProgram2D(ref_lp.objective.scaled(k), ref_lp.constraints)
    )
    assert (scaled.optimal_vertex.point - base.optimal_vertex.point).norm() < 1e-9
    assert abs(scaled.interval.lo - base.interval.lo) < 1e-9
    assert abs(scaled.interval.hi - base.interval.hi) < 1e-9


@pytest.mark.parametrize(
    "obj,tie_points,angle_deg",
    [
        ((2.0, 1.0), {(100, 0), (80, 40)}, 26.56505117707799),
        ((1.0, 2.0), {(80, 40), (60, 50)}, 63.43494882292201),
    ],
)
def test_analyze_degenerate_ties(ref_lp, obj, tie_points, angle_deg):
    lp = pl.LinearProgram2D(pl.Vec2(*obj), ref_lp.constraints)
    with pytest.raises(DegenerateOptimum) as ei:
        pl.analyze(lp)
    got = {
        (round(v.point.x1), round(v.point.x2)) for v in ei.value.tied_vertices
    }
    assert got == tie_points
    assert ei.value.stable_angle is not None
    assert abs(math.degrees(ei.value.stable_angle) - angle_deg) < 1e-6


def test_analyze_mixed_sign_matches_direct_cone():
    rng = rng_for(2024)
    checked = 0
    while checked < 40:
        lp = random_bounded_lp(rng, mixed_sign=True)
        try:
            rep = pl.analyze(lp)
        except DegenerateOptimum:
            continue
        region = pl.enumerate_vertices(lp)
        i = region.index_of(rep.optimal_vertex)
        vs = region.vertices
        direct = pl.stable_angle_interval(vs[i - 1], vs[i], vs[(i + 1) % len(vs)])
        assert (rep.pred, rep.succ) == (vs[i - 1], vs[(i + 1) % len(vs)])
        assert circ_close(direct.lo, rep.interval.lo, 1e-9)
        assert circ_close(direct.hi, rep.interval.hi, 1e-9)
        assert rep.theta0 != 0.0
        assert rep.phi_inside
        checked += 1


def test_analyze_cone_against_resolving(ref_lp, ref_report):
    # Inside the cone the same vertex must win; outside (within 30 degrees
    # of the endpoints) someone else must win or tie.
    iv = ref_report.interval
    x0 = ref_report.optimal_vertex.point
    for k in range(1, 100):
        phi = iv.lo + iv.width * k / 100.0
        lp = pl.LinearProgram2D(pl.Vec2(math.cos(phi), math.sin(phi)), ref_lp.constraints)
        sol = pl.solve_enumeration(lp)
        assert sol.unique
        assert (sol.vertex.point - x0).norm() < 1e-6
    off = math.radians(30.0)
    margin = 1e-6
    for k in range(1, 50):
        for phi in (iv.lo - off * k / 50.0 - margin, iv.hi + off * k / 50.0 + margin):
            lp = pl.LinearProgram2D(
                pl.Vec2(math.cos(phi), math.sin(phi)), ref_lp.constraints
            )
            sol = pl.solve_enumeration(lp)
            assert (not sol.unique) or (sol.vertex.point - x0).norm() > 1e-6


# --- value under gradient rotation -------------------------------------------

def rotated_value_oracle(report, nu):
    """Independent route: rotate the gradient vector and take a dot product."""
    r = report.objective_polar.r
    phi = report.objective_polar.phi + nu
    g = pl.Vec2(r * math.cos(phi), r * math.sin(phi))
    return g.dot(report.optimal_vertex.point)


def test_value_at_zero_rotation(ref_report):
    v = pl.value_under_rotation(ref_report, 0.0)
    assert abs(v - ref_report.optimal_value) <= 1e-9 * 280.0


@pytest.mark.parametrize(
    "nu_deg,expected",
    [(5.0, 264.9896), (-5.0, 292.8794), (2.0, 274.2455), (-20.0, 317.8372)],
)
def test_value_under_rotation_frozen(ref_report, nu_deg, expected):
    nu = math.radians(nu_deg)
    v = pl.value_under_rotation(ref_report, nu)
    assert abs(v - expected) < 1e-3
    assert abs(v - rotated_value_oracle(ref_report, nu)) <= 1e-9 * max(1.0, abs(v))


def test_value_outside_cone_rejected(ref_report):
    with pytest.raises(RotationOutsideStableCone):
        pl.value_under_rotation(ref_report, math.radians(10.0))
    with pytest.raises(RotationOutsideStableCone):
        pl.value_under_rotation(ref_report, math.radians(-40.0))


def test_value_decreases_with_angular_distance(ref_report):
    # strictly decreasing in |angle(x0) - (phi_f + nu)|
    beta = math.atan2(40.0, 80.0)
    nus = [math.radians(d) for d in (-29.0, -20.0, -10.0, 0.0, 3.0, 7.0)]
    pairs = [
        (abs(beta - (ref_report.objective_polar.phi + nu)),
         pl.value_under_rotation(ref_report, nu))
        for nu in nus
    ]
    pairs.sort()
    for (d1, v1), (d2, v2) in zip(pairs, pairs[1:]):
        assert v1 > v2 or d2 - d1 < 1e-12


def test_classify_value_shift(ref_report):
    assert pl.classify_value_shift(ref_report, math.radians(-1.0)) is pl.ValueShift.INCREASES
    assert pl.classify_value_shift(ref_report, math.radians(1.0)) is pl.ValueShift.DECREASES
    assert pl.classify_value_shift(ref_report, 0.0) is pl.ValueShift.UNCHANGED


@pytest.mark.parametrize("c", [1e307, 1.5e308])
def test_analyze_large_objective(ref_lp, c):
    # only the direction of c matters: the cone of (1, 1) at (80, 40)
    report = pl.analyze(pl.LinearProgram2D(pl.Vec2(c, c), ref_lp.constraints))
    assert report.optimal_vertex.point.x1 == pytest.approx(80.0)
    assert report.optimal_vertex.point.x2 == pytest.approx(40.0)
    assert report.interval.lo == pytest.approx(math.atan(0.5), abs=1e-12)
    assert report.interval.hi == pytest.approx(math.atan(2.0), abs=1e-12)


@pytest.mark.parametrize("b", [1e160, 1e200, 1e300, 1.7e308])
def test_analyze_large_polygon(b):
    # At (0, b) the cross product of the two edges overflows from b ~ 1e154
    # on; the convexity test then decides in exact rationals, so the cone is
    # b = 1's.
    def report(b):
        lp = pl.LinearProgram2D(pl.Vec2(1.0, 2.0), (pl.ConstraintRow(1.0, 1.0, b),))
        return pl.analyze(lp)

    big, unit = report(b), report(1.0)
    assert big.optimal_vertex.point == pl.Vec2(0.0, b)
    assert big.interval == unit.interval
    assert (unit.interval.lo, unit.interval.hi) == (math.pi / 4, math.pi)


def test_analyze_gradient_on_the_boundary_without_a_value_tie():
    # c = (7000, -1000) is normal to the edge from (0, 0) to (1e6 / 7, 1e6),
    # so both ends are optimal, but c . x rounds to 2**-23 at the far end:
    # more than the tie threshold 1e-9 max(1, |value|) = 1e-9.  The tie
    # shows as the gradient on the boundary of the far end's cone.
    lp = pl.LinearProgram2D(
        pl.Vec2(7000.0, -1000.0),
        (pl.ConstraintRow(7.0, -1.0, 0.0), pl.ConstraintRow(0.0, 1.0, 1e6)),
    )
    with pytest.raises(DegenerateOptimum, match="on the stable-cone boundary") as ei:
        pl.analyze(lp)
    far, origin = (v.point for v in ei.value.tied_vertices)
    assert (far.x1, far.x2, origin) == (1e6 / 7.0, 1e6, pl.Vec2(0.0, 0.0))
    assert ei.value.stable_angle == math.atan2(-1.0, 7.0)


def test_analyze_adjacent_tie_at_extreme_scale():
    # random-2474 of tests/region_digest.py: c = (1, 1) ties (8.4e20, 1.4e54)
    # and (0, 1.4e54), which share row 1, a line level to within 1e-108.
    # The tie angle is that row's normal, pi / 2; the difference of the two
    # rounded vertices points the other way and once gave pi.
    rows = (
        pl.ConstraintRow(3.77418122517511e50, -2.3074718558761005e17, 0.0),
        pl.ConstraintRow(-2.9277247247533158e-236, 1.6305980960214217e-128, 2.2436588080520896e-74),
    )
    with pytest.raises(DegenerateOptimum, match="tied between vertices") as ei:
        pl.analyze(pl.LinearProgram2D(pl.Vec2(1.0, 1.0), rows))
    assert ei.value.stable_angle == math.atan2(rows[1].a2, rows[1].a1) == math.pi / 2


def test_analyze_sliver_tip():
    # random-1604 of tests/region_digest.py: the region is a sliver triangle
    # along x2 ~ 0 whose corners are all exactly convex.  The far tip turns
    # by almost a half turn, and its cone holds phi_c = pi / 4.
    rows = (
        ("0x1.3bca88ba50ed6p-622", "-0x1.62f05ed1c7754p-130", "0x1.2db482305bf80p-512"),
        ("-0x1.42a5649ae734dp-185", "0x1.23022e37fb855p+237", "0x1.63459c8d24aa2p+925"),
        ("-0x1.48fc8be7bce72p-163", "0x0.0p+0", "-0x1.1e7a15758c707p-80"),
        ("-0x1.c1f4a9cb8c334p-384", "0x1.2e0f27cdd0182p+513", "0x1.3e4514320302ap+394"),
        ("0x1.7b49d90ead91ap+20", "0x1.870bf689a6763p-825", "0x1.2a58d10b2ebb5p+366"),
    )
    lp = pl.LinearProgram2D(
        pl.Vec2(1.0, 1.0),
        tuple(pl.ConstraintRow(*map(float.fromhex, row)) for row in rows),
    )
    for tol in (1e-9, 0.0, 1e-3):
        rep = pl.analyze(lp, tol=tol)
        tip = rep.optimal_vertex.point
        assert math.isclose(tip.x1, 1.1275e104, rel_tol=1e-4)
        assert math.isclose(tip.x2, 7.9e-37, rel_tol=1e-2)
        assert rep.interval.contains(math.pi / 4)


# --- the O(m) route of analyze and solve_enumeration -------------------------

def _answer(call, row=lambda i: i):
    """What analyze gives, bit for bit: the three vertices, the cone and the
    edge angles of a report, or the class, message, tie angle and vertices
    of an error.  Each active row index i reads as row(i)."""

    def bits(v):
        return v.point.x1.hex(), v.point.x2.hex(), sorted({row(i) for i in v.active_rows})

    try:
        r = call()
    except pl.errors.PlanarLPError as exc:
        angle = getattr(exc, "stable_angle", None)
        tied = getattr(exc, "tied_vertices", ())
        angle = None if angle is None else angle.hex()
        return type(exc), str(exc), angle, [bits(v) for v in tied]
    return (
        [bits(v) for v in (r.pred, r.optimal_vertex, r.succ)],
        [a.hex() for a in (r.interval.lo, r.interval.hi, r.theta1, r.theta2)],
    )


def _solution(call):
    """What solve_enumeration gives, bit for bit: the vertex, its sorted
    active rows, the value and whether it is unique, or the class and
    message of an error."""
    try:
        sol = call()
    except pl.errors.PlanarLPError as exc:
        return type(exc), str(exc)
    v = sol.vertex
    return v.point.x1.hex(), v.point.x2.hex(), sorted(v.active_rows), sol.value.hex(), sol.unique


def _analyzed(lp, tol):
    return _answer(lambda: pl.analyze(lp, tol=tol))


def _solved(lp, tol):
    return _solution(lambda: pl.solve_enumeration(lp, tol=tol))


# The two entry points that find x0 by solver._optimum, each as its answer,
# bit for bit, to (lp, tol): one set of route gates runs on both.
_ENTRY_POINTS = {"analyze": _analyzed, "solve_enumeration": _solved}
_each_entry_point = pytest.mark.parametrize(
    "entry", _ENTRY_POINTS.values(), ids=list(_ENTRY_POINTS)
)


def _builder_route(entry, lp, tol):
    """entry's answer with the rows route in doubt everywhere: x0 from the
    polygon."""
    with patch.object(solver, "_optimal_corner", return_value=None):
        return entry(lp, tol)


def _answered_fast(lp, tol):
    try:
        solver._check_arguments(lp, tol)
        return solver._optimal_corner(lp, solver._sorted_normals(lp, tol)) is not None
    except pl.errors.PlanarLPError:
        return False


def _tangent_lp(seed, m, phi, b_exp, c_exp):
    """conftest's tangent-circle LP with objective angle phi, its b scaled by
    2**b_exp and its objective by 2**c_exp: powers of two scale each vertex
    exactly."""
    lp = tangent_circle_lp(rng_for(seed), m)
    rows = tuple(pl.ConstraintRow(r.a1, r.a2, math.ldexp(r.b, b_exp)) for r in lp.constraints)
    c = pl.Vec2(math.ldexp(math.cos(phi), c_exp), math.ldexp(math.sin(phi), c_exp))
    return pl.LinearProgram2D(c, rows)


_small = st.integers(-10, 10).map(float)
_lps = (
    st.integers(0, 2**32 - 1).map(lambda seed: random_bounded_lp(rng_for(seed)))
    | st.builds(
        lambda rows, c: pl.LinearProgram2D(c, tuple(rows)),
        st.lists(st.builds(pl.ConstraintRow, _small, _small, _small), min_size=1, max_size=6),
        st.builds(pl.Vec2, _small, _small).filter(lambda c: not c.is_zero()),
    )
    | st.builds(
        _tangent_lp,
        st.integers(0, 2**32 - 1),
        st.sampled_from([3, 4, 8, 16, 64]),
        st.floats(-math.pi, math.pi),
        st.sampled_from([-500, 0, 500]),
        st.sampled_from([-500, 0, 500]),
    )
)


@_each_entry_point
def test_equals_the_builder_route(entry):
    # Each entry point answers from the rows where they certify x0, with the
    # rows' margin that rules out a tie, and builds the polygon otherwise;
    # either way it must give what the polygon gives.  The rows answer in
    # 26-36 % of 500 draws (24 seeds), and must in 15 %, so that the
    # property tests them.
    fast = []

    @settings(max_examples=500, deadline=None)
    @given(_lps, st.sampled_from([1e-9, 0.0, 1e-3]))
    def check(lp, tol):
        assert entry(lp, tol) == _builder_route(entry, lp, tol)
        fast.append(_answered_fast(lp, tol))

    check()
    assert sum(fast) >= 0.15 * len(fast)


@settings(max_examples=300, deadline=None)
@given(_lps, st.sampled_from([1e-9, 0.0, 1e-3]), st.data())
def test_analyze_ignores_row_order_and_duplicate_rows(lp, tol, data):
    # The rows answer by visiting them in an order, so permuting them, or
    # repeating one, must change no bit of the answer; active rows are
    # compared by the row they name, and an error by all but its message,
    # which may name a row by its place.
    def answer(lp, row=lambda i: i):
        out = _answer(lambda: pl.analyze(lp, tol=tol), row)
        return out[:1] + out[2:] if isinstance(out[0], type) else out

    rows = lp.constraints
    m = len(rows)
    perm = data.draw(st.permutations(range(m)))
    shuffled = pl.LinearProgram2D(lp.objective, tuple(rows[i] for i in perm))
    assert answer(shuffled, lambda i: perm[i] if i >= 0 else i) == answer(lp)
    j = data.draw(st.integers(0, m - 1))
    doubled = pl.LinearProgram2D(lp.objective, rows + (rows[j],))
    assert answer(doubled, lambda i: j if i == m else i) == answer(lp)


def _counting(monkeypatch, name="_polygon") -> list:
    """A list that gains one entry for each call of solver's function name
    from now on: by default, for each polygon built."""
    calls = []
    call = getattr(solver, name)

    def counting(*args):
        calls.append(args)
        return call(*args)

    monkeypatch.setattr(solver, name, counting)
    return calls


@pytest.mark.parametrize("m", [16, 64, 1024])
@_each_entry_point
def test_builds_no_polygon_for_a_tangent_lp(monkeypatch, entry, m):
    lp = tangent_circle_lp(rng_for(m), m)
    expected = _builder_route(entry, lp, pl.FEAS_TOL)
    calls = _counting(monkeypatch)
    assert entry(lp, pl.FEAS_TOL) == expected
    assert calls == []


_R = pl.ConstraintRow
_PAPER_ROWS = pl.load_lp(FIXTURES / "paper.lp").constraints
_SQUARE = (_R(1.0, 0.0, 1.0), _R(0.0, 1.0, 1.0))
# One LP for each way the rows can leave x0 in doubt, with its objective.
_DOUBTS = {
    "three rows through x0": ((2.0, 3.0), _PAPER_ROWS + (_R(1.0, 1.0, 120.0),)),
    "adjacent value tie": ((1.0, 1e-10), _SQUARE),
    "gradient on a cone end": ((1.0, 0.0), _SQUARE),
    "unbounded region": ((1.0, 1.0), (_R(1.0, -1.0, 0.0),)),
    "infeasible": ((1.0, 1.0), (_R(1.0, 1.0, -1.0),)),
    "ratio near-tie at pred": ((1.0, 1.0), _SQUARE + (_R(1.0, -1.0, 1.0 - 1e-10),)),
    # a row nearly parallel to an edge passes 1.5e-7 from pred, or succ
    "a row near pred": ((1.0, 1.0), _SQUARE + (_R(1.0, -1.5e-7, 1.0 + 1.5e-7),)),
    "a row near succ": ((1.0, 1.0), _SQUARE + (_R(-1.5e-7, 1.0, 1.0 + 1.5e-7),)),
    # the rows around x0 = (0, 1e300) meet at x1 = 1e310, past the floats
    "pred overflows": ((-1.0, 1.0), (_R(1e-8, 100.0, 1e302),)),
    "start overflows": ((1.0, 1.0), (_R(1e-300, 1e-300, 1e300),)),
    # the region digest's random-110: the starting rows do not cross
    "start rows parallel": (
        (1.0, 1.0),
        (
            _R(-2.3432939612836643e226, 2.43598769702417e229, 4.118471259113212e272),
            _R(4.64142460081629e129, -2.566230074981186e-92, 35577008945049.83),
        ),
    ),
    "a row level with c": ((1.0, 1.0), _SQUARE + (_R(-1.0, -1.0, -5.0),)),
    "a row parallel to a bound": ((1.0, 2.0), (_R(1.0, 1.0, 2.0), _R(-1.0, -1.0, -3.0))),
    # within _DET_TOL of parallel to x1 <= 1, not exactly: _polygon keeps one
    "a row nearly parallel to an edge": ((1.0, 1.0), _SQUARE + (_R(1.0, 1e-13, 1.5),)),
}


@pytest.mark.parametrize("c, rows", _DOUBTS.values(), ids=_DOUBTS)
@_each_entry_point
def test_builds_the_polygon_once_where_x0_is_in_doubt(monkeypatch, entry, c, rows):
    lp = pl.LinearProgram2D(pl.Vec2(*c), rows)
    expected = _builder_route(entry, lp, pl.FEAS_TOL)
    calls = _counting(monkeypatch)
    assert entry(lp, pl.FEAS_TOL) == expected
    assert len(calls) == 1


def test_exactly_parallel_rows_answer_from_the_rows(monkeypatch):
    # x1 <= 1.5, x2 <= 2 and x1 >= -0.5 are exactly parallel to rows of the
    # square and looser: _polygon drops them, and the rows hold them slack
    lp = pl.LinearProgram2D(
        pl.Vec2(1.0, 1.0), _SQUARE + (_R(2.0, 0.0, 3.0), _R(0.0, 3.0, 6.0), _R(-2.0, 0.0, 1.0))
    )
    expected = [_builder_route(entry, lp, pl.FEAS_TOL) for entry in _ENTRY_POINTS.values()]
    calls = _counting(monkeypatch)
    assert [entry(lp, pl.FEAS_TOL) for entry in _ENTRY_POINTS.values()] == expected
    assert calls == []


def _bracket_is_x0(t) -> bool:
    """The closed-form cone of the tangent-pool LP t holds neither x >= 0
    normal, pi or -pi/2: then the two rows whose normals bracket c meet at
    x0, since the tangent rows alone bound the region."""
    lo, hi = t.cone
    return not any(
        lo < a + k * math.tau < hi for a in (math.pi, -0.5 * math.pi) for k in (-1, 0, 1)
    )


@pytest.mark.parametrize("m", [16, 64, 1024])
@_each_entry_point
def test_walks_from_no_tangent_bracket_that_is_x0(monkeypatch, entry, m):
    # The rows route certifies the bracketing corner first, and walks only
    # where that fails: never on these LPs.
    pool = [t.lp for t in tangent_pool(1, m, 16) if _bracket_is_x0(t)]
    expected = [_builder_route(entry, lp, pl.FEAS_TOL) for lp in pool]
    walks = _counting(monkeypatch, "_optimal_edges")
    polygons = _counting(monkeypatch)
    assert [entry(lp, pl.FEAS_TOL) for lp in pool] == expected
    assert len(pool) >= 8 and walks == [] and polygons == []


@_each_entry_point
def test_walks_once_where_a_redundant_row_splits_the_bracket(monkeypatch, entry):
    # x1 + x2 <= 3 never binds on the unit square, but its normal, at 45
    # degrees, lies between those of x1 <= 1 and x2 <= 1 and below c's: the
    # bracketing rows meet at (2, 1), outside x1 <= 1.  One walk finds
    # x0 = (1, 1), and the rows certify it.
    lp = pl.LinearProgram2D(pl.Vec2(1.0, 2.0), _SQUARE + (_R(1.0, 1.0, 3.0),))
    expected = _builder_route(entry, lp, pl.FEAS_TOL)
    walks = _counting(monkeypatch, "_optimal_edges")
    polygons = _counting(monkeypatch)
    assert entry(lp, pl.FEAS_TOL) == expected
    assert len(walks) == 1 and polygons == []


def test_analyze_doubts_give_the_builder_errors():
    # the gate's examples answer as the polygon does, tie angle included
    def outcome(name):
        c, rows = _DOUBTS[name]
        return _answer(lambda: pl.analyze(pl.LinearProgram2D(pl.Vec2(*c), rows)))

    tie = outcome("adjacent value tie")
    assert tie[:3] == (DegenerateOptimum, "optimal value is tied between vertices", "0x0.0p+0")
    assert outcome("unbounded region")[0] is pl.errors.UnboundedRegion
    assert outcome("infeasible")[0] is pl.errors.Infeasible
    assert outcome("pred overflows")[0] is pl.errors.NonFiniteEntry
    assert outcome("three rows through x0")[0][1][:2] == ((80.0).hex(), (40.0).hex())


@pytest.mark.parametrize("row, x0", [((1.0, 2.0, 2.5), (1.0, 0.75)), ((2.0, 1.0, 2.5), (0.75, 1.0))])
def test_analyze_moves_x0_onto_a_row_that_cuts_it_off(monkeypatch, row, x0):
    # the rows x1 <= 1 and x2 <= 1 bracket c = (1, 1) and meet at (1, 1); a
    # third row cuts that corner off, and x0 moves along it either way
    lp = pl.LinearProgram2D(pl.Vec2(1.0, 1.0), _SQUARE + (_R(*row),))
    calls = _counting(monkeypatch)
    rep = pl.analyze(lp)
    assert calls == []
    assert (rep.optimal_vertex.point.x1, rep.optimal_vertex.point.x2) == x0
    assert _answer(lambda: rep) == _builder_route(_analyzed, lp, pl.FEAS_TOL)
