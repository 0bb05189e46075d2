"""Brute-force certification of stable cones by a dense angle sweep.

Independent of the analytic path: the argmax vertex is sampled at every
angle of a grid, runs of a fixed winner are located, and the run boundaries
are sharpened by bisection.  The point kernel is a full scan of the vertices
in plain Python over float lists.  The grid kernel walks a nondecreasing
grid run by run and returns the runs, not one winner per angle: it looks a
run's first angle up in the normal fan of the vertex cycle and certifies
the vertex it finds against its two neighbours at both ends of the run,
which certifies every angle between.  The bisection asks only whether x0
wins at one angle, and decides that from x0 and its two neighbours by the
same test (see _wins).  Where either test cannot decide, it takes the full
scan, so both equal the full scan at every angle (see _walk); so does every
angle of a cycle that FeasibleRegion's exact convexity check
(geometry._cycle_fault) rejects.  The sweeps walk an arithmetic grid that
computes each angle when asked (_Grid), so no array is built while they
run; a SweepResult builds its phis and argmax arrays, with numpy, when they
are first read.  The fan's edge-normal angles come from analyze's formula
(sensitivity._normal_angle), but they are only the kernel's guess: every
result is certified against _scan, so a fault in that formula cannot make
the oracle agree with the analytic cone.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # numpy is imported where it is used, not with the package
    import numpy as np

from .errors import GridTooCoarse, VertexNeverOptimal
from .geometry import TAU, _UNDERFLOW, Frozen, _cycle_fault, _set, wrap_angle
from .lp_model import FeasibleRegion
from .sensitivity import AngleInterval, _normal_angle
from .solver import VALUE_TIE_REL

#: Marker used in sample arrays when no vertex wins strictly.
TIE = -1

#: Most angles one sweep may sample.  Reading a result's arrays costs 16
#: bytes per angle (its angle and its winner).  A finer grid is refused
#: before its size is converted to an integer.
_MAX_SWEEP_ANGLES = 10**7


def sweep_backend() -> str:
    """Name of the sweep kernel, recorded with benchmark runs: always
    'python'."""
    return "python"


class _Grid:
    """The angles first + step * (start + k) for k in range(count), each
    rounded as numpy rounds first + step * np.arange(start, start + count):
    the same two float operations on the same operands.

    With step > 0 the exact product step * j grows with j, and rounding is
    monotone, so fl(step * j) and fl(first + fl(step * j)) never decrease:
    the grid is nondecreasing, as _walk requires.
    """

    __slots__ = ("first", "step", "start", "count")

    def __init__(self, first: float, step: float, start: int, count: int):
        self.first, self.step, self.start, self.count = first, step, start, count

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, k: int) -> float:
        return self.first + self.step * (self.start + k)

    def searchsorted(self, x: float) -> int:
        """The least k in [0, count] with self[k] >= x (count if none), as
        numpy's searchsorted finds it on the array: guessed from
        (x - first) / step, and bisected only if the guess is wrong."""
        t = (x - self.first) / self.step - self.start
        k = 0 if not t > 0.0 else self.count if not t < self.count else math.ceil(t)
        if (k > 0 and self[k - 1] >= x) or (k < self.count and self[k] < x):
            k = bisect_left(self, x)
        return k

    def array(self) -> np.ndarray:
        import numpy as np

        a = np.arange(self.start, self.start + self.count, dtype=float)
        a *= self.step  # fl(j * step) == fl(step * j)
        a += self.first
        return a


def _winners(runs: list[tuple[int, int, int]], count: int) -> np.ndarray:
    """The int64 array of count winners that runs (start, end, winner)
    cover."""
    import numpy as np

    out = np.empty(count, dtype=np.int64)
    for s, e, p in runs:
        out[s : e + 1] = p
    return out


class _KernelSlot(Frozen):
    """Keeps a kernel result's grid and runs outside SweepResult's fields,
    so that repr, copy and pickle see only the five public ones."""

    __slots__ = ("_kernel",)


class SweepResult(_KernelSlot):
    """Samples of the winning vertex index over a grid of gradient angles.

    argmax[k] is the index into region.vertices of the strict winner at
    phis[k], or TIE.  estimated_interval is filled by
    stable_interval_by_sweep and None for a plain sweep.  Results compare
    by identity, as arrays have no single truth value.

    A result from sweep_argmax or stable_interval_by_sweep holds its grid
    and its runs of one winner, and builds phis and argmax (with numpy) when
    each is first read; repr, copy and pickle read them, and so give the
    arrays.
    """

    __slots__ = ("region", "phis", "argmax", "step", "estimated_interval")
    region: FeasibleRegion
    phis: np.ndarray
    argmax: np.ndarray
    step: float
    estimated_interval: AngleInterval | None

    _defaults = {"estimated_interval": None}

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __getattr__(self, name: str):
        # Called only for an unset slot or an unknown name.
        if name == "phis" or name == "argmax":
            grid, runs = self._kernel
            value = grid.array() if name == "phis" else _winners(runs, len(grid))
            _set(self, name, value)
            return value
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")


def _kernel_result(
    region: FeasibleRegion,
    grid: _Grid,
    runs: list[tuple[int, int, int]],
    step: float,
    interval: AngleInterval | None = None,
) -> SweepResult:
    """A SweepResult that builds its arrays from grid and runs when they
    are first read."""
    res = SweepResult.__new__(SweepResult)
    _set(res, "region", region)
    _set(res, "step", step)
    _set(res, "estimated_interval", interval)
    _set(res, "_kernel", (grid, runs))
    return res


def _coords(region: FeasibleRegion) -> tuple[list[float], list[float]]:
    return [v.point.x1 for v in region.vertices], [v.point.x2 for v in region.vertices]


def _scan(phi: float, vx: list[float], vy: list[float], rel_tol: float) -> int:
    """The full scan at phi: the strict argmax of vx*cos(phi) + vy*sin(phi),
    or TIE when the runner-up is within rel_tol * max(1, |best|)."""
    c, s = math.cos(phi), math.sin(phi)
    best = vx[0] * c + vy[0] * s
    best_j = 0
    second = -math.inf
    for j in range(1, len(vx)):
        val = vx[j] * c + vy[j] * s
        if val > best:
            second = best
            best = val
            best_j = j
        elif val > second:
            second = val
    if len(vx) > 1 and best - second <= rel_tol * max(1.0, abs(best)):
        return TIE
    return best_j


def _limits(vx: list[float], vy: list[float], rel_tol: float) -> list[float]:
    """limit[p] for each vertex p, the margin by which _walk and _wins need
    p to beat both its neighbours (see _walk).  It is [], and every angle
    takes the full scan, unless the cycle is certified strictly convex and
    counterclockwise (exactly, by geometry._cycle_fault, the check
    FeasibleRegion makes), rel_tol >= 0 and all |x_j| + |y_j| < 2**1000."""
    scale = max((abs(x) + abs(y) for x, y in zip(vx, vy)), default=0.0)
    if not (rel_tol >= 0.0 and scale < 2.0**1000 and _cycle_fault(vx, vy) is None):
        return []
    band = 2.0**-48 * scale + _UNDERFLOW
    return [rel_tol * (1.0 + 2.0**-49) * max(1.0, abs(x) + abs(y)) + band for x, y in zip(vx, vy)]


def _margin(p: int, c: float, s: float, vx: list[float], vy: list[float]) -> float:
    """fl(f_p - max(f_(p-1), f_(p+1))) for _scan's values f_j = vx[j] * c +
    vy[j] * s on a cycle of three or more vertices."""
    n = len(vx)
    fq = max(vx[p - 1] * c + vy[p - 1] * s, vx[p + 1 - n] * c + vy[p + 1 - n] * s)
    return vx[p] * c + vy[p] * s - fq


def _walk(
    grid, vx: list[float], vy: list[float], rel_tol: float, limit: list[float] | None = None
) -> list[tuple[int, int, int]]:
    """_scan at every angle of a nondecreasing grid, as maximal runs.

    grid is indexable, has a length, and has searchsorted(x), the least k
    with grid[k] >= x (len(grid) if none): a sorted numpy array or a _Grid.
    limit is _limits(vx, vy, rel_tol), computed here unless given.  The
    result is a list of (start, end, winner) in grid order that covers 0,
    ..., len(grid) - 1, with _scan(grid[k]) == winner for start <= k <= end
    and a different winner in each neighbouring run.

    On a convex counterclockwise cycle the exact values g_j = x_j c + y_j s
    rise and then fall once around the cycle, for any (c, s) != 0, so if
    g_p - g_q > T + 2E for both neighbours q of p, then g_p - g_j > T + 2E
    for every j != p: non-neighbours need no test.  E = (2u + u^2) (|x_j| +
    |y_j|) + 3 eta (u = 2**-53, eta = 2**-1075) bounds the error of the
    scan's f_j = fl(fl(x_j c) + fl(y_j s)) on c = math.cos(phi), s =
    math.sin(phi), so f_p - f_j > T.  Rounding is monotone and |c|, |s| <= 1,
    so |f_p| <= fl(|x_p| + |y_p|), and T = T_p = fl(rel_tol (1 + 2**-49)
    max(1, fl(|x_p| + |y_p|))) exceeds the scan's threshold
    t = fl(rel_tol max(1, |f_p|)) by more than an ulp if t is normal:
    fl(f_p - f_j) >= T_p > t.  If t is 0 or subnormal, f_p - f_j > T_p >= t
    are multiples of 2**-1074, so again fl(f_p - f_j) > t: the scan gives p.

    The walk starts a run at the first angle a not yet covered.  p is
    guessed from the normal fan (edge-normal angles, rotated to start at
    their least) by atan2(s, c), and the run is to end at b, the last grid
    angle before p's upper fan edge, found by searchsorted, with fl(b - a)
    <= 3 < pi.  For the exact cos and sin, g_p - g_q is a sinusoid h(phi),
    concave on the arc of length pi where it is positive; an interval
    shorter than pi with both ends in that arc lies in it, so h > K >= 0 at
    a and b gives h > K on [a, b].  A libm cos or sin within 1 ulp errs by
    at most 2**-52, so g_p - g_q misses h by at most 2**-51 M, M = max_j
    (|x_j| + |y_j|).  The test at a and b, _margin(p) = fl(f_p -
    max(f_(p-1), f_(p+1))) > limit[p] = fl(T_p + S) with S = 2**-48 M +
    2**-1060 >= 4E + 2**-50 M, gives h > T_p + S - 2E - 2**-51 M >= 0
    there, so on [a, b] g_p - g_q > T_p + S - 2E - 2**-50 M >= T_p + 2E.
    The grid is nondecreasing (a _Grid is, as step > 0 and rounding is
    monotone), so every angle between a and b in grid order lies in [a,
    b]: the run from a to b is certified.  A failed test at a makes a run
    of the one angle a with the full scan's winner; at b it moves b back by
    1, 2, 4, ... angles.  A wrong guess only fails a test.  A run whose
    winner is the previous run's extends it, so the runs are maximal.

    One angle phi needs no sinusoid: the exact g_j at the scan's own c and
    s, a direction != 0, are the unimodal values above.  So _margin(p) >
    limit[p] there gives g_p - g_q > T_p + S - 2E >= T_p + 2E for both
    neighbours, and the scan gives p.  _margin(p) <= 0 means a neighbour q
    has f_q >= f_p, and the scan does not give p: it keeps the first
    strict maximum, so f_q > f_p or an equal q before p keeps p from the
    lead, and an equal q after p leaves best - second = 0 <= t, a tie.
    _wins makes these two tests.

    Where limit is [], every angle takes the full scan.
    """
    runs: list[tuple[int, int, int]] = []

    def emit(start: int, end: int, p: int) -> None:
        if runs and runs[-1][2] == p:
            start = runs.pop()[0]
        runs.append((start, end, p))

    n, count = len(vx), len(grid)
    if limit is None:
        limit = _limits(vx, vy, rel_tol)
    if not limit:
        for k in range(count):
            emit(k, k, _scan(float(grid[k]), vx, vy, rel_tol))
        return runs
    normals = [_normal_angle(vx[k + 1 - n] - vx[k], vy[k + 1 - n] - vy[k]) for k in range(n)]
    k0 = normals.index(min(normals))
    # bisect_left gives i in [0, n]: vertex k0 + i wins up to fan[i].
    fan = normals[k0:] + normals[:k0] + [normals[k0] + TAU]

    k = 0
    while k < count:
        a = float(grid[k])
        c, s = math.cos(a), math.sin(a)
        theta = math.atan2(s, c)
        i = bisect_left(fan, theta)
        p = (k0 + i) % n
        if not _margin(p, c, s, vx, vy) > limit[p]:
            emit(k, k, _scan(a, vx, vy, rel_tol))
            k += 1
            continue
        b, drop = max(k, int(grid.searchsorted(a + (fan[i] - theta))) - 1), 1
        while b > k:
            e = float(grid[b])
            if e - a <= 3.0 and _margin(p, math.cos(e), math.sin(e), vx, vy) > limit[p]:
                break
            b, drop = max(k, b - drop), 2 * drop
        emit(k, b, p)
        k = b + 1
    return runs


def _wins(
    phi: float, p: int, vx: list[float], vy: list[float], rel_tol: float, limit: list[float]
) -> bool:
    """_scan(phi, vx, vy, rel_tol) == p, with limit = _limits(vx, vy,
    rel_tol): decided from p and its two neighbours when _margin(p) <= 0
    (False) or > limit[p] (True), as _walk shows, and by the full scan
    otherwise or when limit is []."""
    if limit:
        d = _margin(p, math.cos(phi), math.sin(phi), vx, vy)
        if not d > 0.0:
            return False
        if d > limit[p]:
            return True
    return _scan(phi, vx, vy, rel_tol) == p


def sweep_argmax(
    region: FeasibleRegion,
    phi_lo: float,
    phi_hi: float,
    step: float,
) -> SweepResult:
    """Sample the winning vertex on the grid phi_lo, phi_lo+step, ..."""
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    if not -math.inf < phi_lo < phi_hi < math.inf:
        raise ValueError(f"need finite phi_lo < phi_hi, got ({phi_lo}, {phi_hi})")
    steps = (phi_hi - phi_lo) / step + 1e-9
    if not steps < _MAX_SWEEP_ANGLES:  # floor(steps) + 1 angles
        raise ValueError(
            f"step {step} over ({phi_lo}, {phi_hi}) gives more than "
            f"{_MAX_SWEEP_ANGLES} angles"
        )
    grid = _Grid(phi_lo, step, 0, int(math.floor(steps)) + 1)
    vx, vy = _coords(region)
    return _kernel_result(region, grid, _walk(grid, vx, vy, VALUE_TIE_REL), step)


def _cyclic_runs(runs: list[tuple[int, int, int]], p: int, count: int) -> list[tuple[int, int]]:
    """The (start, end) of each of winner p's maximal runs among runs, which
    cover a cyclic grid of count angles: a run across the seam is merged
    into one, first in the list, that starts past the seam."""
    own = [(s, e) for s, e, q in runs if q == p]
    if len(own) > 1 and own[0][0] == 0 and own[-1][1] == count - 1:
        s, _ = own.pop()
        own[0] = (s, own[0][1])
    return own


def _bisect(inside: float, outside: float, wins, tol: float) -> float:
    """Midpoint of the bracket of a cone edge, halved from (inside,
    outside) until it is at most tol wide; wins(phi) says whether phi lies
    on the inside."""
    while abs(outside - inside) > tol:
        mid = 0.5 * (inside + outside)
        if wins(mid):
            inside = mid
        else:
            outside = mid
    return 0.5 * (inside + outside)


def stable_interval_by_sweep(
    region: FeasibleRegion,
    x0,
    step: float,
) -> SweepResult:
    """Estimate the stable cone of x0 by sweeping the full circle.

    Samples the grid -pi + k*step over (-pi, pi], finds the longest run of
    samples where x0 wins strictly, and bisects each run boundary down to
    step/1024.  Raises VertexNeverOptimal when no sample picks x0, and
    GridTooCoarse when every sample does.
    """
    if not 0.0 < step <= math.pi:
        raise ValueError(f"step must lie in (0, pi], got {step}")
    steps = TAU / step + 1e-9
    if not steps < _MAX_SWEEP_ANGLES + 1:  # at most floor(steps) angles
        raise ValueError(f"step {step} gives more than {_MAX_SWEEP_ANGLES} angles")
    x0_idx = region.index_of(x0)

    n = int(math.floor(steps))
    grid = _Grid(-math.pi, step, 1, n)
    if grid[n - 1] > math.pi + 1e-9:
        n -= 1
        grid = _Grid(-math.pi, step, 1, n)

    vx, vy = _coords(region)
    limit = _limits(vx, vy, VALUE_TIE_REL)
    runs = _walk(grid, vx, vy, VALUE_TIE_REL, limit)

    def wins(phi: float) -> bool:
        return _wins(phi, x0_idx, vx, vy, VALUE_TIE_REL, limit)

    own = _cyclic_runs(runs, x0_idx, n)
    if not own:
        raise VertexNeverOptimal(
            f"vertex {x0_idx} never wins at step {step}; its cone may be "
            "narrower than the grid"
        )
    if own[0] == (0, n - 1):
        raise GridTooCoarse(
            f"vertex {x0_idx} wins at all {n} angles of step {step}; the grid is "
            "too coarse to bracket its cone"
        )

    def run_len(run: tuple[int, int]) -> int:
        s, e = run
        return (e - s) % n + 1

    def at(k: int) -> float:  # the grid unwrapped past either end
        return grid[k % n] + TAU * (k // n)

    s, e = max(own, key=run_len)  # ties: first wins (max is stable)
    last = s + (e - s) % n  # e, unwrapped when the run wraps the seam
    tol = step / 1024.0
    lo = _bisect(at(s), at(s - 1), wins, tol)
    hi = _bisect(at(last), at(last + 1), wins, tol)
    shift = wrap_angle(lo) - lo
    interval = AngleInterval(lo + shift, hi + shift)
    return _kernel_result(region, grid, runs, step, interval)
