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
(geometry._cycle_fault) rejects.  The sweeps read the region's kept
coordinates (_coords); a region built by FeasibleRegion or
enumerate_vertices has passed that check, and builds no Vertex here, so
the check runs again only for an unchecked region (see _limits).  To
bracket x0's cone the sweep walks no grid: it proves x0's one run from a
few angles (see _window_runs).  The grid angles beside each cone edge are
decided one by one by the bisection's test; at the ends of a few pieces
of the rest of the turn, _walk's end test shows that x0 wins inside its
cone, and a like test that a neighbour of x0 beats it outside.  The whole
walk runs where that proof fails, and otherwise at the first read of the
result's argmax.  The sweeps walk an arithmetic grid that computes each
angle when asked (_Grid), and a SweepResult keeps that grid as its phis
and the runs as its argmax (_Runs): read-only sequences that compute each
value when read, so no array is built, and the module needs no numpy.
The fan's edge-normal angles come from vertex differences by
stable_angle_interval's formula (sensitivity._normal_angle), while
analyze reads its cone from the constraint rows, so --check-sweep compares
two independent derivations.  The angles are only the kernel's guess:
every result is certified against _scan, so a fault in that formula cannot
make the oracle agree with the analytic cone.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from itertools import chain, repeat
from operator import itemgetter

from .errors import GridTooCoarse, VertexNeverOptimal
from .geometry import TAU, _UNDERFLOW, Frozen, _cycle_fault, _Deferred, _set, wrap_angle
from .lp_model import FeasibleRegion
from .sensitivity import AngleInterval, _normal_angle
from .solver import VALUE_TIE_REL

#: The winner a sweep's argmax gives where no vertex wins strictly.
TIE = -1

#: Most angles one sweep may sample.  A result stores no value per angle,
#: but a cycle the walk cannot certify takes the full scan at every angle,
#: and tobytes() gives 8 bytes per angle.  A finer grid is refused before
#: its size is converted to an integer.
_MAX_SWEEP_ANGLES = 10**7


def sweep_backend() -> str:
    """Name of the sweep kernel, recorded with benchmark runs: always
    'python'."""
    return "python"


class _View(Frozen, Sequence):
    """A read-only sequence with one value per index of the range in its
    field indices: len, negative indexing, IndexError and slicing (a view
    over the sliced range) come from the range.  Each view iterates its
    values without a lookup per index, and tobytes() gives the bytes of
    numpy's array of the same values, float64 or int64."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.indices)

    def tobytes(self) -> bytes:
        from array import array

        return array(self._typecode, self).tobytes()


class _Grid(_View):
    """The angles first + step * j for j in indices, each rounded as numpy
    rounds first + step * np.arange(start, stop, dtype=float): the same two
    float operations on the same operands.  A sweep's phis.

    With step > 0 the exact product step * j grows with j, and rounding is
    monotone, so fl(step * j) and fl(first + fl(step * j)) never decrease:
    a grid whose indices step up is nondecreasing, as _walk requires.
    """

    __slots__ = ("first", "step", "indices")
    first: float
    step: float
    indices: range
    _typecode = "d"

    def __getitem__(self, k):
        j = self.indices[k]
        if j.__class__ is range:
            return _Grid(self.first, self.step, j)
        return self.first + self.step * j

    def __iter__(self):
        first, step = self.first, self.step
        return (first + step * j for j in self.indices)

    def searchsorted(self, x: float) -> int:
        """The least k in [0, len] with self[k] >= x (len if none), for x
        not NaN, on a grid whose indices step up, as numpy's searchsorted
        finds it on the array: guessed from (x - first) / step, and bisected
        only if the guess is wrong."""
        first, step, js = self.first, self.step, self.indices
        count = len(js)
        t = ((x - first) / step - js.start) / js.step
        k = 0 if not t > 0.0 else count if not t < count else math.ceil(t)
        if (k > 0 and first + step * js[k - 1] >= x) or (k < count and first + step * js[k] < x):
            k = bisect_left(self, x)
        return k


_END = itemgetter(1)


class _Runs(_View, _Deferred):
    """The winner at each of indices, from runs (start, end, winner) in
    order that cover them, as _walk returns them, and looked up by a
    bisection of their ends.  A sweep's argmax.

    _Runs.deferred(thunk, indices=indices) gives a view whose runs are
    thunk()'s, called at the first read of runs (_Deferred): a lookup and
    iteration read runs too, and len reads only indices."""

    __slots__ = ("runs", "indices")
    runs: tuple[tuple[int, int, int], ...]
    indices: range
    _typecode = "q"
    _deferred = "runs"

    def __init__(self, runs, indices: range):
        _set(self, "runs", tuple(runs))
        _set(self, "indices", indices)

    def __getitem__(self, k):
        j = self.indices[k]
        if j.__class__ is range:
            return _Runs(self.runs, j)
        return self.runs[bisect_left(self.runs, j, key=_END)][2]

    def __iter__(self):
        js = self.indices
        if js.step < 0:
            return reversed(list(self[::-1]))
        # runs in order: each gives its winner once per index up to its end
        parts, done = [], 0
        for _, end, p in self.runs:
            upto = bisect_right(js, end, done)
            parts.append(repeat(p, upto - done))
            done = upto
        return chain.from_iterable(parts)


class SweepResult(Frozen):
    """Samples of the winning vertex index over a grid of gradient angles.

    argmax[k] is the index into region.vertices of the strict winner at
    phis[k], or TIE.  estimated_interval is filled by
    stable_interval_by_sweep and None for a plain sweep.  Results compare
    by identity, as their fields may be arrays, which have no single truth
    value.

    The constructor takes any sequences.  The sweeps give read-only views
    that build nothing, a _Grid and a _Runs, so repr, copy and pickle cost
    the runs, not the angles; np.asarray turns either into an ndarray.
    stable_interval_by_sweep gives a deferred _Runs, which walks the grid
    at its first read unless the sweep has walked it.
    """

    __slots__ = ("region", "phis", "argmax", "step", "estimated_interval")
    region: FeasibleRegion
    phis: Sequence[float]
    argmax: Sequence[int]
    step: float
    estimated_interval: AngleInterval | None

    _defaults = {"estimated_interval": None}

    __eq__ = object.__eq__
    __hash__ = object.__hash__


#: region -> (xs, ys, checked): the coordinates of region's cycle, and
#: whether the package's check passed them.
_coords = FeasibleRegion._coords


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


def _limits(vx: list[float], vy: list[float], rel_tol: float, checked: bool = False) -> list[float]:
    """limit[p] for each vertex p, the margin by which _walk and _wins need
    p to beat both its neighbours (see _walk).  It is [], and every angle
    takes the full scan, unless the cycle is certified strictly convex and
    counterclockwise (exactly, by geometry._cycle_fault), rel_tol >= 0 and
    all |x_j| + |y_j| < 2**1000.  checked says that the package's check
    has passed the cycle (_coords), which implies _cycle_fault's pass, so
    it runs only on an unchecked cycle."""
    sizes = [abs(x) + abs(y) for x, y in zip(vx, vy)]
    scale = max(sizes, default=0.0)
    if not (rel_tol >= 0.0 and scale < 2.0**1000 and (checked or _cycle_fault(vx, vy) is None)):
        return []
    band = 2.0**-48 * scale + _UNDERFLOW
    tol = rel_tol * (1.0 + 2.0**-49)
    # tol * max(1, size), written out as solver._limit does: the same bits
    return [(tol * t if t > 1.0 else tol) + band for t in sizes]


def _margin(p: int, c: float, s: float, vx: list[float], vy: list[float]) -> float:
    """fl(f_p - max(f_(p-1), f_(p+1))) for _scan's values f_j = vx[j] * c +
    vy[j] * s on a cycle of three or more vertices."""
    n = len(vx)
    fq = max(vx[p - 1] * c + vy[p - 1] * s, vx[p + 1 - n] * c + vy[p + 1 - n] * s)
    return vx[p] * c + vy[p] * s - fq


def _walk(
    grid,
    vx: list[float],
    vy: list[float],
    rel_tol: float,
    limit: list[float],
) -> list[tuple[int, int, int]]:
    """_scan at every angle of a nondecreasing grid, as maximal runs.

    grid is indexable, has a length, and has searchsorted(x), the least k
    with grid[k] >= x (len(grid) if none), such as a _Grid or a sorted
    numpy array.  limit is _limits(vx, vy, rel_tol).  The result is a list
    of (start, end, winner) in grid order that covers 0, ..., len(grid) -
    1, with _scan(grid[k]) == winner for start <= k <= end and a different
    winner in each neighbouring run.

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
    guessed from the normal fan (its edge-normal angles, rotated to start
    at their least) by atan2(s, c), and the run is to end at b, the last
    grid angle before p's upper fan edge, found by searchsorted, with fl(b
    - a) <= 3 < pi.  For the exact cos and sin, g_p - g_q is a sinusoid
    h(phi), concave on the arc of length pi where it is positive; an interval
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


def _wins(p: int, vx: list[float], vy: list[float], rel_tol: float, limit: list[float]):
    """The predicate phi -> _scan(phi, vx, vy, rel_tol) == p, with limit =
    _limits(vx, vy, rel_tol): decided from p and its two neighbours, read
    here once, when _margin(p), written out, is <= 0 (False) or > limit[p]
    (True), as _walk shows, and by the full scan otherwise or when limit is
    []."""
    if not limit:
        return lambda phi: _scan(phi, vx, vy, rel_tol) == p
    n = len(vx)
    px, py, ax, ay, bx, by = vx[p], vy[p], vx[p - 1], vy[p - 1], vx[p + 1 - n], vy[p + 1 - n]
    lim = limit[p]

    def wins(phi: float) -> bool:
        c, s = math.cos(phi), math.sin(phi)
        d = px * c + py * s - max(ax * c + ay * s, bx * c + by * s)
        if not d > 0.0:
            return False
        return d > lim or _scan(phi, vx, vy, rel_tol) == p

    return wins


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
    grid = _Grid(phi_lo, step, range(int(math.floor(steps)) + 1))
    vx, vy, checked = _coords(region)
    runs = _walk(grid, vx, vy, VALUE_TIE_REL, _limits(vx, vy, VALUE_TIE_REL, checked))
    return SweepResult(region, grid, _Runs(runs, range(len(grid))), step)


def _cyclic_runs(runs: list[tuple[int, int, int]], p: int, count: int) -> list[tuple[int, int]]:
    """The (start, end) of each of winner p's maximal runs among runs, in
    grid order, which cover a cyclic grid of count angles, or every part of
    it where p wins: a run across the seam is merged into one, first in the
    list, that starts past the seam."""
    own = [(s, e) for s, e, q in runs if q == p]
    if len(own) > 1 and own[0][0] == 0 and own[-1][1] == count - 1:
        s, _ = own.pop()
        own[0] = (s, own[0][1])
    return own


def _turns(a: int, b: int, n: int):
    """(start, end) for each stretch of the indices a..b of a cyclic grid
    of n angles, unwrapped, that lies in one turn, in order: index k of
    turn t is the grid's k - t n, its angle plus t 2 pi."""
    while a <= b:
        turn = a // n
        stop = min(b, turn * n + n - 1)
        yield a - turn * n, stop - turn * n
        a = stop + 1


def _window_runs(
    grid: _Grid, p: int, vx: list[float], vy: list[float], limit: list[float], wins
) -> list[tuple[int, int]] | None:
    """Vertex p's maximal runs on the cyclic grid, as _cyclic_runs gives
    them from _walk's runs (one run, or none where p wins at no grid
    angle), proved from a few angles around p's cone; None where the proof
    fails, and the caller walks the grid.  wins is _wins(p, vx, vy,
    VALUE_TIE_REL, limit); grid's indices step by 1, as
    stable_interval_by_sweep's do.

    p's cone runs counterclockwise from lo, the normal angle of its edge
    in, to hi, that of its edge out (sensitivity._normal_angle, as _walk's
    fan); its grid angles are s..e, indices unwrapped past either end of
    the grid.  The proof splits the turn s - 1, ..., s + n - 2 in three:

    - the edge angles s - 1, s, e and e + 1, beside lo and hi, where a tie
      band can hold a grid angle, each decided by wins;
    - s + 1, ..., e - 1, where p beats both its neighbours: _margin(p) >
      limit[p], _walk's end test;
    - the rest of the turn, e + 2, ..., s + n - 2, split at its middle:
      before it p's successor q beats p, fl(f_q - f_p) > limit[p], and from
      it on p's predecessor does.

    Each claim is tested at the end angles a <= b of pieces that lie in one
    turn and span at most int(3 / step) steps, so that b - a is about 3 at
    most, less than pi.  Every grid angle of a piece lies in [a, b], as the
    grid is nondecreasing.  _walk shows that the first claim at a and b
    gives _scan == p on [a, b].  For the others, in _walk's terms, with
    _scan's f_j = fl(fl(x_j c) + fl(y_j s)), c = math.cos(phi) and s =
    math.sin(phi): limit[p] = fl(T_p + S) >= S, and rounding is monotone,
    so f_q - f_p > S at a and b.  For the exact cos and sin, g_q - g_p is a
    sinusoid h, concave on the arc of length pi where it is positive, and
    f_q - f_p misses h by at most 2E + 2**-51 M.  So h > S - 2E - 2**-51 M
    > 0 at a and b; [a, b] is shorter than pi, so it lies in that arc, and
    h exceeds the same bound on it.  There f_q - f_p > S - 4E - 2**-50 M >=
    0: f_p is not the greatest value, and _scan does not give p.

    So where every claim holds, p wins at neither s - 1 nor e + 1, and the
    three parts do not overlap (e - s + 3 <= n), p's only run is
    first..last: first is s where p wins there and s + 1 otherwise, last is
    e or e - 1 likewise, and there is none where first > last.  Anything
    else fails the proof, as does limit = [].
    """
    n, nv = len(grid), len(vx)
    lo = _normal_angle(vx[p] - vx[p - 1], vy[p] - vy[p - 1])
    hi = _normal_angle(vx[p + 1 - nv] - vx[p], vy[p + 1 - nv] - vy[p])
    s, e = grid.searchsorted(lo), grid.searchsorted(hi) - 1
    if hi < lo:  # the cone holds the seam: e lies a turn on
        e += n
    if not limit or e - s + 3 > n:
        return None

    cos, sin = math.cos, math.sin
    at, step, j0 = grid.first, grid.step, grid.indices.start
    px, py, lim, chunk = vx[p], vy[p], limit[p], int(3.0 / step)
    middle = (e + s + n + 1) // 2
    claims = ((s + 1, e - 1, p), (e + 2, middle - 1, (p + 1) % nv), (middle, s + n - 2, p - 1))
    for start, end, q in claims:
        qx, qy = vx[q], vy[q]
        for a, b in _turns(start, end, n):
            for k in range(a, b + 1, chunk + 1):
                for phi in (at + step * (k + j0), at + step * (min(k + chunk, b) + j0)):
                    c, si = cos(phi), sin(phi)
                    if q == p:
                        lead = _margin(p, c, si, vx, vy)
                    else:
                        lead = qx * c + qy * si - (px * c + py * si)
                    if not lead > lim:
                        return None
    if wins(grid[(s - 1) % n]) or wins(grid[(e + 1) % n]):
        return None
    first, last = s + (not wins(grid[s % n])), e - (not wins(grid[e % n]))
    return [(first % n, last % n)] if first <= last else []


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

    x0's runs come from a proof, from a few angles around its cone, that
    x0 wins on one run and nowhere else (_window_runs), or, where that
    fails, from the whole walk, which argmax keeps.  After the proof,
    argmax is deferred: the whole walk runs at its first read.  Either way
    every output has the same bits.
    """
    if not 0.0 < step <= math.pi:
        raise ValueError(f"step must lie in (0, pi], got {step}")
    steps = TAU / step + 1e-9
    if not steps < _MAX_SWEEP_ANGLES + 1:  # at most floor(steps) angles
        raise ValueError(f"step {step} gives more than {_MAX_SWEEP_ANGLES} angles")
    x0_idx = region.index_of(x0)

    n = int(math.floor(steps))
    grid = _Grid(-math.pi, step, range(1, n + 1))
    if grid[n - 1] > math.pi + 1e-9:
        n -= 1
        grid = grid[:n]

    vx, vy, checked = _coords(region)
    limit = _limits(vx, vy, VALUE_TIE_REL, checked)
    argmax = _Runs.deferred(
        lambda: tuple(_walk(grid, vx, vy, VALUE_TIE_REL, limit)), indices=range(n)
    )
    wins = _wins(x0_idx, vx, vy, VALUE_TIE_REL, limit)
    own = _window_runs(grid, x0_idx, vx, vy, limit, wins)
    if own is None:
        own = _cyclic_runs(argmax.runs, x0_idx, n)
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
    return SweepResult(region, grid, argmax, step, interval)
