"""Brute-force certification of stable cones by a dense angle sweep.

Independent of the analytic path: for each sampled gradient angle the
argmax vertex is recomputed from scratch, runs of a fixed winner are
located, and the run boundaries are sharpened by bisection.  The inner
argmax loop runs in a compiled extension when one was built, otherwise in
a pure-Python fallback with identical arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # numpy is imported where it is used, not with the package
    import numpy as np

try:
    from . import _sweep_kernel as _kernel
except ImportError:  # pragma: no cover - depends on the build environment
    from . import _sweep_fallback as _kernel

from .errors import EmptyRegion, VertexNeverOptimal
from .geometry import TAU, Vec2, wrap_angle
from .lp_model import FeasibleRegion, LinearProgram2D
from .sensitivity import AngleInterval
from .solver import solve_simplex

#: Marker used in sample arrays when no vertex wins strictly.
TIE = -1

_TIE_REL = 1e-9


def sweep_backend() -> str:
    """Name of the active kernel backend: 'compiled' or 'python'."""
    return _kernel.BACKEND


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Samples of the winning vertex index over a grid of gradient angles.

    argmax[k] is the index into region.vertices of the strict winner at
    phis[k], or TIE.  estimated_interval is filled by
    stable_interval_by_sweep and None for a plain sweep.
    """

    region: FeasibleRegion
    phis: np.ndarray
    argmax: np.ndarray
    step: float
    estimated_interval: AngleInterval | None = None

    def samples(self):
        """Iterate (phi, Vertex-or-None) pairs; None marks a tie."""
        for phi, idx in zip(self.phis, self.argmax):
            yield float(phi), (None if idx == TIE else self.region.vertices[idx])


def _coords(region: FeasibleRegion) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    vx = np.ascontiguousarray([v.point.x1 for v in region.vertices], dtype=float)
    vy = np.ascontiguousarray([v.point.x2 for v in region.vertices], dtype=float)
    return vx, vy


def _simplex_argmax(lp: LinearProgram2D, region: FeasibleRegion, phi: float) -> int:
    """Per-sample cross-solver mode: rerun the simplex at this angle."""
    import numpy as np

    sol = solve_simplex(
        LinearProgram2D(Vec2(math.cos(phi), math.sin(phi)), lp.constraints)
    )
    if not sol.unique:
        return TIE
    dists = [(v.point - sol.vertex.point).norm() for v in region.vertices]
    return int(np.argmin(dists))


def sweep_argmax(
    region: FeasibleRegion,
    phi_lo: float,
    phi_hi: float,
    step: float,
    *,
    tie_tol: float = _TIE_REL,
    cross_check_lp: LinearProgram2D | None = None,
) -> SweepResult:
    """Sample the winning vertex on the grid phi_lo, phi_lo+step, ...

    With cross_check_lp the winner at every sample is recomputed by the
    simplex instead of the kernel (much slower; used for certification).
    """
    import numpy as np

    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    if not phi_lo < phi_hi:
        raise ValueError(f"need phi_lo < phi_hi, got ({phi_lo}, {phi_hi})")
    if not region.vertices:
        raise EmptyRegion("cannot sweep a region with no vertices")
    count = int(math.floor((phi_hi - phi_lo) / step + 1e-9)) + 1
    phis = phi_lo + step * np.arange(count, dtype=float)
    if cross_check_lp is not None:
        argmax = np.array(
            [_simplex_argmax(cross_check_lp, region, p) for p in phis],
            dtype=np.int64,
        )
    else:
        vx, vy = _coords(region)
        argmax = _kernel.argmax_grid(phis, vx, vy, tie_tol)
    return SweepResult(region, phis, argmax, step)


def _runs_of(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of True as inclusive (start, end) pairs, with a wrap
    across the array seam merged into one cyclic run."""
    import numpy as np

    idx = np.flatnonzero(mask)
    runs: list[tuple[int, int]] = []
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
        runs[0] = (s, runs[0][1])  # cyclic: start past the seam
    return runs


def stable_interval_by_sweep(
    region: FeasibleRegion,
    x0,
    step: float,
    *,
    tie_tol: float = _TIE_REL,
    cross_check_lp: LinearProgram2D | None = None,
) -> SweepResult:
    """Estimate the stable cone of x0 by sweeping the full circle.

    Samples the grid -pi + k*step over (-pi, pi], finds the run of samples
    where x0 wins strictly, and bisects each run boundary down to
    step/1024.  Raises VertexNeverOptimal when no sample picks x0.
    """
    import numpy as np

    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    if not region.vertices:
        raise EmptyRegion("cannot sweep a region with no vertices")
    x0_idx = region.index_of(x0)

    n = int(math.floor(TAU / step + 1e-9))
    phis = -math.pi + step * np.arange(1, n + 1, dtype=float)
    if phis[-1] > math.pi + 1e-9:
        phis = phis[:-1]
        n -= 1

    if cross_check_lp is not None:
        argmax = np.array(
            [_simplex_argmax(cross_check_lp, region, p) for p in phis],
            dtype=np.int64,
        )

        def wins(phi: float) -> bool:
            return _simplex_argmax(cross_check_lp, region, phi) == x0_idx

    else:
        vx, vy = _coords(region)
        argmax = _kernel.argmax_grid(phis, vx, vy, tie_tol)

        def wins(phi: float) -> bool:
            return _kernel.argmax_at(phi, vx, vy, tie_tol) == x0_idx

    mask = argmax == x0_idx
    if not mask.any():
        raise VertexNeverOptimal(
            f"vertex {x0_idx} never wins at step {step}; its cone may be "
            "narrower than the grid"
        )
    if mask.all():
        raise RuntimeError("vertex wins at every angle; region is not a polygon")

    def run_len(run: tuple[int, int]) -> int:
        s, e = run
        return (e - s) % n + 1

    runs = _runs_of(mask)
    s, e = max(runs, key=run_len)  # ties: first wins (max is stable)

    # Unwrapped angles of the run edges and their outside neighbors.
    a_in_lo = float(phis[s])
    a_out_lo = float(phis[s - 1]) if s > 0 else float(phis[-1]) - TAU
    if s <= e:
        a_in_hi = float(phis[e])
        a_out_hi = float(phis[e + 1]) if e < n - 1 else float(phis[0]) + TAU
    else:  # run wraps the seam
        a_in_hi = float(phis[e]) + TAU
        a_out_hi = float(phis[e + 1]) + TAU

    tol = step / 1024.0
    lo_out, lo_in = a_out_lo, a_in_lo
    while lo_in - lo_out > tol:
        mid = 0.5 * (lo_in + lo_out)
        if wins(mid):
            lo_in = mid
        else:
            lo_out = mid
    hi_in, hi_out = a_in_hi, a_out_hi
    while hi_out - hi_in > tol:
        mid = 0.5 * (hi_in + hi_out)
        if wins(mid):
            hi_in = mid
        else:
            hi_out = mid

    lo = 0.5 * (lo_in + lo_out)
    hi = 0.5 * (hi_in + hi_out)
    shift = wrap_angle(lo) - lo
    interval = AngleInterval(lo + shift, hi + shift)
    return SweepResult(region, phis, argmax, step, interval)
