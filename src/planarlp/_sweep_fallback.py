"""Pure-Python sweep kernel, mirroring _sweep_kernel.pyx operation for
operation so both backends agree to the last bit on the same inputs."""

import math

BACKEND = "python"


def argmax_at(phi, vx, vy, rel_tol):
    """Index of the strict argmax of vx*cos(phi) + vy*sin(phi), or -1 on a
    tie at relative tolerance rel_tol."""
    c = math.cos(phi)
    s = math.sin(phi)
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
        return -1
    return best_j


def argmax_grid(phis, vx, vy, rel_tol):
    import numpy as np  # loaded on first use, not with the package

    vx_l = [float(v) for v in vx]
    vy_l = [float(v) for v in vy]
    out = np.empty(len(phis), dtype=np.int64)
    for i, phi in enumerate(phis):
        out[i] = argmax_at(float(phi), vx_l, vy_l, rel_tol)
    return out
