"""Machine-speed calibration for CPU times measured on a shared host.

On a small shared VM the CPU time of a fixed piece of code swings by up to
2x within seconds, as other tenants load the physical core and the socket.
CPU time leaves out time stolen from the VM, but not this slowdown, and a
run's median moves with the share of its ops that met a busy host.

So the benchmark times a fixed reference task next to its ops, and scales
each op's CPU time by REF / (mean CPU time of the reference task just before
and just after the op).  A reported time is then the op's CPU time at the
speed at which the reference task takes REF.  The reference task resembles
the op, because different code slows down by different factors:

- in-process ops: `kernel()`, pure-Python pairwise intersections of fixed
  lines through small frozen dataclasses, the kind of interpreter work the
  pipeline does; reference 1.0 ms.
- CLI children and set-up: a fresh `python -c pass`, the interpreter
  start-up every CLI op and every worker pays; reference 60 ms.

The references are the benchmark's own code, never the package's, so no
change to planarlp can move them.  On the reference VM (2 vCPU, Python
3.11, five 20-second runs per workload) this cut the run-to-run spread of
the per-op CPU median from 16-33 % to 1-5 %.
"""

from __future__ import annotations

import bisect
import math
import resource
import subprocess
import sys
import time
from dataclasses import dataclass

KERNEL_REF_S = 1.0e-3
INTERP_REF_S = 60.0e-3


@dataclass(frozen=True)
class _Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("non-finite point")


_ROWS = tuple(
    (math.cos(a), math.sin(a), 10.0 + 3.0 * math.cos(a) + 4.0 * math.sin(a))
    for a in (0.41 * i for i in range(24))
)


def kernel() -> int:
    """Pairwise line intersections of 24 fixed rows with a feasibility scan."""
    found = 0
    for i, (a1, a2, b) in enumerate(_ROWS):
        for c1, c2, d in _ROWS[i + 1:]:
            det = a1 * c2 - a2 * c1
            if abs(det) < 1e-12:
                continue
            p = _Point((b * c2 - d * a2) / det, (a1 * d - c1 * b) / det)
            for r1, r2, rb in _ROWS:
                if r1 * p.x + r2 * p.y - rb > 1e-9 * max(1.0, abs(r1), abs(r2), abs(rb)):
                    break
            else:
                found += 1
    return found


def children_cpu() -> float:
    """CPU seconds (user + sys) of all waited-for children so far."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def kernel_cpu() -> float:
    """CPU seconds of one kernel() run in this process."""
    c0 = time.process_time()
    kernel()
    return time.process_time() - c0


def interp_cpu() -> float:
    """CPU seconds of a fresh `python -c pass`."""
    c0 = children_cpu()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return children_cpu() - c0


class Calibrator:
    """Reference-task samples taken before every `every`-th op of a timed
    loop, and the scale factor they give each op."""

    def __init__(self, measure, ref_s: float, every: int = 1):
        self.measure = measure
        self.ref_s = ref_s
        self.every = every
        self.before: list[int] = []  # op index each sample was taken before
        self.samples: list[float] = []

    def before_op(self, k: int, force: bool = False) -> None:
        if force or k % self.every == 0:
            self.before.append(k)
            self.samples.append(self.measure())

    def factor(self, k: int) -> float:
        """ref_s over the mean of the samples on either side of op k."""
        i = bisect.bisect_right(self.before, k)
        near = self.samples[max(i - 1, 0):i + 1]
        return self.ref_s * len(near) / sum(near)
