"""Print a SHA-256 digest of the sweep oracle's output on fixed LPs.

    PYTHONPATH=src python tests/sweep_digest.py [--window-share]

The LPs are fixtures/paper.lp and the 16 tangent_pool(seed, 16, 16) LPs of
perfbench seeds 1, 2 and 3.  For each LP, in that order, one hash takes:

- from stable_interval_by_sweep(region, analyze(lp).optimal_vertex, 0.01 deg):
  phis.tobytes(), argmax.tobytes(), then repr((lo.hex(), hi.hex())).encode()
  of estimated_interval;
- from sweep_argmax(region, -pi, pi, 0.01 deg): phis.tobytes(), then
  argmax.tobytes().

It prints the number of LPs and the hex digest.  A change to the sweep
kernels must leave the digest as it is on the same machine.  This is a
script rather than a test because math.cos and math.sin, and so the tie
angles, may differ between C libraries.

With --window-share it prints instead how many of the stable_interval_by_sweep
calls above the window around x0's cone answered without a walk of the grid.
"""

from __future__ import annotations

import hashlib
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import planarlp as pl  # noqa: E402
from instances import tangent_pool  # noqa: E402

STEP = math.radians(0.01)


def lps():
    yield pl.load_lp(ROOT / "fixtures" / "paper.lp")
    for seed in (1, 2, 3):
        for t in tangent_pool(seed, 16, 16):
            yield t.lp


def window_share() -> None:
    from planarlp import oracle

    walk, walks, answered = oracle._walk, [], []

    def counting_walk(*args):
        walks.append(args)
        return walk(*args)

    oracle._walk = counting_walk
    for lp in lps():
        region = pl.enumerate_vertices(lp)
        walks.clear()
        pl.stable_interval_by_sweep(region, pl.analyze(lp).optimal_vertex, STEP)
        answered.append(not walks)
    print(f"window answered {sum(answered)} of {len(answered)} sweeps without a walk")


def main() -> None:
    if sys.argv[1:] == ["--window-share"]:
        window_share()
        return
    h = hashlib.sha256()
    count = 0
    for lp in lps():
        region = pl.enumerate_vertices(lp)
        res = pl.stable_interval_by_sweep(region, pl.analyze(lp).optimal_vertex, STEP)
        iv = res.estimated_interval
        h.update(res.phis.tobytes())
        h.update(res.argmax.tobytes())
        h.update(repr((iv.lo.hex(), iv.hi.hex())).encode())
        res = pl.sweep_argmax(region, -math.pi, math.pi, STEP)
        h.update(res.phis.tobytes())
        h.update(res.argmax.tobytes())
        count += 1
    print(count, h.hexdigest())


if __name__ == "__main__":
    main()
