#!/usr/bin/env python3
"""Compare two sets of run records written by run.py.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds run records (<workload>-seed<n>-trace0.json) of one
commit, for example a copy of .perfbench_out/ after a series of runs.  For
every workload and end-to-end metric it prints each side's median and
quartiles, the change of the median, and a verdict:

  regression   the new median is worse than the base median by more than
               the metric's bound in BENCHMARK.json
  gain         the new side wins at least 9 in 10 runs paired by seed, and
               the medians differ by more than the base side's quartile spread
  unresolved   the base side's quartile spread is wider than the bound
  same         otherwise

It refuses (exit 2) to compare records whose sweep backend differs, since
the compiled and the Python sweep kernels are different programs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> list[dict]:
    records = []
    for path in sorted(Path(directory).glob("*-trace0.json")):
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    if not records:
        sys.exit(f"compare: no run records (*-trace0.json) in {directory}")
    return records


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    backends = {r["sweep_backend"] for r in base + new}
    if len(backends) != 1:
        print(f"compare: refusing, the runs use different sweep backends {sorted(backends)}",
              file=sys.stderr)
        return 2
    for key in ("python", "numpy", "nproc"):
        seen = {str(r[key]) for r in base + new}
        if len(seen) > 1:
            print(f"note: runs differ in {key}: {sorted(seen)}")

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        b_runs = {r["seed"]: r for r in base if r["workload"] == workload}
        n_runs = {r["seed"]: r for r in new if r["workload"] == workload}
        print(f"== {workload}: {len(b_runs)} base runs, {len(n_runs)} new runs")
        for name, m in spec.items():
            lower = m["better"] == "lower"
            bv = [r["metrics"][name]["value"] for r in b_runs.values()]
            nv = [r["metrics"][name]["value"] for r in n_runs.values()]
            b1, bmed, b3 = quartiles(bv)
            n1, nmed, n3 = quartiles(nv)
            change = (nmed - bmed) / bmed
            worse = change if lower else -change
            pairs = [(b_runs[s]["metrics"][name]["value"], n_runs[s]["metrics"][name]["value"])
                     for s in sorted(b_runs.keys() & n_runs.keys())]
            wins = sum(1 for b, n in pairs if (n < b if lower else n > b))
            if worse > m["bound"]:
                verdict = "regression"
            elif pairs and wins >= 0.9 * len(pairs) and abs(nmed - bmed) > b3 - b1:
                verdict = "gain"
            elif (b3 - b1) / bmed > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "same"
            print(f"  {name:14s} base {bmed:10.4g} [{b1:.4g}, {b3:.4g}]  "
                  f"new {nmed:10.4g} [{n1:.4g}, {n3:.4g}]  {100 * change:+6.1f} %  "
                  f"wins {wins}/{len(pairs)}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
