#!/usr/bin/env python3
"""Pipeline benchmark for planarlp: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the package under src/.
Workloads (see workloads.py for why each was chosen): cli-sensitivity,
analyze-m64, certify-sweep, solve-batch.

With --trace 0 it reports the gated end-to-end metrics, all from CPU time
(user + sys) of the process that does the work, not wall clock:

  cpu_ms_p50, cpu_ms_p90  per-op CPU ms (a run has at least 100 ops)
  ops_per_cpu_s           ops / CPU seconds of the timed phase (worker and
                          children)
  peak_rss_mib            peak RSS of the worker (max over CLI children)
  setup_s                 CPU seconds before the first timed op: interpreter,
                          imports, instances, one warm-up op of each kind;
                          median of four fresh workers

With --trace 1 it reports the per-layer metrics of tracing.py and the
tracing overhead.  Either way it prints every metric by name and unit,
writes a run record to .perfbench_out/, and prints one JSON object as its
last line.  It exits 1 if any op failed or gave a wrong answer, and 2 if it
cannot run at all.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

E2E_UNITS = {
    "cpu_ms_p50": "ms",
    "cpu_ms_p90": "ms",
    "ops_per_cpu_s": "1/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
SETUP_PROBES = 3  # fresh workers that only set up; with the measuring one, 4
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKER_TIMEOUT_S = 150

_PROBE = (
    "import json, sys, numpy, planarlp; "
    "print(json.dumps({'planarlp_file': planarlp.__file__, "
    "'planarlp_version': planarlp.__version__, "
    "'sweep_backend': planarlp.sweep_backend(), 'numpy': numpy.__version__}))"
)


class BenchError(Exception):
    """The benchmark cannot run here."""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def child_json(args: list[str], env: dict[str, str], timeout: float) -> dict:
    """Run a child python, return the JSON object on its last stdout line."""
    try:
        proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[:2]} timed out after {timeout} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{args[:2]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of the host CPU line of /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def run_record(env: dict[str, str]) -> dict:
    info = child_json(["-c", _PROBE], env, 60)
    where = Path(info.pop("planarlp_file")).resolve()
    if SRC not in where.parents:
        raise BenchError(f"planarlp imports from {where}, not from {SRC}")
    info.update({
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pinning": {k: env[k] for k in PINNED},
    })
    return info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "planarlp" / "__init__.py").is_file():
        raise BenchError(f"no planarlp package under {SRC}")
    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(str(SRC), quiet=2)
    env = worker_env()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **run_record(env)}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--workdir", str(OUT)]
    ticks0, wall0 = cpu_ticks(), time.perf_counter()
    if args.trace:
        spans = OUT / f"{tag}.spans.json"
        res = child_json(base + ["--trace", str(spans)], env, WORKER_TIMEOUT_S)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
        record["spans_file"] = spans.name
    else:
        setups = [child_json(base + ["--setup-only"], env, 60) for _ in range(SETUP_PROBES)]
        res = child_json(base, env, WORKER_TIMEOUT_S)
        setups.append(res)
        res["metrics"]["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        metrics = {k: {"value": res["metrics"][k], "unit": u} for k, u in E2E_UNITS.items()}
        res["context"]["raw_setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
        record["setup_s_samples"] = [s["setup_s"] for s in setups]
    ticks1 = cpu_ticks()
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        res["context"]["host_steal_share"] = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    res["context"]["run_wall_s"] = time.perf_counter() - wall0

    check_names(metrics, args.trace)
    correct = res["failed"] == 0
    record.update({
        "correct": correct, "attempted": res["attempted"], "failed": res["failed"],
        "failures": res["failures"], "properties": res["properties"],
        "context": res["context"], "metrics": metrics,
    })
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    for key in ("properties", "context"):
        print(f"{key}: {json.dumps(record[key])}")
    print(f"run: planarlp {record['planarlp_version']}, backend {record['sweep_backend']}, "
          f"python {record['python']}, numpy {record['numpy']}, nproc {record['nproc']}, "
          f"attempted {res['attempted']}, failed {res['failed']}")
    for line in res["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


def check_names(metrics: dict, trace: int) -> None:
    """The metrics printed must be exactly those BENCHMARK.json declares."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: m["unit"] for k, m in metrics.items()}
    if want != got:
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(want.items()) ^ set(got.items()))}")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
