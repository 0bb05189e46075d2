"""One benchmark worker process: set up one workload, time it, check it.

    python perfbench/worker.py --workload NAME --seed N --seconds S
                               --workdir DIR [--setup-only | --trace SPANS.json]

run.py starts it with PYTHONPATH pointing at the checkout's src/ and the
BLAS pool pinned to one thread, and reads the JSON object it prints last.
All times are CPU times of the process that does the work: this worker for
in-process workloads, its CLI children for cli-sensitivity, scaled to the
reference speed of calibration.py.

--setup-only stops after set-up and reports setup_s only.  --trace runs
the workload for S seconds with every other op traced, then the layer
profile of tracing.py, and writes the profile's spans to SPANS.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

from calibration import (
    INTERP_REF_S,
    KERNEL_REF_S,
    Calibrator,
    children_cpu,
    interp_cpu,
    kernel_cpu,
)
from workloads import WORKLOADS

MIN_OPS = 100  # so that cpu_ms_p90 has at least ten samples above it
MIN_TRACE_OPS = 40


def percentile(xs: list[float], q: int) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def timed_loop(op, seconds: float, min_ops: int, cal: Calibrator | None = None,
               tracer=None):
    """Closed loop: op(k) for k = 0, 1, ... until `seconds` of wall time
    have passed and at least min_ops ops are done.

    Returns one row per op (own CPU s, children's CPU s, wall s), the op
    results (None where the op raised) and the errors.
    With a tracer, odd-numbered ops run traced and even ones untraced, so
    that both halves see the same machine.
    """
    rows, results, errors = [], [], {}
    # Equal answers are kept once, so what the loop holds (and the peak RSS)
    # does not grow with the number of ops; every op is still checked.
    distinct: dict = {}
    t_end = time.perf_counter() + seconds
    k = 0
    while True:
        if cal is not None:
            cal.before_op(k)
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.begin_op(k, "loop")
            tracer.install()
        w0, s0, ch0 = time.perf_counter(), time.process_time(), children_cpu()
        try:
            out = op(k)
        except Exception as exc:  # a failed op is counted, not fatal
            out = None
            errors[k] = f"{type(exc).__name__}: {exc}"
        ch1, s1, w1 = children_cpu(), time.process_time(), time.perf_counter()
        if traced:
            tracer.uninstall()
        rows.append((s1 - s0, ch1 - ch0, w1 - w0))
        results.append(out if out is None else distinct.setdefault(out, out))
        k += 1
        if w1 >= t_end and k >= min_ops:
            return rows, results, errors


def check_all(wl, results, errors) -> dict[int, str]:
    """Check every op's answer after the timed phase; returns failures."""
    failed = dict(errors)
    for k, out in enumerate(results):
        if k in failed:
            continue
        try:
            wl.check(k, out)
        except Exception as exc:  # a wrong answer or a broken output
            failed[k] = f"{type(exc).__name__}: {exc}"
    return failed


def _failures(failed: dict[int, str]) -> list[str]:
    return [f"op {k}: {msg}" for k, msg in sorted(failed.items())[:5]]


def run_timed(wl, seconds: float) -> dict:
    if wl.in_process:
        cal = Calibrator(kernel_cpu, KERNEL_REF_S)
    else:
        cal = Calibrator(interp_cpu, INTERP_REF_S, every=2)
    gc.collect()
    rows, results, errors = timed_loop(wl.op, seconds, MIN_OPS, cal)
    cal.before_op(len(rows), force=True)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mib = resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB
    failed = check_all(wl, results, errors)

    factors = [cal.factor(k) for k in range(len(rows))]
    raw = [1000.0 * (own if wl.in_process else child) for own, child, _ in rows]
    cpu_ms = [x * f for x, f in zip(raw, factors)]
    timed_cpu_s = sum((own + child) * f for (own, child, _), f in zip(rows, factors))
    p90 = percentile(cpu_ms, 90)
    return {
        "attempted": len(results),
        "failed": len(failed),
        "failures": _failures(failed),
        "metrics": {
            "cpu_ms_p50": statistics.median(cpu_ms),
            "cpu_ms_p90": p90,
            "ops_per_cpu_s": len(rows) / timed_cpu_s,
            "peak_rss_mib": peak_rss_mib,
        },
        "context": {
            "samples": len(cpu_ms),
            "samples_above_p90": sum(1 for x in cpu_ms if x > p90),
            "raw_cpu_ms_p50": statistics.median(raw),
            "raw_cpu_ms_p90": percentile(raw, 90),
            "wall_ms_p50": statistics.median(1000.0 * w for _, _, w in rows),
            "speed_factor_p50": statistics.median(factors),
            "calibration_samples": len(cal.samples),
        },
        "properties": wl.properties(len(results)),
    }


def run_traced(wl, seconds: float, seed: int, workdir: str, spans_path: str) -> dict:
    import tracing

    # cli-sensitivity's ops are child processes, out of a tracer's reach: its
    # traced run times the same commands through cli.main in this process.
    op = wl.op if wl.in_process else wl.op_in_process
    tracer = tracing.Tracer()
    gc.collect()
    rows, results, errors = timed_loop(op, seconds, MIN_TRACE_OPS, tracer=tracer)
    failed = check_all(wl, results, errors)
    plain = [1000.0 * own for own, *_ in rows[0::2]]
    traced = [1000.0 * own for own, *_ in rows[1::2]]
    spans_per_op = len(tracer) / len(traced)

    tracer.reset()
    speed = [kernel_cpu() for _ in range(5)]
    tracer.install()
    try:
        grid_evals = tracing.profile(tracer, seed, workdir)
    finally:
        tracer.uninstall()
    speed += [kernel_cpu() for _ in range(5)]
    tracer.dump(spans_path)

    p50_plain, p50_traced = statistics.median(plain), statistics.median(traced)
    metrics = {
        "trace.untraced_cpu_ms_p50": (p50_plain, "ms"),
        "trace.traced_cpu_ms_p50": (p50_traced, "ms"),
        "trace.overhead_ms": (p50_traced - p50_plain, "ms"),
        "trace.spans_per_op": (spans_per_op, "count"),
    }
    metrics.update(tracing.startup_metrics())
    metrics.update(tracing.layer_metrics(tracer, grid_evals))
    return {
        "attempted": len(results),
        "failed": len(failed),
        "failures": _failures(failed),
        "metrics": metrics,
        # Per-layer times are raw CPU; this says how slow the host was.
        "context": {"absent": tracer.absent, "profile_spans": len(tracer),
                    "loop_ops": len(rows),
                    "profile_speed_factor": KERNEL_REF_S / statistics.median(speed)},
        "properties": wl.properties(len(results)),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", metavar="SPANS")
    args = ap.parse_args()

    # One CPU for this worker and its children, so the calibration kernel
    # and the ops run on the same (virtual) core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = tempfile.mkdtemp(prefix="w-", dir=args.workdir)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.warm_up()
        # Everything this process (and, for the CLI, its children) spent so
        # far: interpreter start, imports, instances, one warm-up op per kind.
        setup_s = time.process_time() + children_cpu()
        if args.trace:
            out = run_traced(wl, args.seconds, args.seed, workdir, args.trace)
        else:
            interp_s = statistics.median(interp_cpu() for _ in range(3))
            setup = {"setup_s": setup_s * INTERP_REF_S / interp_s, "raw_setup_s": setup_s}
            out = setup if args.setup_only else {**run_timed(wl, args.seconds), **setup}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
