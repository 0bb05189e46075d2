"""Spans around planarlp's layers, recorded from outside the package.

Tracer.install() rebinds public names in the module that calls them (for
example `planarlp.solver.is_feasible`, which enumerate_vertices looks up in
its own module) to wrappers that record a span per call: name, start, end,
parent span and op id, on the worker's CPU clock.  Spans live in flat arrays
until the run ends.  A name that the package no longer has is reported as
absent instead of failing the run.

profile() runs a fixed, short traced profile of every layer, each at the
size of the workload it should move; layer_metrics() turns its spans into
the per-layer metrics, and startup_metrics() times start-up in fresh
children.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import subprocess
import sys
import time
from array import array

from planarlp import oracle, solver

from calibration import children_cpu
from workloads import SWEEP_STEP, AnalyzeM64, CertifySweep, CliSensitivity, SolveBatch

# (module, attribute, span name, record truthiness of the result)
SITES = (
    ("planarlp.cli", "main", "cli.main", False),
    ("planarlp.cli", "load_lp", "lp_io.load_lp", False),
    ("planarlp.cli", "render_text", "cli.render", False),
    ("planarlp.cli", "ReportDocument.to_json", "cli.render", False),
    ("planarlp.cli", "emit_svg", "svg.emit_svg", False),
    ("planarlp.cli", "analyze", "sensitivity.analyze", False),
    ("planarlp.cli", "enumerate_vertices", "solver.enumerate_vertices", False),
    ("planarlp.cli", "solve_enumeration", "solver.solve_enumeration", False),
    ("planarlp.cli", "stable_interval_by_sweep", "oracle.sweep", False),
    ("planarlp.sensitivity", "analyze", "sensitivity.analyze", False),
    ("planarlp.sensitivity", "enumerate_vertices", "solver.enumerate_vertices", False),
    ("planarlp.sensitivity", "normalize", "normalization.normalize", False),
    ("planarlp.solver", "enumerate_vertices", "solver.enumerate_vertices", False),
    ("planarlp.solver", "solve_enumeration", "solver.solve_enumeration", False),
    ("planarlp.solver", "solve_simplex", "solver.solve_simplex", False),
    ("planarlp.solver", "is_feasible", "lp_model.is_feasible", True),
    ("planarlp.solver", "active_rows_at", "solver.active_rows_at", False),
    ("planarlp.solver", "check_recession", "solver.check_recession", False),
    ("planarlp.solver", "FeasibleRegion", "lp_model.region_ctor", False),
    ("planarlp.normalization", "FeasibleRegion", "lp_model.region_ctor", False),
    ("planarlp.oracle", "stable_interval_by_sweep", "oracle.sweep", False),
    ("planarlp.oracle", "sweep_argmax", "oracle.grid", False),
)


class Tracer:
    """Span recorder; install() wraps SITES, uninstall() restores them."""

    def __init__(self):
        self.names: list[str] = []
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")  # time covered by direct children
        self.parent = array("l")
        self.op = array("l")
        self.truthy = array("b")
        self.stack: list[int] = []
        self.op_id = -1
        self.op_kind: dict[int, str] = {}

    def begin_op(self, op_id: int, kind: str) -> None:
        self.op_id = op_id
        self.op_kind[op_id] = kind

    def install(self) -> None:
        self.absent = []
        for mod_name, attr, span, truthy in SITES:
            owner = importlib.import_module(mod_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            if span not in self.names:
                self.names.append(span)
            self._saved.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(fn, self.names.index(span), truthy))

    def uninstall(self) -> None:
        for owner, leaf, fn in reversed(self._saved):
            setattr(owner, leaf, fn)
        self._saved.clear()

    def _wrap(self, fn, name_id: int, truthy: bool):
        tr = self

        def traced(*args, **kwargs):
            idx = len(tr.start)
            tr.name.append(name_id)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.op.append(tr.op_id)
            tr.child.append(0.0)
            tr.end.append(0.0)
            tr.truthy.append(0)
            tr.stack.append(idx)
            tr.start.append(time.process_time())
            try:
                result = fn(*args, **kwargs)
            finally:
                t = time.process_time()
                tr.stack.pop()
                tr.end[idx] = t
                if tr.stack:
                    tr.child[tr.stack[-1]] += t - tr.start[idx]
            if truthy and result:
                tr.truthy[idx] = 1
            return result

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def dump(self, path: str) -> None:
        """Write every span as [name, start, end, parent, op] (CPU seconds)."""
        spans = [
            [self.names[self.name[i]], self.start[i], self.end[i], self.parent[i], self.op[i]]
            for i in range(len(self))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"clock": "process_time", "ops": self.op_kind,
                       "absent": self.absent, "spans": spans}, fh)

    def totals(self, kind: str) -> tuple[int, dict[str, dict[str, float]]]:
        """(ops of `kind`, per span name: calls, inclusive and self CPU
        seconds, truthy results), summed over those ops."""
        ops = {o for o, k in self.op_kind.items() if k == kind}
        out: dict[str, dict[str, float]] = {}
        for i in range(len(self)):
            if self.op[i] not in ops:
                continue
            d = out.setdefault(self.names[self.name[i]],
                               {"calls": 0, "incl": 0.0, "self": 0.0, "true": 0})
            dur = self.end[i] - self.start[i]
            d["calls"] += 1
            d["incl"] += dur
            d["self"] += dur - self.child[i]
            d["true"] += self.truthy[i]
        return len(ops), out


# --- the layer profile --------------------------------------------------------

_CLI_OPS = 24  # 8 of each command
_ANALYZE_OPS = 12  # a multiple of 4: three quarters take the rotate path
_CERTIFY_OPS = 4
_BATCH_OPS = 4
_STARTUP_REPS = 5


def profile(tracer: Tracer, seed: int, workdir: str) -> int:
    """Run a fixed number of traced ops of every kind, each at the size of
    the workload its layers should move, with op ids tagged by kind.
    Returns the grid evaluations (samples x vertices) per certify op."""
    op_id = 0

    def begin(kind: str) -> None:
        nonlocal op_id
        op_id += 1
        tracer.begin_op(op_id, kind)

    clis = CliSensitivity(seed, workdir)
    for k in range(_CLI_OPS):
        begin("cli." + clis.commands[k % 3])
        clis.check(k, clis.op_in_process(k))
    analyze = AnalyzeM64(seed, workdir)
    for k in range(_ANALYZE_OPS):
        begin("analyze")
        analyze.check(k, analyze.op(k))
    batch = SolveBatch(seed, workdir)
    for k in range(_BATCH_OPS):
        begin("batch")
        batch.check(k, batch.op(k))
    certify = CertifySweep(seed, workdir)
    grid_evals = 0
    for k in range(_CERTIFY_OPS):
        begin("certify")
        certify.check(k, certify.op(k))
        # The kernel alone: public sweep_argmax over the sweep's grid.
        begin("aux")
        region = solver.enumerate_vertices(certify.pool[k].lp)
        n = int(math.floor(math.tau / SWEEP_STEP + 1e-9))
        begin("grid")
        res = oracle.sweep_argmax(
            region, -math.pi + SWEEP_STEP, -math.pi + n * SWEEP_STEP, SWEEP_STEP
        )
        grid_evals = len(res.phis) * len(region)
    return grid_evals


def layer_metrics(tracer: Tracer, grid_evals: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of profile().

    Unless named otherwise, a metric is per op of the profile kind it is
    taken from; _ms metrics are inclusive CPU ms, _self_ms exclude child
    spans.
    """
    cache: dict[str, tuple[int, dict]] = {}

    def get(kind: str, span: str, field: str) -> float:
        if kind not in cache:
            cache[kind] = tracer.totals(kind)
        n, tot = cache[kind]
        return tot.get(span, {}).get(field, 0) / max(n, 1)

    def ms(kind, span, field="incl"):
        return (1000.0 * get(kind, span, field), "ms")

    cmds = CliSensitivity.commands
    out: dict[str, tuple[float, str]] = {}
    for c in cmds:
        out[f"cli.main_cpu_ms.{c}"] = ms("cli." + c, "cli.main")
    out["lp_io.load_lp_ms"] = (sum(ms("cli." + c, "lp_io.load_lp")[0] for c in cmds) / 3, "ms")
    out["cli.render_ms"] = (sum(ms("cli." + c, "cli.render")[0] for c in cmds) / 3, "ms")
    out["svg.emit_svg_ms"] = ms("cli.sensitivity_svg", "svg.emit_svg")
    for c in cmds:
        out[f"solver.enumerate_vertices_calls.{c}"] = (
            get("cli." + c, "solver.enumerate_vertices", "calls"), "count")

    a = "analyze"
    out["sensitivity.analyze_ms"] = ms(a, "sensitivity.analyze")
    out["sensitivity.analyze_self_ms"] = ms(a, "sensitivity.analyze", "self")
    out["solver.enumerate_vertices_ms"] = ms(a, "solver.enumerate_vertices")
    out["solver.enumerate_vertices_self_ms"] = ms(a, "solver.enumerate_vertices", "self")
    calls = get(a, "lp_model.is_feasible", "calls")
    out["lp_model.is_feasible_calls"] = (calls, "count")
    out["lp_model.is_feasible_ms"] = ms(a, "lp_model.is_feasible")
    out["solver.feasible_ratio"] = (get(a, "lp_model.is_feasible", "true") / calls if calls else 0.0, "ratio")
    out["solver.active_rows_at_ms"] = ms(a, "solver.active_rows_at")
    out["solver.check_recession_ms"] = ms(a, "solver.check_recession")
    out["lp_model.region_ctor_ms"] = ms(a, "lp_model.region_ctor")
    out["lp_model.region_ctor_calls"] = (get(a, "lp_model.region_ctor", "calls"), "count")
    out["normalization.normalize_ms"] = ms(a, "normalization.normalize")
    out["normalization.rotated_share"] = (get(a, "normalization.normalize", "calls"), "ratio")

    per_lp = 1000.0 / SolveBatch.batch
    out["solver.solve_enumeration_ms"] = (per_lp * get("batch", "solver.solve_enumeration", "incl"), "ms")
    out["solver.solve_simplex_ms"] = (per_lp * get("batch", "solver.solve_simplex", "incl"), "ms")

    sweep_ms = ms("certify", "oracle.sweep")[0]
    grid_ms = ms("grid", "oracle.grid")[0]
    out["oracle.sweep_ms"] = (sweep_ms, "ms")
    out["oracle.grid_ms"] = (grid_ms, "ms")
    out["oracle.bisect_ms"] = (sweep_ms - grid_ms, "ms")
    out["oracle.grid_evals"] = (grid_evals, "count")
    out["oracle.grid_evals_per_cpu_s"] = (1000.0 * grid_evals / grid_ms if grid_ms else 0.0, "1/s")
    return out


def startup_metrics() -> dict[str, tuple[float, str]]:
    """Start-up costs measured in fresh child processes, median of 5.  The
    import cost is taken from back-to-back pairs with the bare interpreter,
    so that both halves of a pair meet the same host load."""

    def cpu_ms(*args: str) -> tuple[float, str]:
        c0 = children_cpu()
        proc = subprocess.run([sys.executable, *args], stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, check=True, timeout=60)
        return 1000.0 * (children_cpu() - c0), proc.stderr

    interp, imports, numpy_ms = [], [], []
    for _ in range(_STARTUP_REPS):
        interp.append(cpu_ms("-c", "pass")[0])
        imports.append(cpu_ms("-c", "import planarlp")[0] - interp[-1])
        # "import time: self [us] | cumulative | imported package"
        for line in cpu_ms("-X", "importtime", "-c", "import planarlp")[1].splitlines():
            cols = line.split("|")
            if len(cols) == 3 and cols[2].strip() == "numpy":
                numpy_ms.append(int(cols[1]) / 1000.0)
    return {
        "startup.interp_cpu_ms": (statistics.median(interp), "ms"),
        "startup.import_cpu_ms": (statistics.median(imports), "ms"),
        "startup.numpy_import_ms": (statistics.median(numpy_ms) if numpy_ms else 0.0, "ms"),
    }
