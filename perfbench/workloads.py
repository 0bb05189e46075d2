"""The four benchmark workloads: what one op does and how its answer is checked.

Every workload is closed loop with one client: op k+1 starts when op k has
returned.  Each uses one instance size, drawn from a pool that the seed
fixes, and op k uses pool entry k % len(pool).  An op returns a small
summary of its answer (floats and strings), so the loop holds no object
graph that would make garbage collection slower as the run goes on; the
summaries are checked after the timed phase.

Ops call the package through module attributes (`solver.solve_simplex`, not
a bound name), so the traced run can rebind those names.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stdout

from planarlp import cli, oracle, sensitivity, solver
from planarlp.geometry import circular_delta
from planarlp.lp_io import serialize_lp

from instances import batch_pool, tangent_pool

# --check-sweep 0.01: the step the CLI's certification flow uses.
SWEEP_STEP = math.radians(0.01)

_NUM = r"(-?[0-9.]+(?:e[-+]?[0-9]+)?)"
_SOLVE_LINE = re.compile(rf"x\* = \({_NUM}, {_NUM}\), value = {_NUM}")
_VERTEX_LINE = re.compile(rf"optimal vertex: \({_NUM}, {_NUM}\)")


class WrongAnswer(Exception):
    """An op returned, but its answer disagrees with the expected one."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


def _close(x: float, want: float, rel: float) -> bool:
    return abs(x - want) <= rel * max(1.0, abs(want))


def _check_tangent(t, x1, x2, lo, hi, rel=1e-9, ang=1e-9) -> None:
    _expect(
        _close(x1, t.vertex[0], rel) and _close(x2, t.vertex[1], rel),
        f"vertex ({x1}, {x2}) != closed form {t.vertex}",
    )
    _expect(
        abs(circular_delta(lo, t.cone[0])) <= ang
        and abs(circular_delta(hi, t.cone[1])) <= ang,
        f"cone ({lo}, {hi}) != closed form {t.cone}",
    )


class AnalyzeM64:
    """In-process analyze(lp) on m=64 tangent-circle LPs.

    Why: enumerate_vertices is ~90 % of the op, most of it the C(66, 2)
    is_feasible calls, and normalize adds two FeasibleRegion copies on 3/4
    of the ops.  An O(m log m) region construction must show here; start-up
    and oracle changes should not.
    """

    name = "analyze-m64"
    m = 64
    in_process = True

    def __init__(self, seed: int, workdir: str):
        self.pool = tangent_pool(seed, self.m, 64)

    def warm_up(self) -> None:
        self.check(0, self.op(0))

    def op(self, k: int):
        t = self.pool[k % len(self.pool)]
        r = sensitivity.analyze(t.lp)
        return (r.optimal_vertex.point.x1, r.optimal_vertex.point.x2, r.interval.lo, r.interval.hi)

    def check(self, k: int, out) -> None:
        _check_tangent(self.pool[k % len(self.pool)], *out)

    def properties(self, ops: int) -> dict:
        return _tangent_properties(self.pool, self.m, ops, grid=0)


class CertifySweep:
    """In-process --check-sweep 0.01 flow on m=16 tangent-circle LPs:
    analyze, enumerate_vertices, stable_interval_by_sweep, and the endpoint
    comparison within 2 x step that cli.run_sensitivity makes.

    Why: the sweep is ~95 % of the op (36,000 grid angles x 16 vertices in
    the kernel, then bisection to step/1024).  A vectorised sweep kernel must
    show here, in CPU time and in peak memory; enumeration at m=16 is too
    small to matter.
    """

    name = "certify-sweep"
    m = 16
    in_process = True

    def __init__(self, seed: int, workdir: str):
        self.pool = tangent_pool(seed, self.m, 16)

    def warm_up(self) -> None:
        self.check(0, self.op(0))

    def op(self, k: int):
        t = self.pool[k % len(self.pool)]
        r = sensitivity.analyze(t.lp)
        region = solver.enumerate_vertices(t.lp)
        sweep = oracle.stable_interval_by_sweep(region, r.optimal_vertex, SWEEP_STEP)
        est = sweep.estimated_interval
        err = max(
            abs(circular_delta(est.lo, r.interval.lo)),
            abs(circular_delta(est.hi, r.interval.hi)),
        )
        agrees = err <= 2.0 * SWEEP_STEP
        p = r.optimal_vertex.point
        return (p.x1, p.x2, r.interval.lo, r.interval.hi, agrees, len(region), len(sweep.phis))

    def check(self, k: int, out) -> None:
        x1, x2, lo, hi, agrees, n_vertices, _ = out
        _check_tangent(self.pool[k % len(self.pool)], x1, x2, lo, hi)
        _expect(agrees, "sweep interval disagrees with analyze by more than 2 x step")
        _expect(n_vertices == self.m, f"region has {n_vertices} vertices, want {self.m}")

    def properties(self, ops: int) -> dict:
        n = int(math.floor(math.tau / SWEEP_STEP + 1e-9))
        return _tangent_properties(self.pool, self.m, ops, grid=n)


class SolveBatch:
    """In-process: each op solves a fixed batch of 50 small random LPs with
    solve_enumeration and solve_simplex; the check compares the two.

    Why: the only workload that runs the simplex, and it runs enumeration at
    small m, where an asymptotically better algorithm can lose on constant
    factors.  A batch of 50 keeps an op near 20 ms, far above timer and
    garbage-collector noise.
    """

    name = "solve-batch"
    batch = 50
    in_process = True

    def __init__(self, seed: int, workdir: str):
        self.pool = batch_pool(seed, self.batch, 16)

    def warm_up(self) -> None:
        self.check(0, self.op(0))

    def op(self, k: int):
        out = []
        for lp in self.pool[k % len(self.pool)]:
            e = solver.solve_enumeration(lp)
            s = solver.solve_simplex(lp)
            out.append((e.vertex.point.x1, e.vertex.point.x2, e.value,
                        s.vertex.point.x1, s.vertex.point.x2, s.value))
        return tuple(out)

    def check(self, k: int, out) -> None:
        for i, (ex, ey, ev, sx, sy, sv) in enumerate(out):
            _expect(
                abs(ex - sx) <= 1e-6 and abs(ey - sy) <= 1e-6 and _close(ev, sv, 1e-9),
                f"LP {i} of batch {k % len(self.pool)}: enumeration ({ex}, {ey}) = {ev}, "
                f"simplex ({sx}, {sy}) = {sv}",
            )

    def properties(self, ops: int) -> dict:
        sizes = [len(lp.constraints) for batch in self.pool for lp in batch]
        verts = [len(solver.enumerate_vertices(lp)) for batch in self.pool for lp in batch]
        return {
            "m": f"1..8 (LP i of a batch has 1 + i % 8 rows), mean {sum(sizes) / len(sizes):.2f}",
            "lps_per_op": self.batch,
            "vertices_per_region": sum(verts) / len(verts),
            "rotated_share": 0.0,
            "grid_samples_per_op": 0,
            "pool": len(self.pool),
        }


class CliSensitivity:
    """Each op spawns `python -m planarlp` on an m=8 tangent-circle file,
    rotating through `solve F`, `sensitivity F --json` and
    `sensitivity F --svg OUT`.

    Why: the only workload where start-up (interpreter, `import planarlp`,
    numpy) dominates; cli.main itself is a few ms.  Lazy imports must show
    here; solver, sensitivity and oracle changes should not.
    """

    name = "cli-sensitivity"
    m = 8
    in_process = False
    commands = ("solve", "sensitivity_json", "sensitivity_svg")

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.pool = tangent_pool(seed, self.m, 16)
        self.files = []
        for i, t in enumerate(self.pool):
            path = os.path.join(workdir, f"lp{i:02d}.lp")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(serialize_lp(t.lp))
            self.files.append(path)

    def argv(self, k: int) -> list[str]:
        path = self.files[k % len(self.files)]
        kind = self.commands[k % 3]
        if kind == "solve":
            return ["solve", path]
        if kind == "sensitivity_json":
            return ["sensitivity", path, "--json"]
        return ["sensitivity", path, "--svg", self.svg_path(k)]

    def svg_path(self, k: int) -> str:
        return os.path.join(self.workdir, f"out{k:05d}.svg")

    def warm_up(self) -> None:
        # One op of each command; timed ops 0..2 later reuse these numbers.
        for k in range(3):
            self.check(k, self.op(k))

    def op(self, k: int):
        proc = subprocess.run(
            [sys.executable, "-m", "planarlp", *self.argv(k)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
        return (proc.returncode, proc.stdout, proc.stderr)

    def op_in_process(self, k: int):
        """The same command through cli.main in this process (traced run)."""
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(self.argv(k))
        return (code, buf.getvalue(), "")

    def check(self, k: int, out) -> None:
        code, stdout, stderr = out
        _expect(code == 0, f"exit code {code}: {stderr.strip()}")
        t = self.pool[k % len(self.pool)]
        kind = self.commands[k % 3]
        if kind == "sensitivity_json":
            doc = json.loads(stdout)
            x1, x2 = doc["optimal_vertex"]["point"]
            iv = doc["interval"]
            _check_tangent(t, x1, x2, iv["lo"], iv["hi"])
            return
        # Text output prints six significant digits.
        found = (_SOLVE_LINE if kind == "solve" else _VERTEX_LINE).search(stdout)
        _expect(found is not None, f"{kind}: no vertex in output {stdout[:200]!r}")
        x1, x2 = float(found.group(1)), float(found.group(2))
        _expect(
            _close(x1, t.vertex[0], 1e-5) and _close(x2, t.vertex[1], 1e-5),
            f"{kind}: vertex ({x1}, {x2}) != closed form {t.vertex}",
        )
        if kind == "sensitivity_svg":
            root = ET.parse(self.svg_path(k)).getroot()
            _expect(root.tag.endswith("svg"), f"SVG root element is {root.tag}")

    def properties(self, ops: int) -> dict:
        props = _tangent_properties(self.pool, self.m, ops, grid=0)
        props["commands"] = list(self.commands)
        return props


def _tangent_properties(pool, m: int, ops: int, grid: int) -> dict:
    used = [pool[k % len(pool)] for k in range(max(ops, 1))]
    return {
        "m": m,
        "vertices_per_region": m,  # every tangent line is active by construction
        "rotated_share": sum(t.rotated for t in used) / len(used),
        "grid_samples_per_op": grid,
        "pool": len(pool),
    }


WORKLOADS = {w.name: w for w in (CliSensitivity, AnalyzeM64, CertifySweep, SolveBatch)}
