"""Command-line front end: planar LP solving and gradient-cone sensitivity.

    planarlp solve <file.lp> [--tol EPS]
    planarlp sensitivity <file.lp> [--json] [--radians] [--svg OUT.svg]
                         [--clip-first-quadrant] [--check-sweep STEP_DEG]
                         [--tol EPS]
    planarlp -h | --help

An option may come before or after the file, as --opt VALUE or --opt=VALUE;
the last of a repeated option wins.  Options are spelled in full.

Exit codes: 0 success, 1 input/validation error, 2 infeasible or a usage
error (unknown command or option, bad --tol or --check-sweep), 3 unbounded,
4 sweep oracle disagreement (or no sweep sample picks the optimal vertex,
whose cone is then narrower than the step, or every sample does, so the
grid cannot bracket the cone), 5 degenerate (tied) optimum.
"""

from __future__ import annotations

import math
import sys

from . import _binder
from .errors import (
    DegenerateOptimum,
    GridTooCoarse,
    Infeasible,
    PlanarLPError,
    Unbounded,
    UnboundedRegion,
    VertexNeverOptimal,
)
from .geometry import Frozen, PolarVector, Vec2, circular_delta
from .lp_io import load_lp
from .lp_model import FEAS_TOL, Vertex
from .solver import enumerate_vertices, solve_enumeration

TYPE_CHECKING = False  # true to a type checker; spares importing typing
if TYPE_CHECKING:
    from .sensitivity import AngleInterval, SensitivityReport

# The names of the modules that not every command runs bind at their first
# read, so that solve loads neither sensitivity, svg nor oracle.  The code
# reads them as attributes of this module, _self, so that it also runs what
# a rebinding (monkeypatch.setattr, a tracer) puts there.
__getattr__ = _binder(globals(), {
    "AngleInterval": "sensitivity",
    "SensitivityReport": "sensitivity",
    "analyze": "sensitivity",
    "_MAX_SWEEP_ANGLES": "oracle",
    "stable_interval_by_sweep": "oracle",
    "emit_svg": "svg",
})
_self = sys.modules[__name__]

SCHEMA_VERSION = 1

_QUARTER = 0.5 * math.pi


def _fmt_num(x: float) -> str:
    return f"{x:.6g}"


def _fmt_point(p: Vec2) -> str:
    return f"({_fmt_num(p.x1)}, {_fmt_num(p.x2)})"


def _fmt_angle(rad: float, radians: bool) -> str:
    if radians:
        return f"{rad:.6f} rad"
    # Truncate (not round) to 4 decimals, matching the reference outputs.
    deg = math.trunc(math.degrees(rad) * 10000.0) / 10000.0
    return f"{deg:.4f}°"


def clip_to_first_quadrant(interval: AngleInterval) -> AngleInterval | None:
    """Circular intersection of the cone with directions in (0, pi/2)."""
    best = None
    for k in (-1, 0, 1):
        piece = interval.clipped(k * math.tau, k * math.tau + _QUARTER)
        if piece is not None and (best is None or piece.width > best.width):
            best = piece
    return best


class OracleCheck(Frozen):
    """Outcome of the --check-sweep comparison (angles in radians)."""

    __slots__ = ("step", "interval", "max_endpoint_error", "agrees")
    step: float
    interval: AngleInterval
    max_endpoint_error: float
    agrees: bool


class ReportDocument(Frozen):
    """A sensitivity report plus provenance, serializable to JSON and back."""

    __slots__ = (
        "report",
        "input_path",
        "tolerance",
        "solver",
        "clip_first_quadrant",
        "oracle_check",
        "schema_version",
    )
    report: SensitivityReport
    input_path: str
    tolerance: float
    solver: str
    clip_first_quadrant: bool
    oracle_check: OracleCheck | None
    schema_version: int

    _defaults = {
        "clip_first_quadrant": False,
        "oracle_check": None,
        "schema_version": SCHEMA_VERSION,
    }

    def to_json_dict(self) -> dict:
        r = self.report
        clipped = (
            clip_to_first_quadrant(r.interval) if self.clip_first_quadrant else None
        )
        return {
            "schema_version": self.schema_version,
            **_json_value(r),
            "clip_first_quadrant": self.clip_first_quadrant,
            "clipped_interval": _json_value(clipped),
            "provenance": {
                "input_path": self.input_path,
                "tolerance": self.tolerance,
                "solver": self.solver,
                "oracle_check": _json_value(self.oracle_check),
            },
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, d: dict) -> "ReportDocument":
        prov = d["provenance"]
        oc = prov["oracle_check"]
        return cls(
            report=_from_json_value(_self.SensitivityReport, d),
            input_path=prov["input_path"],
            tolerance=prov["tolerance"],
            solver=prov["solver"],
            clip_first_quadrant=d["clip_first_quadrant"],
            oracle_check=None if oc is None else _from_json_value(OracleCheck, oc),
            schema_version=d["schema_version"],
        )

    @classmethod
    def from_json(cls, s: str) -> "ReportDocument":
        import json

        return cls.from_json_dict(json.loads(s))


def _json_value(value):
    """JSON form of a record field: a Vertex is its point and sorted active
    rows, a vertex pair is lo/hi, any other Frozen record is its fields in
    slot order; numbers, bools and None pass through."""
    if isinstance(value, Vertex):
        return {
            "point": [value.point.x1, value.point.x2],
            "active_rows": sorted(value.active_rows),
        }
    if isinstance(value, tuple):
        lo, hi = value
        return {"lo": _json_value(lo), "hi": _json_value(hi)}
    if isinstance(value, Frozen):
        return {name: _json_value(getattr(value, name)) for name in value.__slots__}
    return value


def _vertex_from(d: dict) -> Vertex:
    return Vertex(Vec2(*d["point"]), frozenset(d["active_rows"]))


#: Decoders of the record fields that are not plain JSON values, for
#: SensitivityReport and OracleCheck; every other field is read as it is.
_DECODERS = {
    "optimal_vertex": _vertex_from,
    "pred": _vertex_from,
    "succ": _vertex_from,
    "interval": lambda d: _self.AngleInterval(**d),
    "objective_polar": lambda d: PolarVector(**d),
    "nu_interval": lambda d: _self.AngleInterval(**d),
    "endpoint_ties": lambda d: (_vertex_from(d["lo"]), _vertex_from(d["hi"])),
}


def _from_json_value(cls, d: dict):
    """The cls record whose JSON form (see _json_value) is d."""
    return cls(*[
        _DECODERS[name](d[name]) if name in _DECODERS else d[name]
        for name in cls.__slots__
    ])


def render_text(doc: ReportDocument, radians: bool = False) -> str:
    r = doc.report

    def ang(x: float) -> str:
        return _fmt_angle(x, radians)

    lines = [
        f"input: {doc.input_path}",
        f"optimal vertex: {_fmt_point(r.optimal_vertex.point)}",
        f"optimal value: {_fmt_num(r.optimal_value)}",
        f"active rows: {sorted(r.optimal_vertex.active_rows)}",
        f"neighbors: pred {_fmt_point(r.pred.point)}, succ {_fmt_point(r.succ.point)}",
        f"edge angles: theta1 = {ang(r.theta1)}, theta2 = {ang(r.theta2)}",
        f"stable cone (open): ({ang(r.interval.lo)}, {ang(r.interval.hi)})",
        f"objective polar: r = {r.objective_polar.r:.4f}, "
        f"phi = {ang(r.objective_polar.phi)}",
        f"rotation margin nu (open): ({ang(r.nu_interval.lo)}, {ang(r.nu_interval.hi)})",
        f"normalization rotation theta0: {ang(r.theta0)}",
        f"endpoint ties: lo -> {_fmt_point(r.endpoint_ties[0].point)}, "
        f"hi -> {_fmt_point(r.endpoint_ties[1].point)}",
    ]
    if doc.clip_first_quadrant:
        clipped = clip_to_first_quadrant(r.interval)
        if clipped is None:
            lines.append("clipped to first quadrant: (empty)")
        else:
            lines.append(
                f"clipped to first quadrant: ({ang(clipped.lo)}, {ang(clipped.hi)})"
            )
    if doc.oracle_check is not None:
        oc = doc.oracle_check
        lines.append(
            f"sweep check: step {ang(oc.step)}, interval "
            f"({ang(oc.interval.lo)}, {ang(oc.interval.hi)}), "
            f"max endpoint error {ang(oc.max_endpoint_error)}, "
            f"{'agree' if oc.agrees else 'DISAGREE'}"
        )
    return "\n".join(lines)


def run_solve(path: str, tol: float = FEAS_TOL) -> int:
    lp = load_lp(path)
    sol = solve_enumeration(lp, tol=tol)
    print(f"x* = {_fmt_point(sol.vertex.point)}, value = {_fmt_num(sol.value)}")
    print(f"active rows: {sorted(sol.vertex.active_rows)}")
    if not sol.unique:
        print("note: the optimum is not unique (tie within tolerance)")
    return 0


def run_sensitivity(
    path: str,
    *,
    json_mode: bool = False,
    radians: bool = False,
    svg_path: str | None = None,
    clip: bool = False,
    check_sweep_deg: float | None = None,
    tol: float = FEAS_TOL,
) -> int:
    lp = load_lp(path)
    report = _self.analyze(lp, tol=tol)
    # The report reads three vertices; --svg and the sweep read them all.
    region = None
    if svg_path is not None or check_sweep_deg is not None:
        region = enumerate_vertices(lp, tol=tol)

    oracle_check = None
    sweep_error = None
    if check_sweep_deg is not None:
        step = math.radians(check_sweep_deg)
        try:
            sweep = _self.stable_interval_by_sweep(region, report.optimal_vertex, step)
        except (VertexNeverOptimal, GridTooCoarse) as exc:
            # The grid misses the cone or holds no sample outside it; the
            # report stands.
            sweep_error = f"sweep oracle: {exc}"
        else:
            est = sweep.estimated_interval
            err = max(
                abs(circular_delta(est.lo, report.interval.lo)),
                abs(circular_delta(est.hi, report.interval.hi)),
            )
            oracle_check = OracleCheck(step, est, err, err <= 2.0 * step)
            if not oracle_check.agrees:
                sweep_error = "sweep oracle disagrees with the analytic interval"

    doc = ReportDocument(
        report=report,
        input_path=str(path),
        tolerance=tol,
        solver="enumeration",
        clip_first_quadrant=clip,
        oracle_check=oracle_check,
    )
    if json_mode:
        print(doc.to_json())
    else:
        print(render_text(doc, radians))

    if svg_path is not None:
        _self.emit_svg(region, report, svg_path)

    if sweep_error is not None:
        print(f"error: {sweep_error}", file=sys.stderr)
        return 4
    return 0


def _tolerance(text: str) -> float:
    tol = float(text)
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"need a finite tolerance >= 0, got {text}")
    return tol


def _sweep_step(text: str) -> float:
    step = float(text)
    if not 0.0 < step <= 180.0 or 360.0 / step > _self._MAX_SWEEP_ANGLES:
        raise ValueError(
            f"need a sweep step in (0, 180] degrees giving at most "
            f"{_self._MAX_SWEEP_ANGLES} angles, got {text}"
        )
    return step


#: Each command's options: the keyword of its run_* function that an option
#: sets, and the reader of its value (None for a flag, which sets True).
_OPTIONS = {
    "solve": {"--tol": ("tol", _tolerance)},
    "sensitivity": {
        "--json": ("json_mode", None),
        "--radians": ("radians", None),
        "--svg": ("svg_path", str),
        "--clip-first-quadrant": ("clip", None),
        "--check-sweep": ("check_sweep_deg", _sweep_step),
        "--tol": ("tol", _tolerance),
    },
}


def _usage_error(message: str):
    print("usage: planarlp {solve,sensitivity} FILE [OPTION ...]", file=sys.stderr)
    print(f"planarlp: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse(argv) -> tuple[str, str, dict]:
    """The command, FILE and run_* keywords that argv gives.  -h or --help
    prints the module docstring and exits 0; a misuse exits 2."""
    if "-h" in argv or "--help" in argv:
        print(__doc__, end="")
        raise SystemExit(0)
    args = iter(argv)
    command = next(args, None)
    options = _OPTIONS.get(command)
    if options is None:
        _usage_error("no command" if command is None else f"unknown command {command!r}")
    files, keywords = [], {}
    for arg in args:
        if not arg.startswith("-"):
            files.append(arg)
            continue
        name, eq, value = arg.partition("=")
        if name not in options:
            _usage_error(f"{command} takes no option {name}")
        keyword, read = options[name]
        if read is None:
            if eq:
                _usage_error(f"argument {name}: takes no value")
            keywords[keyword] = True
            continue
        if not eq:
            value = next(args, None)
            if value is None or value.startswith("--"):
                _usage_error(f"argument {name}: expected a value")
        try:
            keywords[keyword] = read(value)
        except ValueError as exc:
            _usage_error(f"argument {name}: {exc}")
    if len(files) != 1:
        _usage_error(f"{command} takes one FILE, got {len(files)}")
    return command, files[0], keywords


def main(argv=None) -> int:
    command, path, keywords = _parse(sys.argv[1:] if argv is None else argv)
    try:
        if command == "solve":
            return run_solve(path, **keywords)
        return run_sensitivity(path, **keywords)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (Unbounded, UnboundedRegion) as exc:
        print(f"unbounded: {exc}", file=sys.stderr)
        return 3
    except DegenerateOptimum as exc:
        print(f"degenerate optimum: {exc}", file=sys.stderr)
        for v in exc.tied_vertices:
            print(f"  tied vertex: {_fmt_point(v.point)}", file=sys.stderr)
        if exc.stable_angle is not None:
            print(
                f"  stable only at phi = {_fmt_angle(exc.stable_angle, False)}",
                file=sys.stderr,
            )
        return 5
    except (PlanarLPError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

