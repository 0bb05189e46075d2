import json
import math
import os
import runpy
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import planarlp as pl
from planarlp import cli, lp_model, oracle, solver
from planarlp.errors import LPSyntaxError, MissingObjective, NoConstraints
from conftest import FIXTURES, walked_lengths

PAPER = str(FIXTURES / "paper.lp")
TIE = str(FIXTURES / "tie.lp")

fin = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)


# --- parsing -----------------------------------------------------------------

def test_parse_fixture_exact():
    lp = pl.load_lp(PAPER)
    assert lp.objective == pl.Vec2(2.0, 3.0)
    assert lp.constraints == (
        pl.ConstraintRow(0.25, 0.5, 40.0),
        pl.ConstraintRow(0.4, 0.2, 40.0),
        pl.ConstraintRow(0.0, 0.8, 40.0),
    )


def test_parse_comments_and_blanks():
    lp = pl.parse_lp(
        """
        # leading comment
        maximize: 1 2  # trailing comment

        constraints:
        1 0 1
        """
    )
    assert lp.objective == pl.Vec2(1.0, 2.0)
    assert len(lp.constraints) == 1


def test_parse_fractions_and_exponents():
    lp = pl.parse_lp("maximize: -2/5 1e2\nconstraints:\n0.5 -1/4 2e-1\n")
    assert lp.objective == pl.Vec2(-0.4, 100.0)
    assert lp.constraints[0] == pl.ConstraintRow(0.5, -0.25, 0.2)


def test_parse_empty_file():
    with pytest.raises(MissingObjective):
        pl.parse_lp("")
    with pytest.raises(MissingObjective):
        pl.parse_lp("# only comments\n\n")


def test_parse_no_rows():
    with pytest.raises(NoConstraints):
        pl.parse_lp("maximize: 1 1\nconstraints:\n")
    with pytest.raises(NoConstraints):
        pl.parse_lp("maximize: 1 1\n")


def test_parse_syntax_errors_carry_line_numbers():
    with pytest.raises(LPSyntaxError) as ei:
        pl.parse_lp("maximize: 1 1\nconstraints:\n1 2\n")
    assert ei.value.line == 3
    with pytest.raises(LPSyntaxError) as ei:
        pl.parse_lp("maximize: 1 1\nconstraints:\n1 two 3\n")
    assert ei.value.line == 3
    with pytest.raises(LPSyntaxError):
        pl.parse_lp("maximize: 1\nconstraints:\n1 2 3\n")
    with pytest.raises(LPSyntaxError):
        pl.parse_lp("maximize: 1 1\nrows:\n1 2 3\n")
    with pytest.raises(LPSyntaxError, match="expected 'maximize: <c1> <c2>'") as ei:
        pl.parse_lp("# a comment\nminimize: 1 1\nconstraints:\n1 2 3\n")
    assert ei.value.line == 2


@pytest.mark.parametrize(
    "data, line",
    [
        (b"maximize: 1 1\nconstraints:\n\xff 1 2\n", 3),
        (b"maximize: 1 1\r\nconstraints:\r\n1 1 2\r\n\xe9\n", 4),
        (b"\xff", 1),
        (b"maximize: 1 1\nconstraints:\n1 1 2 # caf\xc3\xa9 \xc3", 3),
    ],
)
def test_load_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, data, line):
    path = tmp_path / "bad.lp"
    path.write_bytes(data)
    with pytest.raises(LPSyntaxError, match="not UTF-8") as ei:
        pl.load_lp(path)
    assert ei.value.line == line


@given(fin, fin, st.lists(st.tuples(fin, fin, fin), min_size=1, max_size=5))
def test_serialize_round_trip(c1, c2, rows):
    lp = pl.LinearProgram2D(
        pl.Vec2(c1, c2), tuple(pl.ConstraintRow(*r) for r in rows)
    )
    again = pl.parse_lp(pl.serialize_lp(lp))
    assert again == lp  # field-exact, bit-for-bit floats


# Signed zeros, subnormals and the ends of the float range, then any float.
wide = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1.7e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _bits(lp):
    nums = [lp.objective.x1, lp.objective.x2]
    for row in lp.constraints:
        nums += [row.a1, row.a2, row.b]
    return [x.hex() for x in nums]


@given(wide, wide, st.lists(st.tuples(wide, wide, wide), min_size=1, max_size=5))
def test_serialize_round_trip_bits(c1, c2, rows):
    lp = pl.LinearProgram2D(
        pl.Vec2(c1, c2), tuple(pl.ConstraintRow(*r) for r in rows)
    )
    assert _bits(pl.parse_lp(pl.serialize_lp(lp))) == _bits(lp)


def test_parse_keeps_negative_zero():
    lp = pl.parse_lp("maximize: -0.0 1\nconstraints:\n-0 -0e5 1\n")
    assert _bits(lp) == [x.hex() for x in (-0.0, 1.0, -0.0, -0.0, 1.0)]


@given(st.integers(-10**40, 10**40), st.integers(1, 10**40))
def test_parse_fraction_is_exact(p, q):
    lp = pl.parse_lp(f"maximize: {p}/{q} 1/3\nconstraints:\n1 1 1\n")
    assert lp.objective.x1.hex() == float(Fraction(p, q)).hex()
    assert lp.objective.x2.hex() == float(Fraction(1, 3)).hex()


@pytest.mark.parametrize(
    "token", ["1/0", "1/-3", "1/+3", "-1/-3", "1/", "/2", "1//2", "1/2/3", "1.5/2", "1/2e3"]
)
def test_parse_rejects_malformed_fractions(token):
    with pytest.raises(LPSyntaxError):
        pl.parse_lp(f"maximize: {token} 1\nconstraints:\n1 1 1\n")


# --- solve subcommand --------------------------------------------------------

def test_cli_solve(capsys):
    assert cli.main(["solve", PAPER]) == 0
    out = capsys.readouterr().out
    assert "x* = (80, 40), value = 280" in out
    assert "active rows: [0, 1]" in out


def test_cli_solve_tolerance(capsys):
    assert cli.main(["solve", PAPER, "--tol", "1e-6"]) == 0
    assert "x* = (80, 40), value = 280" in capsys.readouterr().out


def test_cli_solve_notes_a_tie(capsys):
    assert cli.main(["solve", TIE]) == 0
    out = capsys.readouterr().out
    assert "x* = (100, 0), value = 200" in out
    assert "note: the optimum is not unique" in out


def test_cli_runs_as_a_module(monkeypatch, capsys):
    # python -m planarlp, in this process
    monkeypatch.setattr(sys, "argv", ["planarlp", "solve", PAPER])
    with pytest.raises(SystemExit) as ei:
        runpy.run_module("planarlp", run_name="__main__")
    assert ei.value.code == 0
    assert "x* = (80, 40)" in capsys.readouterr().out


def test_cli_solve_missing_file(capsys):
    assert cli.main(["solve", "/nonexistent/x.lp"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_solve_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.lp"
    bad.write_text("maximize: 1\n")
    assert cli.main(["solve", str(bad)]) == 1
    assert "line 1" in capsys.readouterr().err


def test_cli_solve_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.lp"
    bad.write_bytes(b"maximize: 1 1\nconstraints:\n\xff 1 2\n")
    assert cli.main(["solve", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: line 3: not UTF-8")


@pytest.mark.parametrize("command", ["solve", "sensitivity"])
def test_cli_rejects_negative_tolerance(command, capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main([command, PAPER, "--tol", "-1"])
    assert ei.value.code == 2
    assert "tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["0", "-1", "nan", "inf", "181", "1e-9", "x"])
def test_cli_rejects_bad_sweep_step(step, capsys):
    # a usage error, not a traceback or a 2.6 TiB allocation (1e-9 degrees)
    with pytest.raises(SystemExit) as ei:
        cli.main(["sensitivity", PAPER, "--check-sweep", step])
    assert ei.value.code == 2
    assert "--check-sweep" in capsys.readouterr().err


# The parser's contract: each accepted form runs as its canonical argv does.
_SOLVE = ["solve", PAPER, "--tol", "1e-6"]
_JSON = ["sensitivity", PAPER, "--json", "--check-sweep", "0.5", "--tol", "1e-6"]
_TEXT = ["sensitivity", PAPER, "--radians", "--clip-first-quadrant"]


@pytest.mark.parametrize("argv, canonical", [
    (["solve", PAPER, "--tol=1e-6"], _SOLVE),
    (["solve", "--tol", "1e-6", PAPER], _SOLVE),
    (["solve", "--tol", "1", PAPER, "--tol=1e-6"], _SOLVE),
    (["sensitivity", "--check-sweep=0.5", "--json", PAPER, "--tol=1e-6"], _JSON),
    (["sensitivity", "--tol", "1", "--check-sweep", "2", "--json", PAPER,
      "--json", "--check-sweep", "0.5", "--tol", "1e-6"], _JSON),
    (["sensitivity", "--clip-first-quadrant", PAPER, "--radians"], _TEXT),
], ids=["solve-equals", "solve-before-file", "solve-repeated", "json-equals",
        "json-last-wins", "text-flags-around-file"])
def test_cli_accepts_each_form_of_an_option(argv, canonical, capsys):
    runs = []
    for args in (canonical, argv):
        code = cli.main(args)
        runs.append((code, capsys.readouterr().out))
    assert runs[0][0] == 0 and runs[1] == runs[0]


# Each rejected form is a usage error: exit 2, the usage line, and a message
# that names the fault.
_MISUSES = [
    ([], "no command"),
    (["bogus", PAPER], "unknown command 'bogus'"),
    (["--tol", "1", "solve", PAPER], "unknown command '--tol'"),
    (["sensitivity", PAPER, "--js"], "--js"),
    (["sensitivity", PAPER, "--no-such=1"], "--no-such"),
    (["solve", PAPER, "--json"], "--json"),
    (["solve", "--check-sweep", "1", PAPER], "--check-sweep"),
    (["solve", PAPER, "--tol"], "--tol"),
    (["sensitivity", PAPER, "--svg"], "--svg"),
    (["sensitivity", PAPER, "--svg", "--json"], "--svg"),
    (["sensitivity", PAPER, "--json=1"], "--json"),
    (["sensitivity", PAPER, "--radians="], "--radians"),
    (["solve", PAPER, "--tol=x"], "--tol"),
    (["solve", PAPER, "--tol="], "--tol"),
    (["solve"], "FILE"),
    (["sensitivity", "--json"], "FILE"),
    (["solve", PAPER, PAPER], "FILE"),
    (["solve", PAPER, "-x"], "-x"),
    (["solve", "-1", PAPER], "-1"),
    (["solve", PAPER, "-"], "option -"),
]


@pytest.mark.parametrize("argv, fault", _MISUSES, ids=[
    " ".join(argv).replace(PAPER, "F") or "none" for argv, _ in _MISUSES
])
def test_cli_usage_errors_name_the_fault(argv, fault, capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main(argv)
    assert ei.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, message = err.splitlines()
    assert usage == "usage: planarlp {solve,sensitivity} FILE [OPTION ...]"
    assert message.startswith("planarlp: error: ") and fault in message


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["solve", "-h"], ["sensitivity", PAPER, "--json", "--help"],
])
def test_cli_help_prints_the_synopsis(argv, capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main(argv)
    assert ei.value.code == 0
    out, err = capsys.readouterr()
    assert out == cli.__doc__ and err == ""
    assert "planarlp solve <file.lp>" in out and "Exit codes:" in out


def test_cli_help_names_every_option_of_the_parser():
    for command, options in cli._OPTIONS.items():
        assert f"planarlp {command} <file.lp>" in cli.__doc__
        assert all(f"[{name}" in cli.__doc__ for name in options), command


def test_cli_solve_infeasible(tmp_path, capsys):
    f = tmp_path / "inf.lp"
    f.write_text("maximize: 1 1\nconstraints:\n1 1 -1\n")
    assert cli.main(["solve", str(f)]) == 2
    assert "infeasible" in capsys.readouterr().err


def test_cli_solve_unbounded(tmp_path, capsys):
    f = tmp_path / "unb.lp"
    f.write_text("maximize: 1 0\nconstraints:\n0 1 1\n")
    assert cli.main(["solve", str(f)]) == 3
    assert "unbounded" in capsys.readouterr().err


# --- sensitivity subcommand --------------------------------------------------

def test_cli_sensitivity_text(capsys):
    assert cli.main(["sensitivity", PAPER]) == 0
    out = capsys.readouterr().out
    assert "stable cone (open): (26.5650°, 63.4349°)" in out
    assert "theta1 = 116.5650°" in out
    assert "theta2 = 153.4349°" in out
    assert "r = 3.6056, phi = 56.3099°" in out
    assert "endpoint ties: lo -> (100, 0), hi -> (60, 50)" in out


def test_cli_sensitivity_radians(capsys):
    assert cli.main(["sensitivity", PAPER, "--radians"]) == 0
    out = capsys.readouterr().out
    assert "rad" in out
    assert "°" not in out


def test_cli_sensitivity_degenerate(capsys):
    assert cli.main(["sensitivity", TIE]) == 5
    err = capsys.readouterr().err
    assert "degenerate" in err
    assert "(100, 0)" in err and "(80, 40)" in err


def test_cli_sensitivity_check_sweep(capsys):
    assert cli.main(["sensitivity", PAPER, "--check-sweep", "0.05"]) == 0
    assert "agree" in capsys.readouterr().out


def test_cli_check_sweep_walks_a_window(monkeypatch, capsys):
    # --check-sweep 0.01 proves x0 = (80, 40)'s run on the 36,000-angle grid
    # from a few angles, and walks none of it
    lengths = walked_lengths(monkeypatch)
    assert cli.main(["sensitivity", PAPER, "--check-sweep", "0.01"]) == 0
    assert "agree" in capsys.readouterr().out
    assert lengths == []


def test_check_sweep_builds_no_vertex(monkeypatch, tmp_path, capsys):
    # --check-sweep reads the region's checked coordinates: it builds no
    # Vertex, and decides the cycle's convexity once, in _polygon; --svg
    # reads every vertex, and builds them once, as two reads of a region do
    built, faults = [], []
    vertices = solver._vertices

    def counting_vertices(poly, ks):
        built.append(ks)
        return vertices(poly, ks)

    monkeypatch.setattr(solver, "_vertices", counting_vertices)
    # perfbench's tracer replaces the class solver names with a function
    monkeypatch.setattr(solver, "FeasibleRegion", lambda vertices: pl.FeasibleRegion(vertices))
    for module in (lp_model, solver, oracle):

        def counting_fault(xs, ys, fault=module._cycle_fault):
            faults.append(sys._getframe(1).f_code.co_name)
            return fault(xs, ys)

        monkeypatch.setattr(module, "_cycle_fault", counting_fault)
    assert cli.main(["sensitivity", PAPER, "--check-sweep", "0.01"]) == 0
    assert "agree" in capsys.readouterr().out
    assert built == [] and faults == ["_polygon"]
    assert cli.main(["sensitivity", PAPER, "--svg", str(tmp_path / "r.svg")]) == 0
    assert len(built) == 1
    region = pl.enumerate_vertices(pl.load_lp(PAPER))
    assert region.vertices is region.vertices and len(built) == 2


def test_cli_sensitivity_sweep_disagreement(monkeypatch, capsys):
    # force a bogus sweep result to exercise the disagreement exit code
    real = cli.stable_interval_by_sweep

    def skewed(region, x0, step, **kw):
        res = real(region, x0, step, **kw)
        iv = res.estimated_interval
        shifted = pl.AngleInterval(iv.lo + 0.2, iv.hi + 0.2)
        return pl.SweepResult(res.region, res.phis, res.argmax, res.step, shifted)

    monkeypatch.setattr(cli, "stable_interval_by_sweep", skewed)
    assert cli.main(["sensitivity", PAPER, "--check-sweep", "0.05"]) == 4
    assert "DISAGREE" in capsys.readouterr().out


@pytest.mark.parametrize("json_mode", [False, True])
def test_cli_sensitivity_cone_narrower_than_sweep_step(tmp_path, json_mode, capsys):
    # Two rows 0.002 degrees apart around 45 degrees + 3e-5 rad cut a corner
    # whose cone no sample of a 0.01 degree grid falls into.  The report
    # still prints; the sweep's message goes to stderr with exit code 4.
    mid, half = math.pi / 4 + 3e-5, math.radians(0.001)
    rows = ["1 0 10", "0 1 10"] + [
        f"{math.cos(t)!r} {math.sin(t)!r} 12" for t in (mid - half, mid + half)
    ]
    f = tmp_path / "narrow.lp"
    f.write_text(
        f"maximize: {math.cos(mid)!r} {math.sin(mid)!r}\nconstraints:\n"
        + "\n".join(rows) + "\n"
    )
    argv = ["sensitivity", str(f), "--check-sweep", "0.01"]
    assert cli.main(argv + ["--json"] * json_mode) == 4
    out, err = capsys.readouterr()
    if json_mode:
        doc = json.loads(out)
        assert doc["optimal_vertex"]["active_rows"] == [2, 3]
        assert doc["provenance"]["oracle_check"] is None
    else:
        assert "stable cone (open): (45.0007°, 45.0027°)" in out
        assert "sweep check" not in out
    assert "never wins" in err and err.startswith("error: sweep oracle:")


def test_cli_sensitivity_grid_too_coarse(capsys):
    # both angles of a 162 degree grid fall in the optimal cone: the report
    # prints, and the sweep's message goes to stderr with exit code 4; the
    # cone's upper end is the normal angle of row 1, which is 151.5 degrees
    sharp = str(FIXTURES / "sharp.lp")
    assert cli.main(["sensitivity", sharp, "--check-sweep", "162"]) == 4
    out, err = capsys.readouterr()
    assert "stable cone (open): (-25.5000°, 151.5000°)" in out
    assert "sweep check" not in out
    assert err.startswith("error: sweep oracle: vertex 2 wins at all 2 angles")
    assert "too coarse to bracket its cone" in err


def test_cli_sensitivity_json(capsys):
    assert cli.main(["sensitivity", PAPER, "--json", "--check-sweep", "0.05"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)  # stdout must be pure JSON
    assert doc["schema_version"] == 1
    assert abs(doc["optimal_value"] - 280.0) < 1e-9
    assert abs(doc["interval"]["lo"] - math.atan(0.5)) < 1e-9
    assert abs(doc["interval"]["hi"] - math.atan(2.0)) < 1e-9
    assert abs(doc["objective_polar"]["phi"] - math.atan2(3.0, 2.0)) < 1e-12
    assert doc["phi_inside"] is True
    assert doc["theta0"] == 0.0
    assert doc["optimal_vertex"]["active_rows"] == [0, 1]
    assert doc["provenance"]["solver"] == "enumeration"
    assert doc["provenance"]["oracle_check"]["agrees"] is True
    for key in (
        "pred", "succ", "theta1", "theta2", "nu_interval", "endpoint_ties"
    ):
        assert key in doc


@pytest.mark.parametrize(
    "origin, flags",
    [
        (False, []),
        (False, ["--check-sweep", "0.05"]),
        (False, ["--clip-first-quadrant"]),
        (True, ["--clip-first-quadrant"]),
    ],
    ids=["plain", "check-sweep", "clip", "empty-clip"],
)
def test_report_document_round_trip(tmp_path, origin, flags, capsys):
    path = PAPER
    if origin:
        # paper.lp's rows with objective (-1, -1): the optimum is the origin,
        # whose cone (-180, -90) degrees misses the first quadrant
        path = str(tmp_path / "origin.lp")
        Path(path).write_text(Path(PAPER).read_text().replace("maximize: 2 3", "maximize: -1 -1"))
    assert cli.main(["sensitivity", path, "--json", *flags]) == 0
    out = capsys.readouterr().out
    doc = cli.ReportDocument.from_json(out)
    assert doc.to_json() == out.strip()
    assert cli.ReportDocument.from_json(doc.to_json()) == doc
    d = json.loads(out)
    assert (d["provenance"]["oracle_check"] is None) == ("--check-sweep" not in flags)
    assert d["clip_first_quadrant"] == ("--clip-first-quadrant" in flags)
    assert (d["clipped_interval"] is None) == (origin or not d["clip_first_quadrant"])
    if origin:
        assert d["optimal_vertex"]["point"] == [0.0, 0.0]
        iv = doc.report.interval
        assert math.isclose(iv.lo, -math.pi) and math.isclose(iv.hi, -0.5 * math.pi)


def _key_paths(value, prefix=()):
    """Dotted paths of the leaves of a JSON document, in document order."""
    if not isinstance(value, dict):
        return [".".join(prefix)]
    return [p for k, v in value.items() for p in _key_paths(v, (*prefix, k))]


def test_report_document_key_paths(capsys):
    # The layout, without values: renaming or reordering a key fails here.
    argv = ["sensitivity", PAPER, "--json", "--clip-first-quadrant", "--check-sweep", "0.05"]
    assert cli.main(argv) == 0
    vertex = ["point", "active_rows"]
    interval = ["lo", "hi"]
    expected = (
        ["schema_version"]
        + [f"optimal_vertex.{k}" for k in vertex]
        + ["optimal_value"]
        + [f"{v}.{k}" for v in ("pred", "succ") for k in vertex]
        + ["theta1", "theta2"]
        + [f"interval.{k}" for k in interval]
        + ["objective_polar.r", "objective_polar.phi", "phi_inside"]
        + [f"nu_interval.{k}" for k in interval]
        + ["theta0"]
        + [f"endpoint_ties.{e}.{k}" for e in interval for k in vertex]
        + ["clip_first_quadrant"]
        + [f"clipped_interval.{k}" for k in interval]
        + [f"provenance.{k}" for k in ("input_path", "tolerance", "solver")]
        + ["provenance.oracle_check.step"]
        + [f"provenance.oracle_check.interval.{k}" for k in interval]
        + ["provenance.oracle_check.max_endpoint_error", "provenance.oracle_check.agrees"]
    )
    assert _key_paths(json.loads(capsys.readouterr().out)) == expected


def test_clip_first_quadrant(capsys):
    assert cli.main(["sensitivity", PAPER, "--clip-first-quadrant"]) == 0
    out = capsys.readouterr().out
    assert "clipped to first quadrant: (26.5650°, 63.4349°)" in out


def test_clip_first_quadrant_empty(tmp_path, capsys):
    # the optimum of -x1 - x2 is (0, 0), whose cone (-180, -90) degrees
    # misses the quadrant
    f = tmp_path / "corner.lp"
    f.write_text(Path(PAPER).read_text().replace("maximize: 2 3", "maximize: -1 -1"))
    assert cli.main(["sensitivity", str(f), "--clip-first-quadrant"]) == 0
    out = capsys.readouterr().out
    assert "stable cone (open): (-180.0000°, -90.0000°)" in out
    assert "clipped to first quadrant: (empty)" in out


def test_clip_helper_wraps():
    # cone (-359, -351) degrees is (1, 9) degrees after a full turn
    iv = pl.AngleInterval(math.radians(-359.0), math.radians(-351.0))
    clipped = cli.clip_to_first_quadrant(iv)
    assert clipped is not None
    assert abs(clipped.lo - math.radians(-359.0)) < 1e-12
    # a cone fully outside the quadrant clips to nothing
    assert cli.clip_to_first_quadrant(pl.AngleInterval(2.0, 3.0)) is None


def test_cli_svg_deterministic(tmp_path, capsys):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    assert cli.main(["sensitivity", PAPER, "--svg", str(a)]) == 0
    assert cli.main(["sensitivity", PAPER, "--svg", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    svg = a.read_text()
    assert svg.count('class="vertex"') == 5
    assert svg.count('class="cone-ray"') == 2
    assert 'class="cone"' in svg and 'class="optimum"' in svg
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")


def _svg(tmp_path, text, capsys):
    lp, out = tmp_path / "in.lp", tmp_path / "out.svg"
    lp.write_text(text)
    assert cli.main(["sensitivity", str(lp), "--svg", str(out)]) == 0
    capsys.readouterr()
    return out.read_text()


def test_svg_numbers_stay_finite_past_overflow(tmp_path, capsys):
    # the region's diagonal, ~1.8e308, overflows, and so would the cone rays
    svg = _svg(tmp_path, "maximize: 1 2\nconstraints:\n1 1 1.3e308\n", capsys)
    assert "inf" not in svg and "nan" not in svg
    assert svg.count('class="cone-ray"') == 2


def test_svg_draws_a_scaled_region_alike(tmp_path, capsys):
    # paper.lp with b scaled by 2**1014 has every vertex scaled by 2**1014,
    # past the 2**1020 where drawing rescales: the same pixels, other labels
    text = Path(PAPER).read_text()
    big = _svg(tmp_path, text.replace(" 40\n", f" {40.0 * 2.0**1014!r}\n"), capsys)
    small = _svg(tmp_path, text, capsys)
    s = 2.0**1014
    assert f"({80.0 * s:.6g}, {40.0 * s:.6g})" in big

    def pixels(svg):
        return [line for line in svg.splitlines() if 'class="label"' not in line]

    assert pixels(big) == pixels(small)
    assert big != small


def _run_python(code):
    """Run code in a fresh interpreter that imports this checkout's
    package; return the finished process."""
    src = str(Path(pl.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )


def test_cli_does_not_import_numpy(tmp_path):
    # numpy is a dependency of the tests only, and no package path imports
    # it: every command runs without it
    svg = str(tmp_path / "out.svg")
    code = "\n".join([
        "import contextlib, io, sys",
        "import planarlp",
        "from planarlp import cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    assert cli.main(['solve', {PAPER!r}]) == 0",
        f"    assert cli.main(['sensitivity', {PAPER!r}]) == 0",
        f"    assert cli.main(['sensitivity', '--json', {PAPER!r}]) == 0",
        f"    assert cli.main(['sensitivity', '--svg', {svg!r}, {PAPER!r}]) == 0",
        f"    assert cli.main(['sensitivity', '--check-sweep', '0.01', {PAPER!r}]) == 0",
        "assert 'numpy' not in sys.modules, 'numpy was imported'",
    ])
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_budget(tmp_path):
    # Start-up time: the CLI commands load none of these modules, except
    # that --json loads json; the package never imports numpy, a dependency
    # of the tests only, and its parser needs no argparse (nor the gettext
    # and locale that argparse loads).  Modules the interpreter loaded
    # before the package (site hooks) do not count.
    svg = str(tmp_path / "out.svg")
    code = "\n".join([
        "import contextlib, io, sys",
        "heavy = {'numpy', 'dataclasses', 'inspect', 'fractions', 'json',",
        "         'argparse', 'gettext', 'locale'}",
        "heavy -= set(sys.modules)",
        "from planarlp import cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    assert cli.main(['solve', {PAPER!r}]) == 0",
        f"    assert cli.main(['sensitivity', {PAPER!r}]) == 0",
        f"    assert cli.main(['sensitivity', '--svg', {svg!r}, {PAPER!r}]) == 0",
        "loaded = heavy & set(sys.modules)",
        "assert not loaded, f'loaded {sorted(loaded)}'",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    assert cli.main(['sensitivity', '--json', {PAPER!r}]) == 0",
        "loaded = heavy & set(sys.modules)",
        "assert loaded <= {'json'}, f'--json loaded {sorted(loaded)}'",
    ])
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr


_SOLVE_MODULES = ["cli", "errors", "geometry", "lp_io", "lp_model", "solver"]
_REPORT_MODULES = sorted(_SOLVE_MODULES + ["normalization", "sensitivity"])


@pytest.mark.parametrize("argv, modules", [
    (None, []),
    (["solve", PAPER], _SOLVE_MODULES),
    (["sensitivity", PAPER], _REPORT_MODULES),
    (["sensitivity", "--json", PAPER], _REPORT_MODULES),
    (["sensitivity", "--svg", "SVG", PAPER], sorted(_REPORT_MODULES + ["svg"])),
    (["sensitivity", "--check-sweep", "0.05", PAPER], sorted(_REPORT_MODULES + ["oracle"])),
], ids=["import", "solve", "sensitivity", "json", "svg", "check-sweep"])
def test_cli_command_import_budget(tmp_path, argv, modules):
    # Start-up time: a fresh `import planarlp` loads no submodule, and each
    # command loads only the package modules it runs: solve none of
    # sensitivity, normalization, oracle, svg or distance_form, only --svg
    # loads svg and only --check-sweep loads oracle
    lines = ["import contextlib, io, sys", "import planarlp"]
    if argv is not None:
        argv = [str(tmp_path / "out.svg") if a == "SVG" else a for a in argv]
        lines += [
            "from planarlp import cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    assert cli.main({argv!r}) == 0",
        ]
    lines.append("print(sorted(m[9:] for m in sys.modules if m.startswith('planarlp.')))")
    proc = _run_python("\n".join(lines))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr(modules)


def test_package_binds_each_name_from_its_home_module():
    # in a fresh process every public name resolves to the very object of
    # its home module, whose classes and functions name it as theirs, and
    # `from planarlp import *` binds every name
    code = "\n".join([
        "import importlib",
        "import planarlp as pl",
        "for name, home in pl._HOMES.items():",
        "    module = importlib.import_module('planarlp.' + home)",
        "    value = getattr(pl, name)",
        "    assert value is (module if name == home else getattr(module, name)), name",
        "    if getattr(value, '__module__', '').startswith('planarlp.'):",
        "        assert value.__module__ == module.__name__, name",
        "scope = {}",
        "exec('from planarlp import *', scope)",
        "missing = set(pl.__all__) - set(scope)",
        "assert not missing, f'star import missed {sorted(missing)}'",
    ])
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr


def test_lazy_namespaces_list_their_names_and_refuse_others():
    assert set(dir(pl)) >= set(pl.__all__)
    with pytest.raises(AttributeError, match="'planarlp' has no attribute 'no_such_name'"):
        pl.no_such_name
    assert not hasattr(pl, "no_such_name")
    # the CLI's lazily bound names are module attributes, rebindable there
    from planarlp import sensitivity, svg
    assert cli.analyze is sensitivity.analyze and cli.emit_svg is svg.emit_svg
    assert cli.stable_interval_by_sweep is oracle.stable_interval_by_sweep
    with pytest.raises(AttributeError, match="'planarlp.cli' has no attribute 'no_such_name'"):
        cli.no_such_name


def test_public_surface():
    # a change to the public names edits this list
    assert sorted(pl.__all__) == [
        "Angle", "AngleInterval", "ConstraintRow", "DistanceSolution", "FEAS_TOL",
        "FeasibleRegion", "HalfPlaneSide", "LineThroughOrigin", "LinearProgram2D",
        "MERGE_TOL", "NormalizedProblem", "PolarVector", "Recession", "Rotation",
        "SensitivityReport", "Solution", "SweepResult", "TIE", "ValueShift", "Vec2",
        "Vertex", "X1_NONNEG", "X2_NONNEG", "analyze", "apply_rotation",
        "argmax_distance", "check_recession", "circular_delta", "classify_value_shift",
        "cross", "distance_to_line", "edge_angles", "enumerate_vertices", "errors",
        "evaluate", "is_feasible", "line_direction_angle", "load_lp", "normalize",
        "normalizing_rotation", "objective_line", "parse_lp", "polar_of",
        "rotate_problem", "rotation_of", "serialize_lp", "side_of", "solve_enumeration",
        "solve_simplex", "stable_angle_interval", "stable_interval_by_sweep",
        "sweep_argmax", "sweep_backend", "translate_region", "validate",
        "value_distance_ratio", "value_under_rotation", "wrap_angle",
    ]
    assert len(set(pl.__all__)) == len(pl.__all__)
    for name in pl.__all__:
        assert hasattr(pl, name), name


def test_simplex_does_not_import_numpy():
    # the simplex is pure Python in both phases
    code = "\n".join([
        "import sys",
        "import planarlp as pl",
        f"lp = pl.load_lp({PAPER!r})",
        "assert pl.solve_simplex(lp).unique",
        "rows = (pl.ConstraintRow(-1.0, -1.0, -1.0), pl.ConstraintRow(1.0, 0.0, 2.0),",
        "        pl.ConstraintRow(0.0, 1.0, 2.0))",
        "sol = pl.solve_simplex(pl.LinearProgram2D(pl.Vec2(1.0, 1.0), rows))",
        "assert sol.value == 4.0",
        "assert 'numpy' not in sys.modules, 'numpy was imported'",
    ])
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr


def test_package_runs_without_numpy():
    # with every import of numpy made to fail, the solvers, analyze and both
    # sweeps run, and the sweep's two views answer the sequence API, give
    # their values as bytes, and survive repr, copy and pickle
    code = "\n".join([
        "import copy, math, pickle, struct, sys",
        "sys.modules['numpy'] = None",
        "import planarlp as pl",
        f"lp = pl.load_lp({PAPER!r})",
        "sol = pl.solve_simplex(lp)",
        "assert sol.unique and pl.solve_enumeration(lp).unique",
        "rep = pl.analyze(lp)",
        "region = pl.enumerate_vertices(lp)",
        "step = math.radians(0.01)",
        "res = pl.stable_interval_by_sweep(region, rep.optimal_vertex, step)",
        "plain = pl.sweep_argmax(region, -math.pi, math.pi, step)",
        "for r in (res, plain):",
        "    for view, code in ((r.phis, 'd'), (r.argmax, 'q')):",
        "        n = len(view)",
        "        assert n >= 36000 and view[0] == view[-n] and view[-1] == view[n - 1]",
        "        try:",
        "            view[n]",
        "        except IndexError:",
        "            pass",
        "        else:",
        "            raise AssertionError('no IndexError')",
        "        assert list(view[10:200:7]) == [view[k] for k in range(10, 200, 7)]",
        "        values = list(view)",
        "        assert len(values) == n and values[-1] == view[-1]",
        "        assert struct.unpack(f'{n}{code}', view.tobytes()) == tuple(values)",
        "    last = len(r.phis) - 1",
        "    assert [r.phis.searchsorted(r.phis[k]) for k in (0, 5, -1)] == [0, 5, last]",
        "    assert len(repr(r)) < 4000",
        "    for again in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):",
        "        assert again.phis.tobytes() == r.phis.tobytes()",
        "        assert again.argmax.tobytes() == r.argmax.tobytes()",
        "        assert again.estimated_interval == r.estimated_interval",
        "assert sys.modules['numpy'] is None",
    ])
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
