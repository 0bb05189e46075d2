import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import planarlp as pl
from planarlp import cli
from planarlp.errors import LPSyntaxError, MissingObjective, NoConstraints
from conftest import FIXTURES

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


def test_cli_solve_missing_file(capsys):
    assert cli.main(["solve", "/nonexistent/x.lp"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_solve_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.lp"
    bad.write_text("maximize: 1\n")
    assert cli.main(["solve", str(bad)]) == 1
    assert "line 1" in capsys.readouterr().err


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
    # prints, and the sweep's message goes to stderr with exit code 4
    sharp = str(FIXTURES / "sharp.lp")
    assert cli.main(["sensitivity", sharp, "--check-sweep", "162"]) == 4
    out, err = capsys.readouterr()
    assert "stable cone (open): (-25.5000°, 151.4999°)" in out
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
    # numpy is loaded only to build a sweep result's arrays, which no
    # command reads: every command runs without importing it
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
    # that --json loads json.  Modules the interpreter loaded before the
    # package (site hooks) do not count.
    svg = str(tmp_path / "out.svg")
    code = "\n".join([
        "import contextlib, io, sys",
        "heavy = {'numpy', 'dataclasses', 'inspect', 'fractions', 'json'}",
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
