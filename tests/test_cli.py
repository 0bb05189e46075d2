import json
import math
import os
import subprocess
import sys
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


def test_report_document_round_trip(capsys):
    assert cli.main(["sensitivity", PAPER, "--json"]) == 0
    out = capsys.readouterr().out
    doc = cli.ReportDocument.from_json(out)
    assert doc.to_json() == out.strip()
    assert cli.ReportDocument.from_json(doc.to_json()) == doc


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


def test_cli_does_not_import_numpy(tmp_path):
    # numpy is loaded on first use (simplex, sweep); solve and sensitivity
    # without --check-sweep must run without importing it
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
        "assert 'numpy' not in sys.modules, 'numpy was imported'",
    ])
    src = str(Path(pl.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
