"""Print a SHA-256 digest of the CLI's output on fixed LPs.

    PYTHONPATH=src python tests/cli_digest.py

The LPs are fixtures/paper.lp, fixtures/tie.lp and tangent_pool(seed, m, 4)
of perfbench seeds 1 and 2 for m in 3, 8 and 16.  They are written to a
temporary directory and passed by bare name from inside it, so the report's
input_path is the same on every run.  For each LP, in that order, one hash
takes the exit code, stdout and stderr of cli.main for

- solve F;
- sensitivity F with each flag set of FLAG_SETS;
- sensitivity F --svg out.svg, and then the bytes of out.svg.

Every JSON document printed must come back unchanged through
ReportDocument.from_json and to_json.  It prints the number of LPs and the
hex digest.  A change that keeps the CLI's output must leave the digest as
it is on the same machine.  This is a script rather than a test because
math.atan2, cos and sin, and so the printed angles, may differ between C
libraries.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import planarlp as pl  # noqa: E402
from instances import tangent_pool  # noqa: E402
from planarlp import cli  # noqa: E402

FLAG_SETS = (
    [],
    ["--json"],
    ["--radians"],
    ["--json", "--clip-first-quadrant"],
    ["--json", "--check-sweep", "0.5"],
    ["--clip-first-quadrant", "--check-sweep", "0.05"],
)


def lp_texts():
    for name in ("paper.lp", "tie.lp"):
        yield name, (ROOT / "fixtures" / name).read_text()
    for seed in (1, 2):
        for m in (3, 8, 16):
            for i, t in enumerate(tangent_pool(seed, m, 4)):
                yield f"tangent-{seed}-{m}-{i}.lp", pl.serialize_lp(t.lp)


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    h = hashlib.sha256()
    count = 0
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in lp_texts():
                Path(name).write_text(text)
                runs = [["solve", name]]
                runs += [["sensitivity", name, *flags] for flags in FLAG_SETS]
                runs.append(["sensitivity", name, "--svg", "out.svg"])
                for argv in runs:
                    code, out, err = run(argv)
                    h.update(repr((argv, code, out, err)).encode())
                    if "--json" in argv and out:
                        doc = cli.ReportDocument.from_json(out)
                        if doc.to_json() != out.strip():
                            raise SystemExit(f"JSON round trip changed {argv}")
                svg = Path("out.svg")
                h.update(svg.read_bytes() if svg.exists() else b"no svg")
                svg.unlink(missing_ok=True)
                count += 1
        finally:
            os.chdir(cwd)
    print(count, h.hexdigest())


if __name__ == "__main__":
    main()
