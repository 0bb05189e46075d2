"""perfbench's traced profile against the package.

perfbench's tracer (perfbench/tracing.py) replaces each of its SITES, a
name in a package module, with a plain function that records a span.  A
change that uses one of those names as anything but a call (a class's
classmethod, say) passes every other test and breaks only the traced run,
so this runs the whole traced profile once: every workload's op with its
check, the three CLI commands through cli.main in this process included.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# The SITES the package no longer has, as the tracer reports them.
ABSENT = [
    "planarlp.sensitivity.enumerate_vertices",
    "planarlp.sensitivity.normalize",
    "planarlp.solver.is_feasible",
]


def _site(mod_name: str, attr: str):
    owner = importlib.import_module(mod_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_traced_profile_runs_every_workload(tracing, tmp_path):
    before = [_site(mod_name, attr) for mod_name, attr, _, _ in tracing.SITES]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        grid_evals = tracing.profile(tracer, 1, str(tmp_path))
    finally:
        tracer.uninstall()
    assert tracer.absent == ABSENT
    assert grid_evals > 0 and len(tracer) > 0
    after = [_site(mod_name, attr) for mod_name, attr, _, _ in tracing.SITES]
    assert all(a is b for a, b in zip(after, before))
