"""The contract of the package's immutable value types.

Every public value class is built positionally and by keyword, compared,
hashed, printed, copied and pickled here, so a change to how the classes
are defined cannot change what callers see.
"""

import copy
import math
import pickle

import numpy as np
import pytest

import planarlp as pl
from planarlp.cli import SCHEMA_VERSION, OracleCheck, ReportDocument
from planarlp.errors import NonFiniteEntry, ZeroVector
from conftest import FIXTURES, region_of_points

_P = pl.Vec2(1.0, 2.0)
_V = pl.Vertex(pl.Vec2(80.0, 40.0), frozenset({0, 1}))
_IV = pl.AngleInterval(0.25, 1.0)
_REGION = region_of_points([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
_REPORT = pl.analyze(pl.load_lp(FIXTURES / "paper.lp"))
_CHECK = OracleCheck(0.01, _IV, 1e-4, True)

# (class, fields in declaration order with one value each)
SAMPLES = [
    (pl.Vec2, {"x1": 1.0, "x2": 2.0}),
    (pl.Rotation, {"cos_theta": 0.6, "sin_theta": 0.8}),
    (pl.PolarVector, {"r": 2.0, "phi": 0.5}),
    (pl.LineThroughOrigin, {"normal": _P}),
    (pl.ConstraintRow, {"a1": 0.25, "a2": 0.5, "b": 40.0}),
    (pl.LinearProgram2D, {"objective": _P, "constraints": (pl.ConstraintRow(1.0, 1.0, 1.0),)}),
    (pl.Vertex, {"point": _P, "active_rows": frozenset({0, pl.X1_NONNEG})}),
    (pl.FeasibleRegion, {"vertices": _REGION.vertices}),
    (
        pl.NormalizedProblem,
        {
            "region": _REGION,
            "objective": _P,
            "theta0": 0.5,
            "translation": pl.Vec2(0.0, 3.0),
            "translated_along_ones": True,
        },
    ),
    (pl.DistanceSolution, {"vertex": _V, "distance": 3.5, "unique": False}),
    (pl.AngleInterval, {"lo": 0.25, "hi": 1.0}),
    (
        pl.SensitivityReport,
        {
            "optimal_vertex": _REPORT.optimal_vertex,
            "optimal_value": _REPORT.optimal_value,
            "pred": _REPORT.pred,
            "succ": _REPORT.succ,
            "theta1": _REPORT.theta1,
            "theta2": _REPORT.theta2,
            "interval": _REPORT.interval,
            "objective_polar": _REPORT.objective_polar,
            "phi_inside": _REPORT.phi_inside,
            "nu_interval": _REPORT.nu_interval,
            "theta0": _REPORT.theta0,
            "endpoint_ties": _REPORT.endpoint_ties,
        },
    ),
    (pl.Solution, {"vertex": _V, "value": 280.0, "unique": True}),
    (
        OracleCheck,
        {"step": 0.01, "interval": _IV, "max_endpoint_error": 1e-4, "agrees": True},
    ),
    (
        ReportDocument,
        {
            "report": _REPORT,
            "input_path": "paper.lp",
            "tolerance": 1e-9,
            "solver": "enumeration",
            "clip_first_quadrant": True,
            "oracle_check": _CHECK,
            "schema_version": 7,
        },
    ),
]

IDS = [cls.__name__ for cls, _ in SAMPLES]


def _other_value(v):
    """A value of the same kind as v that differs from it."""
    if isinstance(v, bool):
        return not v
    if isinstance(v, int):
        return v + 1
    if isinstance(v, float):
        return v * 0.5 if v else 0.125
    if isinstance(v, str):
        return v + "x"
    return None


@pytest.mark.parametrize("cls, fields", SAMPLES, ids=IDS)
def test_positional_and_keyword_construction(cls, fields):
    by_pos = cls(*fields.values())
    by_kw = cls(**fields)
    assert by_pos == by_kw
    for name, value in fields.items():
        assert getattr(by_pos, name) == value
        assert getattr(by_kw, name) == value


@pytest.mark.parametrize("cls, fields", SAMPLES, ids=IDS)
def test_equality_and_hash(cls, fields):
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a.__eq__(object()) is NotImplemented
    assert a != tuple(fields.values())
    for name, value in fields.items():
        changed = _other_value(value)
        if changed is None:
            continue
        try:
            c = cls(**{**fields, name: changed})
        except ValueError:  # the changed value breaks a validation rule
            continue
        assert c != a, name


def test_equality_across_classes():
    assert pl.Vec2(1, 2) != pl.PolarVector(1, 2)
    assert pl.PolarVector(1, 2) != pl.Vec2(1, 2)
    assert pl.Vec2(1, 2) != (1, 2)
    assert pl.Vec2(1, 2) == pl.Vec2(1.0, 2.0)
    assert hash(pl.Vec2(1, 2)) == hash(pl.Vec2(1.0, 2.0))
    assert {pl.Vec2(0.0, 1.0): "a"}[pl.Vec2(0.0, 1.0)] == "a"


@pytest.mark.parametrize("cls, fields", SAMPLES, ids=IDS)
def test_repr_lists_fields_in_order(cls, fields):
    obj = cls(**fields)
    body = ", ".join(f"{k}={getattr(obj, k)!r}" for k in fields)
    assert repr(obj) == f"{cls.__name__}({body})"


def test_exact_repr_strings():
    assert repr(pl.Vec2(1.0, 2.0)) == "Vec2(x1=1.0, x2=2.0)"
    assert repr(pl.Rotation(1.0, 0.0)) == "Rotation(cos_theta=1.0, sin_theta=0.0)"
    assert repr(pl.PolarVector(2.0, -0.5)) == "PolarVector(r=2.0, phi=-0.5)"
    assert (
        repr(pl.LineThroughOrigin(pl.Vec2(0.0, 1.0)))
        == "LineThroughOrigin(normal=Vec2(x1=0.0, x2=1.0))"
    )
    assert repr(pl.ConstraintRow(0.25, 0.5, 40.0)) == "ConstraintRow(a1=0.25, a2=0.5, b=40.0)"
    assert repr(pl.Vertex(pl.Vec2(1.0, 0.0))) == (
        "Vertex(point=Vec2(x1=1.0, x2=0.0), active_rows=frozenset())"
    )
    assert repr(pl.Vertex(pl.Vec2(1.0, 0.0), [0])) == (
        "Vertex(point=Vec2(x1=1.0, x2=0.0), active_rows=frozenset({0}))"
    )
    assert repr(pl.LinearProgram2D(pl.Vec2(2.0, 3.0), [pl.ConstraintRow(1.0, 0.0, 1.0)])) == (
        "LinearProgram2D(objective=Vec2(x1=2.0, x2=3.0), "
        "constraints=(ConstraintRow(a1=1.0, a2=0.0, b=1.0),))"
    )
    assert repr(pl.AngleInterval(0.25, 1.0)) == "AngleInterval(lo=0.25, hi=1.0)"
    assert repr(pl.Solution(pl.Vertex(pl.Vec2(0.0, 0.0)), 0.0, True)) == (
        "Solution(vertex=Vertex(point=Vec2(x1=0.0, x2=0.0), active_rows=frozenset()), "
        "value=0.0, unique=True)"
    )
    assert repr(OracleCheck(0.5, pl.AngleInterval(0.0, 1.0), 0.0, False)) == (
        "OracleCheck(step=0.5, interval=AngleInterval(lo=0.0, hi=1.0), "
        "max_endpoint_error=0.0, agrees=False)"
    )


@pytest.mark.parametrize("cls, fields", SAMPLES, ids=IDS)
def test_fields_are_read_only(cls, fields):
    obj = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) == value
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


@pytest.mark.parametrize("cls, fields", SAMPLES, ids=IDS)
def test_copy_deepcopy_and_pickle(cls, fields):
    obj = cls(**fields)
    for again in (
        copy.copy(obj),
        copy.deepcopy(obj),
        pickle.loads(pickle.dumps(obj)),
        pickle.loads(pickle.dumps(obj, protocol=0)),
    ):
        assert type(again) is cls
        assert again == obj
        assert hash(again) == hash(obj)
        assert repr(again) == repr(obj)


def test_defaults():
    assert pl.Vertex(_P).active_rows == frozenset()
    assert pl.Vertex(point=_P) == pl.Vertex(_P, frozenset())
    n = pl.NormalizedProblem(_REGION, _P, 0.0, pl.Vec2(0.0, 0.0))
    assert n.translated_along_ones is False
    doc = ReportDocument(_REPORT, "f.lp", 1e-9, "enumeration")
    assert doc.clip_first_quadrant is False
    assert doc.oracle_check is None
    assert doc.schema_version == SCHEMA_VERSION
    assert ReportDocument(report=_REPORT, input_path="f.lp", tolerance=1e-9,
                          solver="enumeration") == doc


def test_coercions():
    lp = pl.LinearProgram2D(_P, [pl.ConstraintRow(1.0, 1.0, 1.0)])
    assert type(lp.constraints) is tuple
    assert lp == pl.LinearProgram2D(_P, (pl.ConstraintRow(1.0, 1.0, 1.0),))
    hash(lp)
    v = pl.Vertex(_P, [0, 1, 1])
    assert type(v.active_rows) is frozenset and v.active_rows == {0, 1}
    assert v == pl.Vertex(_P, {1, 0})
    r = pl.FeasibleRegion(list(_REGION.vertices))
    assert type(r.vertices) is tuple and r == _REGION
    hash(r)


def test_validation_errors():
    with pytest.raises(NonFiniteEntry):
        pl.Vec2(math.inf, 0.0)
    with pytest.raises(NonFiniteEntry):
        pl.Vec2(x1=0.0, x2=math.nan)
    with pytest.raises(ValueError):
        pl.Rotation(1.0, 1.0)
    with pytest.raises(ValueError):
        pl.PolarVector(-1.0, 0.0)
    with pytest.raises(ZeroVector):
        pl.LineThroughOrigin(pl.Vec2(0.0, 0.0))
    with pytest.raises(ValueError):
        pl.AngleInterval(1.0, 1.0)
    with pytest.raises(ValueError):
        pl.AngleInterval(0.0, 4.0)
    with pytest.raises(ValueError):
        pl.FeasibleRegion(_REGION.vertices[:2])
    with pytest.raises(ValueError):  # clockwise
        pl.FeasibleRegion(_REGION.vertices[::-1])
    with pytest.raises(TypeError):
        pl.Vec2(1.0)
    with pytest.raises(TypeError):
        pl.Vec2(1.0, 2.0, x3=3.0)


def test_sweep_result_compares_by_identity():
    fields = {
        "region": _REGION,
        "phis": np.array([0.0, 0.5]),
        "argmax": np.array([0, 1]),
        "step": 0.5,
    }
    a = pl.SweepResult(*fields.values())
    b = pl.SweepResult(**fields)
    assert a.estimated_interval is None
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b}) == 2
    assert repr(a) == (
        f"SweepResult(region={_REGION!r}, phis={fields['phis']!r}, "
        f"argmax={fields['argmax']!r}, step=0.5, estimated_interval=None)"
    )
    with pytest.raises(AttributeError):
        a.step = 1.0
    with pytest.raises(AttributeError):
        del a.region
    for again in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(again) is pl.SweepResult and again != a
        assert again.region == a.region and again.step == a.step
        assert again.estimated_interval is None
        assert np.array_equal(again.phis, a.phis)
        assert np.array_equal(again.argmax, a.argmax)
    c = pl.SweepResult(**fields, estimated_interval=_IV)
    assert pickle.loads(pickle.dumps(c)).estimated_interval == _IV


_SWEEP_FIELDS = {
    "region": _REGION,
    "phis": np.array([0.0, 0.5]),
    "argmax": np.array([0, 1]),
    "step": 0.5,
    "estimated_interval": _IV,
}

# The plain records: every field given, and the fields that have defaults.
RECORDS = [
    (cls, fields) for cls, fields in SAMPLES
    if cls in (pl.SensitivityReport, ReportDocument, pl.NormalizedProblem,
               OracleCheck, pl.DistanceSolution)
] + [(pl.SweepResult, _SWEEP_FIELDS)]
RECORD_IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=RECORD_IDS)
def test_records_reject_bad_arguments(cls, fields):
    values = list(fields.values())
    first = next(iter(fields))
    with pytest.raises(TypeError):  # a missing field, by position
        cls(*values[:1])
    with pytest.raises(TypeError):  # a missing field, by keyword
        cls(**{k: v for k, v in fields.items() if k != first})
    with pytest.raises(TypeError):  # one positional argument too many
        cls(*values, values[0])
    with pytest.raises(TypeError):  # an unknown keyword
        cls(**fields, not_a_field=1)
    with pytest.raises(TypeError):  # a field given by position and keyword
        cls(values[0], **fields)


def test_records_fill_defaults_alike_by_position_and_keyword():
    n_pos = pl.NormalizedProblem(_REGION, _P, 0.5, pl.Vec2(0.0, 3.0))
    n_kw = pl.NormalizedProblem(
        region=_REGION, objective=_P, theta0=0.5, translation=pl.Vec2(0.0, 3.0)
    )
    assert n_pos == n_kw and n_kw.translated_along_ones is False
    phis, argmax = _SWEEP_FIELDS["phis"], _SWEEP_FIELDS["argmax"]
    s_pos = pl.SweepResult(_REGION, phis, argmax, 0.5)
    s_kw = pl.SweepResult(region=_REGION, phis=phis, argmax=argmax, step=0.5)
    for name in pl.SweepResult.__slots__:  # SweepResult compares by identity
        assert getattr(s_pos, name) is getattr(s_kw, name)
    assert s_kw.estimated_interval is None
