"""The record classes' contract: fields, construction, immutability,
equality, hashing, repr, copy and pickle."""

import copy
import math
import pickle

import numpy as np
import pytest

from telespline.basis import BasisWeights, UniformMesh, basis_weights
from telespline.expr import BinOp, Call, Expression, Neg, Num, Var, _Token, parse
from telespline.linalg import CornerTridiagonalSystem
from telespline.metrics import ErrorReport
from telespline.problem import Diagnostic
from telespline.solver import CoefficientFrame, SchemeParams, SolutionHistory
from telespline.stability import StabilityReport, stability_scan

_SYSTEM_ARGS = (np.full(4, 1.0), np.full(5, 4.0), np.full(4, 1.0), 0.5, 0.5, np.arange(5.0))

# class, its field names, and one set of constructor arguments in field order
RECORDS = [
    (UniformMesh, ("a", "b", "n_cells", "h"), (0.0, 2.0, 8)),
    (BasisWeights, ("a1", "a2", "a3", "a4", "a5", "a6"), (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)),
    (SchemeParams, ("theta", "dt", "t_final", "forcing_level"), (0.5, 0.01, 1.0, "theta")),
    (CoefficientFrame, ("values", "time"), (np.arange(4.0), 0.25)),
    (SolutionHistory, ("frames", "stepping_seconds"), ([], [0.5])),
    (
        StabilityReport,
        ("max_amplification", "worst_phi", "rh_conditions", "stable"),
        (0.99, math.pi, (1.0, 2.0, 3.0), True),
    ),
    (ErrorReport, ("l_inf", "l2", "rms", "time", "n_cells"), (1e-3, 2e-3, 3e-3, 0.5, 10)),
    (Diagnostic, ("condition", "location", "magnitude"), ("g1 vs left", 0.0, 1e-3)),
    (
        CornerTridiagonalSystem,
        ("sub", "diag", "sup", "corner_top", "corner_bottom", "rhs"),
        _SYSTEM_ARGS,
    ),
    (Expression, ("root",), (Var("x"),)),
    (Num, ("value",), (2.0,)),
    (Var, ("name",), ("t",)),
    (Neg, ("operand",), (Num(1.0),)),
    (BinOp, ("op", "left", "right"), ("+", Var("x"), Num(1.0))),
    (Call, ("func", "arg"), ("sin", Var("x"))),
    (_Token, ("kind", "text", "position"), ("number", "2.5", 3)),
]
FROZEN = [entry for entry in RECORDS if entry[0] is not CornerTridiagonalSystem]
_IDS = [entry[0].__name__ for entry in RECORDS]


def values(record):
    return [getattr(record, name) for name in type(record)._fields]


def assert_same_fields(got, want):
    assert type(got) is type(want)
    for ours, theirs in zip(values(got), values(want)):
        if isinstance(theirs, np.ndarray):
            assert ours.tobytes() == theirs.tobytes()
        else:
            assert ours == theirs


@pytest.mark.parametrize("cls, names, args", RECORDS, ids=_IDS)
def test_fields_by_position_and_by_keyword(cls, names, args):
    assert cls._fields == names
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    assert_same_fields(by_position, by_keyword)
    for name, arg in zip(names, args):
        got = getattr(by_position, name)
        assert got is arg or isinstance(arg, np.ndarray) and got.tobytes() == arg.tobytes()


@pytest.mark.parametrize("cls, names, args", FROZEN, ids=[e[0].__name__ for e in FROZEN])
def test_formerly_frozen_records_refuse_assignment(cls, names, args):
    record = cls(*args)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1.0
    assert_same_fields(record, cls(*args))


def test_the_system_stays_mutable_and_unhashable():
    system = CornerTridiagonalSystem(*_SYSTEM_ARGS)
    system.rhs = np.zeros(5)
    assert system.rhs.tolist() == [0.0] * 5
    with pytest.raises(TypeError):
        hash(system)
    with pytest.raises(ValueError, match="non-finite entries in corners"):
        CornerTridiagonalSystem(*_SYSTEM_ARGS[:3], math.nan, 0.5, _SYSTEM_ARGS[5])


@pytest.mark.parametrize("cls, names, args", RECORDS, ids=_IDS)
def test_copy_and_pickle_keep_the_fields(cls, names, args):
    record = cls(*args)
    assert_same_fields(copy.copy(record), record)
    assert_same_fields(copy.deepcopy(record), record)
    if cls is not Expression:  # its compiled closures do not pickle
        assert_same_fields(pickle.loads(pickle.dumps(record)), record)


def test_a_copied_expression_evaluates_like_its_original():
    expression = parse("exp(-t)*sin(x) + 2^3")
    x = np.linspace(0.0, 1.0, 5)
    assert copy.deepcopy(expression)(x, 0.5).tobytes() == expression(x, 0.5).tobytes()


def test_mesh_equality_hash_and_cell_width():
    mesh = UniformMesh(0.0, 2.0, 8)
    assert mesh.h == 0.25
    assert mesh == UniformMesh(0.0, 2.0, 8)
    assert hash(mesh) == hash(UniformMesh(0.0, 2.0, 8))
    assert len({mesh, UniformMesh(0.0, 2.0, 8), UniformMesh(0.0, 2.0, 16)}) == 2
    assert mesh != UniformMesh(0.0, 2.0, 16)
    assert mesh != UniformMesh(0.0, 4.0, 16)  # the same h on another interval
    assert mesh != (0.0, 2.0, 8, 0.25)
    with pytest.raises(TypeError):
        UniformMesh(0.0, 2.0, 8, 0.25)  # h is derived, never given


def test_scheme_params_equality_and_hash():
    params = SchemeParams(0.5, 0.01, 1.0)
    assert params.forcing_level == "j"
    assert params == SchemeParams(theta=0.5, dt=0.01, t_final=1.0, forcing_level="j")
    assert hash(params) == hash(SchemeParams(0.5, 0.01, 1.0))
    assert params != SchemeParams(0.5, 0.01, 1.0, "theta")


def test_history_defaults_are_new_lists():
    first, second = SolutionHistory(), SolutionHistory()
    first.frames.append(CoefficientFrame(np.zeros(4), 0.0))
    assert second.frames == [] and second.stepping_seconds == []
    assert repr(second) == "SolutionHistory(frames=[], stepping_seconds=[])"


def test_nodes_compare_by_type_and_fields():
    assert Var("x") != Num("x")
    assert Var("x") == Var("x") and hash(Var("x")) == hash(Var("x"))
    assert Neg(Num(2.0)) != (Num(2.0),)
    assert Neg(Num(2.0)) != Call("neg", Num(2.0))
    assert BinOp("+", Var("x"), Num(1.0)) == BinOp("+", Var("x"), Num(1.0))
    assert BinOp("+", Var("x"), Num(1.0)) != BinOp("-", Var("x"), Num(1.0))
    assert parse("-x^2").root == Neg(BinOp("^", Var("x"), Num(2.0)))
    # expressions compare by their trees, not by their compiled closures
    assert parse("sin(x) + 1") == parse("sin(x)+1")
    assert hash(parse("sin(x) + 1")) == hash(parse("sin(x)+1"))
    assert parse("sin(x) + 1") != parse("sin(x) + 2")


# the strings these classes printed when they were dataclasses
def test_reprs_are_unchanged():
    mesh = UniformMesh(0.0, math.pi, 10)
    assert repr(mesh) == (
        "UniformMesh(a=0.0, b=3.141592653589793, n_cells=10, h=0.3141592653589793)"
    )
    assert repr(UniformMesh(0, 1, 4)) == "UniformMesh(a=0, b=1, n_cells=4, h=0.25)"
    assert repr(basis_weights(mesh)) == (
        "BasisWeights(a1=0.174435853190101, a2=0.6891530335105114, "
        "a3=-1.6520169484389502, a4=1.6520169484389502, "
        "a5=10.299597620582686, a6=-20.604017352908325)"
    )
    assert repr(SchemeParams(0.5, 1e-3, 1.0)) == (
        "SchemeParams(theta=0.5, dt=0.001, t_final=1.0, forcing_level='j')"
    )
    report = stability_scan(1.0, 1.0, 0.5, 1e-3, UniformMesh(0.0, math.pi, 100))
    assert repr(report) == (
        "StabilityReport(max_amplification=0.9990012482410578, worst_phi=0.0, "
        "rh_conditions=(1.3349411337465353, 0.002693727510159394, 0.004053847494098428), "
        "stable=True)"
    )
    assert repr(parse("-x^2 + sin(t)/2")) == (
        "Expression(root=BinOp(op='+', left=Neg(operand=BinOp(op='^', left=Var(name='x'), "
        "right=Num(value=2.0))), right=BinOp(op='/', left=Call(func='sin', "
        "arg=Var(name='t')), right=Num(value=2.0))))"
    )
    assert repr(ErrorReport(1.0, 2.0, 3.0, 0.5, 10)) == (
        "ErrorReport(l_inf=1.0, l2=2.0, rms=3.0, time=0.5, n_cells=10)"
    )
    diagnostic = Diagnostic("c", 0.5, 1e-3)
    assert repr(diagnostic) == "Diagnostic(condition='c', location=0.5, magnitude=0.001)"
    assert str(diagnostic) == "c at x = 0.5 (off by 1.000e-03)"
