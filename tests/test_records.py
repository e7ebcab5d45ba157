"""The package's records: construction, ``repr``, ``==`` and hashing.

Each record builds by position or by keyword with the same defaults, prints
as ``Name(field=value, ...)`` and compares equal to a record of its own type
with equal fields.  ``Schedule``, ``InertialParams`` and ``ConsensusProblem``
refuse assignment and hash by their compared fields; the other records are
mutable and unhashable.  ``InertialParams.replace`` builds a new parameter
set through the constructor's checks.  Importing the package and its CLI
loads no ``dataclasses``.
"""

import pytest

from inadmm import L1Norm, LinearMap, Zero
from inadmm.admm import ProblemSpec
from inadmm.config import RunConfig
from inadmm.consensus import ConsensusProblem, _BoydState
from inadmm.dr import IdrState
from inadmm.duality import DualityReport
from inadmm.params import (InertialParams, Schedule, ValidationReport, constant_params,
                           ramp_schedule)

from test_linalg import run_fresh

F, G, L = Zero(2), L1Norm(2, 0.3), LinearMap.identity(2)
SPEC = ProblemSpec(F, G, L)
SPEC_REPR = "ProblemSpec(f=%r, g=%r, L=LinearMap(identity 2))" % (F, G)
PARAMS = constant_params(1.0, 0.2, 0.01)
PARAMS_REPR = (
    "InertialParams(gamma=1.0, alpha=0.2, sigma=0.01, delta=0.07812500000000001, "
    "lambda_lo=1e-06, alpha_schedule=Schedule(kind='constant', value=0.2, "
    "start=0.0, ramp_over=1), lambda_schedule=Schedule(kind='constant', "
    "value=0.45511111111111124, start=0.0, ramp_over=1), "
    "init_mode='lambda1_alpha1_zero')")
ALPHA, LAM = PARAMS.alpha_schedule, PARAMS.lambda_schedule
PARAMS_ARGS = (1.0, 0.2, 0.01, PARAMS.delta, 1e-6, ALPHA, LAM)
PARAMS_KEYS = ("gamma", "alpha", "sigma", "delta", "lambda_lo", "alpha_schedule",
               "lambda_schedule")


BLOCKS = (Zero(2), Zero(2))

# name: (by position, by keyword, the same fields again, one field changed,
# the exact repr); the first two leave every default in place
CASES = {
    "Schedule": (
        lambda: Schedule("ramp", 0.2),
        lambda: Schedule(kind="ramp", value=0.2, start=0.0, ramp_over=1),
        lambda: Schedule("ramp", 0.2, 0.0, 1),
        lambda: Schedule("ramp", 0.2, 0.05, 1),
        "Schedule(kind='ramp', value=0.2, start=0.0, ramp_over=1)"),
    "InertialParams": (
        lambda: InertialParams(*PARAMS_ARGS),
        lambda: InertialParams(**dict(zip(PARAMS_KEYS, PARAMS_ARGS))),
        lambda: InertialParams(*PARAMS_ARGS, "lambda1_alpha1_zero"),
        lambda: InertialParams(*PARAMS_ARGS, "raw"),
        PARAMS_REPR),
    "ValidationReport": (
        lambda: ValidationReport(),
        lambda: ValidationReport(violations=[]),
        lambda: ValidationReport([]),
        lambda: ValidationReport([("c", 3)]),
        "ValidationReport(violations=[])"),
    "ProblemSpec": (
        lambda: ProblemSpec(F, G, L),
        lambda: ProblemSpec(f=F, g=G, L=L),
        lambda: ProblemSpec(F, G, L),
        lambda: ProblemSpec(G, G, L),
        SPEC_REPR),
    "IdrState": (
        lambda: IdrState(1, 2.0, 3.0),
        lambda: IdrState(k=1, w_prev=2.0, w=3.0, y=None, v=None),
        lambda: IdrState(1, 2.0, 3.0, None, None),
        lambda: IdrState(1, 2.0, 3.0, 4.0),
        "IdrState(k=1, w_prev=2.0, w=3.0, y=None, v=None)"),
    "DualityReport": (
        lambda: DualityReport(1.0, 0.5, 0.5, 0.0, 1.0, 0.0),
        lambda: DualityReport(primal_value=1.0, dual_value=0.5, gap=0.5,
                              kkt_residual=0.0, h_theta=1.0, h_star_theta=0.0),
        lambda: DualityReport(1.0, 0.5, 0.5, 0.0, 1.0, 0.0),
        lambda: DualityReport(1.0, 0.5, 0.5, 0.0, 1.0, 1.0),
        "DualityReport(primal_value=1.0, dual_value=0.5, gap=0.5, "
        "kkt_residual=0.0, h_theta=1.0, h_star_theta=0.0)"),
    "ConsensusProblem": (
        lambda: ConsensusProblem(BLOCKS),
        lambda: ConsensusProblem(blocks=list(BLOCKS)),
        lambda: ConsensusProblem(BLOCKS),
        lambda: ConsensusProblem(BLOCKS[::-1]),
        "ConsensusProblem(blocks=(%r, %r))" % BLOCKS),
    "_BoydState": (
        lambda: _BoydState(None, 1.0, 2.0),
        lambda: _BoydState(x=None, xbar=1.0, y=2.0),
        lambda: _BoydState(None, 1.0, 2.0),
        lambda: _BoydState(0.0, 1.0, 2.0),
        "_BoydState(x=None, xbar=1.0, y=2.0)"),
    "RunConfig": (
        lambda: RunConfig("iadmm", SPEC, PARAMS),
        lambda: RunConfig(solver="iadmm", problem=SPEC, params=PARAMS, max_iters=100000,
                          tol=1e-10, output=None, seed=0, delta=None),
        lambda: RunConfig("iadmm", SPEC, PARAMS, 100000, 1e-10, None, 0, None),
        lambda: RunConfig("iadmm", SPEC, PARAMS, seed=1),
        "RunConfig(solver='iadmm', problem=%s, params=%s, max_iters=100000, "
        "tol=1e-10, output=None, seed=0, delta=None)" % (SPEC_REPR, PARAMS_REPR)),
}
FROZEN = {"Schedule": "kind", "InertialParams": "gamma", "ConsensusProblem": "blocks"}


@pytest.mark.parametrize("name", CASES)
def test_record_construction_repr_and_equality(name):
    by_position, by_keyword, same, changed = (make() for make in CASES[name][:4])
    text = CASES[name][4]
    assert type(by_position).__name__ == name
    for record in (by_position, by_keyword, same):
        assert repr(record) == text
        assert record == by_position and not record != by_position
    assert changed != by_position and not changed == by_position
    assert by_position != text  # another type never compares equal
    if name in FROZEN:
        assert hash(by_keyword) == hash(same) == hash(by_position)
    else:
        with pytest.raises(TypeError):
            hash(by_position)


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_refuse_assignment(name):
    record, field = CASES[name][0](), FROZEN[name]
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is value


def test_mutable_records_take_assignment():
    report = DualityReport(1.0, 0.5, 0.5, 0.0, 1.0, 0.0)
    report.gap = 2.0
    assert report == DualityReport(1.0, 0.5, 2.0, 0.0, 1.0, 0.0)
    first, second = ValidationReport(), ValidationReport()
    first.add("c", 1)
    assert second.violations == [] and first.violations == [("c", 1)]


def test_a_nested_schedule_prints_inside_its_parameter_set():
    params = InertialParams(1.0, 0.2, 0.01, 0.5, 1e-6, ramp_schedule(0.2, 0.05, 7), LAM)
    assert repr(params).split(", alpha_schedule=")[1].startswith(
        "Schedule(kind='ramp', value=0.2, start=0.05, ramp_over=7), lambda_schedule=")


def test_the_cached_coefficient_table_is_not_a_field():
    params = constant_params(1.0, 0.2, 0.01)
    table = params.coefficients
    assert params.coefficients is table
    assert params == PARAMS and hash(params) == hash(PARAMS) and repr(params) == PARAMS_REPR


def test_consensus_problem_keeps_its_derived_parts_out_of_repr_and_equality():
    cp = ConsensusProblem(list(BLOCKS))
    assert cp.blocks == BLOCKS and isinstance(cp.blocks, tuple)
    assert cp.stacked.dim == 4 and len(cp.lifts) == 2
    assert cp == ConsensusProblem(BLOCKS) and cp.stacked is not ConsensusProblem(BLOCKS).stacked
    with pytest.raises(ValueError):
        ConsensusProblem(BLOCKS[:1])


def test_records_keep_their_checks():
    with pytest.raises(ValueError):
        ProblemSpec(Zero(3), G, L)
    for alpha in (1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            InertialParams(1.0, alpha, 0.01, 0.5, 1e-6, ALPHA, LAM)
    with pytest.raises(ValueError):
        InertialParams(*PARAMS_ARGS, "no_such_mode")


def test_replace_builds_a_checked_parameter_set():
    params = constant_params(1.0, 0.2, 0.01)
    table = params.coefficients
    ramp = ramp_schedule(0.2, 0.05, 7)
    other = params.replace(alpha_schedule=ramp, init_mode="raw")
    assert other is not params and type(other) is InertialParams
    assert (other.alpha_schedule, other.init_mode) == (ramp, "raw")
    assert repr(other) == PARAMS_REPR.replace(repr(ALPHA), repr(ramp)).replace(
        "'lambda1_alpha1_zero'", "'raw'")
    assert other.coefficients is not table and params.coefficients is table
    assert params.replace() == params
    for changes in ({"alpha": 1.0}, {"alpha": 1.2}, {"gamma": 0.0},
                    {"init_mode": "no_such_mode"}):
        with pytest.raises(ValueError):
            params.replace(**changes)
    with pytest.raises(TypeError):
        params.replace(no_such_field=1)
    assert params == PARAMS


def test_the_package_and_its_cli_import_without_dataclasses():
    run_fresh("""
        import numpy, sys, inadmm, inadmm.cli
        sys.exit('dataclasses' in sys.modules)
    """)

