"""The iteration driver shared by every solver: budget, stopping rule, NaN stop."""

import copy
import math
from dataclasses import dataclass

import numpy as np
import pytest

from inadmm import (
    ConsensusProblem,
    L1Norm,
    LinearMap,
    ProblemSpec,
    Quadratic,
    ResolventOp,
    boyd_consensus,
    classical_admm,
    default_params,
    run_iadmm,
    run_idr,
    run_sum1,
    run_sum2,
)
from inadmm.trace import TraceRow, drive

GAMMA = 1.1


def _lasso():
    f = Quadratic(np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([-1.0, 0.5]))
    return ProblemSpec(f, L1Norm(2, 0.3), LinearMap.identity(2))


def _blocks():
    return ConsensusProblem([
        Quadratic(np.eye(2) * c, np.array([c, -1.0])) for c in (0.5, 1.0, 2.0)
    ])


def _norm(a, b):
    return float(np.linalg.norm(a - b))


# solver name -> (run(max_iters, tol), first_k, stop residuals of a row)
SOLVERS = {
    "iadmm": (
        lambda n, tol: run_iadmm(_lasso(), default_params(0.2, GAMMA),
                                 max_iters=n, tol=tol),
        2, lambda r: (r.feas_residual, r.zbar_norm, r.dw_norm)),
    "classical_admm": (
        lambda n, tol: classical_admm(_lasso(), GAMMA, lam=1.3,
                                      max_iters=n, tol=tol),
        1, lambda r: (r.feas_residual,
                      GAMMA * _norm(r.vectors["z_next"], r.vectors["z"]),
                      _norm(r.vectors["y_next"], r.vectors["y"]))),
    "idr": (
        lambda n, tol: run_idr(
            ResolventOp.composed_conjugate(_lasso().f, _lasso().L),
            ResolventOp.conjugate_subdifferential(_lasso().g), GAMMA,
            default_params(0.2, GAMMA), np.zeros(2), np.zeros(2),
            max_iters=n, tol=tol),
        2, lambda r: (r.feas_residual, r.dw_norm)),
    "consensus_sum1": (
        lambda n, tol: run_sum1(_blocks(), default_params(0.2, GAMMA),
                                max_iters=n, tol=tol),
        2, lambda r: (r.feas_residual, r.zbar_norm, r.dw_norm)),
    "consensus_sum2": (
        lambda n, tol: run_sum2(_blocks(), default_params(0.2, GAMMA),
                                max_iters=n, tol=tol),
        2, lambda r: (r.feas_residual, r.zbar_norm, r.dw_norm)),
    "boyd_consensus": (
        lambda n, tol: boyd_consensus(_blocks(), GAMMA, max_iters=n, tol=tol),
        1, lambda r: (r.feas_residual, r.dw_norm)),
}


@pytest.mark.parametrize("name", sorted(SOLVERS))
@pytest.mark.parametrize("max_iters, tol", [(5, 1e-10), (5000, 1e-9), (5000, 1e-3)])
def test_solver_follows_driver_contract(name, max_iters, tol):
    run, first_k, residuals = SOLVERS[name]
    trace = run(max_iters, tol)
    assert trace.iterations == len(trace.rows)
    assert [row.k for row in trace.rows] == list(range(1, len(trace.rows) + 1))
    meets = [row.k >= first_k and max(residuals(row)) <= tol for row in trace.rows]
    assert trace.converged == meets[-1]
    assert not any(meets[:-1])
    assert trace.converged or len(trace.rows) == max_iters
    assert not trace.nonfinite


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_one_iteration_budget_yields_one_row(name):
    trace = SOLVERS[name][0](1, 1e-10)
    assert trace.iterations == len(trace.rows) == 1


@pytest.mark.parametrize("name", sorted(SOLVERS))
@pytest.mark.parametrize("max_iters, tol", [(0, 1e-10), (10, math.nan)])
def test_solvers_reject_bad_budget_and_tolerance(name, max_iters, tol):
    with pytest.raises(ValueError, match="max_iters|tol"):
        SOLVERS[name][0](max_iters, tol)


@pytest.mark.parametrize("name", ["iadmm", "consensus_sum1", "consensus_sum2"])
def test_douglas_rachford_pair_is_computed_once(name):
    # w^k is the array the previous iteration stored as w^{k+1}, and the
    # final certificate is the last row's, not a recomputed copy; the
    # consensus rows show the flat states' arrays as (m, n) views
    trace = SOLVERS[name][0](30, 0.0)
    rows = trace.rows
    for prev, row in zip(rows, rows[1:]):
        assert row.prev.w is prev.new.w
        assert np.shares_memory(row.vectors["w"], prev.vectors["w_next"])
    assert np.shares_memory(trace.final["v"], rows[-1].vectors["v"])


@pytest.mark.parametrize("max_iters, tol, match", [
    (0, 1e-10, "max_iters"), (-3, 1e-10, "max_iters"),
    (10, math.nan, "tol"), (10, -1e-12, "tol"),
    (2.5, 1e-10, "max_iters"), (True, 1e-10, "max_iters"),
    (False, 1e-10, "max_iters"), (np.float64(4.0), 1e-10, "max_iters"),
    ("3", 1e-10, "max_iters"),
])
def test_driver_rejects_bad_budget_and_tolerance(max_iters, tol, match):
    with pytest.raises(ValueError, match=match):
        drive(_counting(nan_at=None), 0, max_iters, tol, first_k=1)


def _counting(nan_at, nan_slot=1):
    """Residuals (1, 1, 1) shrinking by half each step, NaN at one step."""

    def iterate(state, k):
        res = [0.5 ** k] * 3
        if k == nan_at:
            res[nan_slot] = math.nan
        return state + 1, TraceRow(k), tuple(res)

    return iterate


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_driver_stops_at_nonfinite_residual(slot):
    trace, state = drive(_counting(nan_at=3, nan_slot=slot), 0, 100, 1e-6,
                         first_k=2)
    assert trace.nonfinite and not trace.converged
    assert trace.iterations == len(trace.rows) == state == 3


def test_driver_stops_on_infinite_residual_even_with_infinite_tol():
    def iterate(state, k):
        return state, TraceRow(k), (0.0, math.inf)

    trace, _ = drive(iterate, None, 10, math.inf, first_k=1)
    assert trace.nonfinite and not trace.converged and trace.iterations == 1


def test_driver_first_k_and_budget():
    # residuals 0.5^k: 0.5^20 < 1e-6 <= 0.5^19
    trace, _ = drive(_counting(nan_at=None), 0, 100, 1e-6, first_k=2)
    assert trace.converged and trace.iterations == 20
    trace, _ = drive(_counting(nan_at=None), 0, 100, 1.0, first_k=1)
    assert trace.converged and trace.iterations == 1
    trace, _ = drive(_counting(nan_at=None), 0, 100, 1.0, first_k=2)
    assert trace.converged and trace.iterations == 2
    trace, _ = drive(_counting(nan_at=None), 0, 7, 0.0, first_k=2)
    assert not trace.converged and not trace.nonfinite and trace.iterations == 7


def test_driver_accepts_numpy_integer_budget():
    for max_iters in (np.int64(7), np.int32(7), np.uint8(7)):
        trace, state = drive(_counting(nan_at=None), 0, max_iters, 0.0, first_k=1)
        assert trace.iterations == state == 7


@dataclass
class WState:
    w: np.ndarray


def _stepping(steps):
    """States whose w moves by steps[k - 1] at step k; residuals (0,)."""

    def iterate(state, k):
        new = WState(state.w + steps[k - 1])
        return new, TraceRow(k, prev=state, new=new), (0.0,)

    return iterate


def test_driver_monitors_the_w_step():
    rng = np.random.default_rng(3)
    steps = [0.5 ** k * rng.standard_normal(4) for k in range(12)]
    trace, state = drive(_stepping(steps), WState(np.ones(4)), 12, 0.0,
                         first_k=1)
    assert not trace.converged and trace.iterations == 12
    dw_sq_sum = 0.0
    for row, step in zip(trace.rows, steps):
        dw = float(np.linalg.norm(row.new.w - row.prev.w))
        dw_sq_sum += dw * dw
        assert row.dw_norm.hex() == dw.hex()
        assert row.dw_sq_sum.hex() == dw_sq_sum.hex()
    assert state is trace.rows[-1].new
    # states without a w leave both columns to the solver
    trace, _ = drive(_counting(nan_at=None), 0, 3, 0.0, first_k=1)
    assert all(math.isnan(r.dw_norm) and math.isnan(r.dw_sq_sum)
               for r in trace.rows)


def test_driver_stops_on_nonfinite_w_step():
    steps = [np.ones(2), np.ones(2), np.array([0.0, math.nan])] + [np.zeros(2)] * 5
    trace, _ = drive(_stepping(steps), WState(np.zeros(2)), 8, 1.0, first_k=1)
    assert trace.nonfinite and not trace.converged and trace.iterations == 3


def test_large_w_step_blocks_convergence():
    # the iterate's own residuals are zero: only dw can hold the run back
    steps = [np.full(2, 1.0)] * 5 + [np.zeros(2)] * 5
    trace, _ = drive(_stepping(steps), WState(np.zeros(2)), 10, 1e-3, first_k=1)
    assert trace.converged and trace.iterations == 6
    assert [r.dw_norm for r in trace.rows] == [math.sqrt(2.0)] * 5 + [0.0]


@pytest.mark.parametrize("name", ["iadmm", "idr"])
@pytest.mark.parametrize("read_first", [False, True])
def test_assigned_row_vector_sticks_on_deep_copy(name, read_first):
    # what the benchmark's diverging-twin check does to a deep-copied trace
    trace = SOLVERS[name][0](30, 0.0)
    if read_first:
        [row.vectors for row in trace.rows]
    twin = copy.deepcopy(trace)
    row = twin.rows[len(twin.rows) // 2]
    moved = row.vectors["w"] + 1e-7
    row.vectors["w"] = moved
    assert twin.rows[len(twin.rows) // 2].vectors["w"] is moved
    assert row.vectors["w_next"] is twin.rows[len(twin.rows) // 2 + 1].vectors["w"]
    original = trace.rows[len(trace.rows) // 2].vectors["w"]
    assert not np.array_equal(original, moved)


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_w_step_columns_of_each_solver(name):
    # drive fills dw_norm and dw_sq_sum for the runs whose states carry w;
    # classical_admm and boyd_consensus fill dw_norm themselves (the w and
    # the y step) and leave the running sum NaN
    trace = SOLVERS[name][0](20, 0.0)
    assert trace.iterations == 20
    dw_sq_sum = 0.0
    for row in trace.rows:
        if name == "classical_admm":
            v = row.vectors
            dw = _norm(v["y_next"] + GAMMA * v["z_next"], v["y"] + GAMMA * v["z"])
            assert row.dw_norm.hex() == dw.hex(), row.k
            assert math.isnan(row.dw_sq_sum)
        elif name == "boyd_consensus":
            assert row.dw_norm.hex() == _norm(row.new.y, row.prev.y).hex()
            assert math.isnan(row.dw_sq_sum) and math.isnan(row.zbar_norm)
        else:
            dw = _norm(row.new.w, row.prev.w)
            dw_sq_sum += dw * dw
            assert row.dw_norm.hex() == dw.hex(), row.k
            assert row.dw_sq_sum.hex() == dw_sq_sum.hex(), row.k
