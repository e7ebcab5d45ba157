"""The iteration driver shared by every solver: budget, stopping rule, NaN stop."""

import math

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


@pytest.mark.parametrize("max_iters, tol, match", [
    (0, 1e-10, "max_iters"), (-3, 1e-10, "max_iters"),
    (10, math.nan, "tol"), (10, -1e-12, "tol"),
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
