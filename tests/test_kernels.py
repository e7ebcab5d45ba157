"""Checked public methods, unchecked kernels in the solver loops.

Vectors and gamma are checked once where they enter the program; the loops
run unchecked kernels.  A user subclass that overrides a public method is
still called on the solver path, and a non-finite iterate ends the run as
``nonfinite`` instead of raising.
"""

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
    Translated,
    boyd_consensus,
    classical_admm,
    default_params,
    run_iadmm,
    run_idr,
    run_sum1,
    run_sum2,
)
from inadmm.params import constant_params

from conftest import CountingL1, catalog

GAMMA = 1.1


class NanProxL1(L1Norm):
    """An l1 norm whose prox returns NaN from its third call on."""

    def __init__(self, dim, tau):
        super().__init__(dim, tau)
        self.prox_calls = 0

    def prox(self, gamma, x):
        self.prox_calls += 1
        out = super().prox(gamma, x)
        return out if self.prox_calls < 3 else np.full_like(out, np.nan)


def _quadratic():
    return Quadratic(np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([-1.0, 0.5]))


def _lasso(g):
    return ProblemSpec(_quadratic(), g, LinearMap.identity(2))


def _idr(p, gamma, params):
    zeros = np.zeros(p.g.dim)
    return run_idr(ResolventOp.composed_conjugate(p.f, p.L),
                   ResolventOp.conjugate_subdifferential(p.g), gamma, params,
                   zeros, zeros)


def _blocks(g):
    return ConsensusProblem([g, _quadratic()])


# each run calls g's prox once per iteration
NAN_RUNS = {
    "iadmm": lambda g: run_iadmm(_lasso(g), default_params(0.2, GAMMA)),
    "classical_admm": lambda g: classical_admm(_lasso(g), GAMMA),
    "idr": lambda g: _idr(_lasso(g), GAMMA, default_params(0.2, GAMMA)),
    "sum1": lambda g: run_sum1(_blocks(g), default_params(0.2, GAMMA)),
    "sum2": lambda g: run_sum2(_blocks(g), default_params(0.2, GAMMA)),
    "boyd_consensus": lambda g: boyd_consensus(_blocks(g), GAMMA),
}


@pytest.mark.parametrize("name", sorted(NAN_RUNS))
def test_nonfinite_prox_ends_run_as_nonfinite(name):
    g = NanProxL1(2, 0.3)
    trace = NAN_RUNS[name](g)
    assert trace.nonfinite and not trace.converged
    assert trace.iterations == 3 and g.prox_calls == 3


def test_overridden_prox_runs_once_per_iadmm_iteration():
    g = CountingL1(2, 0.3)
    trace = run_iadmm(_lasso(g), default_params(0.2, GAMMA), tol=1e-10)
    assert trace.converged
    assert g.prox_calls == trace.iterations


def test_overridden_prox_runs_as_consensus_block(rng):
    counting = CountingL1(2, 0.7)
    blocks = [counting, Translated(L1Norm(2, 1.0), rng.standard_normal(2)),
              Quadratic(np.eye(2), rng.standard_normal(2))]
    trace = run_sum1(ConsensusProblem(blocks), default_params(0.2, GAMMA),
                     max_iters=30, tol=0.0)
    assert counting.prox_calls == trace.iterations == 30


def test_public_methods_match_kernels_and_check(rng):
    for f in catalog(3, rng):
        x = rng.standard_normal(3)
        assert f(x) == f._value(x)
        assert f.conj(x) == f._conj(x)
        assert f.prox(0.7, x).tobytes() == f._prox(0.7, x).tobytes()
        assert f.conj_prox(0.7, x).tobytes() == f._conj_prox(0.7, x).tobytes()
        bad = x.copy()
        bad[1] = np.nan
        for call in (lambda: f(bad), lambda: f.prox(0.7, bad),
                     lambda: f.conj(bad), lambda: f.conj_prox(0.7, bad),
                     lambda: f.prox(0.7, x[:2])):
            with pytest.raises(ValueError):
                call()


def test_only_hand_built_resolvents_run_checked(monkeypatch):
    checked = []
    original = ResolventOp.resolvent

    def spy(self, gamma, u):
        checked.append(self.kind)
        return original(self, gamma, u)

    monkeypatch.setattr(ResolventOp, "resolvent", spy)
    hand = ResolventOp("hand", lambda gamma, u: 0.5 * u, 2)
    trace = run_idr(hand, ResolventOp.subdifferential(L1Norm(2, 0.3)), GAMMA,
                    default_params(0.2, GAMMA), np.ones(2), np.ones(2),
                    max_iters=20, tol=0.0)
    assert checked == ["hand"] * trace.iterations == ["hand"] * 20


BAD_GAMMAS = [0.0, -1.0, math.nan, math.inf]


@pytest.mark.parametrize("gamma", BAD_GAMMAS)
def test_params_reject_bad_gamma(gamma):
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        constant_params(gamma, 0.2, 0.01)


@pytest.mark.parametrize("gamma", BAD_GAMMAS)
def test_classical_admm_rejects_bad_gamma(gamma):
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        classical_admm(_lasso(L1Norm(2, 0.3)), gamma)


@pytest.mark.parametrize("gamma", BAD_GAMMAS)
def test_run_idr_rejects_bad_gamma(gamma):
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        _idr(_lasso(L1Norm(2, 0.3)), gamma, default_params(0.2, GAMMA))
