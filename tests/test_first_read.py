"""Each iteration forms only what its recurrence and stop test read.

``admm.step`` returns a state that forms the certificate v^k on first read,
from the drift, coefficient row and map the step keeps on it, with the
step's own expression; every reader gets the same bits as when the step
formed it.  ``run_idr`` binds the catalog resolvents once per gamma: their
step check runs once per binding, and a hand-built operator still goes
through its checked ``resolvent`` on every step.
"""

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
    XUpdateStrategy,
    default_params,
    run_iadmm,
    run_idr,
)
from inadmm import dr
from inadmm.admm import IadmmState, run_iadmm_batch, step
from inadmm.consensus import sum2_step
from inadmm.params import constant_params

GAMMA = 1.3


def _lasso(rng, n=6, L=None):
    D = rng.standard_normal((2 * n, n))
    b = rng.standard_normal(2 * n)
    L = LinearMap.identity(n) if L is None else L
    return ProblemSpec(Quadratic(D.T @ D, -D.T @ b), L1Norm(L.codomain_dim, 0.3), L)


def _zero_state(p):
    m = p.g.dim
    return IadmmState(k=1, x=np.zeros(p.f.dim), z=np.zeros(m), z_prev=np.zeros(m),
                      zbar=np.zeros(m), y=np.zeros(m), y_prev=np.zeros(m),
                      w=np.zeros(m))


def _steps(p, params, iters):
    """The states of ``iters`` public steps from zero, and each step's v^k by
    the expression ``step`` formed it with before it was formed on read."""
    state, strat = _zero_state(p), XUpdateStrategy.automatic(p)
    states, expected = [], []
    for k in range(1, iters + 1):
        new, _ = step(state, p, params, k, strat)
        co = params.coefficients.at(k)
        drift = (state.y - state.y_prev) + co.gamma * (state.z - state.z_prev)
        expected.append(state.y - co.gamma * state.z
                        + co.gamma * p.L._apply(new.x) - co.alpha * drift)
        states.append(new)
        state = new
    return states, expected


@pytest.mark.parametrize("dense", [False, True])
def test_step_forms_v_on_first_read_only(rng, dense):
    L = LinearMap.dense(np.eye(6) + 0.3 * rng.standard_normal((6, 6))) if dense else None
    p = _lasso(rng, L=L)
    states, expected = _steps(p, default_params(0.2, GAMMA), 12)
    for state in states:
        assert state._v is None  # no v array until v is read
    for state, v in zip(states, expected):
        assert state.v.tobytes() == v.tobytes()
        assert state._v is state.v


def test_two_reads_of_v_return_the_same_array(rng):
    states, _ = _steps(_lasso(rng), default_params(0.2, GAMMA), 3)
    first = states[-1].v
    assert states[-1].v is first


def test_v_of_a_state_no_step_made_is_none_and_can_be_given(rng):
    p = _lasso(rng)
    assert _zero_state(p).v is None
    v = rng.standard_normal(p.g.dim)
    m = p.g.dim
    given = IadmmState(k=2, x=np.zeros(p.f.dim), z=np.zeros(m), z_prev=np.zeros(m),
                       zbar=np.zeros(m), y=np.zeros(m), y_prev=np.zeros(m), v=v)
    assert given.v is v


def test_sum2_steps_assigned_minus_y_wins_over_the_formed_v(rng):
    cp = ConsensusProblem([Translated(L1Norm(3, 1.0), rng.standard_normal(3))
                           for _ in range(5)])
    lift, params = cp.lifts[1], default_params(0.2, 5.0)
    state = _zero_state(lift)
    for k in range(1, 6):
        new, _ = sum2_step(state, cp, params, k)
        formed, _ = step(state, lift, params, k, XUpdateStrategy("prox_identity"))
        assert new.v.tobytes() == (-new.y).tobytes()
        assert new.v.tobytes() != formed.v.tobytes()
        state = new


@pytest.mark.parametrize("record", [True, False])
def test_batch_rows_retiring_at_different_k_keep_their_serial_v(rng, record):
    p = _lasso(rng, L=LinearMap.dense(np.eye(6) + 0.3 * rng.standard_normal((6, 6))))
    rows = [constant_params(GAMMA, a, 0.01) for a in (0.0, 0.1, 0.25)]
    batch = run_iadmm_batch(p, rows, max_iters=400, tol=1e-9, record=record)
    serial = [run_iadmm(p, q, max_iters=400, tol=1e-9) for q in rows]
    assert len({t.iterations for t in serial}) == len(rows)  # retire apart
    for b, s in zip(batch, serial):
        assert b.final["v"].tobytes() == s.final["v"].tobytes()
        for a, c in zip(b.rows, s.rows if record else s.rows[-1:]):
            assert a.k == c.k
            assert a.vectors["v"].tobytes() == c.vectors["v"].tobytes()


def _idr_lasso(rng):
    p = _lasso(rng)
    return (ResolventOp.composed_conjugate(p.f, p.L),
            ResolventOp.conjugate_subdifferential(p.g), p.g.dim)


def test_run_idr_checks_the_step_once_per_run(rng, monkeypatch):
    calls = []
    original = dr.check_step
    monkeypatch.setattr(dr, "check_step", lambda *a: calls.append(a) or original(*a))
    A, B, m = _idr_lasso(rng)
    trace = run_idr(A, B, GAMMA, default_params(0.2, GAMMA), np.zeros(m),
                    np.zeros(m), max_iters=25, tol=0.0)
    assert trace.iterations == 25
    assert calls == [(GAMMA, 1.0)]
    # another gamma binds again, once
    run_idr(A, B, 2.0, default_params(0.2, 2.0), np.zeros(m), np.zeros(m),
            max_iters=25, tol=0.0)
    assert calls == [(GAMMA, 1.0), (2.0, 1.0)]


def test_bound_resolvents_are_kept_per_gamma_and_match_the_public_one(rng):
    A, B, m = _idr_lasso(rng)
    u = rng.standard_normal(m)
    for op in (A, B, ResolventOp.zero(m), ResolventOp.point_normal_cone(u),
               ResolventOp.subdifferential(L1Norm(m, 0.3))):
        kernel = op._at(GAMMA)
        assert op._at(GAMMA) is kernel
        assert kernel(u).tobytes() == op.resolvent(GAMMA, u).tobytes()
        assert op.resolvent(2.0, u).tobytes() == op._at(2.0)(u).tobytes()
        assert op._bound[0] == 2.0  # the last gamma's binding is kept


def test_hand_built_resolvent_is_checked_every_step(rng, monkeypatch):
    checks, seen = [], []
    original = dr.check_gamma
    monkeypatch.setattr(dr, "check_gamma", lambda g: checks.append(g) or original(g))

    def custom(gamma, u):
        seen.append(gamma)
        return 0.5 * u

    A = ResolventOp("custom", custom, 3)
    B = ResolventOp.subdifferential(L1Norm(3, 0.3))
    trace = run_idr(A, B, GAMMA, default_params(0.2, GAMMA), np.ones(3),
                    np.ones(3), max_iters=15, tol=0.0)
    assert seen == [GAMMA] * trace.iterations == [GAMMA] * 15
    assert len(checks) == 1 + 15  # run_idr's own check, then one per step


def test_hand_built_resolvent_rejects_a_non_finite_input():
    A = ResolventOp("custom", lambda gamma, u: 0.5 * u, 2)
    B = ResolventOp("nan", lambda gamma, u: np.full(2, np.nan), 2)
    with pytest.raises(ValueError, match="finite"):
        run_idr(A, B, GAMMA, default_params(0.2, GAMMA), np.ones(2), np.ones(2),
                max_iters=5, tol=0.0)
