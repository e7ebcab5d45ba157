"""The coefficient table: every scalar ``step`` reads, built once per k.

``params.Coefficients`` holds, for each k up to the one from which the
schedules are constant, gamma, alpha_k, lambda_k and the products ``step``
and its x-update derive from them, as 0-d arrays (one parameter set) or
(P, 1) columns (a batch).  The runs below cross that k with ramps and every
init mode, and are compared bit for bit with ``test_hot_loop``'s reference
iteration, which reads ``alpha_at`` and ``lambda_at`` itself at every k.
"""

import dataclasses

import numpy as np
import pytest

from inadmm import (
    IadmmState,
    ResolventOp,
    XUpdateStrategy,
    default_params,
    ramp_schedule,
    run_iadmm,
    run_idr,
)
from inadmm import admm, params as params_module
from inadmm.admm import run_iadmm_batch, step, x_update
from inadmm.dr import IdrState, idr_step
from inadmm.params import Coefficients

from test_hot_loop import problem, ref_rows, same_bits

MODES = ("lambda1_alpha1_zero", "alpha2_zero", "raw")
ITERS = 30  # past steady = 10


def ramped(mode, over=10, gamma=1.3):
    """Ramps of alpha and lambda over ``over`` iterations, valid in ``mode``:
    both start at 0, so raw mode has lambda_1 = alpha_1 = 0."""
    base = default_params(0.2, gamma=gamma)
    lam = base.lambda_schedule.value
    return dataclasses.replace(
        base, init_mode=mode,
        alpha_schedule=ramp_schedule(0.2, 0.0, over),
        lambda_schedule=ramp_schedule(lam, 0.0 if mode == "raw" else 0.5, over))


def parent_scalars(p, k):
    """The scalars as step computed them from Python floats at every k."""
    gamma = p.gamma
    a_k, a_next, l_k = p.alpha_at(k), p.alpha_at(k + 1), p.lambda_at(k)
    m_k = 1.0 - l_k
    ma_k = m_k * a_k
    return {"gamma": gamma, "alpha": a_k, "lam": l_k, "rest": m_k,
            "rest_alpha": ma_k, "next_lam": a_next * l_k,
            "zbar_drift": ma_k * a_next / gamma, "arg_drift": ma_k / gamma,
            "gamma_alpha": gamma * a_k, "inv_gamma": 1.0 / gamma}


def assert_rows_match_reference(trace, p, q, strat):
    expected = ref_rows(p, q, strat, trace.iterations)
    for row, (scalars, vectors) in zip(trace.rows, expected):
        assert all(same_bits(a, b) for a, b in zip(row.scalars(), scalars)), row.k
        for key, vec in vectors.items():
            assert same_bits(row.vectors[key], vec), (row.k, key)


@pytest.mark.parametrize("mode", MODES)
def test_table_rows_are_the_step_formulas_bit_for_bit(mode):
    p = ramped(mode)
    table = p.coefficients
    assert table.steady == 10
    for k in range(1, ITERS):
        co = table.at(k)
        assert float(co) == p.gamma
        for name, want in parent_scalars(p, k).items():
            got = getattr(co, name)
            assert np.ndim(got) == 0 and same_bits(got, want), (k, name)
            if name != "inv_gamma":
                assert type(got) is np.ndarray, name


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", ["prox_identity", "quadratic_solve_dense",
                                  "inner_iterative"])
def test_ramped_run_matches_reference_bit_for_bit(rng, kind, mode):
    p = problem(kind, rng)
    strat = XUpdateStrategy(kind.replace("_dense", ""))
    q = ramped(mode)
    trace = run_iadmm(p, q, strat=strat, max_iters=ITERS, tol=0.0)
    assert trace.iterations == ITERS
    assert_rows_match_reference(trace, p, q, strat)


def test_schedule_without_steady_k_matches_reference(rng):
    # a callable schedule may change at any k: the table builds each row
    # when read and keeps none
    p = problem("prox_identity", rng)
    base = default_params(0.2, gamma=1.3)
    q = dataclasses.replace(base, alpha_schedule=lambda k: 0.1 if k < 17 else 0.2)
    assert q.coefficients.steady is None
    trace = run_iadmm(p, q, strat=XUpdateStrategy("prox_identity"),
                      max_iters=ITERS, tol=0.0)
    assert_rows_match_reference(trace, p, q, XUpdateStrategy("prox_identity"))
    assert not q.coefficients._rows


@pytest.mark.parametrize("kind", ["prox_identity", "quadratic_solve_dense"])
def test_batch_with_ramps_retiring_apart_matches_reference(rng, kind):
    p = problem(kind, rng)
    strat = XUpdateStrategy.automatic(p)
    rows = [ramped("lambda1_alpha1_zero", 4), ramped("alpha2_zero", 25),
            ramped("raw", 10), default_params(0.0, gamma=1.3)]
    traces = run_iadmm_batch(p, rows, max_iters=1000, tol=1e-9)
    stops = [t.iterations for t in traces]
    assert len(set(stops)) > 1 and all(t.converged for t in traces), stops
    assert min(stops) > 25  # every ramp ends inside the batch
    for trace, q in zip(traces, rows):
        assert_rows_match_reference(trace, p, q, strat)


SCHEDULES = {
    "constant": default_params(0.2, gamma=1.3),
    "ramped": ramped("lambda1_alpha1_zero"),
    "alpha_zero": default_params(0.0, gamma=1.3),
    "alpha2_zero": dataclasses.replace(default_params(0.2, gamma=1.3),
                                       init_mode="alpha2_zero"),
}


@pytest.mark.parametrize("kind", ["prox_identity", "quadratic_solve_dense"])
@pytest.mark.parametrize("schedule", list(SCHEDULES))
def test_public_step_with_params_is_the_run_loop(rng, schedule, kind):
    p = problem(kind, rng)
    strat = XUpdateStrategy(kind.replace("_dense", ""))
    q = SCHEDULES[schedule]
    trace = run_iadmm(p, q, strat=strat, max_iters=ITERS, tol=0.0)
    m = p.g.dim
    state = IadmmState(k=1, x=np.zeros(p.f.dim), z=np.zeros(m),
                       z_prev=np.zeros(m), zbar=np.zeros(m), y=np.zeros(m),
                       y_prev=np.zeros(m))
    for row in trace.rows:
        state, feas = step(state, p, q, row.k, strat)
        assert same_bits(feas, row.feas_residual), row.k
        for key, name in (("x_next", "x"), ("z_next", "z"), ("y_next", "y"),
                          ("zbar_next", "zbar"), ("v", "v"), ("w_next", "w")):
            assert same_bits(getattr(state, name), row.vectors[key]), (row.k, key)


def test_public_x_update_with_numbers_is_the_step_row(rng):
    # step passes its row as gamma; a caller's plain gamma at the same c_k
    # gives the same bits
    for kind in ("prox_identity", "quadratic_solve_dense", "inner_iterative"):
        p = problem(kind, rng)
        strat = XUpdateStrategy(kind.replace("_dense", ""))
        m = p.g.dim
        state = IadmmState(k=4, x=rng.standard_normal(p.f.dim),
                           z=rng.standard_normal(m), z_prev=rng.standard_normal(m),
                           zbar=np.zeros(m), y=rng.standard_normal(m),
                           y_prev=rng.standard_normal(m))
        q = ramped("raw")
        co = q.coefficients.at(4)
        c = (state.y - co.alpha * (state.y - state.y_prev)
             - co.gamma_alpha * (state.z - state.z_prev))
        assert same_bits(x_update(state, p, co, c, strat),
                         x_update(state, p, q.gamma, c, strat)), kind


def test_batch_table_holds_columns():
    rows = [ramped("raw", 4), ramped("alpha2_zero", 12)]
    table = Coefficients(rows)
    assert table.coefficients is table and table.steady == 12
    for k in (1, 2, 5, 12, 40):
        co = table.at(k)
        assert co.gamma.shape == () and float(co) == rows[0].gamma
        for name, want in parent_scalars(rows[0], k).items():
            if name in ("gamma", "inv_gamma"):
                continue
            got = getattr(co, name)
            assert got.shape == (2, 1), name
            assert same_bits(got[:, 0], [parent_scalars(q, k)[name] for q in rows])


def test_table_is_built_once_per_parameter_set(rng, monkeypatch):
    built, rows = [], []
    init, row = Coefficients.__init__, Coefficients._row
    monkeypatch.setattr(Coefficients, "__init__",
                        lambda self, q: built.append(1) or init(self, q))
    monkeypatch.setattr(Coefficients, "_row",
                        lambda self, k: rows.append(k) or row(self, k))
    p = problem("prox_identity", rng)
    q = ramped("alpha2_zero")
    for _ in range(2):
        run_iadmm(p, q, max_iters=ITERS, tol=0.0)
    state = IadmmState(k=1, x=np.zeros(p.f.dim), z=np.zeros(p.g.dim),
                       z_prev=np.zeros(p.g.dim), zbar=np.zeros(p.g.dim),
                       y=np.zeros(p.g.dim), y_prev=np.zeros(p.g.dim))
    for k in range(1, ITERS):
        state, _ = step(state, p, q, k, XUpdateStrategy("prox_identity"))
    A = ResolventOp.composed_conjugate(p.f, p.L)
    B = ResolventOp.conjugate_subdifferential(p.g)
    run_idr(A, B, q.gamma, q, np.zeros(p.g.dim), np.zeros(p.g.dim),
            max_iters=ITERS, tol=0.0)
    assert len(built) == 1 and q.coefficients is q.coefficients
    assert rows == list(range(1, 11))  # k = 1 .. steady, each once
    # a batch builds one table, and one more each time rows retire
    built.clear()
    traces = run_iadmm_batch(p, [q, default_params(0.0, gamma=1.3)],
                             max_iters=400, tol=1e-9)
    assert traces[0].iterations != traces[1].iterations
    assert len(built) == 2


@pytest.mark.parametrize("mode", MODES)
def test_ramped_idr_reads_the_table_bit_for_bit(rng, mode):
    p = problem("prox_identity", rng)
    q = ramped(mode)
    A = ResolventOp.composed_conjugate(p.f, p.L)
    B = ResolventOp.conjugate_subdifferential(p.g)
    w0 = np.zeros(p.g.dim)
    trace = run_idr(A, B, q.gamma, q, w0, w0, max_iters=ITERS, tol=0.0)
    state = IdrState(k=0, w_prev=w0, w=w0)
    for row in trace.rows:
        state, feas = idr_step(state, A, B, q.gamma, q.alpha_at(row.k),
                               q.lambda_at(row.k))
        assert same_bits(feas, row.feas_residual), row.k
        for key, name in (("w_next", "w"), ("y", "y"), ("v", "v")):
            assert same_bits(getattr(state, name), row.vectors[key]), (row.k, key)


def test_step_and_the_batch_call_step_through_the_module(rng, monkeypatch):
    # a profiler that replaces admm.step sees every iteration of both loops
    calls = []
    original = admm.step
    monkeypatch.setattr(admm, "step",
                        lambda *a, **kw: calls.append(a[3]) or original(*a, **kw))
    p = problem("prox_identity", rng)
    run_iadmm(p, default_params(0.2), max_iters=5, tol=0.0)
    run_iadmm_batch(p, [default_params(0.2), default_params(0.1)], max_iters=5,
                    tol=0.0)
    assert calls == [1, 2, 3, 4, 5] * 2


def test_steady_k_is_shared_with_validate():
    # validate's early stop and the table's last row read one rule
    for over in (1, 2, 3, 10, 999):
        q = ramped("lambda1_alpha1_zero", over)
        assert params_module._steady(q) == q.coefficients.steady == max(3, over)
    assert params_module._steady(dataclasses.replace(
        default_params(0.2), lambda_schedule=lambda k: 1.0)) is None
