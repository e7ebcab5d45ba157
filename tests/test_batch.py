"""Batched inertial ADMM: every point of a batch is bit for bit its serial run.

``run_iadmm_batch`` advances P parameter sets in one ``step`` over (P, m)
row-stacked states.  Each point's stop flags, iteration count, row scalars
and vectors, ``final`` vectors and CSV bytes must equal ``run_iadmm``'s for
that point.  Two kernel facts carry this, and are pinned here so that a BLAS
on which they fail is caught: a dense map's stacked matmul rows are its
per-row gemv (a gemm's are not), and a multi-RHS Cholesky solve's rows are
the per-row solves.
"""

import dataclasses
import io
import warnings

import numpy as np
import pytest

from inadmm import (
    IndicatorBox,
    IndicatorHyperplane,
    IndicatorPoint,
    L1Norm,
    L2Norm,
    LinearMap,
    ProblemSpec,
    Quadratic,
    Translated,
    ramp_schedule,
    run_iadmm,
)
from inadmm.admm import run_iadmm_batch
from inadmm.linalg import cholesky
from inadmm.params import constant_params

GAMMA = 1.3


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _csv(trace):
    buf = io.StringIO()
    trace.write_csv(buf)
    return buf.getvalue()


def assert_same(batch, serial, record=True):
    assert (batch.converged, batch.nonfinite, batch.iterations) == (
        serial.converged, serial.nonfinite, serial.iterations)
    rows = serial.rows if record else serial.rows[-1:]
    assert len(batch.rows) == len(rows)
    for a, b in zip(batch.rows, rows):
        assert _bits(a.scalars()) == _bits(b.scalars()), a.k
        assert list(a.vectors) == list(b.vectors)
        for name in b.vectors:
            assert _bits(a.vectors[name]) == _bits(b.vectors[name]), (a.k, name)
    assert list(batch.final) == list(serial.final)
    for name in serial.final:
        assert _bits(batch.final[name]) == _bits(serial.final[name]), name
    if record:
        assert _csv(batch) == _csv(serial)


def points(gamma=GAMMA):
    """Parameter sets whose runs stop at different iterations: both init
    modes, relaxed and over-relaxed, and a ramped inertia."""
    ramped = constant_params(gamma, 0.2, 0.01, None, 0.3)
    return [
        constant_params(gamma, 0.0, 0.01, None, 1.0, "alpha2_zero"),
        constant_params(gamma, 0.0, 0.01, None, 1.6, "alpha2_zero"),
        constant_params(gamma, 0.1, 0.01),
        dataclasses.replace(ramped, alpha_schedule=ramp_schedule(0.2, 0.05, 7)),
    ]


G_KINDS = {
    "l1": lambda m, rng: L1Norm(m, 0.3),
    "l2norm": lambda m, rng: L2Norm(m, 0.5),
    "indicator_box": lambda m, rng: IndicatorBox(-rng.uniform(0.1, 1.0, m),
                                                 rng.uniform(0.1, 1.0, m)),
    "indicator_hyperplane": lambda m, rng: IndicatorHyperplane(
        rng.standard_normal(m) + 0.1, 0.4),
    "indicator_point": lambda m, rng: IndicatorPoint(rng.standard_normal(m)),
    "translated_l1": lambda m, rng: Translated(L1Norm(m, 0.3),
                                               rng.standard_normal(m)),
    "quadratic": lambda m, rng: Quadratic(1.5 * np.eye(m), rng.standard_normal(m)),
}


def problem(L_kind, g_kind, seed=3):
    rng = np.random.default_rng(seed)
    n = 5
    m = n + 3 if L_kind == "tall" else n
    A = rng.standard_normal((n, n))
    f = Quadratic(A.T @ A + 0.5 * np.eye(n), rng.standard_normal(n))
    if L_kind == "identity":
        L = LinearMap.identity(n)
    elif L_kind == "square":
        L = LinearMap.dense(np.eye(n) + 0.3 * rng.standard_normal((n, n)))
    else:
        L = LinearMap.dense(rng.standard_normal((m, n)))
    return ProblemSpec(f, G_KINDS[g_kind](m, rng), L)


def check_batch(p, params, tol=1e-9):
    """Batch against serial at a budget that some points converge within
    and others exhaust; returns the serial traces."""
    full = [run_iadmm(p, q, max_iters=400, tol=tol).iterations for q in params]
    budget = sorted(full)[len(full) // 2]
    serial = [run_iadmm(p, q, max_iters=budget, tol=tol) for q in params]
    for record in (True, False):
        batch = run_iadmm_batch(p, params, budget, tol, record=record)
        assert len(batch) == len(serial)
        for b, s in zip(batch, serial):
            assert_same(b, s, record)
    return serial


@pytest.mark.parametrize("g_kind", sorted(G_KINDS))
@pytest.mark.parametrize("L_kind", ["identity", "square", "tall"])
def test_batch_points_are_their_serial_runs(L_kind, g_kind):
    serial = check_batch(problem(L_kind, g_kind), points())
    if g_kind != "indicator_point":  # its z is the point from k = 2 on
        assert len({t.iterations for t in serial}) > 1


def test_converged_and_exhausted_points_leave_the_batch_apart():
    serial = check_batch(problem("tall", "l1"), points())
    assert {t.converged for t in serial} == {True, False}


@pytest.mark.parametrize("f", [L1Norm(5, 0.4), L2Norm(5, 0.7)],
                         ids=["l1", "l2norm"])
def test_batch_prox_identity_with_a_nonquadratic_f(f):
    rng = np.random.default_rng(5)
    p = ProblemSpec(f, Quadratic(np.eye(5), rng.standard_normal(5)),
                    LinearMap.identity(5))
    check_batch(p, points())


def test_nonfinite_point_leaves_while_others_run_on():
    # dw at k = 1 is gamma lambda ||x^1||: it overflows at lambda 1.9 only
    s = 1e154
    p = ProblemSpec(Quadratic(np.diag([2.0, 1.0]), [s, -s]), L1Norm(2, 1e300),
                    LinearMap.identity(2))
    params = [constant_params(1.9, 0.0, 0.01, None, lam, "alpha2_zero")
              for lam in (0.2, 1.0, 1.9)] + [constant_params(1.9, 0.2, 0.01)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        serial = [run_iadmm(p, q, max_iters=50, tol=1e-9) for q in params]
        assert [t.nonfinite for t in serial] == [False, False, True, False]
        for record in (True, False):
            batch = run_iadmm_batch(p, params, 50, 1e-9, record=record)
            for b, t in zip(batch, serial):
                assert_same(b, t, record)


def test_inner_iterative_runs_serially():
    rng = np.random.default_rng(2)
    p = ProblemSpec(L1Norm(4, 0.4), Quadratic(np.eye(6), rng.standard_normal(6)),
                    LinearMap.dense(rng.standard_normal((6, 4))))
    params = points()[:2]
    batch = run_iadmm_batch(p, params, 40, 0.0)
    for b, q in zip(batch, params):
        assert_same(b, run_iadmm(p, q, max_iters=40, tol=0.0))


def test_batch_needs_one_gamma_and_a_valid_budget():
    p = problem("identity", "l1")
    with pytest.raises(ValueError, match="share gamma"):
        run_iadmm_batch(p, [points(1.0)[0], points(1.2)[0]])
    with pytest.raises(ValueError, match="max_iters"):
        run_iadmm_batch(p, points(), max_iters=0)
    assert run_iadmm_batch(p, []) == []


@pytest.mark.parametrize("m, n", [(1, 1), (7, 5), (30, 30), (45, 40), (63, 17),
                                  (200, 200), (400, 200), (1200, 1000)])
def test_stacked_matmul_rows_are_the_vectors_gemv(m, n):
    rng = np.random.default_rng(m + n)
    M = rng.standard_normal((m, n))
    L = LinearMap.dense(M)
    for P in (2, 3, 9):
        X, Y = rng.standard_normal((P, n)), rng.standard_normal((P, m))
        assert _bits(L._apply(X)) == _bits([L._apply(x) for x in X])
        assert _bits(L._adjoint_apply(Y)) == _bits([L._adjoint_apply(y) for y in Y])


@pytest.mark.parametrize("n", [1, 2, 7, 30, 50, 200, 1000])
def test_multi_rhs_solve_rows_are_the_vectors_solve(n):
    rng = np.random.default_rng(n)
    G = rng.standard_normal((n, n))
    solve = cholesky(G @ G.T + n * np.eye(n))
    for P in (2, 3, 9):
        B = rng.standard_normal((P, n))
        assert _bits(solve(B)) == _bits([solve(b) for b in B])


def test_indicator_point_prox_keeps_the_row_shape():
    a = np.array([1.0, -2.0, 0.5])
    X = np.zeros((4, 3))
    out = IndicatorPoint(a)._prox(1.0, X)
    assert out.shape == (4, 3) and (out == a).all()
    out[0, 0] = 7.0
    assert a[0] == 1.0
