"""Batched inertial ADMM: every point of a batch is bit for bit its serial run.

``run_iadmm_batch`` advances P parameter sets in one ``step`` over (P, m)
row-stacked states.  Each point's stop flags, iteration count, row scalars
and vectors, ``final`` vectors and CSV bytes must equal ``run_iadmm``'s for
that point.  Two kernel facts carry this, and are pinned here so that a BLAS
on which they fail is caught: a dense map's stacked matmul rows are its
per-row gemv (a gemm's are not), and a multi-RHS Cholesky solve's rows are
the per-row solves.
"""

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
from inadmm.params import Coefficients, constant_params

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
        ramped.replace(alpha_schedule=ramp_schedule(0.2, 0.05, 7)),
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
    elif L_kind == "scaled":
        L = LinearMap.scaled_identity(n, -0.7)
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
@pytest.mark.parametrize("L_kind", ["identity", "square", "tall", "scaled"])
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


@pytest.mark.parametrize("f", [L1Norm(5, 0.4), L2Norm(5, 0.7)],
                         ids=["l1", "l2norm"])
def test_scaled_identity_points_are_batched(f, monkeypatch):
    # L'L = cI makes the x-update one prox: no point falls back to a serial run
    from inadmm import admm

    rng = np.random.default_rng(5)
    p = ProblemSpec(f, Translated(L2Norm(5, 0.5), rng.standard_normal(5)),
                    LinearMap.scaled_identity(5, 2.0))
    serial = [run_iadmm(p, q, max_iters=300, tol=1e-9) for q in points()]
    monkeypatch.setattr(admm, "run_iadmm", None)
    for record in (True, False):
        batch = run_iadmm_batch(p, points(), 300, 1e-9, record=record)
        for b, t in zip(batch, serial):
            assert_same(b, t, record)


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


def test_subclass_runs_serially():
    # a subclass that overrides the public prox has 1-D kernels only
    from conftest import CountingL1

    rng = np.random.default_rng(3)
    p = ProblemSpec(Quadratic(np.diag([2.0, 1.0, 0.5]), rng.standard_normal(3)),
                    CountingL1(3, 0.3), LinearMap.identity(3))
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


# -- the full-width table and the stacked stop test ----------------------------

def sweep_points(gamma=GAMMA):
    """An alpha = 0 point, whose rows are still, that leaves first, a lambda = 1
    point, both init modes and a callable alpha schedule (no steady k)."""
    called = constant_params(gamma, 0.2, 0.01).replace(
        alpha_schedule=lambda k: min(0.2, 0.03 * k))
    return [
        constant_params(gamma, 0.0, 0.01, None, 1.5, "alpha2_zero"),
        constant_params(gamma, 0.05, 0.01, 1.0, 1.0, "alpha2_zero"),
        constant_params(gamma, 0.1, 0.01, None, 0.4),
        called,
    ]


@pytest.fixture(params=["short", "long"])
def rows_are(request, monkeypatch):
    """The batch as on short rows (full-width columns, one stacked norm), or
    as on rows longer than ``admm.FULL_WIDTH_MAX`` ((P, 1) columns) whose
    blocks exceed ``admm.STACKED_MAX`` (a norm per block)."""
    from inadmm import admm

    if request.param == "long":
        monkeypatch.setattr(admm, "FULL_WIDTH_MAX", 0)
        monkeypatch.setattr(admm, "STACKED_MAX", 0)
    return request.param


@pytest.mark.parametrize("L_kind", ["scaled", "square", "tall"])
def test_batch_rows_are_their_serial_runs(L_kind, rows_are):
    p = problem(L_kind, "l1")
    params = sweep_points()
    assert params[-1].coefficients.steady is None
    serial = [run_iadmm(p, q, max_iters=400, tol=1e-9) for q in params]
    stops = [t.iterations for t in serial]
    assert stops[0] < min(stops[1:]) and all(t.converged for t in serial), stops
    for record in (True, False):
        batch = run_iadmm_batch(p, params, 400, 1e-9, record=record)
        for b, s in zip(batch, serial):
            assert_same(b, s, record)


def test_batch_table_columns_have_the_state_shape(monkeypatch, rows_are):
    from inadmm import admm

    shapes = []
    original = admm.step

    def spy(state, p, table, k, *rest):
        co = table.coefficients.at(k)
        shapes.append({name: getattr(co, name).shape for name in (
            "alpha", "lam", "rest", "rest_alpha", "next_lam", "zbar_drift",
            "arg_drift", "gamma_alpha")} | {"y": state.y.shape})
        assert co.gamma.shape == ()
        return original(state, p, table, k, *rest)

    monkeypatch.setattr(admm, "step", spy)
    p = problem("tall", "l1")
    run_iadmm_batch(p, sweep_points(), 400, 1e-9, record=False)
    ys = [s.pop("y") for s in shapes]
    for s, y in zip(shapes, ys):  # every column is y's shape, or a (P, 1) column
        assert set(s.values()) == {y if rows_are == "short" else (y[0], 1)}, s
    assert set(ys) >= {(4, 8), (3, 8)}  # and follows the live rows


def test_batch_width_follows_the_row_length():
    from inadmm.admm import FULL_WIDTH_MAX, _batch_table

    rows = sweep_points()
    for m, width in ((6, 6), (FULL_WIDTH_MAX, FULL_WIDTH_MAX), (FULL_WIDTH_MAX + 1, 1)):
        co = _batch_table(rows, m).at(1)
        assert co.alpha.shape == co.gamma_alpha.shape == (len(rows), width), m


def test_batch_table_rows_repeat_each_points_value():
    rows = sweep_points()
    table = Coefficients((rows, 6))
    for k in (1, 2, 3, 4, 9, 30):
        co = table.at(k)
        for name in ("alpha", "lam", "rest", "rest_alpha", "next_lam",
                     "zbar_drift", "arg_drift", "gamma_alpha"):
            got = getattr(co, name)
            assert got.shape == (4, 6) and got.flags.c_contiguous, name
            want = [getattr(q.coefficients.at(k), name) for q in rows]
            assert _bits(got) == _bits(np.repeat(want, 6).reshape(4, 6)), (k, name)


def test_step_returns_each_rows_norm_or_hands_r_to_its_hook():
    from inadmm.admm import IadmmState, XUpdateStrategy, step
    from inadmm.linalg import _norm

    p = problem("tall", "l1")
    rows, m = sweep_points(), p.g.dim
    rng = np.random.default_rng(11)
    y, y_prev, z, z_prev = rng.standard_normal((4, len(rows), m))
    strat = XUpdateStrategy.automatic(p)
    state = IadmmState(k=4, x=np.zeros((len(rows), p.f.dim)), z=z, z_prev=z_prev,
                       zbar=np.zeros_like(z), y=y, y_prev=y_prev)
    new, feas = step(state, p, Coefficients((rows, m)), 4, strat)
    _, r = step(state, p, Coefficients((rows, m)), 4, strat, lambda r: r)
    assert feas.shape == (len(rows),) and r.shape == (len(rows), m)
    column, feas_column = step(state, p, Coefficients((rows, 1)), 4, strat)
    assert _bits(feas_column) == _bits(feas)
    for name in ("x", "z", "zbar", "y", "w", "v"):
        assert _bits(getattr(column, name)) == _bits(getattr(new, name)), name
    for j, q in enumerate(rows):
        one = IadmmState(k=4, x=np.zeros(p.f.dim), z=z[j], z_prev=z_prev[j],
                         zbar=np.zeros(m), y=y[j], y_prev=y_prev[j])
        new_j, feas_j = step(one, p, q, 4, strat)
        _, r_j = step(one, p, q, 4, strat, lambda r: r)
        assert _bits(feas[j]) == _bits(feas_j) == _bits(_norm(r_j))
        assert _bits(r[j]) == _bits(r_j)
        for name in ("x", "z", "zbar", "y", "w", "v"):
            assert _bits(getattr(new, name)[j]) == _bits(getattr(new_j, name)), name
