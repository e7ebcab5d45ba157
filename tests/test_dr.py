import dataclasses

import numpy as np
import pytest

from inadmm import (
    L1Norm,
    L2Norm,
    LinearMap,
    ProblemSpec,
    Quadratic,
    ResolventOp,
    Translated,
    default_params,
    idr_step,
    IdrState,
    ramp_schedule,
    run_iadmm,
    run_idr,
)
from inadmm import dr

from conftest import point_normal_cone, random_quadratic, tall_full_rank, zero_operator


def test_subdifferential_resolvent_is_prox(rng):
    f = L1Norm(3, 1.0)
    A = ResolventOp.subdifferential(f)
    u = rng.standard_normal(3)
    assert np.allclose(A.resolvent(0.7, u), f.prox(0.7, u))


def test_conjugate_subdifferential_resolvent(rng):
    g = L1Norm(3, 1.0)
    B = ResolventOp.conjugate_subdifferential(g)
    u = np.array([2.0, -0.5, 0.1])
    # resolvent of d(g*) at gamma=1 clamps into the dual box
    assert np.allclose(B.resolvent(1.0, u), [1.0, -0.5, 0.1])


def test_zero_and_point_normal_cone(rng):
    u = rng.standard_normal(2)
    assert np.allclose(zero_operator(2).resolvent(1.0, u), u)
    a = np.array([1.0, -1.0])
    assert np.allclose(point_normal_cone(a).resolvent(0.3, u), a)


def test_composed_conjugate_identity_matches_coordinate_minimization(rng):
    import scipy.optimize

    f = L1Norm(2, 0.8)
    L = LinearMap.identity(2)
    A = ResolventOp.composed_conjugate(f, L)
    gamma = 0.6
    for _ in range(10):
        u = 2.0 * rng.standard_normal(2)
        got = A.resolvent(gamma, u)
        # oracle: coordinatewise numeric minimization of
        # f(x) + <u, x> + (gamma/2) ||x||^2, then u + gamma x
        xhat = np.empty(2)
        for i in range(2):
            res = scipy.optimize.minimize_scalar(
                lambda t: 0.8 * abs(t) + u[i] * t + 0.5 * gamma * t * t,
                bounds=(-50, 50), method="bounded",
                options={"xatol": 1e-12},
            )
            xhat[i] = res.x
        assert np.allclose(got, u + gamma * xhat, atol=1e-6)


def test_composed_conjugate_scaled_identity(rng):
    import scipy.optimize

    f = L1Norm(1, 1.0)
    L = LinearMap.scaled_identity(1, -2.0)
    A = ResolventOp.composed_conjugate(f, L)
    gamma = 0.5
    for _ in range(10):
        u = 2.0 * rng.standard_normal(1)
        got = A.resolvent(gamma, u)
        res = scipy.optimize.minimize_scalar(
            lambda t: abs(t) + u[0] * (-2.0 * t) + 0.5 * gamma * 4.0 * t * t,
            bounds=(-50, 50), method="bounded", options={"xatol": 1e-12},
        )
        assert got[0] == pytest.approx(u[0] + gamma * (-2.0) * res.x, abs=1e-6)


def test_composed_conjugate_refuses_a_step_that_is_not_finite():
    # gamma s^2 overflows, so 1/(gamma s^2) is 0 and the prox would return
    # its argument: the resolvent refuses it, and so does run_idr
    L = LinearMap.scaled_identity(2, 1.3e154)
    A = ResolventOp.composed_conjugate(L1Norm(2, 1.0), L)
    assert np.all(np.isfinite(A.resolvent(1.0, np.ones(2))))
    with pytest.raises(ValueError, match="no finite positive step"):
        A.resolvent(1.1, np.ones(2))
    with pytest.raises(ValueError, match="no finite positive step"):
        run_idr(A, ResolventOp.conjugate_subdifferential(L1Norm(2, 1.0)), 1.1,
                default_params(0.2, gamma=1.1), np.zeros(2), np.zeros(2))


@pytest.mark.parametrize("scale", [2.0, -0.5, 1.7])
@pytest.mark.parametrize("f_kind", ["l1", "l2norm"])
def test_admm_matches_its_twin_on_a_scaled_identity(rng, f_kind, scale):
    # the ADMM x-update and the twin's resolvent each derive their closed
    # form from L'L = cI; the recombined iterates agree to the gate's 1e-9
    n = 4
    f = L1Norm(n, 0.6) if f_kind == "l1" else L2Norm(n, 0.6)
    for g in (L1Norm(n, 0.4), Translated(L2Norm(n, 0.5), rng.standard_normal(n)),
              random_quadratic(n, rng)):
        L = LinearMap.scaled_identity(n, scale)
        params = default_params(0.2, gamma=1.3)
        y1, z1 = rng.standard_normal((2, n))  # from zero, l1 + l1 stays there
        admm = run_iadmm(ProblemSpec(f, g, L), params, init=(y1, y1, z1, z1),
                         max_iters=150, tol=0.0)
        w1 = y1 + 1.3 * z1
        dr = run_idr(ResolventOp.composed_conjugate(f, L),
                     ResolventOp.conjugate_subdifferential(g), 1.3, params,
                     w1, w1, max_iters=150, tol=0.0)
        assert min(len(admm.rows), len(dr.rows)) > 30
        for ra, rd in zip(admm.rows[1:], dr.rows[1:]):
            for key in ("y", "v", "w"):
                assert np.abs(ra.vectors[key] - rd.vectors[key]).max() <= 1e-9


def test_composed_conjugate_quadratic_dense(rng):
    n, m = 3, 4
    f = random_quadratic(n, rng)
    Lm = tall_full_rank(m, n, rng)
    A = ResolventOp.composed_conjugate(f, LinearMap.dense(Lm))
    gamma = 1.3
    for _ in range(10):
        u = rng.standard_normal(m)
        got = A.resolvent(gamma, u)
        # oracle: normal equations solved by numpy directly
        xhat = np.linalg.solve(f.Q + gamma * Lm.T @ Lm, -f.q - Lm.T @ u)
        assert np.allclose(got, u + gamma * Lm @ xhat, atol=1e-10)


def test_composed_conjugate_subgradient_inclusion(rng):
    # y = J_{gamma A}(u) for A = d(f* o (-L^T)) means (u - y)/gamma is a
    # subgradient of h(w) = f*(-L^T w) at y
    n, m = 2, 3
    f = random_quadratic(n, rng, ridge=1.0)
    Lm = tall_full_rank(m, n, rng)
    A = ResolventOp.composed_conjugate(f, LinearMap.dense(Lm))
    gamma = 0.9

    def h(w):
        return f.conj(-Lm.T @ w)

    for _ in range(20):
        u = rng.standard_normal(m)
        y = A.resolvent(gamma, u)
        sub = (u - y) / gamma
        hy = h(y)
        assert np.isfinite(hy)
        for _ in range(20):
            z = y + rng.standard_normal(m)
            hz = h(z)
            if np.isinf(hz):
                continue
            assert hz >= hy + sub @ (z - y) - 1e-9


def test_composed_conjugate_rejects_inexact_combination():
    with pytest.raises(ValueError):
        ResolventOp.composed_conjugate(
            L1Norm(2, 1.0), LinearMap.dense([[1.0, 2.0], [0.0, 1.0]])
        )


def test_resolvent_firmly_nonexpansive(rng):
    f = random_quadratic(3, rng)
    for A in (
        ResolventOp.subdifferential(f),
        ResolventOp.conjugate_subdifferential(f),
        ResolventOp.composed_conjugate(f, LinearMap.identity(3)),
    ):
        for _ in range(50):
            u = 2.0 * rng.standard_normal(3)
            w = 2.0 * rng.standard_normal(3)
            ju = A.resolvent(0.8, u)
            jw = A.resolvent(0.8, w)
            assert np.linalg.norm(ju - jw) ** 2 <= (u - w) @ (ju - jw) + 1e-12


def test_idr_step_formula(rng):
    f = random_quadratic(2, rng)
    g = random_quadratic(2, rng)
    A = ResolventOp.subdifferential(f)
    B = ResolventOp.subdifferential(g)
    gamma, alpha_k, lambda_k = 0.7, 0.25, 1.1
    w_prev = rng.standard_normal(2)
    w = rng.standard_normal(2)
    state = IdrState(k=3, w_prev=w_prev, w=w)
    out, res = idr_step(state, A, B, gamma, alpha_k, lambda_k)
    u = w + alpha_k * (w - w_prev)
    y = g.prox(gamma, u)
    v = f.prox(gamma, 2.0 * y - u)
    assert out.k == 4
    assert np.isclose(res, np.linalg.norm(v - y))
    assert np.allclose(out.y, y)
    assert np.allclose(out.v, v)
    assert np.allclose(out.w, u + lambda_k * (v - y))
    assert np.allclose(out.w_prev, w)


def test_run_idr_minimizes_sum(rng):
    # min f(y) + g(y): y-iterates converge to the joint minimizer
    Q1 = np.diag([1.0, 2.0])
    Q2 = np.diag([3.0, 1.0])
    q1 = np.array([1.0, -1.0])
    q2 = np.array([0.0, 2.0])
    f = Quadratic(Q1, q1)
    g = Quadratic(Q2, q2)
    x_star = np.linalg.solve(Q1 + Q2, -(q1 + q2))

    A = ResolventOp.subdifferential(f)
    B = ResolventOp.subdifferential(g)
    params = default_params(0.2)
    w0 = np.zeros(2)
    trace = run_idr(A, B, params.gamma, params, w0, w0, tol=1e-12)
    assert trace.converged
    assert np.allclose(trace.final["y"], x_star, atol=1e-9)
    assert np.allclose(trace.final["v"], x_star, atol=1e-9)


def test_run_idr_nonsmooth(rng):
    # min |y - 2| + 0.5 y^2 -> minimizer at y = 1
    f = Quadratic(np.eye(1), np.zeros(1))
    g = L1Norm(1, 1.0)
    A = ResolventOp.subdifferential(f)

    # |y - 2| as a translated l1 norm
    from inadmm import Translated

    B = ResolventOp.subdifferential(Translated(g, np.array([2.0])))
    params = default_params(0.3)
    trace = run_idr(A, B, params.gamma, params, np.zeros(1), np.zeros(1),
                    tol=1e-12)
    assert trace.converged
    assert trace.final["y"][0] == pytest.approx(1.0, abs=1e-9)


def test_run_idr_requires_matching_warm_start():
    from inadmm import InertialParams, constant_schedule

    f = Quadratic(np.eye(1), np.zeros(1))
    A = ResolventOp.subdifferential(f)
    B = zero_operator(1)
    params = InertialParams(
        gamma=1.0, alpha=0.2, sigma=0.01, delta=1.0, lambda_lo=1e-6,
        alpha_schedule=constant_schedule(0.2),
        lambda_schedule=constant_schedule(1.0),
        init_mode="alpha2_zero",
    )
    # alpha2_zero keeps the first two steps un-inertial: any w0, w1 allowed
    trace = run_idr(A, B, 1.0, params, np.ones(1), np.zeros(1), tol=1e-12)
    assert trace.converged

    raw = InertialParams(
        gamma=1.0, alpha=0.2, sigma=0.01, delta=1.0, lambda_lo=1e-6,
        alpha_schedule=constant_schedule(0.2),
        lambda_schedule=constant_schedule(1.0),
        init_mode="lambda1_alpha1_zero",
    )
    # here alpha_1 = 0 as well, so mismatched starts are fine too; force a
    # genuinely inertial first step to trigger the guard
    raw2 = InertialParams(
        gamma=1.0, alpha=0.2, sigma=0.01, delta=1.0, lambda_lo=1e-6,
        alpha_schedule=constant_schedule(0.2),
        lambda_schedule=constant_schedule(1.0),
        init_mode="raw",
    )
    with pytest.raises(ValueError):
        run_idr(A, B, 1.0, raw2, np.ones(1), np.zeros(1))
    assert run_idr(A, B, 1.0, raw, np.ones(1), np.zeros(1), tol=1e-12).converged


def test_run_idr_validates_params():
    from inadmm import InertialParams, constant_schedule

    bad = InertialParams(
        gamma=1.0, alpha=0.5, sigma=0.01, delta=0.1, lambda_lo=1e-6,
        alpha_schedule=constant_schedule(0.5),
        lambda_schedule=constant_schedule(0.5),
    )
    A = zero_operator(1)
    with pytest.raises(ValueError):
        run_idr(A, A, 1.0, bad, np.zeros(1), np.zeros(1))


def test_run_idr_budget_exhaustion():
    # a rotation-like pair that converges slowly: tiny budget leaves
    # converged = False
    f = Quadratic(np.eye(2) * 1e-3, np.array([1.0, 1.0]))
    g = Quadratic(np.eye(2) * 1e-3, np.array([-1.0, 0.5]))
    A = ResolventOp.subdifferential(f)
    B = ResolventOp.subdifferential(g)
    params = default_params(0.1)
    trace = run_idr(A, B, params.gamma, params, np.zeros(2), np.zeros(2),
                    max_iters=3, tol=1e-14)
    assert not trace.converged
    assert trace.iterations == 3


@pytest.mark.parametrize("alpha", [0.0, 0.2, "ramped"])
@pytest.mark.parametrize("twin", ["scaled_identity", "dense_quadratic"])
def test_run_idr_rows_are_public_idr_steps_byte_for_byte(rng, twin, alpha):
    # idr_step forms v - y once, for w_next and its stop residual; fed
    # alpha_k and lambda_k as floats, it gives run_idr's bytes
    n = 5
    if twin == "scaled_identity":
        A = ResolventOp.composed_conjugate(L1Norm(n, 0.6),
                                           LinearMap.scaled_identity(n, -1.7))
    else:
        A = ResolventOp.composed_conjugate(
            random_quadratic(n, rng), LinearMap.dense(tall_full_rank(n + 2, n, rng)))
    B = ResolventOp.conjugate_subdifferential(
        Translated(L2Norm(A.dim, 0.4), rng.standard_normal(A.dim)))
    params = default_params(0.2 if alpha == "ramped" else alpha, gamma=1.3)
    if alpha == "ramped":  # alpha_k and lambda_k change up to k = 10
        params = dataclasses.replace(
            params, alpha_schedule=ramp_schedule(0.2, 0.0, 10),
            lambda_schedule=ramp_schedule(params.lambda_schedule.value, 0.5, 10))
    w1 = rng.standard_normal(A.dim)
    trace = run_idr(A, B, 1.3, params, w1, w1, max_iters=40, tol=0.0)
    assert trace.iterations == 40
    state = IdrState(k=0, w_prev=w1, w=w1)
    for row in trace.rows:
        state, feas = idr_step(state, A, B, 1.3, params.alpha_at(row.k),
                               params.lambda_at(row.k))
        for name, key in (("w", "w_next"), ("y", "y"), ("v", "v")):
            assert getattr(state, name).tobytes() == row.vectors[key].tobytes()
        assert row.feas_residual == feas == np.linalg.norm(state.v - state.y)


def test_run_idr_calls_the_module_idr_step_and_keeps_its_norm(rng, monkeypatch):
    # a profiler that replaces dr.idr_step sees every iteration of run_idr,
    # and each row's stop residual is the ||v - y|| that idr_step returned
    calls = []
    original = dr.idr_step

    def recording(*args):
        new, feas = original(*args)
        calls.append((args[0].k, feas))
        return new, feas

    monkeypatch.setattr(dr, "idr_step", recording)
    n = 5
    A = ResolventOp.composed_conjugate(L1Norm(n, 0.6), LinearMap.scaled_identity(n, -1.7))
    B = ResolventOp.conjugate_subdifferential(
        Translated(L2Norm(n, 0.4), rng.standard_normal(n)))
    w1 = rng.standard_normal(n)
    trace = run_idr(A, B, 1.3, default_params(0.2, gamma=1.3), w1, w1,
                    max_iters=12, tol=0.0)
    assert trace.iterations == 12 and [k for k, _ in calls] == list(range(12))
    for row, (_, feas) in zip(trace.rows, calls):
        assert np.float64(row.feas_residual).tobytes() == np.float64(feas).tobytes()


@pytest.mark.parametrize("L", [LinearMap.identity(4), LinearMap.scaled_identity(4, -0.7),
                               LinearMap.stacked_identity(3, 4)],
                         ids=["identity", "scaled", "stacked"])
def test_composed_conjugate_divides_by_minus_gamma_c_for_the_bits_of_negating(rng, L):
    # J(u) = u + gamma L prox_{f/(gamma c)}(-L'u / (gamma c)); L'u / (-gamma c)
    # is -L'u / (gamma c) in IEEE arithmetic, signed zeros included
    f = L1Norm(4, 0.3)
    A = ResolventOp.composed_conjugate(f, L)
    c = L.frame
    for gamma in (0.9, 2.0):
        for _ in range(5):
            u = rng.standard_normal(L.codomain_dim)
            u[:2] = (0.0, -0.0)
            want = u + gamma * L.apply(f.prox(1.0 / (gamma * c),
                                              -L.adjoint_apply(u) / (gamma * c)))
            assert A.resolvent(gamma, u).tobytes() == want.tobytes()
