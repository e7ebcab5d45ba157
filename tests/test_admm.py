import numpy as np
import pytest

from inadmm import (
    IadmmState,
    L1Norm,
    L2Norm,
    LinearMap,
    ProblemSpec,
    Quadratic,
    SubproblemError,
    Translated,
    XUpdateStrategy,
    classical_admm,
    default_params,
    run_iadmm,
)
from inadmm.admm import x_update

from conftest import random_quadratic, tall_full_rank


def make_lasso(n, rng, tau=0.3):
    D = tall_full_rank(n + 2, n, rng)
    b = rng.standard_normal(n + 2)
    f = Quadratic(D.T @ D, -D.T @ b, 0.5 * float(b @ b))
    g = L1Norm(n, tau)
    return ProblemSpec(f, g, LinearMap.identity(n))


# -- problem validation ------------------------------------------------------

def test_problem_spec_dimension_checks(rng):
    f = random_quadratic(2, rng)
    g = L1Norm(3, 1.0)
    with pytest.raises(ValueError):
        ProblemSpec(f, g, LinearMap.identity(2))
    with pytest.raises(ValueError):
        ProblemSpec(f, L1Norm(2, 1.0), LinearMap.dense([[1.0, 0.0]]))


def test_problem_spec_rejects_rank_deficient(rng):
    f = random_quadratic(2, rng)
    g = L1Norm(2, 1.0)
    with pytest.raises(ValueError, match="full column rank"):
        ProblemSpec(f, g, LinearMap.dense([[1.0, 1.0], [1.0, 1.0]]))


# -- x-update strategies -----------------------------------------------------

def test_strategy_automatic_selection(rng):
    p_id = make_lasso(3, rng)
    assert XUpdateStrategy.automatic(p_id).kind == "prox_identity"
    Lm = tall_full_rank(4, 3, rng)
    p_q = ProblemSpec(random_quadratic(3, rng), L2Norm(4, 1.0),
                      LinearMap.dense(Lm))
    assert XUpdateStrategy.automatic(p_q).kind == "quadratic_solve"
    p_hard = ProblemSpec(L1Norm(3, 1.0), L2Norm(4, 1.0), LinearMap.dense(Lm))
    assert XUpdateStrategy.automatic(p_hard).kind == "inner_iterative"
    # L'L = cI is checked before f: a scaled identity takes the exact prox
    for f in (random_quadratic(3, rng), L1Norm(3, 1.0)):
        p_s = ProblemSpec(f, L2Norm(3, 1.0), LinearMap.scaled_identity(3, -0.5))
        assert XUpdateStrategy.automatic(p_s).kind == "prox_identity"


def test_strategy_check_rejects_mismatch(rng):
    p = ProblemSpec(L1Norm(2, 1.0), L1Norm(3, 1.0),
                    LinearMap.dense(tall_full_rank(3, 2, rng)))
    with pytest.raises(ValueError):
        XUpdateStrategy("quadratic_solve").check(p, 1.0)
    with pytest.raises(ValueError, match="L'L = cI"):
        XUpdateStrategy("prox_identity").check(p, 1.0)
    with pytest.raises(ValueError):
        XUpdateStrategy("bogus")
    XUpdateStrategy("prox_identity").check(ProblemSpec(
        L1Norm(2, 1.0), L1Norm(2, 1.0), LinearMap.scaled_identity(2, 2.0)), 1.0)


@pytest.mark.parametrize("kind", ["prox_identity", "inner_iterative"])
def test_strategy_check_refuses_a_step_that_is_not_finite(kind):
    # gamma s^2 overflows at gamma 1.1, s = 1.3e154 (s^2 itself does not):
    # the step 1/(gamma s^2) would be 0 and the prox return its argument
    p = ProblemSpec(L1Norm(2, 1.0), L1Norm(2, 1.0),
                    LinearMap.scaled_identity(2, 1.3e154))
    XUpdateStrategy(kind).check(p, 1.0)
    with pytest.raises(ValueError, match="no finite positive step"):
        XUpdateStrategy(kind).check(p, 1.1)
    # gamma s^2 = 1e-320 is subnormal, and 1/(gamma s^2) overflows to inf
    with pytest.raises(ValueError, match="no finite positive step"):
        XUpdateStrategy(kind).check(ProblemSpec(
            L1Norm(2, 1.0), L1Norm(2, 1.0), LinearMap.scaled_identity(2, 1e-10)), 1e-300)


def test_solvers_refuse_a_step_that_is_not_finite():
    from inadmm.admm import run_iadmm_batch

    p = ProblemSpec(random_quadratic(2, np.random.default_rng(0)), L1Norm(2, 1.0),
                    LinearMap.scaled_identity(2, 1.3e154))
    params = default_params(0.2, gamma=1.1)
    for solve in (lambda: run_iadmm(p, params), lambda: classical_admm(p, 1.1),
                  lambda: run_iadmm_batch(p, [params, params])):
        with pytest.raises(ValueError, match="no finite positive step"):
            solve()


@pytest.mark.parametrize("kwargs", [
    {"budget": 0}, {"budget": -3}, {"budget": 2.5}, {"budget": True},
    {"eps_inner": float("nan")}, {"eps_inner": -1e-12},
    {"eps_inner": float("inf")}],
    ids=["budget_0", "budget_negative", "budget_float", "budget_bool",
         "eps_nan", "eps_negative", "eps_inf"])
def test_strategy_rejects_bad_inner_budget(kwargs):
    # budget 0 used to end the run in an UnboundLocalError, and a NaN or
    # negative eps_inner burned the whole budget before SubproblemError; a
    # bool budget is refused as check_budget refuses a bool max_iters
    with pytest.raises(ValueError):
        XUpdateStrategy("inner_iterative", **kwargs)


def test_strategy_with_budget_one_runs(rng):
    n, m = 3, 4
    Lm = tall_full_rank(m, n, rng)
    f = Translated(L1Norm(n, 0.2), rng.standard_normal(n))
    p = ProblemSpec(f, L2Norm(m, 1.0), LinearMap.dense(Lm))
    strat = XUpdateStrategy("inner_iterative", eps_inner=1e3, budget=np.int64(1))
    trace = run_iadmm(p, default_params(0.2), strat=strat, max_iters=5, tol=0.0)
    assert trace.iterations == 5


def test_x_update_strategies_agree(rng):
    # same subproblem through independent routes, on L = I, 2I and -0.5I:
    # the prox of the frame, the linear solve (quadratic f) and proximal
    # gradient on the subproblem
    n = 3
    gamma, alpha_k = 0.8, 0.2
    for L in (LinearMap.identity(n), LinearMap.scaled_identity(n, 2.0),
              LinearMap.scaled_identity(n, -0.5)):
        for f in (random_quadratic(n, rng, ridge=1.0), L1Norm(n, 0.7)):
            p = ProblemSpec(f, L2Norm(n, 1.0), L)
            state = IadmmState(
                k=2,
                x=rng.standard_normal(n),
                z=rng.standard_normal(n),
                z_prev=rng.standard_normal(n),
                zbar=np.zeros(n),
                y=rng.standard_normal(n),
                y_prev=rng.standard_normal(n),
            )
            a = x_update(state, p, gamma, alpha_k, XUpdateStrategy("prox_identity"))
            c = x_update(state, p, gamma, alpha_k,
                         XUpdateStrategy("inner_iterative", eps_inner=1e-13))
            assert np.allclose(a, c, atol=1e-9), (L, f)
            if isinstance(f, Quadratic):
                b = x_update(state, p, gamma, alpha_k,
                             XUpdateStrategy("quadratic_solve"))
                assert np.allclose(a, b, atol=1e-12), L


def test_scaled_identity_makes_one_prox_of_f_per_iteration(rng):
    # the x-update is one exact prox, not an inner loop (which took two)
    n, iters = 40, 25
    f = L1Norm(n, 0.2)
    calls = []
    prox = f._prox
    f._prox = lambda t, v: calls.append(1) or prox(t, v)
    p = ProblemSpec(f, Translated(L1Norm(n, 0.5), rng.standard_normal(n)),
                    LinearMap.scaled_identity(n, 2.0))
    trace = run_iadmm(p, default_params(0.2), max_iters=iters, tol=0.0)
    assert trace.iterations == iters
    assert np.count_nonzero(trace.final["x"]) > n // 4  # x moves off zero
    assert len(calls) == iters


def test_inner_iterative_budget_error(rng):
    n, m = 3, 4
    Lm = tall_full_rank(m, n, rng)
    p = ProblemSpec(L1Norm(n, 1.0), L2Norm(m, 1.0), LinearMap.dense(Lm))
    state = IadmmState(k=1, x=np.zeros(n), z=rng.standard_normal(m),
                       z_prev=np.zeros(m), zbar=np.zeros(m),
                       y=rng.standard_normal(m), y_prev=np.zeros(m))
    with pytest.raises(SubproblemError) as exc:
        x_update(state, p, 1.0, 0.0,
                 XUpdateStrategy("inner_iterative", eps_inner=1e-16, budget=1))
    assert exc.value.residual is not None


def test_quadratic_solve_cache_follows_problem_identity(rng):
    # problems built one after another recycle ids; a shared strategy must
    # still solve each one's own system
    n, m, gamma = 4, 6, 0.7
    strat = XUpdateStrategy("quadratic_solve")
    for _ in range(200):
        Lm = tall_full_rank(m, n, rng)
        p = ProblemSpec(random_quadratic(n, rng), L1Norm(m, 1.0),
                        LinearMap.dense(Lm))
        z, y = rng.standard_normal(m), rng.standard_normal(m)
        state = IadmmState(k=1, x=np.zeros(n), z=z, z_prev=z, zbar=np.zeros(m),
                           y=y, y_prev=y)
        x = x_update(state, p, gamma, 0.0, strat)
        expected = np.linalg.solve(p.f.Q + gamma * Lm.T @ Lm,
                                   gamma * Lm.T @ z - Lm.T @ y - p.f.q)
        assert np.allclose(x, expected, rtol=1e-9, atol=1e-9)
        del p, state


def test_inner_iterative_computes_operator_norm_once(rng, monkeypatch):
    # the build proves L injective with no SVD; one SVD serves every norm read
    n, m = 3, 4
    Lm = tall_full_rank(m, n, rng)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    f = Translated(L1Norm(n, 0.2), rng.standard_normal(n))
    p = ProblemSpec(f, L2Norm(m, 1.0), LinearMap.dense(Lm))
    for _ in range(2):
        trace = run_iadmm(p, default_params(0.2), max_iters=30, tol=0.0)
        assert trace.iterations == 30
    assert len(calls) == 1


def test_shared_quadratic_solves_follow_gamma_and_operator(rng):
    # one f across 200 problems built one after another: whatever gamma, L
    # and system came before, every solve uses the current system
    n, m = 4, 6
    f = random_quadratic(n, rng)
    strat = XUpdateStrategy("quadratic_solve")
    for i in range(200):
        gamma = (0.7, 1.3)[i % 2]
        Lm = tall_full_rank(m, n, rng)
        p = ProblemSpec(f, L1Norm(m, 1.0), LinearMap.dense(Lm))
        z, y = rng.standard_normal(m), rng.standard_normal(m)
        if i % 3 == 0:
            x = f.prox(gamma, z[:n])
            expected = np.linalg.solve(np.eye(n) + gamma * f.Q, z[:n] - gamma * f.q)
        else:
            state = IadmmState(k=1, x=np.zeros(n), z=z, z_prev=z,
                               zbar=np.zeros(m), y=y, y_prev=y)
            x = x_update(state, p, gamma, 0.0, strat)
            expected = np.linalg.solve(f.Q + gamma * Lm.T @ Lm,
                                       gamma * Lm.T @ z - Lm.T @ y - f.q)
        assert np.allclose(x, expected, rtol=1e-9, atol=1e-9)
        del p


# -- classical reduction oracle ----------------------------------------------

def hand_classical_admm(p, gamma, iters):
    """Textbook ADMM written independently of the package internals."""
    n = p.f.dim
    Q, q = p.f.Q, p.f.q
    y = np.zeros(n)
    z = np.zeros(n)
    out = []
    for _ in range(iters):
        x = np.linalg.solve(Q + gamma * np.eye(n), gamma * z - y - q)
        z_next = p.g.prox(1.0 / gamma, x + y / gamma)
        y = y + gamma * (x - z_next)
        z = z_next
        out.append((x.copy(), z.copy(), y.copy()))
    return out


def test_classical_admm_matches_hand_iteration(rng):
    p = make_lasso(3, rng)
    gamma = 0.9
    oracle = hand_classical_admm(p, gamma, 25)
    trace = classical_admm(p, gamma, max_iters=25, tol=0.0)
    for row, (x, z, y) in zip(trace.rows, oracle):
        assert np.allclose(row.vectors["x_next"], x, atol=1e-12)
        assert np.allclose(row.vectors["z_next"], z, atol=1e-12)
        assert np.allclose(row.vectors["y_next"], y, atol=1e-12)


def test_inertial_reduces_to_classical(rng):
    # alpha = 0, lambda = 1 must reproduce the classical iterates
    from inadmm import InertialParams, constant_schedule

    p = make_lasso(3, rng)
    params = InertialParams(
        gamma=1.1, alpha=0.0, sigma=0.01, delta=1.0, lambda_lo=1e-6,
        alpha_schedule=constant_schedule(0.0),
        lambda_schedule=constant_schedule(1.0),
        init_mode="alpha2_zero",
    )
    inert = run_iadmm(p, params, max_iters=60, tol=0.0)
    classic = classical_admm(p, 1.1, max_iters=60, tol=0.0)
    for a, b in zip(inert.rows, classic.rows):
        assert np.allclose(a.vectors["x_next"], b.vectors["x_next"], atol=1e-12)
        assert np.allclose(a.vectors["z_next"], b.vectors["z_next"], atol=1e-12)
        assert np.allclose(a.vectors["y_next"], b.vectors["y_next"], atol=1e-12)


# -- inertial solver behaviour -----------------------------------------------

def test_run_iadmm_converges_to_soft_threshold(rng):
    # separable lasso with diagonal quadratic: analytic solution coordinates
    d = np.array([2.0, 1.0, 0.5])
    b = np.array([1.0, -0.2, 2.0])
    tau = 0.4
    f = Quadratic(np.diag(d), -d * b)
    g = L1Norm(3, tau)
    p = ProblemSpec(f, g, LinearMap.identity(3))
    x_star = np.sign(b) * np.maximum(np.abs(b) - tau / d, 0.0)

    params = default_params(0.25, gamma=1.0)
    trace = run_iadmm(p, params, tol=1e-12)
    assert trace.converged
    assert np.allclose(trace.final["x"], x_star, atol=1e-9)
    assert np.allclose(trace.final["z"], x_star, atol=1e-9)


def test_run_iadmm_zbar_invariant(rng):
    # gamma * zbar^{k+1} = alpha_{k+1} (w^{k+1} - w^k) along the whole run
    p = make_lasso(3, rng)
    params = default_params(0.3, gamma=0.7)
    trace = run_iadmm(p, params, max_iters=80, tol=0.0)
    for row in trace.rows:
        lhs = params.gamma * row.vectors["zbar_next"]
        rhs = params.alpha_at(row.k + 1) * (
            row.vectors["w_next"] - row.vectors["w"])
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_run_iadmm_dual_certificate(rng):
    # -L^T v^k is exactly the gradient of quadratic f at x^{k+1}
    n = 3
    f = random_quadratic(n, rng, ridge=0.5)
    g = L2Norm(n, 0.7)
    p = ProblemSpec(f, g, LinearMap.identity(n))
    params = default_params(0.2)
    trace = run_iadmm(p, params, max_iters=100, tol=0.0)
    for row in trace.rows[1:]:
        grad = f.Q @ row.vectors["x_next"] + f.q
        assert np.allclose(-row.vectors["v"], grad, atol=1e-8)


def test_run_iadmm_duality_gap_closes(rng):
    p = make_lasso(4, rng)
    params = default_params(0.2)
    trace = run_iadmm(p, params, tol=1e-12)
    assert trace.converged
    primal = trace.rows[-1].primal
    dual = trace.rows[-1].dual
    assert primal - dual == pytest.approx(0.0, abs=1e-8)
    assert primal >= dual - 1e-12


def test_run_iadmm_budget_exhaustion(rng):
    p = make_lasso(3, rng)
    params = default_params(0.2)
    trace = run_iadmm(p, params, max_iters=3, tol=1e-14)
    assert not trace.converged
    assert trace.iterations == 3


def test_run_iadmm_rejects_bad_params(rng):
    from inadmm import InertialParams, constant_schedule

    p = make_lasso(2, rng)
    bad = InertialParams(
        gamma=1.0, alpha=0.5, sigma=0.01, delta=0.05, lambda_lo=1e-6,
        alpha_schedule=constant_schedule(0.5),
        lambda_schedule=constant_schedule(0.5),
    )
    with pytest.raises(ValueError):
        run_iadmm(p, bad)


def test_run_iadmm_dense_operator(rng):
    # quadratic f with a tall dense L: x-update via cached linear solve
    n, m = 3, 5
    f = random_quadratic(n, rng, ridge=0.5)
    Lm = tall_full_rank(m, n, rng)
    g = L1Norm(m, 0.3)
    p = ProblemSpec(f, g, LinearMap.dense(Lm))
    params = default_params(0.15, gamma=0.8)
    trace = run_iadmm(p, params, tol=1e-11)
    assert trace.converged
    x = trace.final["x"]

    def objective(v):
        return f(v) + 0.3 * np.abs(Lm @ v).sum()

    # convexity: the solution must not be improvable in any probed direction
    Fx = objective(x)
    for _ in range(200):
        d = rng.standard_normal(n)
        d *= rng.choice([1e-4, 1e-2, 1.0]) / np.linalg.norm(d)
        assert objective(x + d) >= Fx - 1e-9

    # independent minimizer reaches (at best) the same objective value
    import scipy.optimize

    res = scipy.optimize.minimize(objective, np.zeros(n), method="Powell",
                                  options={"xtol": 1e-12, "ftol": 1e-14})
    assert Fx <= res.fun + 1e-8
