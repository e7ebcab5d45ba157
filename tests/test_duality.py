import numpy as np
import pytest

from inadmm import (
    IndicatorBox,
    L1Norm,
    L2Norm,
    LinearMap,
    ProblemSpec,
    Quadratic,
    default_params,
    dual_value,
    duality_report,
    hypothesis_check,
    kkt_residual,
    primal_value,
    run_iadmm,
)
from inadmm.duality import subgradient_violation

from conftest import random_quadratic, tall_full_rank


def quad_pair(n, rng):
    f = random_quadratic(n, rng, ridge=0.5)
    g = random_quadratic(n, rng, ridge=0.5)
    return ProblemSpec(f, g, LinearMap.identity(n))


def test_primal_value(rng):
    p = quad_pair(2, rng)
    x = rng.standard_normal(2)
    assert primal_value(p, x) == pytest.approx(p.f(x) + p.g(x))
    box = ProblemSpec(Quadratic(np.eye(1), np.zeros(1)),
                      IndicatorBox([-1.0], [1.0]), LinearMap.identity(1))
    assert primal_value(box, [2.0]) == np.inf
    assert primal_value(box, [0.5]) == pytest.approx(0.125)


def test_dual_value_infinite_conjugate():
    p = ProblemSpec(Quadratic(np.eye(1), np.zeros(1)), L1Norm(1, 1.0),
                    LinearMap.identity(1))
    # |v| > tau puts g* at +inf -> dual -inf
    assert dual_value(p, [2.0]) == -np.inf
    assert np.isfinite(dual_value(p, [0.5]))


def test_dual_value_evaluates_g_conjugate_at_y():
    p = ProblemSpec(Quadratic(np.eye(1), np.zeros(1)), L1Norm(1, 1.0),
                    LinearMap.identity(1))
    # f* stays at -L*v; g* moves to y: f*(-2) = 2 and g*(0.5) = 0
    assert dual_value(p, [2.0], y=[0.5]) == pytest.approx(-2.0)
    assert dual_value(p, [0.5], y=[2.0]) == -np.inf


def test_weak_duality_random(rng):
    # every primal value dominates every dual value
    for _ in range(10):
        p = quad_pair(3, rng)
        for _ in range(30):
            x = rng.standard_normal(3)
            v = rng.standard_normal(3)
            assert primal_value(p, x) >= dual_value(p, v) - 1e-10


def test_strong_duality_at_optimum():
    # min 0.5 x^2 + |x - 1|: solution x* = 1, optimal dual v* = 1... clip
    # analytic: F(x) = 0.5 x^2 + |x-1|; for x<1 derivative x-1 <0 until x=1;
    # at x=1 subdifferential [1-1, 1+1] contains 0 -> x* = 1? No: check
    # x=1: 0 in 1 + [-1,1] -> yes. F* = 0.5.
    from inadmm import Translated

    f = Quadratic(np.eye(1), np.zeros(1))
    g = Translated(L1Norm(1, 1.0), np.array([1.0]))
    p = ProblemSpec(f, g, LinearMap.identity(1))
    x_star = np.array([1.0])
    v_star = np.array([-1.0])  # v in dg(x*), -v in df(x*) => v = -x* = -1
    assert primal_value(p, x_star) == pytest.approx(0.5)
    assert dual_value(p, v_star) == pytest.approx(0.5)
    assert kkt_residual(p, x_star, v_star) <= 1e-12


def test_subgradient_violation(rng):
    f = L1Norm(2, 1.0)
    x = np.array([2.0, -3.0])
    good = np.array([1.0, -1.0])
    bad = np.array([1.0, 1.0])
    assert subgradient_violation(f, x, good, rng=rng) <= 1e-12
    assert subgradient_violation(f, x, bad, rng=rng) > 0.1
    box = IndicatorBox([-1.0, -1.0], [1.0, 1.0])
    assert subgradient_violation(box, np.array([2.0, 0.0]), good) == np.inf


def test_kkt_residual_detects_suboptimality(rng):
    p = quad_pair(2, rng)
    # solve exactly: grad f + grad g = 0
    H = p.f.Q + p.g.Q
    x_star = np.linalg.solve(H, -(p.f.q + p.g.q))
    v_star = p.g.Q @ x_star + p.g.q
    assert kkt_residual(p, x_star, v_star) <= 1e-10
    assert kkt_residual(p, x_star + 1.0, v_star) > 1e-3


def test_hypothesis_check(rng):
    p = quad_pair(2, rng)
    assert hypothesis_check(p) == (1.0, 1.0)
    Lm = tall_full_rank(4, 2, rng)
    p2 = ProblemSpec(random_quadratic(2, rng), L2Norm(4, 1.0),
                     LinearMap.dense(Lm))
    theta, theta_star = hypothesis_check(p2)
    s = np.linalg.svd(Lm, compute_uv=False)
    assert theta == pytest.approx(s[-1], abs=1e-12)
    assert theta_star == 0.0  # wide adjoint has a kernel


@pytest.mark.parametrize("shape", [(4, 4), (6, 3)], ids=["square", "tall"])
def test_hypothesis_check_builds_no_adjoint(rng, monkeypatch, shape):
    # theta* is the adjoint's modulus, bit for bit, without the adjoint's copy
    m, n = shape
    maps = [LinearMap.dense(tall_full_rank(m, n, rng)), LinearMap.identity(n),
            LinearMap.scaled_identity(n, -0.5)]
    wants = [(L.injectivity_modulus(), L.adjoint().injectivity_modulus())
             for L in maps]

    def no_adjoint(self):
        raise AssertionError("adjoint built")

    monkeypatch.setattr(LinearMap, "adjoint", no_adjoint)
    for L, want in zip(maps, wants):
        p = ProblemSpec(random_quadratic(n, rng), L2Norm(L.shape[0], 1.0), L)
        got = hypothesis_check(p)
        assert [v.hex() for v in got] == [v.hex() for v in want]


def test_duality_report_on_solver_output(rng):
    p = quad_pair(3, rng)
    params = default_params(0.2)
    trace = run_iadmm(p, params, tol=1e-12)
    rep = duality_report(p, trace.final["x"], trace.final["v"])
    assert rep.gap == pytest.approx(0.0, abs=1e-8)
    assert rep.kkt_residual <= 1e-8
    assert rep.h_theta == 1.0
    assert "primal" in str(rep) and "theta" in str(rep)
