from types import SimpleNamespace

import numpy as np
import pytest

from inadmm import (
    IndicatorBox,
    IndicatorConsensus,
    IndicatorHyperplane,
    IndicatorPoint,
    L1Norm,
    L2Norm,
    LinearMap,
    ProblemSpec,
    Quadratic,
    SeparableSum,
    Translated,
    Zero,
    default_params,
    dual_value,
    duality_report,
    hypothesis_check,
    kkt_residual,
    primal_value,
    run_iadmm,
)
from inadmm.duality import prox_residual
from inadmm.linalg import SINGULAR_TOL

from conftest import counted, random_quadratic, tall_full_rank


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
    f = Quadratic(np.eye(1), np.zeros(1))
    g = Translated(L1Norm(1, 1.0), np.array([1.0]))
    p = ProblemSpec(f, g, LinearMap.identity(1))
    x_star = np.array([1.0])
    v_star = np.array([-1.0])  # v in dg(x*), -v in df(x*) => v = -x* = -1
    assert primal_value(p, x_star) == pytest.approx(0.5)
    assert dual_value(p, v_star) == pytest.approx(0.5)
    assert kkt_residual(p, x_star, v_star) <= 1e-12


# s in dh(u) exactly when u = prox_h(u + s) at step 1 (Parikh & Boyd 2014,
# sec. 2.3), or, for a quadratic, when Qu + q = s.  On an analytic pair the
# residual is rounding only: at most ROUND (1 + ||u|| + ||s||).
ROUND = 1e-14


def subgradient_pairs(n, rng):
    """(h, u, s, u', s') per catalog kind: s in dh(u) analytically, and the
    perturbed pair (u', s') outside the graph of dh.  Every s is in the normal
    cone of a point, so the point's pair moves u instead."""
    u = rng.standard_normal(n)
    u[0] = 0.0  # a kink of the norms
    sign = np.sign(u)
    bump = np.zeros(n)
    bump[-1] = 0.1
    tau = 0.7
    l1 = tau * sign
    l1[0] = 0.3  # inside [-tau, tau] where u is 0
    Q = random_quadratic(n, rng)
    D = rng.standard_normal((2, n))
    Qdef = Quadratic(D.T @ D, rng.standard_normal(n))  # rank 2
    a = rng.standard_normal(n) + 0.1
    on_plane = u - ((a @ u - 0.4) / (a @ a)) * a
    lo, hi = u - 1.0, u + 1.0
    lo[0] = u[0]  # u on the box's lower face in coordinate 0
    box_s = np.zeros(n)
    box_s[0] = -2.0  # the face's outward normal
    shift = rng.standard_normal(n)
    pairs = [
        (Zero(n), u, np.zeros(n), u, bump),
        (Q, u, Q.Q @ u + Q.q, u, Q.Q @ u + Q.q + bump),
        (Qdef, u, Qdef.Q @ u + Qdef.q, u, Qdef.Q @ u + Qdef.q + bump),
        (L1Norm(n, tau), u, l1, u, l1 + bump),
        (L2Norm(n, tau), u, tau * u / np.linalg.norm(u), u, tau * u / np.linalg.norm(u) + bump),
        (L2Norm(n, tau), np.zeros(n), 0.5 * tau * bump / 0.1, np.zeros(n), 20.0 * bump),
        (IndicatorPoint(u), u, rng.standard_normal(n), u + bump, np.zeros(n)),
        (IndicatorBox(lo, hi), u, box_s, u, box_s + bump),
        (IndicatorHyperplane(a, 0.4), on_plane, -1.5 * a, on_plane,
         -1.5 * a + bump - (bump @ a) / (a @ a) * a),
        (Translated(L1Norm(n, tau), shift), u + shift, l1, u + shift, l1 + bump),
    ]
    blocks = [(h, hu, hs) for h, hu, hs, _, _ in pairs if isinstance(h, (L1Norm, L2Norm))]
    pairs.append((SeparableSum([h for h, _, _ in blocks]),
                  np.concatenate([hu for _, hu, _ in blocks]),
                  np.concatenate([hs for _, _, hs in blocks]),
                  np.concatenate([hu for _, hu, _ in blocks]),
                  np.concatenate([hs for _, _, hs in blocks]) + np.tile(bump, len(blocks))))
    w = rng.standard_normal((3, n))
    w -= w.mean(axis=0)  # blocks summing to zero: the complement of the diagonal
    pairs.append((IndicatorConsensus(3, n), np.tile(u, 3), w.ravel(), np.tile(u, 3),
                  w.ravel() + np.tile(bump, 3)))
    return pairs


@pytest.mark.parametrize("n", [2, 5])
def test_prox_residual_is_zero_on_subgradients_and_positive_off_them(rng, n):
    kinds = set()
    for h, u, s, u_bad, s_bad in subgradient_pairs(n, rng):
        assert prox_residual(h, u, s) <= ROUND * (1.0 + np.linalg.norm(u) + np.linalg.norm(s)), h
        assert prox_residual(h, u_bad, s_bad) > 1e-3, h
        kinds.add(type(h))
    assert len(kinds) == 10


def test_prox_residual_of_a_quadratic_forms_no_factor(rng):
    f = random_quadratic(3, rng)
    u, s = rng.standard_normal((2, 3))
    assert prox_residual(f, u, s) == pytest.approx(np.linalg.norm(f.Q @ u + f.q - s))
    assert f._factors == {}


def test_kkt_residual_is_finite_outside_the_domain_of_g():
    # Lx = (2, 0) lies outside the box; the old random probes read +inf here
    p = ProblemSpec(Quadratic(np.eye(2), np.zeros(2)),
                    IndicatorBox([-1.0, -1.0], [1.0, 1.0]), LinearMap.identity(2))
    x, v = np.array([2.0, 0.0]), np.array([-2.0, 0.0])
    assert primal_value(p, x) == np.inf
    assert 0.0 < kkt_residual(p, x, v) < np.inf
    # f's term is ||x + L*v|| = 0, g's is ||x - clip(x + v)|| = ||x||
    assert kkt_residual(p, x, v) == 2.0
    # the rng is accepted and unused
    assert kkt_residual(p, x, v, rng=object()) == kkt_residual(p, x, v)


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


@pytest.mark.parametrize("shape", [(4, 4), (6, 3), (3, 6)], ids=["square", "tall", "wide"])
def test_hypothesis_check_builds_no_adjoint(rng, monkeypatch, shape):
    # theta* is sigma_min of L' (numpy's SVD of L's matrix, transposed) when
    # L' is not wide, read from L's own singular values with no map built:
    # a square map's is its theta, bit for bit, and a wide map's is that SVD's
    m, n = shape
    if m >= n:
        maps = [LinearMap.dense(tall_full_rank(m, n, rng)), LinearMap.identity(n),
                LinearMap.scaled_identity(n, -0.5)]
    else:  # ProblemSpec refuses a wide L: an object with only .L reaches it
        Lm = tall_full_rank(n, m, rng).T
        maps = [LinearMap.dense(Lm), LinearMap.dense(np.vstack([Lm[:2], Lm[:1]]))]
    assert not hasattr(LinearMap, "adjoint")
    inits = counted(monkeypatch, LinearMap, "__init__")
    for L in maps:
        sv = np.linalg.svd(L.as_matrix().T, compute_uv=False)
        theta, theta_star = hypothesis_check(SimpleNamespace(L=L))
        if L.shape[0] > L.shape[1]:
            want = 0.0  # a tall L's adjoint is wide
        elif L.shape[0] == L.shape[1]:
            want = theta
            assert theta_star == pytest.approx(sv[-1], rel=1e-12)
        else:
            want = sv[-1] if sv[-1] >= SINGULAR_TOL else 0.0
        assert theta_star.hex() == want.hex()
    if m < n:  # the last wide map has rank 2: its sigma_min is below the tolerance
        assert theta_star == 0.0 < sv[-1]
    assert inits == []


def test_duality_report_on_solver_output(rng):
    p = quad_pair(3, rng)
    params = default_params(0.2)
    trace = run_iadmm(p, params, tol=1e-12)
    rep = duality_report(p, trace.final["x"], trace.final["v"])
    assert rep.gap == pytest.approx(0.0, abs=1e-8)
    assert rep.kkt_residual <= 1e-8
    assert rep.h_theta == 1.0
    assert "primal" in str(rep) and "theta" in str(rep)
