import numpy as np
import pytest

from inadmm import (
    ConsensusProblem,
    InertialParams,
    L1Norm,
    Quadratic,
    Translated,
    boyd_consensus,
    consensus_optimality_residual,
    constant_schedule,
    default_params,
    lift_problem,
    run_iadmm,
    run_sum1,
    run_sum2,
)

from conftest import run_sum1_simplified


def quadratic_blocks(m, n, rng):
    return [
        Quadratic(np.eye(n) * float(rng.uniform(0.5, 3.0)),
                  rng.standard_normal(n))
        for _ in range(m)
    ]


def quadratic_consensus_optimum(blocks):
    n = blocks[0].dim
    H = sum(f.Q for f in blocks)
    rhs = -sum(f.q for f in blocks)
    return np.linalg.solve(H, rhs)


def lambda_one_params(alpha, gamma=1.0):
    # delta chosen so the relaxation cap exceeds 1 (needs alpha <= 0.2)
    return InertialParams(
        gamma=gamma, alpha=alpha, sigma=0.01,
        delta=1.675 if alpha > 0.0 else 1.0, lambda_lo=1e-6,
        alpha_schedule=constant_schedule(alpha),
        lambda_schedule=constant_schedule(1.0),
        init_mode="alpha2_zero",
    )


def test_consensus_problem_validation(rng):
    with pytest.raises(ValueError):
        ConsensusProblem([L1Norm(2, 1.0)])
    with pytest.raises(ValueError):
        ConsensusProblem([L1Norm(2, 1.0), L1Norm(3, 1.0)])


def test_boyd_consensus_matches_hand_loop(rng):
    cp = ConsensusProblem(quadratic_blocks(3, 2, rng))
    gamma = 0.8
    # independent textbook loop
    y = np.zeros((3, 2))
    xbar = np.zeros(2)
    rows = []
    for _ in range(20):
        x = np.stack([f.prox(1.0 / gamma, xbar - y[i] / gamma)
                      for i, f in enumerate(cp.blocks)])
        xbar = x.mean(axis=0)
        y = y + gamma * (x - xbar[None, :])
        rows.append((x.copy(), xbar.copy(), y.copy()))
    trace = boyd_consensus(cp, gamma, max_iters=20, tol=0.0)
    for row, (x, xb, yy) in zip(trace.rows, rows):
        assert np.allclose(row.vectors["x"], x, atol=1e-14)
        assert np.allclose(row.vectors["xbar"], xb, atol=1e-14)
        assert np.allclose(row.vectors["y"], yy, atol=1e-14)


def test_sum1_reduces_to_boyd(rng):
    cp = ConsensusProblem(quadratic_blocks(3, 2, rng))
    params = lambda_one_params(0.0, gamma=0.7)
    inert = run_sum1(cp, params, max_iters=40, tol=0.0)
    boyd = boyd_consensus(cp, 0.7, max_iters=40, tol=0.0)
    for a, b in zip(inert.rows, boyd.rows):
        assert np.abs(a.vectors["x"] - b.vectors["x"]).max() <= 1e-12
        assert np.abs(a.vectors["shared"] - b.vectors["xbar"]).max() <= 1e-12
        assert np.abs(a.vectors["y"] - b.vectors["y"]).max() <= 1e-12


def test_sum1_zero_dual_sum_invariant(rng):
    cp = ConsensusProblem(quadratic_blocks(4, 3, rng))
    params = default_params(0.3, gamma=1.2)
    trace = run_sum1(cp, params, max_iters=60, tol=0.0)
    for row in trace.rows:
        assert np.abs(row.vectors["y"].sum(axis=0)).max() <= 1e-12


def test_sum1_rejects_nonzero_dual_sum(rng):
    cp = ConsensusProblem(quadratic_blocks(2, 2, rng))
    params = default_params(0.1)
    y0 = np.ones((2, 2))
    z0 = np.zeros((2, 2))
    with pytest.raises(ValueError, match="sum to zero"):
        run_sum1(cp, params, init=(y0, y0, z0, z0))


@pytest.mark.parametrize("m", [2, 5])
def test_mean_consensus(rng, m):
    # blocks 0.5 ||x - a_i||^2: minimizer is the mean of the anchors
    n = 3
    anchors = rng.standard_normal((m, n))
    blocks = [Quadratic(np.eye(n), -anchors[i]) for i in range(m)]
    cp = ConsensusProblem(blocks)
    params = default_params(0.25)
    for runner in (run_sum1, run_sum2):
        trace = runner(cp, params, tol=1e-12)
        assert trace.converged
        assert np.abs(trace.final["x"] - anchors.mean(axis=0)).max() <= 1e-8


def test_median_consensus(rng):
    # blocks |x - a_i| with odd m: minimizer is the coordinatewise median
    m, n = 5, 2
    anchors = rng.standard_normal((m, n))
    blocks = [Translated(L1Norm(n, 1.0), anchors[i]) for i in range(m)]
    cp = ConsensusProblem(blocks)
    params = default_params(0.2)
    trace = run_sum1(cp, params, tol=1e-10, max_iters=200000)
    med = np.median(anchors, axis=0)
    assert np.abs(trace.final["x"] - med).max() <= 1e-4


def test_sum1_and_sum2_same_limit(rng):
    cp = ConsensusProblem(quadratic_blocks(3, 2, rng))
    x_star = quadratic_consensus_optimum(cp.blocks)
    params = default_params(0.3)
    t1 = run_sum1(cp, params, tol=1e-12)
    t2 = run_sum2(cp, params, tol=1e-12)
    assert t1.converged and t2.converged
    assert np.abs(t1.final["x"] - x_star).max() <= 1e-9
    assert np.abs(t2.final["x"] - x_star).max() <= 1e-9


def test_simplified_scheme_matches_sum1(rng):
    cp = ConsensusProblem(quadratic_blocks(3, 2, rng))
    params = lambda_one_params(0.2, gamma=0.9)
    full = run_sum1(cp, params, max_iters=50, tol=0.0)
    simp = run_sum1_simplified(cp, params, max_iters=50)
    for a, b in zip(full.rows, simp.rows):
        assert np.abs(a.vectors["x"] - b.vectors["x"]).max() <= 1e-12
        assert np.abs(a.vectors["z"] - b.vectors["z"]).max() <= 1e-12
        assert np.abs(a.vectors["y"] - b.vectors["y"]).max() <= 1e-12


def test_simplified_scheme_guards(rng):
    cp = ConsensusProblem(quadratic_blocks(2, 2, rng))
    with pytest.raises(ValueError, match="alpha_2"):
        run_sum1_simplified(cp, default_params(0.2), max_iters=5)
    bad = InertialParams(
        gamma=1.0, alpha=0.2, sigma=0.01, delta=1.0, lambda_lo=1e-6,
        alpha_schedule=constant_schedule(0.2),
        lambda_schedule=constant_schedule(0.9),
        init_mode="alpha2_zero",
    )
    with pytest.raises(ValueError, match="lambda"):
        run_sum1_simplified(cp, bad, max_iters=5)


def test_product_space_lift_matches_sum1(rng):
    cp = ConsensusProblem(quadratic_blocks(3, 2, rng))
    m, n = cp.m, cp.n
    params = default_params(0.25, gamma=1.1)
    blockwise = run_sum1(cp, params, max_iters=40, tol=0.0)
    lifted = run_iadmm(lift_problem(cp), params, max_iters=40, tol=0.0)
    for a, b in zip(blockwise.rows, lifted.rows):
        assert np.abs(a.vectors["x"].ravel()
                      - b.vectors["x_next"]).max() <= 1e-12
        assert np.abs(a.vectors["z"].ravel()
                      - b.vectors["z_next"]).max() <= 1e-12
        assert np.abs(a.vectors["y"].ravel()
                      - b.vectors["y_next"]).max() <= 1e-12


def test_optimality_residual(rng):
    cp = ConsensusProblem(quadratic_blocks(3, 2, rng))
    params = default_params(0.2)
    trace = run_sum1(cp, params, tol=1e-12)
    x = trace.final["x"][0]
    v = trace.final["v"]
    assert consensus_optimality_residual(x, v, cp) <= 1e-8
    # a clearly non-stationary point scores badly
    assert consensus_optimality_residual(x + 5.0, v, cp) > 1e-2
