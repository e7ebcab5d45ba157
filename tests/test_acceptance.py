"""Acceptance suite: one test per advertised guarantee at its pinned
tolerance.  A terminal-summary hook in conftest.py prints one PASS/FAIL
line per criterion after the run."""

import io
import time

import numpy as np
import pytest

from inadmm import (
    ConsensusProblem,
    InertialParams,
    L1Norm,
    LinearMap,
    ProblemSpec,
    Quadratic,
    ResolventOp,
    Translated,
    boyd_consensus,
    classical_admm,
    constant_schedule,
    default_params,
    delta_lower_bound,
    delta_roots,
    kkt_residual,
    max_relaxation,
    run_iadmm,
    run_idr,
    run_sum1,
    run_sum2,
    InfeasibleParameters,
)
from inadmm.cli import EXIT_INPUT, EXIT_OK, main as cli_main

from conftest import catalog, random_composite, run_sum1_simplified, tall_full_rank


ACCEPTANCE_CRITERIA = {}


def criterion(label):
    def deco(fn):
        ACCEPTANCE_CRITERIA[fn.__name__] = label
        return fn
    return deco


# -- 1: the inertial ADMM recombines into the inertial DR trajectory ---------

@criterion("ADMM iterates match the Douglas-Rachford recursion (<= 1e-9)")
def test_dr_equivalence(rng):
    start = time.monotonic()
    worst = 0.0
    for _ in range(20):
        f, g, L = random_composite(rng)
        p = ProblemSpec(f, g, L)
        alpha = float(rng.uniform(0.05, 0.5))
        gamma = float(rng.uniform(0.5, 2.0))
        params = default_params(alpha, gamma=gamma)

        admm = run_iadmm(p, params, max_iters=200, tol=0.0)
        A = ResolventOp.composed_conjugate(f, L)
        B = ResolventOp.conjugate_subdifferential(g)
        zeros = np.zeros(g.dim)
        dr = run_idr(A, B, gamma, params, zeros, zeros, max_iters=200, tol=0.0)

        # the correspondence holds from the second iteration on; exact
        # zero residuals may stop a run before the full budget
        for k in range(1, min(len(admm.rows), len(dr.rows))):
            ra, rd = admm.rows[k], dr.rows[k]
            for key in ("y", "v", "w"):
                dev = float(np.abs(ra.vectors[key] - rd.vectors[key]).max())
                worst = max(worst, dev)
    assert worst <= 1e-9, "worst deviation %g" % worst
    assert time.monotonic() - start <= 10.0


# -- 2: inertia off reduces to classical / relaxed ADMM ----------------------

@criterion("alpha = 0 reduces to classical and relaxed ADMM (<= 1e-12)")
def test_classical_reduction(rng):
    for lam in (1.0, 1.5):
        params = InertialParams(
            gamma=1.0, alpha=0.0, sigma=0.01, delta=1.0, lambda_lo=1e-6,
            alpha_schedule=constant_schedule(0.0),
            lambda_schedule=constant_schedule(lam),
            init_mode="alpha2_zero",
        )
        for _ in range(10):
            f, g, L = random_composite(rng)
            p = ProblemSpec(f, g, L)
            inert = run_iadmm(p, params, max_iters=500, tol=0.0)
            classic = classical_admm(p, 1.0, lam=lam, max_iters=500, tol=0.0)
            for a, b in zip(inert.rows, classic.rows):
                for key in ("x_next", "z_next", "y_next"):
                    dev = float(np.abs(a.vectors[key] - b.vectors[key]).max())
                    assert dev <= 1e-12, "lam=%g k=%d %s dev %g" % (
                        lam, a.k, key, dev)


# -- 3: lasso solve with full certificate set --------------------------------

def _ista_oracle(D, b, tau, tol=1e-13, max_iters=2000000):
    """Independent proximal-gradient solve of 0.5||Dx-b||^2 + tau||x||_1."""
    Q = D.T @ D
    c = D.T @ b
    t = 1.0 / np.linalg.eigvalsh(Q)[-1]
    x = np.zeros(D.shape[1])
    for _ in range(max_iters):
        grad = Q @ x - c
        step = x - t * grad
        x_new = np.sign(step) * np.maximum(np.abs(step) - t * tau, 0.0)
        if np.abs(x_new - x).max() <= tol * t:
            return x_new
        x = x_new
    raise AssertionError("oracle failed to converge")


@criterion("lasso run: solution, values, residuals, summability certificate")
def test_lasso_certificates(rng):
    n, rows_count, tau = 10, 30, 0.5
    D = tall_full_rank(rows_count, n, rng)
    b = rng.standard_normal(rows_count)
    x_star = _ista_oracle(D, b, tau)
    v_opt = 0.5 * float(np.linalg.norm(D @ x_star - b) ** 2) \
        + tau * float(np.abs(x_star).sum())

    f = Quadratic(D.T @ D, -D.T @ b, 0.5 * float(b @ b))
    g = L1Norm(n, tau)
    p = ProblemSpec(f, g, LinearMap.identity(n))
    params = default_params(0.2)
    trace = run_iadmm(p, params, max_iters=50000, tol=1e-10)

    assert trace.converged and trace.iterations <= 50000
    assert np.abs(trace.final["x"] - x_star).max() <= 1e-6

    last = trace.rows[-1]
    assert abs(last.primal - v_opt) <= 1e-8
    assert abs(last.dual - v_opt) <= 1e-8
    assert last.feas_residual < 1e-8
    assert last.zbar_norm < 1e-8
    assert last.dw_norm < 1e-8

    # summability: the tail of sum ||w^{k+1} - w^k||^2 is negligible
    sums = trace.column("dw_sq_sum")
    tail = float(sums[-1] - sums[3 * len(sums) // 4])
    assert tail < 1e-10


# -- 4: admissible parameter region ------------------------------------------

@criterion("parameter region: feasible caps in (0,2), infeasible rejected, "
           "delta roots round-trip (<= 1e-12)")
def test_parameter_region(rng):
    for _ in range(10000):
        alpha = float(rng.uniform(0.0, 0.99))
        sigma = float(rng.uniform(1e-4, 0.5))
        lb = delta_lower_bound(alpha, sigma)
        delta = (lb + float(rng.uniform(1e-6, 3.0))) * float(rng.uniform(1, 3))
        lam = max_relaxation(alpha, sigma, delta)
        assert 0.0 < lam < 2.0

    for _ in range(1000):
        alpha = float(rng.uniform(0.01, 0.99))
        sigma = float(rng.uniform(1e-4, 0.5))
        delta = delta_lower_bound(alpha, sigma) * float(rng.uniform(0.0, 1.0))
        with pytest.raises(InfeasibleParameters):
            max_relaxation(alpha, sigma, delta)

    hits = 0
    while hits < 1000:
        alpha = float(rng.uniform(0.01, 0.7))
        sigma = float(rng.uniform(1e-3, 0.3))
        target = float(rng.uniform(0.05, 0.95))
        try:
            d1, d2 = delta_roots(target, alpha, sigma)
        except InfeasibleParameters:
            continue
        for d in (d1, d2):
            got = max_relaxation(alpha, sigma, d)
            assert abs(got - 2.0 * target) <= 1e-12 * max(1.0, 2.0 * target)
        hits += 1


# -- 5: proximal calculus certificates ---------------------------------------

@criterion("prox calculus: Moreau (1e-12), firm nonexpansiveness, "
           "optimality certificates (1e-10) on 1e3 points")
def test_prox_calculus(rng):
    n = 4
    fns = catalog(n, rng)
    per_fn = 1000 // len(fns) + 1
    for f in fns:
        for _ in range(per_fn):
            gamma = float(rng.uniform(0.2, 5.0))
            x = 3.0 * rng.standard_normal(n)
            y = 3.0 * rng.standard_normal(n)

            # Moreau decomposition via the independent conjugate-prox route
            moreau = f.prox(gamma, x) \
                + gamma * f.conj_prox(1.0 / gamma, x / gamma)
            assert np.linalg.norm(moreau - x) <= 1e-12 * (1 + np.linalg.norm(x))

            # firm nonexpansiveness
            px, py = f.prox(gamma, x), f.prox(gamma, y)
            assert np.linalg.norm(px - py) ** 2 <= (x - y) @ (px - py) + 1e-12

            # optimality: (x - p)/gamma is a subgradient at p
            p = px
            fp = f(p)
            assert np.isfinite(fp)
            sub = (x - p) / gamma
            for _ in range(5):
                z = p + rng.standard_normal(n)
                fz = f(z)
                if np.isinf(fz):
                    continue
                assert fz >= fp + sub @ (z - p) - 1e-10


# -- 6: consensus scheme family ----------------------------------------------

@criterion("consensus: textbook reduction (1e-12), mean (1e-8), median (1e-4), "
           "zero dual sum (1e-12), simplified and lifted twins (1e-12)")
def test_consensus_suite(rng):
    # textbook reduction at alpha = 0, lambda = 1
    blocks = [Quadratic(np.eye(2) * float(rng.uniform(0.5, 2.0)),
                        rng.standard_normal(2)) for _ in range(3)]
    cp = ConsensusProblem(blocks)
    red_params = InertialParams(
        gamma=0.8, alpha=0.0, sigma=0.01, delta=1.0, lambda_lo=1e-6,
        alpha_schedule=constant_schedule(0.0),
        lambda_schedule=constant_schedule(1.0),
        init_mode="alpha2_zero",
    )
    inert = run_sum1(cp, red_params, max_iters=60, tol=0.0)
    boyd = boyd_consensus(cp, 0.8, max_iters=60, tol=0.0)
    for a, b in zip(inert.rows, boyd.rows):
        assert np.abs(a.vectors["x"] - b.vectors["x"]).max() <= 1e-12
        assert np.abs(a.vectors["y"] - b.vectors["y"]).max() <= 1e-12

    # mean consensus for m in {2, 5, 10}
    params = default_params(0.2)
    for m in (2, 5, 10):
        n = 3
        anchors = rng.standard_normal((m, n))
        mean_cp = ConsensusProblem(
            [Quadratic(np.eye(n), -anchors[i]) for i in range(m)])
        for runner in (run_sum1, run_sum2):
            tr = runner(mean_cp, params, tol=1e-12)
            assert tr.converged
            assert np.abs(tr.final["x"] - anchors.mean(axis=0)).max() <= 1e-8

    # coordinatewise median through l1 blocks
    anchors = rng.standard_normal((5, 2))
    med_cp = ConsensusProblem(
        [Translated(L1Norm(2, 1.0), anchors[i]) for i in range(5)])
    tr = run_sum1(med_cp, params, tol=1e-10, max_iters=200000)
    assert np.abs(tr.final["x"] - np.median(anchors, axis=0)).max() <= 1e-4

    # zero dual-sum invariant along an inertial run
    tr = run_sum1(cp, params, max_iters=80, tol=0.0)
    for row in tr.rows:
        assert np.abs(row.vectors["y"].sum(axis=0)).max() <= 1e-12

    # relaxation-1 simplified twin
    simp_params = InertialParams(
        gamma=1.0, alpha=0.2, sigma=0.01, delta=1.675, lambda_lo=1e-6,
        alpha_schedule=constant_schedule(0.2),
        lambda_schedule=constant_schedule(1.0),
        init_mode="alpha2_zero",
    )
    full = run_sum1(cp, simp_params, max_iters=50, tol=0.0)
    simp = run_sum1_simplified(cp, simp_params, max_iters=50)
    for a, b in zip(full.rows, simp.rows):
        for key in ("x", "z", "y"):
            assert np.abs(a.vectors[key] - b.vectors[key]).max() <= 1e-12

    # product-space lift runs the same trajectory
    blockwise = run_sum1(cp, params, max_iters=40, tol=0.0)
    lifted = run_iadmm(cp.lifts[0], params, max_iters=40, tol=0.0)
    for a, b in zip(blockwise.rows, lifted.rows):
        assert np.abs(a.vectors["x"].ravel()
                      - b.vectors["x_next"]).max() <= 1e-12
        assert np.abs(a.vectors["z"].ravel()
                      - b.vectors["z_next"]).max() <= 1e-12
        assert np.abs(a.vectors["y"].ravel()
                      - b.vectors["y_next"]).max() <= 1e-12


# -- 7: strongly convex regime drives the multiplier increments to zero ------

@criterion("strongly convex regime: ||y^{k+1} - y^k|| -> 0 (< 1e-10) with "
           "first-order residual of the limit <= 1e-8")
def test_strong_convergence(rng):
    n = 4
    f = Quadratic(np.diag(rng.uniform(0.5, 3.0, n)), rng.standard_normal(n))
    g = Quadratic(np.diag(rng.uniform(0.5, 3.0, n)), rng.standard_normal(n))
    p = ProblemSpec(f, g, LinearMap.identity(n))
    params = default_params(0.3)
    trace = run_iadmm(p, params, max_iters=50000, tol=1e-12)
    assert trace.converged

    dys = [float(np.linalg.norm(r.vectors["y_next"] - r.vectors["y"]))
           for r in trace.rows]
    assert dys[-1] < 1e-10
    # the sequence genuinely decays rather than starting small
    assert max(dys[:10]) > dys[-1]

    assert kkt_residual(p, trace.final["x"], trace.final["v"],
                        rng=rng) <= 1e-8


# -- 8: deterministic CLI with documented failure diagnostics ----------------

BASE_CONFIG = """
solver iadmm
gamma 1.0
alpha 0.2
tol 1e-11

begin f
kind quadratic
Q 2 0 0 1
q -1 0.5
end

begin g
kind l1
dim 2
tau 0.3
end

begin L
kind identity
dim 2
end
"""

PARSE_FIXTURES = (
    # (config text, diagnostic fragment)
    ("solver iadmm\ngama 1.0\n", "unknown key 'gama'"),
    (BASE_CONFIG.replace("gamma 1.0", "gamma one"), "malformed numeral"),
    (BASE_CONFIG.replace("alpha 0.2", "alpha 0.5\nlambda 1.9"),
     "lambda must lie in"),
)


@criterion("CLI: byte-identical reruns, exit codes, parse diagnostics")
def test_cli_contract(rng, tmp_path, capsys):
    cfg = tmp_path / "problem.cfg"
    cfg.write_text(BASE_CONFIG)

    def run(argv):
        out = io.StringIO()
        code = cli_main(argv, out=out)
        return code, out.getvalue()

    csv1, csv2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    code1, out1 = run([str(cfg), "--output", csv1])
    code2, out2 = run([str(cfg), "--output", csv2])
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert open(csv1).read() == open(csv2).read()

    for text, fragment in PARSE_FIXTURES:
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        capsys.readouterr()
        code, _ = run([str(bad)])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT, fragment
        assert fragment in err, err
