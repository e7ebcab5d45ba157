"""Plain-numpy references and floors, written apart from the program.

Nothing here imports ``inadmm``.  The references compute the answers that
the workloads check the program against.  The floors are plain,
non-inertial ADMM solves of the same problems: ``iterations_to`` counts,
once at set-up, the iterations a floor needs to reach a tolerance, and its
``run`` then always performs a given number of iterations, so floor time
depends on the machine and the inputs and never on the program.
"""

import numpy as np


def soft(x, t):
    """Soft thresholding, the prox of t * ||.||_1."""
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def fista_l1(M, p, tau, tol=1e-13, max_iters=500000):
    """Minimize x'Mx/2 + p'x + tau ||x||_1 for symmetric positive definite M.

    FISTA with gradient-based restart.  Stops when the prox-gradient
    residual ||x - prox(x - t grad)|| / t falls below ``tol`` relative to
    1 + ||x||, which for a strongly convex objective bounds the distance
    to the minimizer by that residual over the smallest eigenvalue of M.
    """
    M = np.asarray(M, dtype=float)
    p = np.asarray(p, dtype=float)
    t = 1.0 / np.linalg.eigvalsh(M)[-1]
    x = np.zeros_like(p)
    yv = x.copy()
    theta = 1.0
    for _ in range(max_iters):
        x_new = soft(yv - t * (M @ yv + p), t * tau)
        resid = np.linalg.norm(x_new - soft(x_new - t * (M @ x_new + p), t * tau)) / t
        if resid <= tol * (1.0 + np.linalg.norm(x_new)):
            return x_new
        if (yv - x_new) @ (x_new - x) > 0.0:
            theta = 1.0  # restart when momentum points uphill
        theta_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
        yv = x_new + ((theta - 1.0) / theta_new) * (x_new - x)
        x, theta = x_new, theta_new
    raise RuntimeError("reference FISTA did not reach tol=%g" % tol)


def lasso_value(M, p, tau, x):
    """x'Mx/2 + p'x + tau ||x||_1."""
    return 0.5 * x @ M @ x + p @ x + tau * np.abs(x).sum()


def iterations_to(floor, tol, cap=100000):
    """Iterations the floor's ``run(iters, tol)`` needs to reach ``tol``."""
    k, _ = floor.run(cap, tol)
    if k == cap:
        raise RuntimeError("floor ADMM did not reach tol=%g" % tol)
    return k


class AdmmFloor:
    """Plain ADMM for min x'Qx/2 + q'x + tau ||Lx||_1 (L = I when None).

    The x-update multiplies by a precomputed inverse of Q + gamma L'L, so
    one iteration is two or three matrix-vector products and a few
    elementwise operations.  The stopping rule of ``run`` with a ``tol`` is
    max(||Lx - z||, gamma ||z - z_prev||) <= tol.
    """

    def __init__(self, Q, q, tau, gamma, L=None):
        LtL = np.eye(q.shape[0]) if L is None else L.T @ L
        self.M = np.linalg.inv(Q + gamma * LtL)
        self.L = L
        self.Lt = None if L is None else np.ascontiguousarray(L.T)
        self.q = q
        self.tau = tau
        self.gamma = gamma
        self.m = q.shape[0] if L is None else L.shape[0]

    def run(self, iters, tol=None):
        """(iterations done, last x); stops early only when ``tol`` is met."""
        gamma, q, M = self.gamma, self.q, self.M
        thresh = self.tau / gamma
        z = np.zeros(self.m)
        y = np.zeros(self.m)
        x = None
        for k in range(1, iters + 1):
            if self.L is None:
                x = M @ (gamma * z - y - q)
                Lx = x
            else:
                x = M @ (self.Lt @ (gamma * z - y) - q)
                Lx = self.L @ x
            z_new = soft(Lx + y / gamma, thresh)
            y = y + gamma * (Lx - z_new)
            if tol is not None and max(np.linalg.norm(Lx - z_new),
                                       gamma * np.linalg.norm(z_new - z)) <= tol:
                return k, x
            z = z_new
        return iters, x


class ConsensusFloor:
    """Plain consensus ADMM for min sum_i |x - s_i|, vectorized over blocks.

    The stopping rule of ``run`` with a ``tol`` is
    max(||x - xbar||, gamma sqrt(m) ||xbar - xbar_prev||) <= tol.
    """

    def __init__(self, shifts, gamma):
        self.S = np.asarray(shifts, dtype=float)
        self.gamma = gamma

    def run(self, iters, tol=None):
        S, gamma = self.S, self.gamma
        y = np.zeros_like(S)
        xbar = np.zeros(S.shape[1])
        dual_scale = gamma * np.sqrt(S.shape[0])
        for k in range(1, iters + 1):
            x = S + soft(xbar[None, :] - y / gamma - S, 1.0 / gamma)
            xbar_new = x.mean(axis=0)
            y = y + gamma * (x - xbar_new[None, :])
            if tol is not None and max(
                    np.linalg.norm(x - xbar_new[None, :]),
                    dual_scale * np.linalg.norm(xbar_new - xbar)) <= tol:
                return k, xbar_new
            xbar = xbar_new
        return iters, xbar


class SetupFloor:
    """Fixed plain-numpy work that times the machine beside a set-up.

    A set-up does two kinds of work: Python-level calls on small arrays
    (imports, object construction, first iterations) and dense LAPACK
    factorizations.  ``run`` does a fixed amount of each: 400 iterations of
    the consensus floor on 101 blocks of R^3, then four eigendecompositions
    of a 300 x 300 symmetric matrix.  Its inputs never change, so its time
    depends only on the machine.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.admm = ConsensusFloor(rng.standard_normal((101, 3)), 5.0)
        G = rng.standard_normal((300, 300))
        self.A = G @ G.T + 300.0 * np.eye(300)
        self.run()  # first use, so that every timed run does the same work

    def run(self):
        self.admm.run(400)
        for _ in range(4):
            np.linalg.eigh(self.A)
