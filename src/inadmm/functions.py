"""Catalog of proper closed convex functions with exact prox and conjugate.

Every function here evaluates its value (possibly +inf), its proximal map,
its conjugate value, and the prox of its conjugate (via the Moreau
decomposition).  The catalog is closed: solvers only ever see these kinds,
so all the identities used by the solvers hold in closed form.
"""

import math

import numpy as np

from .linalg import check_vector

__all__ = [
    "ConvexFn",
    "Zero",
    "Quadratic",
    "L1Norm",
    "L2Norm",
    "IndicatorPoint",
    "IndicatorBox",
    "IndicatorHyperplane",
    "Translated",
    "SeparableSum",
    "IndicatorConsensus",
]

INF = math.inf

# Relative tolerance for membership tests of indicator-function domains.
# Iterates produced by the solvers satisfy the defining inclusions only up
# to rounding, and conjugate values along a dual trace must stay finite.
DOM_TOL = 1e-9


def sum_or_inf(values):
    """Sum of block values in order, +inf as soon as one is infinite."""
    total = 0.0
    for v in values:
        if math.isinf(v):
            return INF
        total += v
    return total


class ConvexFn:
    """Base class: a proper closed convex function on R^dim."""

    kind = "abstract"

    def __init__(self, dim):
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")

    def __call__(self, x):
        raise NotImplementedError

    def prox(self, gamma, x):
        """Unique minimizer of f(y) + ||y - x||^2 / (2 gamma)."""
        raise NotImplementedError

    def conj(self, u):
        """Conjugate value f*(u) = sup_x { <u, x> - f(x) }."""
        raise NotImplementedError

    def conj_prox(self, gamma, x):
        """prox of gamma * f*, via Moreau: x - gamma * prox_{f/gamma}(x/gamma)."""
        x = check_vector(x, self.dim)
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        return x - gamma * self.prox(1.0 / gamma, x / gamma)

    def _check(self, x):
        return check_vector(x, self.dim)


class Zero(ConvexFn):
    """The zero function; its conjugate is the indicator of the origin."""

    kind = "zero"

    def __call__(self, x):
        self._check(x)
        return 0.0

    def prox(self, gamma, x):
        return self._check(x).copy()

    def conj(self, u):
        u = self._check(u)
        if np.linalg.norm(u) <= DOM_TOL:
            return 0.0
        return INF


class Quadratic(ConvexFn):
    """f(x) = x'Qx/2 + q'x + r with Q symmetric positive semidefinite."""

    kind = "quadratic"

    def __init__(self, Q, q, r=0.0):
        Q = np.array(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be square")
        if not np.allclose(Q, Q.T, atol=1e-12):
            raise ValueError("Q must be symmetric")
        super().__init__(Q.shape[0])
        q = check_vector(q, self.dim, name="q")
        scale = 1.0 + float(np.abs(Q).max(initial=0.0))
        evals, evecs = np.linalg.eigh(Q)
        if evals.min(initial=0.0) < -1e-12 * scale:
            raise ValueError("Q must be positive semidefinite")
        self.Q = Q
        self.q = q
        self.r = float(r)
        self._evals = np.maximum(evals, 0.0)
        self._evecs = evecs
        self._rank_tol = 1e-12 * scale
        self._prox_cache = {}

    def __call__(self, x):
        x = self._check(x)
        return 0.5 * x @ self.Q @ x + self.q @ x + self.r

    def prox(self, gamma, x):
        x = self._check(x)
        try:
            solve = self._prox_cache[gamma]
        except KeyError:
            import scipy.linalg

            fct = scipy.linalg.cho_factor(np.eye(self.dim) + gamma * self.Q)
            solve = lambda rhs: scipy.linalg.cho_solve(fct, rhs)
            self._prox_cache[gamma] = solve
        return solve(x - gamma * self.q)

    def conj(self, u):
        # f*(u) = (u-q)' Q^+ (u-q) / 2 - r when u - q lies in range(Q).
        u = self._check(u)
        w = self._evecs.T @ (u - self.q)
        small = self._evals <= self._rank_tol
        if np.any(np.abs(w[small]) > DOM_TOL * (1.0 + np.linalg.norm(u - self.q))):
            return INF
        good = ~small
        val = 0.5 * float(np.sum(w[good] ** 2 / self._evals[good]))
        return val - self.r

    def gradient(self, x):
        x = self._check(x)
        return self.Q @ x + self.q


class L1Norm(ConvexFn):
    """f(x) = tau * ||x||_1; conjugate is the indicator of [-tau, tau]^n."""

    kind = "l1"

    def __init__(self, dim, tau):
        super().__init__(dim)
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.tau = float(tau)

    def __call__(self, x):
        x = self._check(x)
        return self.tau * float(np.abs(x).sum())

    def prox(self, gamma, x):
        x = self._check(x)
        t = gamma * self.tau
        return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)

    def conj(self, u):
        u = self._check(u)
        if np.abs(u).max() <= self.tau * (1.0 + DOM_TOL) + 1e-15:
            return 0.0
        return INF


class L2Norm(ConvexFn):
    """f(x) = tau * ||x||_2; conjugate is the indicator of the tau-ball."""

    kind = "l2norm"

    def __init__(self, dim, tau):
        super().__init__(dim)
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.tau = float(tau)

    def __call__(self, x):
        x = self._check(x)
        return self.tau * float(np.linalg.norm(x))

    def prox(self, gamma, x):
        x = self._check(x)
        nrm = np.linalg.norm(x)
        t = gamma * self.tau
        if nrm <= t:
            return np.zeros_like(x)
        return (1.0 - t / nrm) * x

    def conj(self, u):
        u = self._check(u)
        if np.linalg.norm(u) <= self.tau * (1.0 + DOM_TOL) + 1e-15:
            return 0.0
        return INF


class IndicatorPoint(ConvexFn):
    """Indicator of the single point {a}; prox is constant, conjugate linear."""

    kind = "indicator_point"

    def __init__(self, a):
        a = check_vector(a, None, name="a")
        super().__init__(a.shape[0])
        self.a = a

    def __call__(self, x):
        x = self._check(x)
        if np.linalg.norm(x - self.a) <= DOM_TOL * (1.0 + np.linalg.norm(self.a)):
            return 0.0
        return INF

    def prox(self, gamma, x):
        self._check(x)
        return self.a.copy()

    def conj(self, u):
        u = self._check(u)
        return float(self.a @ u)


class IndicatorBox(ConvexFn):
    """Indicator of the box [lo, hi]; prox is the componentwise clip."""

    kind = "indicator_box"

    def __init__(self, lo, hi):
        lo = check_vector(lo, None, name="lo")
        hi = check_vector(hi, lo.shape[0], name="hi")
        if np.any(lo > hi):
            raise ValueError("box requires lo <= hi componentwise")
        super().__init__(lo.shape[0])
        self.lo = lo
        self.hi = hi

    def __call__(self, x):
        x = self._check(x)
        slack = DOM_TOL * (1.0 + np.abs(x).max())
        if np.all(x >= self.lo - slack) and np.all(x <= self.hi + slack):
            return 0.0
        return INF

    def prox(self, gamma, x):
        x = self._check(x)
        return np.clip(x, self.lo, self.hi)

    def conj(self, u):
        # support function of the box
        u = self._check(u)
        return float(np.sum(np.where(u >= 0.0, self.hi * u, self.lo * u)))


class IndicatorHyperplane(ConvexFn):
    """Indicator of {x : <a, x> = b} with a != 0; prox is the projection."""

    kind = "indicator_hyperplane"

    def __init__(self, a, b):
        a = check_vector(a, None, name="a")
        if np.linalg.norm(a) == 0.0:
            raise ValueError("hyperplane normal must be nonzero")
        super().__init__(a.shape[0])
        self.a = a
        self.b = float(b)
        self._aa = float(a @ a)

    def __call__(self, x):
        x = self._check(x)
        resid = abs(self.a @ x - self.b)
        if resid <= DOM_TOL * (1.0 + abs(self.b) + np.linalg.norm(x)):
            return 0.0
        return INF

    def prox(self, gamma, x):
        x = self._check(x)
        return x - ((self.a @ x - self.b) / self._aa) * self.a

    def conj(self, u):
        # finite only on the span of a: u = t a gives t b
        u = self._check(u)
        t = float(u @ self.a) / self._aa
        if np.linalg.norm(u - t * self.a) <= DOM_TOL * (1.0 + np.linalg.norm(u)):
            return t * self.b
        return INF


class Translated(ConvexFn):
    """h(x) = base(x - shift); prox and conjugate follow by translation."""

    kind = "translated"

    def __init__(self, base, shift):
        shift = check_vector(shift, base.dim, name="shift")
        super().__init__(base.dim)
        self.base = base
        self.shift = shift

    def __call__(self, x):
        x = self._check(x)
        return self.base(x - self.shift)

    def prox(self, gamma, x):
        x = self._check(x)
        return self.shift + self.base.prox(gamma, x - self.shift)

    def conj(self, u):
        u = self._check(u)
        base_val = self.base.conj(u)
        if base_val == INF:
            return INF
        return base_val + float(self.shift @ u)


class SeparableSum(ConvexFn):
    """f(x_1,...,x_m) = sum_i f_i(x_i) on the stacked space."""

    kind = "separable_sum"

    def __init__(self, blocks):
        blocks = list(blocks)
        if not blocks:
            raise ValueError("need at least one block")
        super().__init__(sum(f.dim for f in blocks))
        self.blocks = blocks
        self._offsets = np.cumsum([0] + [f.dim for f in blocks])

    def _split(self, x):
        return [
            x[self._offsets[i] : self._offsets[i + 1]]
            for i in range(len(self.blocks))
        ]

    def __call__(self, x):
        x = self._check(x)
        return sum_or_inf(f(xi) for f, xi in zip(self.blocks, self._split(x)))

    def prox(self, gamma, x):
        x = self._check(x)
        return np.concatenate(
            [f.prox(gamma, xi) for f, xi in zip(self.blocks, self._split(x))]
        )

    def conj(self, u):
        u = self._check(u)
        return sum_or_inf(f.conj(ui) for f, ui in zip(self.blocks, self._split(u)))


class IndicatorConsensus(ConvexFn):
    """Indicator of the diagonal subspace {(x,...,x)} in (R^n)^m.

    The prox is the blockwise mean (orthogonal projection onto a linear
    subspace); the conjugate is the indicator of the orthogonal complement,
    the blocks summing to zero.
    """

    kind = "indicator_consensus"

    def __init__(self, m, n):
        if m < 2:
            raise ValueError("need at least two blocks")
        super().__init__(m * n)
        self.m = int(m)
        self.n = int(n)

    def _blocks(self, x):
        return x.reshape(self.m, self.n)

    def __call__(self, x):
        x = self._check(x)
        blocks = self._blocks(x)
        mean = blocks.mean(axis=0)
        if np.abs(blocks - mean).max() <= DOM_TOL * (1.0 + np.abs(x).max()):
            return 0.0
        return INF

    def prox(self, gamma, x):
        x = self._check(x)
        mean = self._blocks(x).mean(axis=0)
        return np.tile(mean, self.m)

    def conj(self, u):
        u = self._check(u)
        s = self._blocks(u).sum(axis=0)
        if np.linalg.norm(s) <= DOM_TOL * (1.0 + np.abs(u).max()):
            return 0.0
        return INF
