"""Catalog of proper closed convex functions with exact prox and conjugate.

Every function here evaluates its value (possibly +inf), its proximal map,
its conjugate value, and the prox of its conjugate (via the Moreau
decomposition).  The catalog is closed: solvers only ever see these kinds,
so all the identities used by the solvers hold in closed form.
"""

import functools
import math

import numpy as np

from .linalg import check_gamma, check_vector, cholesky

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


# Each public method: the unchecked kernel it runs, and how to build one
# kind's checked method from that kind's kernel k.
_KERNELS = {
    "__call__": ("_value", lambda k: lambda self, x: k(self, self._check(x))),
    "prox": ("_prox", lambda k: lambda self, gamma, x: k(self, gamma, self._check(x))),
    "conj": ("_conj", lambda k: lambda self, u: k(self, self._check(u))),
}


class ConvexFn:
    """Base class: a proper closed convex function on R^dim.

    A kind defines the unchecked kernels ``_value``, ``_prox`` and ``_conj``
    and gets public ``__call__``, ``prox`` and ``conj`` that check their
    vector, then run the kind's own kernel.  The solver loops, whose vectors
    were checked where they entered, call the kernels.  A subclass that
    overrides a public method but not its kernel has the kernel routed to
    the override, so the solver loops still run it.
    """

    kind = "abstract"

    def __init__(self, dim):
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        for public, (kernel, checked) in _KERNELS.items():
            if kernel in own and public not in own:
                method = functools.wraps(getattr(ConvexFn, public))(checked(own[kernel]))
                setattr(cls, public, method)
            elif public in own and kernel not in own:
                setattr(cls, kernel, own[public])

    def __call__(self, x):
        """Value f(x), possibly +inf."""
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
        check_gamma(gamma)
        return self._conj_prox(gamma, x)

    def _conj_prox(self, gamma, x):
        return x - gamma * self._prox(1.0 / gamma, x / gamma)

    def _check(self, x):
        return check_vector(x, self.dim)


class Zero(ConvexFn):
    """The zero function; its conjugate is the indicator of the origin."""

    kind = "zero"

    def _value(self, x):
        return 0.0

    def _prox(self, gamma, x):
        return x.copy()

    def _conj(self, u):
        if np.linalg.norm(u) <= DOM_TOL:
            return 0.0
        return INF


class Quadratic(ConvexFn):
    """f(x) = x'Qx/2 + q'x + r with Q symmetric positive semidefinite.

    ``Q`` and ``q`` are read-only copies.  The factors of I + gamma Q (prox)
    and Q + gamma L'L (x-update, resolvent) are kept, one per system, for
    the last gamma and L.  Whether Q has an eigenvalue at or below the rank
    tolerance is decided once, at construction: without one, the conjugate
    skips the domain test of range(Q), which could never fail."""

    kind = "quadratic"

    def __init__(self, Q, q, r=0.0):
        Q = np.array(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be square")
        if not np.allclose(Q, Q.T, atol=1e-12):
            raise ValueError("Q must be symmetric")
        super().__init__(Q.shape[0])
        q = check_vector(q, self.dim, name="q").copy()
        scale = 1.0 + float(np.abs(Q).max(initial=0.0))
        evals, evecs = np.linalg.eigh(Q)
        if evals.min(initial=0.0) < -1e-12 * scale:
            raise ValueError("Q must be positive semidefinite")
        Q.setflags(write=False)
        q.setflags(write=False)
        self.Q = Q
        self.q = q
        self.r = float(r)
        self._evals = np.maximum(evals, 0.0)
        self._evecs = evecs
        self._rank_tol = 1e-12 * scale
        self._full_rank = bool((self._evals > self._rank_tol).all())
        self._factors = {}  # system -> (gamma, L, solve)

    def _solver(self, gamma, L=None):
        """b -> M^{-1} b for M = I + gamma Q, or M = Q + gamma L'L given L."""
        system = "prox" if L is None else "normal"
        entry = self._factors.get(system)
        if entry is None or entry[0] != gamma or entry[1] is not L:
            if L is None:
                M = np.eye(self.dim) + gamma * self.Q
            else:
                Lm = L.as_matrix()
                M = self.Q + gamma * (Lm.T @ Lm)
            entry = self._factors[system] = (gamma, L, cholesky(M))
        return entry[2]

    def _value(self, x):
        return 0.5 * x @ self.Q @ x + self.q @ x + self.r

    def _prox(self, gamma, x):
        return self._solver(gamma)(x - gamma * self.q)

    def _conj(self, u):
        # f*(u) = (u-q)' Q^+ (u-q) / 2 - r when u - q lies in range(Q).
        w = self._evecs.T @ (u - self.q)
        if self._full_rank:
            return 0.5 * float((w ** 2 / self._evals).sum()) - self.r
        small = self._evals <= self._rank_tol
        if np.any(np.abs(w[small]) > DOM_TOL * (1.0 + np.linalg.norm(u - self.q))):
            return INF
        good = ~small
        val = 0.5 * float(np.sum(w[good] ** 2 / self._evals[good]))
        return val - self.r


class L1Norm(ConvexFn):
    """f(x) = tau * ||x||_1; conjugate is the indicator of [-tau, tau]^n."""

    kind = "l1"

    def __init__(self, dim, tau):
        super().__init__(dim)
        if not 0.0 < tau < INF:
            raise ValueError("tau must be positive and finite")
        self.tau = float(tau)

    def _value(self, x):
        return self.tau * float(np.abs(x).sum())

    def _prox(self, gamma, x):
        t = gamma * self.tau
        return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)

    def _conj(self, u):
        if np.abs(u).max() <= self.tau * (1.0 + DOM_TOL) + 1e-15:
            return 0.0
        return INF


class L2Norm(ConvexFn):
    """f(x) = tau * ||x||_2; conjugate is the indicator of the tau-ball."""

    kind = "l2norm"

    def __init__(self, dim, tau):
        super().__init__(dim)
        if not 0.0 < tau < INF:
            raise ValueError("tau must be positive and finite")
        self.tau = float(tau)

    def _value(self, x):
        return self.tau * float(np.linalg.norm(x))

    def _prox(self, gamma, x):
        nrm = np.linalg.norm(x)
        t = gamma * self.tau
        if nrm <= t:
            return np.zeros_like(x)
        return (1.0 - t / nrm) * x

    def _conj(self, u):
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

    def _value(self, x):
        if np.linalg.norm(x - self.a) <= DOM_TOL * (1.0 + np.linalg.norm(self.a)):
            return 0.0
        return INF

    def _prox(self, gamma, x):
        return self.a.copy()

    def _conj(self, u):
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

    def _value(self, x):
        slack = DOM_TOL * (1.0 + np.abs(x).max())
        if np.all(x >= self.lo - slack) and np.all(x <= self.hi + slack):
            return 0.0
        return INF

    def _prox(self, gamma, x):
        return np.clip(x, self.lo, self.hi)

    def _conj(self, u):
        # support function of the box
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

    def _value(self, x):
        resid = abs(self.a @ x - self.b)
        if resid <= DOM_TOL * (1.0 + abs(self.b) + np.linalg.norm(x)):
            return 0.0
        return INF

    def _prox(self, gamma, x):
        return x - ((self.a @ x - self.b) / self._aa) * self.a

    def _conj(self, u):
        # finite only on the span of a: u = t a gives t b
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

    def _value(self, x):
        return self.base._value(x - self.shift)

    def _prox(self, gamma, x):
        return self.shift + self.base._prox(gamma, x - self.shift)

    def _conj(self, u):
        base_val = self.base._conj(u)
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

    def _value(self, x):
        return sum_or_inf(f._value(xi) for f, xi in zip(self.blocks, self._split(x)))

    def _prox(self, gamma, x):
        return np.concatenate(
            [f._prox(gamma, xi) for f, xi in zip(self.blocks, self._split(x))]
        )

    def _conj(self, u):
        return sum_or_inf(f._conj(ui) for f, ui in zip(self.blocks, self._split(u)))


def _rowdot(A, B):
    """Row-wise dot products, each rounded as the 1-D ``a @ b`` is."""
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


class _StackedL1:
    """k ``L1Norm`` blocks with per-row ``tau``, mirroring ``L1Norm``'s
    arithmetic on a (k, n) array so that every row comes out bit for bit."""

    def __init__(self, fns):
        self.tau = np.array([[f.tau] for f in fns])
        self.cap = self.tau[:, 0] * (1.0 + DOM_TOL) + 1e-15

    def prox(self, gamma, X):
        t = gamma * self.tau
        return np.sign(X) * np.maximum(np.abs(X) - t, 0.0)

    def values(self, X):
        return self.tau[:, 0] * np.abs(X).sum(axis=1)

    def conjs(self, U):
        return np.where(np.abs(U).max(axis=1) <= self.cap, 0.0, INF)


class _StackedTranslatedL1:
    """k ``Translated(L1Norm)`` blocks with per-row ``shift``."""

    def __init__(self, fns):
        self.base = _StackedL1([f.base for f in fns])
        self.shift = np.array([f.shift for f in fns])

    def prox(self, gamma, X):
        return self.shift + self.base.prox(gamma, X - self.shift)

    def values(self, X):
        return self.base.values(X - self.shift)

    def conjs(self, U):
        base = self.base.conjs(U)
        return np.where(base == INF, INF, base + _rowdot(self.shift, U))


class _Looped:
    """Any other kind: the blocks' own kernels, one row at a time."""

    def __init__(self, fns):
        self.fns = fns

    def prox(self, gamma, X):
        return np.stack([f._prox(gamma, x) for f, x in zip(self.fns, X)])

    def values(self, X):
        return np.array([f._value(x) for f, x in zip(self.fns, X)], dtype=float)

    def conjs(self, U):
        return np.array([f._conj(u) for f, u in zip(self.fns, U)], dtype=float)


def _group(f):
    # exact types only: a subclass may override the arithmetic
    if type(f) is L1Norm:
        return _StackedL1
    if type(f) is Translated and type(f.base) is L1Norm:
        return _StackedTranslatedL1
    return _Looped


class StackedBlocks:
    """Blocks f_1..f_m on R^n evaluated together on an (m, n) array.

    Row i of the array belongs to block i.  The ``L1Norm`` blocks form one
    group and the ``Translated(L1Norm)`` blocks another, each evaluated by
    a single numpy expression over its rows with the blocks' parameters
    stacked into arrays; they stay separate because adding a zero shift
    would turn -0.0 into 0.0.  Every other block keeps its own per-block
    calls.  Every row of ``prox`` is bit for bit the block's ``prox`` of
    that row, and ``value``/``conj`` add the block values with
    ``sum_or_inf``.  The stacked groups copy the blocks' parameters at
    construction; a block changed afterwards is not seen.
    """

    def __init__(self, blocks):
        self.blocks = tuple(blocks)
        if not self.blocks:
            raise ValueError("need at least one block")
        self.n = self.blocks[0].dim
        if any(f.dim != self.n for f in self.blocks):
            raise ValueError("all blocks must share one dimension")
        self.m = len(self.blocks)
        rows = {}
        for i, f in enumerate(self.blocks):
            rows.setdefault(_group(f), []).append(i)
        self._groups = [
            (np.array(idx), group([self.blocks[i] for i in idx]))
            for group, idx in rows.items()
        ]

    def _check(self, X):
        X = np.asarray(X, dtype=float)
        if X.shape != (self.m, self.n):
            raise ValueError("expected an array of shape (%d, %d), got %s"
                             % (self.m, self.n, X.shape))
        if not np.isfinite(X).all():
            raise ValueError("vector entries must be finite")
        return X

    def _rowwise(self, method, X, *args):
        # per-row results of one group method, in block order
        if len(self._groups) == 1:
            return getattr(self._groups[0][1], method)(*args, X)
        out = np.empty(X.shape if method == "prox" else self.m)
        for idx, group in self._groups:
            out[idx] = getattr(group, method)(*args, X[idx])
        return out

    def prox(self, gamma, X):
        """The (m, n) array whose row i is ``blocks[i].prox(gamma, X[i])``."""
        return self._prox(gamma, self._check(X))

    def value(self, X):
        """sum_i f_i(X[i]); +inf as soon as one block is +inf."""
        return self._value(self._check(X))

    def conj(self, U):
        """sum_i f_i*(U[i]); +inf as soon as one block is +inf."""
        return self._conj(self._check(U))

    # unchecked kernels of prox/value/conj for the consensus loops
    def _prox(self, gamma, X):
        return self._rowwise("prox", X, gamma)

    def _value(self, X):
        return sum_or_inf(self._rowwise("values", X).tolist())

    def _conj(self, U):
        return sum_or_inf(self._rowwise("conjs", U).tolist())


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

    def _value(self, x):
        blocks = self._blocks(x)
        mean = blocks.mean(axis=0)
        if np.abs(blocks - mean).max() <= DOM_TOL * (1.0 + np.abs(x).max()):
            return 0.0
        return INF

    def _prox(self, gamma, x):
        mean = self._blocks(x).mean(axis=0)
        return np.tile(mean, self.m)

    def _conj(self, u):
        s = self._blocks(u).sum(axis=0)
        if np.linalg.norm(s) <= DOM_TOL * (1.0 + np.abs(u).max()):
            return 0.0
        return INF
