"""Catalog of proper closed convex functions with exact prox and conjugate.

Every function here evaluates its value (possibly +inf), its proximal map,
its conjugate value, and the prox of its conjugate (via the Moreau
decomposition).  The catalog is closed: solvers only ever see these kinds,
so all the identities used by the solvers hold in closed form.
"""

import copy
import functools
import math

import numpy as np

from .linalg import check_dim, check_gamma, check_vector, cholesky, pd_after_shift

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

_ZERO = np.array(0.0)  # 0-d: numpy compares with it faster than with a float


def sum_or_inf(values):
    """Sum of block values in order, +inf as soon as one is infinite."""
    total = 0.0
    for v in values:
        if math.isinf(v):
            return INF
        total += v
    return total


def _dot(a, b):
    """Dot products over the last axis, its length kept at 1; every row
    rounds as the 1-D ``a @ b`` does."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0]


def _norm(x):
    # contiguous, as numpy.linalg.norm's ravel makes it, for the same bits
    x = np.ascontiguousarray(x)
    return np.sqrt(_dot(x, x))


def _out(a):
    """Drop the kept last axis: a numpy float for a vector, one per row."""
    return a[..., 0][()]


# Each public method: the unchecked kernel it runs, and how to build one
# kind's checked method from that kind's kernel k.
_KERNELS = {
    "__call__": ("_value", lambda k: lambda self, x: k(self, self._check(x))),
    "prox": ("_prox", lambda k: lambda self, gamma, x: k(
        self, check_gamma(gamma), self._check(x))),
    "conj": ("_conj", lambda k: lambda self, u: k(self, self._check(u))),
}


class ConvexFn:
    """Base class: a proper closed convex function on R^dim.

    A kind defines the unchecked kernels ``_value``, ``_prox`` and ``_conj``
    and gets public ``__call__``, ``prox`` and ``conj`` that check their
    vector (``prox`` its gamma first), then run the kind's own kernel.  The
    solver loops, whose vectors were checked where they entered, call the
    kernels.  A subclass that overrides a public method but not its kernel
    has the kernel routed to the override, so the solver loops still run
    it.

    A kind that names its per-block parameters in ``_rows`` has kernels
    that also take (k, n) rows, one block each, when those parameters are
    stacked as (k, 1) or (k, n) arrays; every row's result is bit for bit
    the block's own.  ``has_row_kernels`` says which functions' kernels take
    (k, n) rows of points for one function.
    """

    kind = "abstract"

    def __init__(self, dim):
        self.dim = check_dim(dim, "dimension")

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
        return self._conj_prox(check_gamma(gamma), self._check(x))

    def _conj_prox(self, gamma, x):
        return x - gamma * self._prox(1.0 / gamma, x / gamma)

    def _check(self, x):
        return check_vector(x, self.dim)


class Zero(ConvexFn):
    """The zero function; its conjugate is the indicator of the origin."""

    kind = "zero"
    _rows = ()

    def _value(self, x):
        return _out(np.zeros_like(x[..., :1]))

    def _prox(self, gamma, x):
        return x.copy()

    def _conj(self, u):
        return _out(np.where(_norm(u) <= DOM_TOL, 0.0, INF))


class Quadratic(ConvexFn):
    """f(x) = x'Qx/2 + q'x + r with Q symmetric positive semidefinite.

    ``Q`` and ``q`` are read-only copies, and Q is tested with a Cholesky
    certificate (``pd_after_shift``), then, if it fails, ``eigvalsh``.
    The factors of I + gamma Q (prox, kept with gamma q) and
    Q + gamma L.gram() (x-update, resolvent) are kept, one per system, for
    the last gamma and L.  A ``quadratic_solve`` x-update on the second
    costs one L' product and two triangular solves (``linalg.cholesky``
    says why not one potrs), and the step adds one L product.  The first
    conjugate computes the eigenbasis, and whether an eigenvalue is at or below
    the rank tolerance: if none is, it skips the range(Q) test, which cannot fail.
    The value and the conjugate also take (k, n) rows, each row's bit for bit
    its own: the parameters are one Q, not stacked ones."""

    kind = "quadratic"

    def __init__(self, Q, q, r=0.0):
        Q = np.array(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be square")
        if not np.isfinite(Q).all():
            raise ValueError("Q entries must be finite")
        if not math.isfinite(r):
            raise ValueError("r must be finite")
        if not np.allclose(Q, Q.T, atol=1e-12):
            raise ValueError("Q must be symmetric")
        super().__init__(Q.shape[0])
        q = check_vector(q, self.dim, name="q").copy()
        self._rank_tol = 1e-12 * (1.0 + float(np.abs(Q).max(initial=0.0)))
        # t = 8 gamma_{n+1} trace(Q) leaves room for eigvalsh's own error
        if not pd_after_shift(Q, 4 * (self.dim + 1)) and np.linalg.eigvalsh(
                Q).min(initial=0.0) < -self._rank_tol:
            raise ValueError("Q must be positive semidefinite")
        Q.setflags(write=False)
        q.setflags(write=False)
        self.Q = Q
        self.q = q
        self.r = float(r)
        self._factors = {}  # system -> (gamma, L, solve, gamma q)

    @functools.cached_property
    def _eigh(self):
        evals, evecs = np.linalg.eigh(self.Q)
        return np.maximum(evals, 0.0), evecs

    _full_rank = functools.cached_property(  # assignable, for tests
        lambda self: bool((self._eigh[0] > self._rank_tol).all()))

    def _factor(self, gamma, L=None):
        """(gamma, L, solve, gamma q), solve being b -> M^{-1} b for
        M = I + gamma Q, or M = Q + gamma L'L given L."""
        system = "prox" if L is None else "normal"
        entry = self._factors.get(system)
        if entry is None or entry[0] != gamma or entry[1] is not L:
            if L is None:
                M = np.eye(self.dim) + gamma * self.Q
            else:
                M = self.Q + gamma * L.gram()
            entry = self._factors[system] = (gamma, L, cholesky(M), gamma * self.q)
        return entry

    def _solver(self, gamma, L=None):
        return self._factor(gamma, L)[2]

    def _value(self, x):
        if x.ndim == 1:
            return 0.5 * x @ self.Q @ x + self.q @ x + self.r
        # rows: one stacked matmul per product, so each row is the vector's
        # gemv and dot (as LinearMap._apply)
        xQx = np.matmul(np.matmul((0.5 * x)[:, None, :], self.Q), x[:, :, None])
        return xQx[:, 0, 0] + _out(_dot(self.q, x)) + self.r

    def _prox(self, gamma, x):
        _, _, solve, gq = self._factor(gamma)
        return solve(x - gq)

    def _conj(self, u):
        # f*(u) = (u-q)' Q^+ (u-q) / 2 - r when u - q lies in range(Q); on
        # rows, +inf for each row outside it
        evals, evecs = self._eigh
        d = u - self.q
        w = evecs.T @ d if d.ndim == 1 else np.matmul(d[:, None, :], evecs)[:, 0]
        if self._full_rank:
            return 0.5 * (w ** 2 / evals).sum(-1) - self.r
        small = evals <= self._rank_tol
        outside = (np.abs(w[..., small]) > DOM_TOL * (1.0 + _norm(d))).any(-1)
        # compress keeps each row's terms contiguous (a mask index on axis 1
        # lays them out by column), so a row sums them as the vector does
        kept = np.compress(~small, w, axis=-1)
        value = 0.5 * (kept ** 2 / evals[~small]).sum(-1) - self.r
        return np.where(outside, INF, value)[()]


class L1Norm(ConvexFn):
    """f(x) = tau * ||x||_1; conjugate is the indicator of [-tau, tau]^n."""

    kind = "l1"
    _rows = ("tau",)

    def __init__(self, dim, tau):
        super().__init__(dim)
        if not 0.0 < tau < INF:
            raise ValueError("tau must be positive and finite")
        self.tau = float(tau)
        self._t = (None, None, None)  # the last (gamma, tau, gamma tau as an array)

    def _value(self, x):
        return _out(self.tau * np.abs(x).sum(-1, keepdims=True))

    def _prox(self, gamma, x):
        bound = self._t
        if bound[0] != gamma or bound[1] is not self.tau:
            bound = self._t = (gamma, self.tau, np.asarray(gamma * self.tau, dtype=float))
        return np.sign(x) * np.maximum(np.abs(x) - bound[2], _ZERO)

    def _conj(self, u):
        inside = np.abs(u).max(-1, keepdims=True) <= self.tau * (1.0 + DOM_TOL) + 1e-15
        return _out(np.where(inside, 0.0, INF))


class L2Norm(ConvexFn):
    """f(x) = tau * ||x||_2; conjugate is the indicator of the tau-ball."""

    kind = "l2norm"
    _rows = ("tau",)

    def __init__(self, dim, tau):
        super().__init__(dim)
        if not 0.0 < tau < INF:
            raise ValueError("tau must be positive and finite")
        self.tau = float(tau)

    def _value(self, x):
        return _out(self.tau * _norm(x))

    def _prox(self, gamma, x):
        nrm = _norm(x)
        t = gamma * self.tau
        return np.where(nrm <= t, 0.0, (1.0 - t / np.maximum(nrm, t)) * x)

    def _conj(self, u):
        return _out(np.where(_norm(u) <= self.tau * (1.0 + DOM_TOL) + 1e-15, 0.0, INF))


class IndicatorPoint(ConvexFn):
    """Indicator of the single point {a}; prox is constant, conjugate linear."""

    kind = "indicator_point"
    _rows = ("a",)

    def __init__(self, a):
        a = check_vector(a, None, name="a")
        super().__init__(a.shape[0])
        self.a = a

    def _value(self, x):
        inside = _norm(x - self.a) <= DOM_TOL * (1.0 + _norm(self.a))
        return _out(np.where(inside, 0.0, INF))

    def _prox(self, gamma, x):
        return np.broadcast_to(self.a, x.shape).copy()

    def _conj(self, u):
        return _out(_dot(self.a, u))


class IndicatorBox(ConvexFn):
    """Indicator of the box [lo, hi]; prox is the componentwise clip."""

    kind = "indicator_box"
    _rows = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = check_vector(lo, None, name="lo")
        hi = check_vector(hi, lo.shape[0], name="hi")
        if np.any(lo > hi):
            raise ValueError("box requires lo <= hi componentwise")
        super().__init__(lo.shape[0])
        self.lo = lo
        self.hi = hi

    def _value(self, x):
        slack = DOM_TOL * (1.0 + np.abs(x).max(-1, keepdims=True))
        inside = ((x >= self.lo - slack) & (x <= self.hi + slack)).all(-1, keepdims=True)
        return _out(np.where(inside, 0.0, INF))

    def _prox(self, gamma, x):
        return np.clip(x, self.lo, self.hi)

    def _conj(self, u):
        # support function of the box
        return _out(np.where(u >= 0.0, self.hi * u, self.lo * u).sum(-1, keepdims=True))


class IndicatorHyperplane(ConvexFn):
    """Indicator of {x : <a, x> = b} with a != 0; prox is the projection."""

    kind = "indicator_hyperplane"
    _rows = ("a", "b", "_aa")

    def __init__(self, a, b):
        a = check_vector(a, None, name="a")
        if np.linalg.norm(a) == 0.0:
            raise ValueError("hyperplane normal must be nonzero")
        if not math.isfinite(b):
            raise ValueError("b must be finite")
        super().__init__(a.shape[0])
        self.a = a
        self.b = float(b)
        self._aa = float(a @ a)

    def _value(self, x):
        resid = abs(_dot(self.a, x) - self.b)
        inside = resid <= DOM_TOL * (1.0 + abs(self.b) + _norm(x))
        return _out(np.where(inside, 0.0, INF))

    def _prox(self, gamma, x):
        return x - ((_dot(self.a, x) - self.b) / self._aa) * self.a

    def _conj(self, u):
        # finite only on the span of a: u = t a gives t b
        t = _dot(u, self.a) / self._aa
        inside = _norm(u - t * self.a) <= DOM_TOL * (1.0 + _norm(u))
        return _out(np.where(inside, t * self.b, INF))


class Translated(ConvexFn):
    """h(x) = base(x - shift); prox and conjugate follow by translation."""

    kind = "translated"
    _rows = ("base", "shift")

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
        base = self.base._conj(u)
        return np.where(base == INF, INF, base + _out(_dot(self.shift, u)))[()]


def has_row_kernels(f):
    """Whether f's kernels also take (k, n) rows, each row's result bit for
    bit f's own on that row: the exact catalog kinds, a translation of one
    of them, and not ``SeparableSum`` or ``IndicatorConsensus``, whose
    kernels read a 2-D input as their blocks.  A subclass may override the
    arithmetic, so it keeps per-row calls."""
    kind = type(f)
    if kind is Translated:
        return has_row_kernels(f.base)
    return kind is Quadratic or "_rows" in vars(kind)


class _Looped:
    """Blocks of any other kind: their own kernels, one row at a time."""

    def __init__(self, fns):
        self.fns = fns

    def _prox(self, gamma, X):
        return np.stack([f._prox(gamma, x) for f, x in zip(self.fns, X)])

    def _value(self, X):
        return np.array([f._value(x) for f, x in zip(self.fns, X)], dtype=float)

    def _conj(self, U):
        return np.array([f._conj(u) for f, u in zip(self.fns, U)], dtype=float)


def _row_kind(f):
    # exact kinds only, as a subclass may override the arithmetic; a zero
    # shift turns -0.0 into 0.0, so a translation keys by its base kind too
    kind = type(f)
    if kind is Translated:
        base = type(f.base)
        return (kind, base) if base is not kind and "_rows" in vars(base) else None
    return kind if "_rows" in vars(kind) else None


def _stack(fns):
    """One instance of the blocks' kind with its ``_rows`` stacked."""
    f = copy.copy(fns[0])
    for name in f._rows:
        values = [getattr(g, name) for g in fns]
        setattr(f, name, _stack(values) if isinstance(values[0], ConvexFn)
                else np.array([np.atleast_1d(v) for v in values]))
    return f


class SeparableSum(ConvexFn):
    """f(x_1,...,x_m) = sum_i f_i(x_i) over m >= 1 blocks on one R^n.

    The kernels take the stacked vector flat, of shape (m*n,), or as an
    (m, n) array whose row i belongs to block i; ``_prox`` returns its
    input's shape.  The blocks are grouped by exact kind, a ``Translated``
    block by its base's exact kind as well, and each group of a kind with
    ``_rows`` is one instance of that kind with the blocks' parameters
    stacked, whose own kernels evaluate the group's rows at once.  Other
    blocks (``Quadratic``, nested compositions, every subclass) keep their
    own per-block calls.  Every row of ``prox`` is bit for bit the block's
    ``prox`` of that row, and the value and conjugate add the block values
    with ``sum_or_inf``.  The stacked groups copy the blocks' parameters at
    construction; a block changed afterwards is not seen.
    """

    kind = "separable_sum"

    def __init__(self, blocks):
        self.blocks = tuple(blocks)
        if not self.blocks:
            raise ValueError("need at least one block")
        self.n = self.blocks[0].dim
        if any(f.dim != self.n for f in self.blocks):
            raise ValueError("all blocks must share one dimension")
        self.m = len(self.blocks)
        super().__init__(self.m * self.n)
        rows = {}
        for i, f in enumerate(self.blocks):
            rows.setdefault(_row_kind(f), []).append(i)
        self._groups = [(np.array(idx), (_Looped if kind is None else _stack)(
            [self.blocks[i] for i in idx])) for kind, idx in rows.items()]

    def _check(self, x):
        X = np.asarray(x, dtype=float)
        if X.shape not in ((self.dim,), (self.m, self.n)):
            raise ValueError("expected shape (%d,) or (%d, %d), got %s"
                             % (self.dim, self.m, self.n, X.shape))
        if not np.isfinite(X).all():
            raise ValueError("vector entries must be finite")
        return X

    def _rowwise(self, method, x, *args):
        # per-row results of one group kernel, in block order; the test of
        # ndim costs less than a reshape on the consensus loops' (m, n) input
        X = x if x.ndim == 2 else x.reshape(self.m, self.n)
        if len(self._groups) == 1:
            return getattr(self._groups[0][1], method)(*args, X)
        out = np.empty(X.shape if method == "_prox" else self.m)
        for idx, group in self._groups:
            out[idx] = getattr(group, method)(*args, X[idx])
        return out

    def _prox(self, gamma, x):
        out = self._rowwise("_prox", x, gamma)
        return out if x.ndim == 2 else out.ravel()

    def _value(self, x):
        return sum_or_inf(self._rowwise("_value", x).tolist())

    def _conj(self, u):
        return sum_or_inf(self._rowwise("_conj", u).tolist())


class IndicatorConsensus(ConvexFn):
    """Indicator of the diagonal subspace {(x,...,x)} in (R^n)^m.

    The prox is the blockwise mean (orthogonal projection onto a linear
    subspace); the conjugate is the indicator of the orthogonal complement,
    the blocks summing to zero.
    """

    kind = "indicator_consensus"

    def __init__(self, m, n):
        self.m = check_dim(m, "number of blocks", 2)
        self.n = check_dim(n, "block dimension")
        super().__init__(self.m * self.n)

    def _blocks(self, x):
        return x.reshape(self.m, self.n)

    def _value(self, x):
        blocks = self._blocks(x)
        mean = blocks.mean(axis=0)
        if np.abs(blocks - mean).max() <= DOM_TOL * (1.0 + np.abs(x).max()):
            return 0.0
        return INF

    def _prox(self, gamma, x):
        # the bytes of np.tile(mean(axis=0), m), without their dispatch
        mean = self._blocks(x).sum(axis=0) / self.m
        return mean[None, :].repeat(self.m, 0).ravel()

    def _conj(self, u):
        s = self._blocks(u).sum(axis=0)
        if np.linalg.norm(s) <= DOM_TOL * (1.0 + np.abs(u).max()):
            return 0.0
        return INF
