"""Dense vectors and linear operators with adjoint actions and injectivity moduli."""

import contextlib
import functools
import math
import numbers
import os
import sys
from importlib import machinery, util

import numpy as np

__all__ = ["LinearMap", "check_vector", "check_gamma", "check_step", "check_dim"]

# Singular values below this are treated as zero when computing the
# injectivity modulus (a strict inequality in the well-posedness hypothesis).
SINGULAR_TOL = 1e-10


def check_vector(x, dim, name="x"):
    """Coerce `x` to a finite 1-D float array of dimension `dim` (if not None)."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError("expected a 1-D vector, got shape %s" % (v.shape,))
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(
            "%s has dimension %d, expected %d" % (name, v.shape[0], dim)
        )
    return v


def _norm(v):
    """Euclidean norm of all entries of v, as a float: the formula of
    ``numpy.linalg.norm`` (sqrt of x.dot(x), x the order-K ravel of v)
    without its dispatch, so the bits are the same."""
    x = v.ravel(order="K")
    return math.sqrt(x.dot(x))


def check_gamma(gamma):
    """Return a step parameter gamma; reject one not positive and finite."""
    if not 0.0 < gamma < np.inf:
        raise ValueError("gamma must be positive and finite, got %r" % (gamma,))
    return gamma


def check_step(gamma, c):
    """Reject a prox step 1/(gamma c) that is not positive and finite."""
    if not (gamma * c > 0.0 and 0.0 < 1.0 / (gamma * c) < math.inf):
        raise ValueError("no finite positive step 1/(gamma c) at gamma %g, c %g" % (gamma, c))


def check_dim(n, name, least=1):
    """Return a dimension n as an int; reject a bool, a non-integer, or
    an n below ``least``."""
    if not isinstance(n, numbers.Integral) or isinstance(n, bool):
        raise ValueError("%s must be an integer, got %r" % (name, n))
    if n < least:
        raise ValueError("%s must be >= %d" % (name, least))
    return int(n)


@functools.cache
def _fortran():
    """The modules whose dtrsv and dpotrf scipy.linalg.blas and .lapack export.

    scipy's directory comes from its import spec, without running the
    package's init (8 to 14 ms in a fresh process), except on Windows, where
    that init sets up the DLL search path."""
    if os.name == "nt":
        import scipy  # noqa: F401
    scipy_dir = util.find_spec("scipy").submodule_search_locations[0]
    find = machinery.FileFinder(os.path.join(scipy_dir, "linalg"), (
        machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES)).find_spec
    specs = [find(name) for name in ("scipy.linalg._fblas", "scipy.linalg._flapack")]
    if "scipy.linalg" in sys.modules or None in specs:
        from scipy.linalg import blas, lapack  # the package's own
        return blas, lapack
    mods = [util.module_from_spec(spec) for spec in specs]
    # a single-phase extension enters sys.modules as it loads: left there, a
    # later scipy.linalg import would not bind it; popped, that import copies it
    for spec in specs:
        sys.modules.pop(spec.name, None)
    return mods


def cholesky(M):
    """Factor a symmetric positive definite M (the package's only factoring
    call) with LAPACK potrf, M = U'U, and return b -> M^{-1} b.

    A vector takes two level-2 triangular solves (BLAS trsv), U'w = b and
    then Ux = w, with the bytes of two scipy.linalg.solve_triangular calls on
    scipy.linalg.cho_factor's factor.  LAPACK potrs would make the same two
    solves as level-3 trsm calls, which take about twice as long for one
    right-hand side.  A (P, n) stack takes that vector solve row by row, in
    place in one copy, so every row is bit for bit its own solve: one solve
    of P columns would round differently.  Raises ValueError on a non-finite
    M, LinAlgError if M is not positive definite.  potrf and trsv are scipy's
    compiled wrappers alone, not the scipy.linalg package (``_fortran``): set-up
    0.26 -> 0.06 s, peak memory 78 -> 60 MB (lasso_small, BENCH_20.json).
    """
    fblas, flapack = _fortran()
    c, info = flapack.dpotrf(np.asarray_chkfinite(M, dtype=float), clean=False)
    if info:
        raise np.linalg.LinAlgError(
            "%d-th leading minor of the matrix is not positive definite" % info)
    # trsv(a, x, incx, offx, lower, trans, diag, overwrite_x), positional:
    # f2py's keyword parsing made the vector solve at n = 30 take 2.0 us, not 1.3
    trsv, n = fblas.dtrsv, c.shape[0]

    def solve(b):
        if b.ndim == 1:
            return trsv(c, trsv(c, b, 1, 0, 0, 1), 1, 0, 0, 0, 0, 1)
        x = b.copy()
        rows = x.reshape(-1)
        for start in range(0, rows.size, n):
            trsv(c, rows, 1, start, 0, 1, 0, 1)
            trsv(c, rows, 1, start, 0, 0, 0, 1)
        return x

    return solve


def pd_after_shift(M, c, floor=0.0):
    """Whether M - tI, t = floor + c eps trace(M), has a Cholesky factor: then
    M's eigenvalues exceed t less the factor's backward error, which is at
    most gamma_{n+1} trace(M) (Golub & Van Loan, 4.2).  An overflow fails."""
    with np.errstate(all="ignore"):
        S = M.copy()
        S.flat[::M.shape[0] + 1] -= floor + c * 2.0 ** -52 * np.trace(M)
    with contextlib.suppress(ValueError, np.linalg.LinAlgError):
        cholesky(S)
        return True
    return False


class LinearMap:
    """A linear operator between finite-dimensional real spaces.

    A map is a dense matrix or the structured map x -> (s x, ..., s x) of
    m copies of sI on R^n: the identity is (s, m) = (1, 1), a scaled
    identity (s, 1) and m stacked identities (1, m).  Values are immutable
    after construction.  ``frame`` is the constant c with L'L = cI, or None
    for a dense map: a structured map has c = s^2 m and both singular
    values |s| sqrt(m) from construction.  A dense map computes L'L and
    its singular values on first read, to dense linear-algebra accuracy.
    """

    def __init__(self, matrix=None, *, identity_dim=None, scale=1.0, _copies=1):
        if (matrix is None) == (identity_dim is None):
            raise ValueError("pass exactly one of `matrix` or `identity_dim`")
        self._gram = None
        if matrix is None:
            n, s = check_dim(identity_dim, "identity dimension"), float(scale)
            if not math.isfinite(s * s):
                raise ValueError("scale must be finite (its square too): %r" % scale)
            self.kind = ("stacked_identity" if _copies > 1 else
                         "identity" if s == 1.0 else "scaled_identity")
            self.matrix, self.scale, self.copies = None, s, _copies
            self.shape = (_copies * n, n)
            self.frame = s * s * _copies
            self._sv = (abs(s) * math.sqrt(_copies),) * 2  # (smallest, largest)
            return
        m = np.array(matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("matrix must be 2-D")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        m.setflags(write=False)
        self.kind, self.matrix, self.shape = "dense", m, m.shape
        self.frame = self._sv = None

    @classmethod
    def dense(cls, matrix):
        return cls(matrix=matrix)

    @classmethod
    def identity(cls, n):
        return cls(identity_dim=n)

    @classmethod
    def scaled_identity(cls, n, c):
        return cls(identity_dim=n, scale=c)

    @classmethod
    def stacked_identity(cls, m, n):
        """The (m n) x n map x -> (x, ..., x) of m >= 2 copies of I on R^n."""
        return cls(identity_dim=n, _copies=check_dim(m, "number of copies", 2))

    @property
    def domain_dim(self):
        return self.shape[1]

    @property
    def codomain_dim(self):
        return self.shape[0]

    def as_matrix(self):
        """Materialize the operator as a dense matrix."""
        if self.matrix is not None:
            return self.matrix
        return np.tile(self.scale * np.eye(self.shape[1]), (self.copies, 1))

    def apply(self, x):
        """Return L x as a new array."""
        x = check_vector(x, self.domain_dim)
        y = self._apply(x)
        return y.copy() if y is x else y

    def adjoint_apply(self, y):
        """Return L* y (transpose action for dense matrices) as a new array."""
        y = check_vector(y, self.codomain_dim, name="y")
        x = self._adjoint_apply(y)
        return x.copy() if x is y else x

    # unchecked kernels of apply/adjoint_apply for the solver loops, which
    # also map each row of a (P, n) array: a dense map by one stacked matmul
    # whose rows are bit for bit the vector's gemv (a gemm's are not); the
    # identity returns its argument itself, which the loops never write into;
    # a stacked map's adjoint adds a row's m blocks as the vector's does
    def _apply(self, x):
        if self.matrix is None:
            if self.copies > 1:
                x = x[..., None, :].repeat(self.copies, -2).reshape(x.shape[:-1] + (-1,))
            return x if self.scale == 1.0 else self.scale * x
        return self.matrix @ x if x.ndim == 1 else np.matmul(
            self.matrix, x[:, :, None])[:, :, 0]

    def _adjoint_apply(self, y):
        if self.matrix is None:
            if self.copies > 1:
                y = y.reshape(y.shape[:-1] + (self.copies, -1)).sum(-2)
            return y if self.scale == 1.0 else self.scale * y
        return self.matrix.T @ y if y.ndim == 1 else np.matmul(
            y[:, None, :], self.matrix)[:, 0]

    def _left_inverse(self, y):  # L'y / frame, as L'L = frame I; sI's is y / s
        if self.copies > 1:
            return self._adjoint_apply(y) / self.frame
        return y if self.scale == 1.0 else y / self.scale

    def gram(self):
        """L'L, read-only: ``Lm.T @ Lm`` of ``as_matrix()``, computed once."""
        if self._gram is None:
            Lm = self.as_matrix()
            with np.errstate(over="ignore"):  # an inf fails every factor of it
                self._gram = Lm.T @ Lm
            self._gram.setflags(write=False)
        return self._gram

    def is_injective(self):
        """Whether ``injectivity_modulus() > 0``, with no SVD where a proof will do.

        A tall dense map with no singular values yet is injective if G - tI has
        a Cholesky factor, G = gram(), t = SINGULAR_TOL^2 + 4(m+n) eps trace(G):
        t covers the rounding of G, gamma_m ||L||_F^2, and the factor's backward
        error, gamma_{n+1} ||L||_F^2 (Golub & Van Loan, 4.2)."""
        m, n = self.shape
        if m >= n > 0 and self._sv is None and (
                pd_after_shift(self.gram(), 4 * (m + n), SINGULAR_TOL ** 2)):
            return True
        return self.injectivity_modulus() > 0.0

    def injectivity_modulus(self):
        """Largest theta >= 0 with ||Lx|| >= theta ||x|| for all x.

        The smallest singular value, 0 for a wide matrix.  Values below
        ``SINGULAR_TOL`` are reported as 0 for every kind.
        """
        theta = 0.0 if self.shape[0] < self.shape[1] else self._singular_values()[0]
        return theta if theta >= SINGULAR_TOL else 0.0

    def norm(self):
        """Operator norm (largest singular value)."""
        return self._singular_values()[1]

    def _singular_values(self):
        if self._sv is None:  # of L' if L is wide, so L and L' share the bits
            m, n = self.shape
            sv = np.linalg.svd(self.matrix if m >= n else self.matrix.T, compute_uv=False)
            self._sv = (float(sv[-1]), float(sv[0])) if sv.size else (0.0, 0.0)
        return self._sv

    def __repr__(self):
        if self.matrix is not None:
            return "LinearMap(dense %dx%d)" % self.shape
        if self.copies > 1:
            return "LinearMap(stacked identity, %d copies of %d)" % (self.copies, self.shape[1])
        if self.scale == 1.0:
            return "LinearMap(identity %d)" % self.shape[0]
        return "LinearMap(scaled identity %d, c=%g)" % (self.shape[0], self.scale)
