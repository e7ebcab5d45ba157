"""Dense vectors and linear operators with adjoints and injectivity moduli."""

import contextlib
import math
import numbers

import numpy as np

__all__ = ["LinearMap", "check_vector", "check_gamma", "check_dim"]

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


def check_dim(n, name, least=1):
    """Return a dimension n as an int; reject a bool, a non-integer, or
    an n below ``least``."""
    if not isinstance(n, numbers.Integral) or isinstance(n, bool):
        raise ValueError("%s must be an integer, got %r" % (name, n))
    if n < least:
        raise ValueError("%s must be >= %d" % (name, least))
    return int(n)


def cholesky(M):
    """Factor a symmetric positive definite M (the package's only factoring
    call) and return b -> M^{-1} b, row by row for a (P, n) b in one potrs,
    each row bit for bit its own solve.  LAPACK potrf/potrs give the bytes of
    scipy.linalg's Cholesky routines without their per-call wrappers.  Raises
    ValueError on a non-finite M, LinAlgError if M is not positive definite.
    """
    from scipy.linalg import lapack  # deferred: scipy.linalg is slow to import

    c, info = lapack.dpotrf(np.asarray_chkfinite(M, dtype=float), clean=False)
    if info:
        raise np.linalg.LinAlgError(
            "%d-th leading minor of the matrix is not positive definite" % info)
    potrs = lapack.dpotrs

    def solve(b):
        return potrs(c, b)[0] if b.ndim == 1 else potrs(c, b.T)[0].T

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

    Supported kinds are dense matrices, the identity, and scaled
    identities.  Values are immutable after construction; the adjoint and
    the injectivity modulus (the smallest singular value) are exact up to
    dense linear-algebra accuracy.  L'L and the singular values are computed lazily.
    """

    def __init__(self, matrix=None, *, identity_dim=None, scale=1.0):
        if (matrix is None) == (identity_dim is None):
            raise ValueError("pass exactly one of `matrix` or `identity_dim`")
        if matrix is not None:
            m = np.array(matrix, dtype=float)
            if m.ndim != 2:
                raise ValueError("matrix must be 2-D")
            if not np.all(np.isfinite(m)):
                raise ValueError("matrix entries must be finite")
            m.setflags(write=False)
            self.kind = "dense"
            self.matrix = m
            self.shape = m.shape
        else:
            n = check_dim(identity_dim, "identity dimension")
            if not math.isfinite(scale):
                raise ValueError("scale must be finite")
            self.kind = "identity" if scale == 1.0 else "scaled_identity"
            self.scale = float(scale)
            self.matrix = None
            self.shape = (n, n)
        self._sv = None  # (smallest, largest) singular value of a dense map
        self._gram = None

    @classmethod
    def dense(cls, matrix):
        return cls(matrix=matrix)

    @classmethod
    def identity(cls, n):
        return cls(identity_dim=n)

    @classmethod
    def scaled_identity(cls, n, c):
        return cls(identity_dim=n, scale=c)

    @property
    def domain_dim(self):
        return self.shape[1]

    @property
    def codomain_dim(self):
        return self.shape[0]

    def is_identity(self):
        return self.kind == "identity"

    def as_matrix(self):
        """Materialize the operator as a dense matrix."""
        if self.matrix is not None:
            return self.matrix
        return self.scale * np.eye(self.shape[0])

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
    # identity returns its argument itself, which the loops never write into
    def _apply(self, x):
        if self.matrix is None:
            return x if self.kind == "identity" else self.scale * x
        return self.matrix @ x if x.ndim == 1 else np.matmul(
            self.matrix, x[:, :, None])[:, :, 0]

    def _adjoint_apply(self, y):
        if self.matrix is None:
            return y if self.kind == "identity" else self.scale * y
        return self.matrix.T @ y if y.ndim == 1 else np.matmul(
            y[:, None, :], self.matrix)[:, 0]

    def adjoint(self):
        """The adjoint as a new LinearMap, with L's singular values if known."""
        if self.matrix is None:
            return LinearMap(identity_dim=self.shape[0], scale=self.scale)
        adj = LinearMap(matrix=self.matrix.T)
        adj._sv = self._sv
        return adj

    def gram(self):
        """L'L, read-only: ``Lm.T @ Lm`` of ``as_matrix()``, computed once."""
        if self._gram is None:
            Lm = self.as_matrix()
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
        if self.matrix is not None and m >= n > 0 and self._sv is None and (
                pd_after_shift(self.gram(), 4 * (m + n), SINGULAR_TOL ** 2)):
            return True
        return self.injectivity_modulus() > 0.0

    def injectivity_modulus(self):
        """Largest theta >= 0 with ||Lx|| >= theta ||x|| for all x.

        The smallest singular value, 0 for a wide matrix.  Values below
        ``SINGULAR_TOL`` are reported as 0 for every kind.
        """
        if self.matrix is None:
            theta = abs(self.scale)
        elif self.shape[0] < self.shape[1]:
            theta = 0.0
        else:
            theta = self._singular_values()[0]
        return theta if theta >= SINGULAR_TOL else 0.0

    def norm(self):
        """Operator norm (largest singular value)."""
        if self.matrix is None:
            return abs(self.scale)
        return self._singular_values()[1]

    def _singular_values(self):
        if self._sv is None:
            sv = np.linalg.svd(self.matrix, compute_uv=False)
            self._sv = (float(sv[-1]), float(sv[0])) if sv.size else (0.0, 0.0)
        return self._sv

    def __repr__(self):
        if self.kind == "dense":
            return "LinearMap(dense %dx%d)" % self.shape
        if self.kind == "identity":
            return "LinearMap(identity %d)" % self.shape[0]
        return "LinearMap(scaled identity %d, c=%g)" % (self.shape[0], self.scale)
