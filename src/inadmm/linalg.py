"""Dense vectors and linear operators with adjoints and injectivity moduli."""

import numpy as np

__all__ = ["LinearMap", "check_vector"]

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
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(
            "%s has dimension %d, expected %d" % (name, v.shape[0], dim)
        )
    return v


class LinearMap:
    """A linear operator between finite-dimensional real spaces.

    Supported kinds are dense matrices, the identity, and scaled
    identities.  Values are immutable after construction; the adjoint and
    the injectivity modulus (the smallest singular value) are exact up to
    dense linear-algebra accuracy.
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
            n = int(identity_dim)
            if n < 1:
                raise ValueError("identity dimension must be >= 1")
            self.kind = "identity" if scale == 1.0 else "scaled_identity"
            self.scale = float(scale)
            self.matrix = None
            self.shape = (n, n)
        self._theta = None

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
        """Return L x."""
        x = check_vector(x, self.domain_dim)
        if self.kind == "identity":
            return x.copy()
        if self.kind == "scaled_identity":
            return self.scale * x
        return self.matrix @ x

    def adjoint_apply(self, y):
        """Return L* y (transpose action for dense matrices)."""
        y = check_vector(y, self.codomain_dim, name="y")
        if self.kind == "identity":
            return y.copy()
        if self.kind == "scaled_identity":
            return self.scale * y
        return self.matrix.T @ y

    def adjoint(self):
        """Return the adjoint operator as a new LinearMap."""
        if self.matrix is None:
            return LinearMap(identity_dim=self.shape[0], scale=self.scale)
        return LinearMap(matrix=self.matrix.T)

    def injectivity_modulus(self):
        """Largest theta >= 0 with ||Lx|| >= theta ||x|| for all x.

        This is the smallest singular value of the matrix.  Values below
        ``SINGULAR_TOL`` are reported as 0, which downstream solvers treat
        as a failure of the full-column-rank hypothesis.
        """
        if self._theta is None:
            if self.kind == "identity":
                theta = 1.0
            elif self.kind == "scaled_identity":
                theta = abs(self.scale)
            else:
                if self.shape[0] < self.shape[1]:
                    # wide matrix: nontrivial kernel, modulus is 0 unless square
                    theta = 0.0
                else:
                    sv = np.linalg.svd(self.matrix, compute_uv=False)
                    theta = float(sv[-1]) if sv.size else 0.0
                if theta < SINGULAR_TOL:
                    theta = 0.0
            self._theta = theta
        return self._theta

    def norm(self):
        """Operator norm (largest singular value)."""
        if self.kind == "identity":
            return 1.0
        if self.kind == "scaled_identity":
            return abs(self.scale)
        sv = np.linalg.svd(self.matrix, compute_uv=False)
        return float(sv[0]) if sv.size else 0.0

    def __repr__(self):
        if self.kind == "dense":
            return "LinearMap(dense %dx%d)" % self.shape
        if self.kind == "identity":
            return "LinearMap(identity %d)" % self.shape[0]
        return "LinearMap(scaled identity %d, c=%g)" % (self.shape[0], self.scale)
