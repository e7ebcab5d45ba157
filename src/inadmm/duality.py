"""Primal/dual objective values, Fenchel gap, and optimality residuals."""

import math
from dataclasses import dataclass

import numpy as np

from .functions import has_row_kernels
from .linalg import SINGULAR_TOL, check_vector

__all__ = [
    "DualityReport",
    "primal_value",
    "dual_value",
    "duality_gap",
    "kkt_residual",
    "subgradient_violation",
    "hypothesis_check",
    "duality_report",
]

PROBES = 50  # random points per subgradient_violation


def primal_value(p, x):
    """f(x) + g(Lx); +inf outside the domain."""
    fx = p.f(x)
    if np.isinf(fx):
        return np.inf
    gx = p.g(p.L.apply(x))
    if np.isinf(gx):
        return np.inf
    return fx + gx


def dual_value(p, v, y=None):
    """-f*(-L*v) - g*(y), y defaulting to v; -inf when either conjugate is +inf.

    The ADMM solvers pass their multiplier y^k as ``y`` next to the
    certificate v^k, which differs from it while the iteration runs.
    """
    v = check_vector(v, p.L.codomain_dim, name="v")
    return _dual_value(p, v, v if y is None else check_vector(y, v.size, name="y"))


def _dual_value(p, v, y):
    # dual_value on vectors already checked, through the unchecked kernels;
    # on (K, m) rows of v and y (f and g with row kernels), one value per row
    a = p.f._conj(-p.L._adjoint_apply(v))
    if v.ndim == 2:
        b = p.g._conj(y)
        return np.subtract(-a, b, out=np.full(len(a), -np.inf),
                           where=~(np.isinf(a) | np.isinf(b)))
    if math.isinf(a):
        return -np.inf
    b = p.g._conj(y)
    if math.isinf(b):
        return -np.inf
    return -a - b


def duality_gap(primal, dual):
    """primal - dual when both are finite, else +inf."""
    return primal - dual if math.isfinite(primal) and math.isfinite(dual) else np.inf


def subgradient_violation(f, x, u, rng=None):
    """Worst violation of the inequality f(y) >= f(x) + <u, y - x>.

    Probes 50 standard-normal points around x, drawn as one (50, dim) array
    (the stream of 50 draws of one point each) and, for an f with row
    kernels, evaluated as one stack; returns +inf when f(x) itself is +inf
    (u cannot be a subgradient outside the domain).  Probes where f is +inf
    are skipped, and the worst is folded in probe order.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    x = np.asarray(x, dtype=float)
    fx = f(x)
    if np.isinf(fx):
        return np.inf
    Y = x + rng.standard_normal((PROBES,) + x.shape)
    if has_row_kernels(f):
        if not np.isfinite(Y).all():  # the check of f's public call
            raise ValueError("vector entries must be finite")
        fys = f._value(Y).tolist()
    else:
        fys = [f(y) for y in Y]
    # <u, y - x> per probe, each the vector's dot
    slopes = np.matmul(u, (Y - x)[:, :, None])[:, 0].tolist()
    worst = 0.0
    for fy, slope in zip(fys, slopes):
        if math.isinf(fy):
            continue
        worst = max(worst, fx + slope - fy)
    return worst


def kkt_residual(p, x, v, rng=None):
    """Sum of the violations of -L*v in df(x) and v in dg(Lx)."""
    if rng is None:
        rng = np.random.default_rng(0)
    r1 = subgradient_violation(p.f, x, -p.L.adjoint_apply(v), rng)
    r2 = subgradient_violation(p.g, p.L.apply(x), v, rng)
    return r1 + r2


def hypothesis_check(p):
    """Injectivity moduli (theta, theta*) of L and its adjoint, from L's own
    singular values: theta* is sigma_min(L), thresholded as theta is, unless
    L is tall, when the adjoint is wide and theta* = 0."""
    L = p.L
    theta = L.injectivity_modulus()
    s = 0.0 if L.shape[0] > L.shape[1] else L._singular_values()[0]
    return theta, (s if s >= SINGULAR_TOL else 0.0)


@dataclass
class DualityReport:
    primal_value: float
    dual_value: float
    gap: float
    kkt_residual: float
    h_theta: float
    h_star_theta: float

    def __str__(self):
        return (
            "primal %.12g  dual %.12g  gap %.3g  kkt %.3g  "
            "theta %.3g  theta* %.3g"
            % (self.primal_value, self.dual_value, self.gap,
               self.kkt_residual, self.h_theta, self.h_star_theta)
        )


def duality_report(p, x, v, rng=None):
    pv = primal_value(p, x)
    dv = dual_value(p, v)
    theta, theta_star = hypothesis_check(p)
    return DualityReport(
        primal_value=pv,
        dual_value=dv,
        gap=duality_gap(pv, dv),
        kkt_residual=kkt_residual(p, x, v, rng),
        h_theta=theta,
        h_star_theta=theta_star,
    )
