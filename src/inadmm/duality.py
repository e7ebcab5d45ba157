"""Primal/dual objective values, Fenchel gap, and optimality residuals."""

import math

import numpy as np

from .functions import Quadratic
from .linalg import SINGULAR_TOL, Record, _norm, check_vector

__all__ = [
    "DualityReport",
    "primal_value",
    "dual_value",
    "duality_gap",
    "kkt_residual",
    "prox_residual",
    "hypothesis_check",
    "duality_report",
]


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
    # on (K, m) rows of v and y (f and g with row kernels), one value per row,
    # a vector being the one-row case
    a, b = p.f._conj(-p.L._adjoint_apply(v)), p.g._conj(y)
    return np.subtract(-a, b, out=np.full(np.shape(a), -np.inf),
                       where=~(np.isinf(a) | np.isinf(b)))[()]


def duality_gap(primal, dual):
    """primal - dual when both are finite, else +inf."""
    return primal - dual if math.isfinite(primal) and math.isfinite(dual) else np.inf


def prox_residual(h, u, s):
    """||u - prox_h(u + s)|| at step 1, zero exactly when s is in dh(u)
    (Parikh & Boyd 2014, sec. 2.3); for a quadratic, ||Qu + q - s||, which
    forms no factor.  u and s are checked vectors; the prox is h's kernel."""
    r = h.Q @ u + h.q - s if isinstance(h, Quadratic) else u - h._prox(1.0, u + s)
    return _norm(r)


def kkt_residual(p, x, v, rng=None):
    """Fixed-point residual of -L*v in df(x) and v in dg(Lx):
    ||x - prox_f(x - L*v)|| + ||Lx - prox_g(Lx + v)||, by ``prox_residual``.
    It is finite everywhere and zero exactly at a solution pair.  ``rng`` is
    accepted and unused."""
    x = check_vector(x, p.L.domain_dim)
    v = check_vector(v, p.L.codomain_dim, name="v")
    return (prox_residual(p.f, x, -p.L._adjoint_apply(v))
            + prox_residual(p.g, p.L._apply(x), v))


def hypothesis_check(p):
    """Injectivity moduli (theta, theta*) of L and its adjoint, from L's own
    singular values: theta* is sigma_min(L), thresholded as theta is, unless
    L is tall, when the adjoint is wide and theta* = 0."""
    L = p.L
    theta = L.injectivity_modulus()
    s = 0.0 if L.shape[0] > L.shape[1] else L._singular_values()[0]
    return theta, (s if s >= SINGULAR_TOL else 0.0)


class DualityReport(Record):
    _fields = ("primal_value", "dual_value", "gap", "kkt_residual", "h_theta", "h_star_theta")

    def __init__(self, primal_value, dual_value, gap, kkt_residual, h_theta, h_star_theta):
        self.primal_value, self.dual_value, self.gap = primal_value, dual_value, gap
        self.kkt_residual, self.h_theta, self.h_star_theta = kkt_residual, h_theta, h_star_theta

    def __str__(self):
        return (
            "primal %.12g  dual %.12g  gap %.3g  kkt %.3g  "
            "theta %.3g  theta* %.3g"
            % (self.primal_value, self.dual_value, self.gap,
               self.kkt_residual, self.h_theta, self.h_star_theta)
        )


def duality_report(p, x, v):
    pv = primal_value(p, x)
    dv = dual_value(p, v)
    theta, theta_star = hypothesis_check(p)
    return DualityReport(
        primal_value=pv,
        dual_value=dv,
        gap=duality_gap(pv, dv),
        kkt_residual=kkt_residual(p, x, v),
        h_theta=theta,
        h_star_theta=theta_star,
    )
