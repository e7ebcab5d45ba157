"""Inertial ADMM for min f(x) + g(Lx), plus the classical/relaxed reductions.

The scheme keeps two history levels of the multiplier y and the splitting
variable z, adds an inertial extrapolation controlled by alpha_k, and a
relaxation factor lambda_k.  The auxiliary sequences

    w^k = y^k + gamma z^k
    v^k = y^k - gamma z^k + gamma L x^{k+1} - alpha_k (dy + gamma dz)

recombine the iterates into a Douglas-Rachford trajectory; the solver
records both so the correspondence can be checked externally.
"""

from dataclasses import dataclass

import numpy as np

from .duality import dual_value
from .functions import Quadratic
from .linalg import LinearMap, check_vector
from .params import require_valid
from .trace import TraceRow, drive

__all__ = [
    "ProblemSpec",
    "IadmmState",
    "XUpdateStrategy",
    "SubproblemError",
    "x_update",
    "zbar_update",
    "z_update",
    "y_update",
    "v_of",
    "step",
    "run_iadmm",
    "classical_admm",
]


class SubproblemError(RuntimeError):
    """Inner x-subproblem failed to reach its tolerance within budget."""

    def __init__(self, message, residual=None, iteration=None):
        super().__init__(message)
        self.residual = residual
        self.iteration = iteration


@dataclass
class ProblemSpec:
    """min f(x) + g(Lx) with L injective (positive injectivity modulus)."""

    f: object
    g: object
    L: LinearMap

    def __post_init__(self):
        if self.f.dim != self.L.domain_dim:
            raise ValueError("f dimension does not match domain of L")
        if self.g.dim != self.L.codomain_dim:
            raise ValueError("g dimension does not match codomain of L")
        if self.L.injectivity_modulus() <= 0.0:
            raise ValueError(
                "L must have a positive injectivity modulus "
                "(full column rank); rank-deficient operators are rejected"
            )


@dataclass
class IadmmState:
    k: int
    x: np.ndarray
    z: np.ndarray
    z_prev: np.ndarray
    zbar: np.ndarray
    y: np.ndarray
    y_prev: np.ndarray

    def w(self, gamma):
        return self.y + gamma * self.z


class XUpdateStrategy:
    """How the x-subproblem is minimized.

    - ``prox_identity``: L is the identity; one prox call, exact.
    - ``quadratic_solve``: f is quadratic; one cached linear solve, exact.
    - ``inner_iterative``: proximal gradient on the subproblem to a
      fixed-point residual ``eps_inner`` (fallback, inexact).
    """

    def __init__(self, kind, eps_inner=1e-12, budget=10000):
        if kind not in ("prox_identity", "quadratic_solve", "inner_iterative"):
            raise ValueError("unknown x-update strategy %r" % (kind,))
        self.kind = kind
        self.eps_inner = eps_inner
        self.budget = budget
        self._entry = None  # (problem, gamma, prepared data) of the last solve

    @classmethod
    def automatic(cls, p):
        if p.L.is_identity():
            return cls("prox_identity")
        if isinstance(p.f, Quadratic):
            return cls("quadratic_solve")
        return cls("inner_iterative")

    def check(self, p):
        if self.kind == "prox_identity" and not p.L.is_identity():
            raise ValueError("prox_identity strategy requires L = identity")
        if self.kind == "quadratic_solve" and not isinstance(p.f, Quadratic):
            raise ValueError("quadratic_solve strategy requires quadratic f")

    def _prepared(self, p, gamma):
        """The Cholesky factor of Q + gamma L^T L with L^T, or gamma ||L||^2.

        Kept for the last (problem, gamma) pair and matched to the problem by
        identity, so a strategy reused across problems never serves another
        problem's data.
        """
        entry = self._entry
        if entry is None or entry[0] is not p or entry[1] != gamma:
            if self.kind == "quadratic_solve":
                import scipy.linalg

                Lm = p.L.as_matrix()
                data = (scipy.linalg.cho_factor(p.f.Q + gamma * (Lm.T @ Lm)), Lm.T)
            else:
                data = gamma * p.L.norm() ** 2
            entry = self._entry = (p, gamma, data)
        return entry[2]


def x_update(state, p, gamma, alpha_k, strat):
    """Minimize f(x) + <c_k, Lx> + (gamma/2)||Lx - z^k||^2.

    c_k = y^k - alpha_k (y^k - y^{k-1}) - gamma alpha_k (z^k - z^{k-1}).
    """
    c = (state.y - alpha_k * (state.y - state.y_prev)
         - gamma * alpha_k * (state.z - state.z_prev))
    if strat.kind == "prox_identity":
        return p.f.prox(1.0 / gamma, state.z - c / gamma)
    if strat.kind == "quadratic_solve":
        import scipy.linalg

        fct, LmT = strat._prepared(p, gamma)
        rhs = gamma * (LmT @ state.z) - LmT @ c - p.f.q
        return scipy.linalg.cho_solve(fct, rhs)
    # proximal gradient on the smooth part s(x) = <c,Lx> + gamma/2 ||Lx-z||^2
    t = 1.0 / strat._prepared(p, gamma)
    x = state.x.copy()
    Ltc = p.L.adjoint_apply(c)
    for it in range(strat.budget):
        grad = Ltc + gamma * p.L.adjoint_apply(p.L.apply(x) - state.z)
        x_new = p.f.prox(t, x - t * grad)
        resid = float(np.linalg.norm(x_new - x)) / t
        x = x_new
        if resid <= strat.eps_inner:
            return x
    raise SubproblemError(
        "inner x-subproblem did not reach eps_inner=%g within %d steps "
        "(achieved residual %g)" % (strat.eps_inner, strat.budget, resid),
        residual=resid,
        iteration=strat.budget,
    )


def zbar_update(state, gamma, alpha_k, alpha_next, lambda_k, x_next, L):
    """alpha_{k+1} lambda_k (Lx^{k+1} - z^k) + inertial history correction."""
    drift = state.y - state.y_prev + gamma * (state.z - state.z_prev)
    return (alpha_next * lambda_k * (L.apply(x_next) - state.z)
            + ((1.0 - lambda_k) * alpha_k * alpha_next / gamma) * drift)


def z_update(state, p, gamma, alpha_k, lambda_k, x_next, zbar_next):
    """-zbar^{k+1} + prox of g at the relaxed/extrapolated point."""
    drift = state.y - state.y_prev + gamma * (state.z - state.z_prev)
    arg = (zbar_next + lambda_k * p.L.apply(x_next)
           + (1.0 - lambda_k) * state.z + state.y / gamma
           + ((1.0 - lambda_k) * alpha_k / gamma) * drift)
    return -zbar_next + p.g.prox(1.0 / gamma, arg)


def y_update(state, gamma, alpha_k, lambda_k, x_next, z_next, L):
    """Multiplier update with relaxation and inertial correction."""
    drift = state.y - state.y_prev + gamma * (state.z - state.z_prev)
    return (state.y
            + gamma * (lambda_k * L.apply(x_next)
                       + (1.0 - lambda_k) * state.z - z_next)
            + (1.0 - lambda_k) * alpha_k * drift)


def v_of(state, gamma, alpha_k, x_next, L):
    """Auxiliary dual sequence certifying -L*v^k in df(x^{k+1})."""
    drift = state.y - state.y_prev + gamma * (state.z - state.z_prev)
    return (state.y - gamma * state.z + gamma * L.apply(x_next)
            - alpha_k * drift)


def step(state, p, params, k, strat):
    """One full inertial ADMM iteration; returns (new_state, extras).

    extras carries x^{k+1}, v^k, w^k, w^{k+1} and the feasibility
    residual ||Lx^{k+1} - z^k|| for tracing.
    """
    gamma = params.gamma
    a_k = params.alpha_at(k)
    a_next = params.alpha_at(k + 1)
    l_k = params.lambda_at(k)

    x_next = x_update(state, p, gamma, a_k, strat)
    zbar_next = zbar_update(state, gamma, a_k, a_next, l_k, x_next, p.L)
    z_next = z_update(state, p, gamma, a_k, l_k, x_next, zbar_next)
    y_next = y_update(state, gamma, a_k, l_k, x_next, z_next, p.L)
    v_k = v_of(state, gamma, a_k, x_next, p.L)

    w_k = state.w(gamma)
    new_state = IadmmState(
        k=k + 1,
        x=x_next,
        z=z_next,
        z_prev=state.z,
        zbar=zbar_next,
        y=y_next,
        y_prev=state.y,
    )
    extras = {
        "x_next": x_next,
        "v": v_k,
        "w": w_k,
        "w_next": new_state.w(gamma),
        "feas": float(np.linalg.norm(p.L.apply(x_next) - state.z)),
    }
    return new_state, extras


def run_iadmm(p, params, init=None, strat=None, max_iters=100000, tol=1e-10,
              horizon_check=1000):
    """Run the inertial ADMM iteration to the combined residual tolerance.

    `init` is (y0, y1, z0, z1); defaults to zeros.  Stops when
    max(||Lx^{k+1} - z^k||, ||zbar^{k+1}||, ||w^{k+1} - w^k||) <= tol.
    """
    require_valid(params, horizon_check)
    if strat is None:
        strat = XUpdateStrategy.automatic(p)
    strat.check(p)

    m = p.g.dim
    if init is None:
        y0 = y1 = z0 = z1 = np.zeros(m)
    else:
        y0, y1, z0, z1 = (check_vector(u, m) for u in init)

    dw_sq_sum = 0.0

    def iterate(state, k):
        nonlocal dw_sq_sum
        try:
            new, extras = step(state, p, params, k, strat)
        except SubproblemError as err:
            err.iteration = k
            raise
        dw = float(np.linalg.norm(extras["w_next"] - extras["w"]))
        dw_sq_sum += dw * dw
        zbar_norm = float(np.linalg.norm(new.zbar))
        row = TraceRow(
            k,
            primal=p.f(extras["x_next"]) + p.g(state.z + state.zbar),
            dual=dual_value(p, extras["v"], state.y),
            feas_residual=extras["feas"],
            zbar_norm=zbar_norm,
            dw_norm=dw,
            dw_sq_sum=dw_sq_sum,
            vectors={
                "x_next": extras["x_next"],
                "z": state.z,
                "z_next": new.z,
                "zbar_next": new.zbar,
                "y": state.y,
                "y_next": new.y,
                "v": extras["v"],
                "w": extras["w"],
                "w_next": extras["w_next"],
            },
        )
        return new, row, (extras["feas"], zbar_norm, dw)

    state = IadmmState(k=1, x=np.zeros(p.f.dim), z=z1, z_prev=z0,
                       zbar=np.zeros(m), y=y1, y_prev=y0)
    # first_k = 2: k = 1 can show zero residuals by construction (w^2 = w^1 bridge)
    trace, state = drive(iterate, state, max_iters, tol, first_k=2)
    trace.final = {
        "x": state.x,
        "z": state.z,
        "y": state.y,
        "v": trace.rows[-1].vectors["v"],
        "w": trace.rows[-1].vectors["w_next"],
    }
    return trace


def classical_admm(p, gamma, init=None, lam=1.0, strat=None,
                   max_iters=100000, tol=1e-10):
    """Standalone classical (lam = 1) or relaxed (0 < lam < 2) ADMM.

    Serves as the reduction oracle: the inertial scheme with alpha_k = 0
    and lambda_k = lam must reproduce it iterate for iterate.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if strat is None:
        strat = XUpdateStrategy.automatic(p)
    strat.check(p)

    m = p.g.dim
    if init is None:
        y = z = np.zeros(m)
    else:
        y, z = (check_vector(u, m) for u in init)

    zeros = np.zeros(m)

    def iterate(state, k):
        y_k, z_k = state.y, state.z
        x_next = x_update(state, p, gamma, 0.0, strat)
        Lx = p.L.apply(x_next)
        z_next = p.g.prox(1.0 / gamma,
                          lam * Lx + (1.0 - lam) * z_k + y_k / gamma)
        y_next = y_k + gamma * (lam * Lx + (1.0 - lam) * z_k - z_next)
        feas = float(np.linalg.norm(Lx - z_k))
        dz = float(np.linalg.norm(z_next - z_k))
        dy = float(np.linalg.norm(y_next - y_k))
        dw = float(np.linalg.norm((y_next + gamma * z_next) - (y_k + gamma * z_k)))
        row = TraceRow(
            k,
            primal=p.f(x_next) + p.g(z_k),
            dual=dual_value(p, y_k + gamma * (Lx - z_k), y_k),
            feas_residual=feas,
            zbar_norm=0.0,
            dw_norm=dw,
            dw_sq_sum=np.nan,
            vectors={"x_next": x_next, "z": z_k, "z_next": z_next,
                     "y": y_k, "y_next": y_next},
        )
        new = IadmmState(k=k + 1, x=x_next, z=z_next, z_prev=z_k,
                         zbar=zeros, y=y_next, y_prev=y_k)
        return new, row, (feas, gamma * dz, dy)

    state = IadmmState(k=1, x=np.zeros(p.f.dim), z=z, z_prev=z,
                       zbar=zeros, y=y, y_prev=y)
    trace, state = drive(iterate, state, max_iters, tol, first_k=1)
    trace.final = {"x": state.x, "z": state.z, "y": state.y}
    return trace
