"""Inertial Douglas-Rachford iteration for two resolvent-equipped operators.

This is both a solver in its own right and the independent oracle for the
equivalence test of the inertial ADMM scheme: the ADMM iterates, suitably
recombined, follow exactly this recursion.
"""

from dataclasses import dataclass

import numpy as np

from .functions import Quadratic
from .linalg import _norm, check_gamma, check_vector
from .params import require_valid
from .trace import TraceRow, drive

__all__ = ["ResolventOp", "IdrState", "idr_step", "run_idr"]


class ResolventOp:
    """A maximally monotone operator given through its (exact) resolvent.

    Kinds:
      - ``subdifferential(f)``: A = df, resolvent is the prox of f.
      - ``conjugate_subdifferential(g)``: A = dg*, resolvent is the prox of
        the conjugate (Moreau decomposition).
      - ``composed_conjugate(f, L)``: A = d(f* o (-L*)).  The resolvent is
        computed by an inner minimization that is available in closed form
        only for quadratic f or (scaled-)identity L; other combinations are
        rejected at construction so the oracle stays exact.
      - ``zero`` / ``point_normal_cone(a)``: convenience special cases.
    """

    def __init__(self, kind, resolvent, dim):
        self.kind = kind
        self._resolvent = resolvent
        self.dim = dim
        # what idr_step calls: set by the constructors below to their
        # unchecked kernel; a hand-built operator keeps the checked resolvent
        self._kernel = None

    @classmethod
    def _catalog(cls, kind, kernel, dim):
        op = cls(kind, kernel, dim)
        op._kernel = kernel
        return op

    @classmethod
    def subdifferential(cls, f):
        return cls._catalog("subdifferential", f._prox, f.dim)

    @classmethod
    def conjugate_subdifferential(cls, g):
        return cls._catalog("conjugate_subdifferential", g._conj_prox, g.dim)

    @classmethod
    def zero(cls, dim):
        return cls._catalog("zero", lambda gamma, u: u.copy(), dim)

    @classmethod
    def point_normal_cone(cls, a):
        a = check_vector(a, None, name="a")
        return cls._catalog("point_normal_cone", lambda gamma, u: a.copy(),
                            a.shape[0])

    @classmethod
    def composed_conjugate(cls, f, L):
        """A = d(f* o (-L*)) on the codomain of L.

        J_{gamma A}(u) = u + gamma L xhat with
        xhat = argmin_x { f(x) + <u, Lx> + (gamma/2) ||Lx||^2 }.
        """
        dim = L.codomain_dim
        if L.kind in ("identity", "scaled_identity"):
            c = 1.0 if L.kind == "identity" else L.scale

            def resolvent(gamma, u):
                # argmin f(x) + c<u,x> + (gamma c^2/2)||x||^2
                xhat = f._prox(1.0 / (gamma * c * c), -u / (gamma * c))
                return u + gamma * c * xhat

            return cls._catalog("composed_conjugate", resolvent, dim)
        if isinstance(f, Quadratic):
            def resolvent(gamma, u):
                # xhat solves (Q + gamma L'L) x = -q - L'u with f's own factor
                xhat = f._solver(gamma, L)(-f.q - L._adjoint_apply(u))
                return u + gamma * L._apply(xhat)

            return cls._catalog("composed_conjugate", resolvent, dim)
        raise ValueError(
            "composed_conjugate needs quadratic f or (scaled-)identity L "
            "for an exact inner solve"
        )

    def resolvent(self, gamma, u):
        check_gamma(gamma)
        return self._resolvent(gamma, check_vector(u, self.dim))


@dataclass
class IdrState:
    k: int
    w_prev: np.ndarray
    w: np.ndarray
    y: np.ndarray = None
    v: np.ndarray = None


def idr_step(state, A, B, gamma, alpha_k, lambda_k):
    """One inertial Douglas-Rachford step.

    u = w + alpha_k (w - w_prev); y = J_{gamma B}(u);
    v = J_{gamma A}(2y - u); w_next = u + lambda_k (v - y).
    """
    u = state.w + alpha_k * (state.w - state.w_prev)
    y = (B._kernel or B.resolvent)(gamma, u)
    v = (A._kernel or A.resolvent)(gamma, 2.0 * y - u)
    w_next = u + lambda_k * (v - y)
    return IdrState(k=state.k + 1, w_prev=state.w, w=w_next, y=y, v=v)


def run_idr(A, B, gamma, params, w0, w1, max_iters=100000, tol=1e-10,
            horizon_check=1000):
    """Iterate the inertial DR scheme until the joint residual is small.

    Stops when ||v - y|| <= tol and ||w_next - w|| <= tol, or after
    `max_iters` iterations.  The trace stores w, y, v per iteration and
    the running sum of ||w_next - w||^2.
    """
    check_gamma(gamma)
    require_valid(params, horizon_check)
    w0 = check_vector(w0, A.dim, name="w0")
    w1 = check_vector(w1, A.dim, name="w1")
    if params.alpha_at(1) > 0.0 and not np.array_equal(w0, w1):
        raise ValueError(
            "nonzero inertia at the first iteration requires w0 == w1"
        )

    dw_sq_sum = 0.0

    def iterate(state, k):
        nonlocal dw_sq_sum
        new = idr_step(state, A, B, gamma, params.alpha_at(k), params.lambda_at(k))
        dw = _norm(new.w - state.w)
        vy = _norm(new.v - new.y)
        dw_sq_sum += dw * dw
        row = TraceRow(
            k,
            feas_residual=vy,
            dw_norm=dw,
            dw_sq_sum=dw_sq_sum,
            vectors={"w": state.w, "w_next": new.w, "y": new.y, "v": new.v},
        )
        return new, row, (vy, dw)

    # first_k = 2: the first iteration can be a forced w^2 = w^1 bridge
    trace, state = drive(iterate, IdrState(k=0, w_prev=w0, w=w1), max_iters,
                         tol, first_k=2)
    trace.final = {"w": state.w, "y": state.y, "v": state.v}
    return trace
