"""Inertial Douglas-Rachford iteration for two resolvent-equipped operators.

This is both a solver in its own right and the independent oracle for the
equivalence test of the inertial ADMM scheme: the ADMM iterates, suitably
recombined, follow exactly this recursion.
"""

import functools

import numpy as np

from .functions import Quadratic
from .linalg import Record, _norm, check_gamma, check_step, check_vector
from .params import require_valid
from .trace import TraceRow, drive

__all__ = ["ResolventOp", "IdrState", "idr_step", "run_idr"]

_TWO = np.array(2.0)  # 0-d: numpy multiplies by it faster than by a float


class ResolventOp:
    """A maximally monotone operator given through its (exact) resolvent.

    Kinds:
      - ``subdifferential(f)``: A = df, resolvent is the prox of f.
      - ``conjugate_subdifferential(g)``: A = dg*, resolvent is the prox of
        the conjugate (Moreau decomposition).
      - ``composed_conjugate(f, L)``: A = d(f* o (-L*)).  The resolvent is
        computed by an inner minimization that is available in closed form
        only for quadratic f or L with L'L = cI (``L.frame``); other
        combinations are rejected at construction so the oracle stays exact.

    A kind's resolvent is bound once per gamma, as ``Quadratic`` keeps a
    factor per gamma: ``_at(gamma)`` is u -> J_{gamma A}(u), kept for the
    last gamma.  A catalog kind binds its unchecked kernel, with its step
    checked once per binding and gamma (and -gamma c) as 0-d arrays, which
    numpy multiplies by faster than by a float, for the same bits; a
    hand-built operator binds its checked ``resolvent``.
    """

    def __init__(self, kind, resolvent, dim):
        self.kind = kind
        self._resolvent = resolvent
        self.dim = dim
        # set by the constructors below: gamma -> their unchecked kernel of u
        self._bind = None
        self._bound = None  # (gamma, u -> J_{gamma A}(u)) for the last gamma

    @classmethod
    def _catalog(cls, kind, bind, dim):
        op = cls(kind, lambda gamma, u: op._at(gamma)(u), dim)
        op._bind = bind
        return op

    def _at(self, gamma):
        bound = self._bound
        if bound is None or bound[0] != gamma:
            kernel = (self._bind(gamma) if self._bind is not None else
                      lambda u: self.resolvent(gamma, u))
            bound = self._bound = (gamma, kernel)
        return bound[1]

    @classmethod
    def subdifferential(cls, f):
        return cls._catalog("subdifferential",
                            lambda gamma: functools.partial(f._prox, gamma), f.dim)

    @classmethod
    def conjugate_subdifferential(cls, g):
        def bind(gamma):  # Moreau, as ConvexFn._conj_prox
            g_, inv = np.array(gamma, dtype=float), 1.0 / gamma
            return lambda u: u - g_ * g._prox(inv, u / g_)

        return cls._catalog("conjugate_subdifferential", bind, g.dim)

    @classmethod
    def composed_conjugate(cls, f, L):
        """A = d(f* o (-L*)) on the codomain of L.

        J_{gamma A}(u) = u + gamma L xhat with
        xhat = argmin_x { f(x) + <u, Lx> + (gamma/2) ||Lx||^2 }.
        """
        c = L.frame
        if c is None and not isinstance(f, Quadratic):
            raise ValueError("composed_conjugate needs quadratic f or L'L = cI "
                             "for an exact inner solve")

        def bind(gamma):
            g_ = np.array(gamma, dtype=float)
            if c is None:
                # xhat solves (Q + gamma L'L) x = -q - L'u with f's own factor
                return lambda u: u + g_ * L._apply(
                    f._solver(gamma, L)(-f.q - L._adjoint_apply(u)))
            check_step(gamma, c)
            # argmin f(x) + <L'u,x> + (gamma c/2)||x||^2, as L'L = cI
            neg_gc, t = np.array(-gamma * c, dtype=float), 1.0 / (gamma * c)
            return lambda u: u + g_ * L._apply(f._prox(t, L._adjoint_apply(u) / neg_gc))

        return cls._catalog("composed_conjugate", bind, L.codomain_dim)

    def resolvent(self, gamma, u):
        check_gamma(gamma)
        return self._resolvent(gamma, check_vector(u, self.dim))


class IdrState(Record):
    __slots__ = _fields = ("k", "w_prev", "w", "y", "v")

    def __init__(self, k, w_prev, w, y=None, v=None):  # once per DR step: a store per field
        self.k = k
        self.w_prev = w_prev
        self.w = w
        self.y = y
        self.v = v


def idr_step(state, A, B, gamma, alpha_k, lambda_k):
    """One inertial Douglas-Rachford step; returns (new_state, ||v - y||).

    u = w + alpha_k (w - w_prev); y = J_{gamma B}(u);
    v = J_{gamma A}(2y - u); w_next = u + lambda_k (v - y).
    """
    u = state.w + alpha_k * (state.w - state.w_prev)
    y = B._at(gamma)(u)
    v = A._at(gamma)(_TWO * y - u)
    vy = v - y
    return IdrState(state.k + 1, state.w, u + lambda_k * vy, y, v), _norm(vy)


def _idr_vectors(prev, new):
    return {"w": prev.w, "w_next": new.w, "y": new.y, "v": new.v}


# no objective columns; drive fills a row's dw_norm and dw_sq_sum
_IDR_SCHEMA = (_idr_vectors, None, False)


def run_idr(A, B, gamma, params, w0, w1, max_iters=100000, tol=1e-10):
    """Iterate the inertial DR scheme until the joint residual is small.

    Stops when ||v - y|| <= tol and ||w_next - w|| <= tol, or after
    `max_iters` iterations.  The trace stores w, y, v per iteration and
    the running sum of ||w_next - w||^2.
    """
    check_gamma(gamma)
    require_valid(params)
    w0 = check_vector(w0, A.dim, name="w0")
    w1 = check_vector(w1, A.dim, name="w1")
    if params.alpha_at(1) > 0.0 and not np.array_equal(w0, w1):
        raise ValueError(
            "nonzero inertia at the first iteration requires w0 == w1"
        )

    def iterate(state, k):
        co = params.coefficients.at(k)
        new, feas = idr_step(state, A, B, gamma, co.alpha, co.lam)
        row = TraceRow(k, feas, np.nan, np.nan, np.nan, None, state, new, _IDR_SCHEMA)
        return new, row, (feas,)

    # first_k = 2: the first iteration can be a forced w^2 = w^1 bridge
    trace, state = drive(iterate, IdrState(k=0, w_prev=w0, w=w1), max_iters,
                         tol, first_k=2)
    trace.final = {"w": state.w, "y": state.y, "v": state.v}
    return trace
