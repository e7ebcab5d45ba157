"""Inertial ADMM for min f(x) + g(Lx), plus the classical/relaxed reductions.

The scheme keeps two history levels of the multiplier y and the splitting
variable z, adds an inertial extrapolation controlled by alpha_k, and a
relaxation factor lambda_k.  The auxiliary sequences

    w^k = y^k + gamma z^k
    v^k = y^k - gamma z^k + gamma L x^{k+1} - alpha_k (dy + gamma dz)

recombine the iterates into a Douglas-Rachford trajectory.  Each state
carries the pair: ``step`` computes v^k and w^{k+1} once and stores them on
the state it returns, and the run records both from the states so the
correspondence can be checked externally.
"""

import functools
import math
import numbers
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .duality import _dual_value
from .functions import IndicatorConsensus, Quadratic, SeparableSum
from .functions import _norm as _row_norm
from .linalg import LinearMap, _norm, check_gamma, check_vector
from .params import require_valid
from .trace import SolveTrace, TraceRow, check_budget, drive, stops

__all__ = [
    "ProblemSpec",
    "IadmmState",
    "XUpdateStrategy",
    "SubproblemError",
    "x_update",
    "step",
    "run_iadmm",
    "run_iadmm_batch",
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
        if not self.L.is_injective():
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
    v: np.ndarray = None  # v^k of the step that made this state
    w: np.ndarray = None  # y + gamma z


class XUpdateStrategy:
    """How the x-subproblem is minimized.

    - ``prox_identity``: L is the identity; one prox call, exact.
    - ``quadratic_solve``: f is quadratic; one linear solve with the factor
      f keeps for (gamma, L), exact.
    - ``inner_iterative``: proximal gradient on the subproblem to a
      fixed-point residual ``eps_inner`` (fallback, inexact).

    A strategy keeps no state, so one strategy serves any number of problems.
    The inner ``budget`` must be an integer >= 1 and ``eps_inner`` a finite
    number >= 0.
    """

    def __init__(self, kind, eps_inner=1e-12, budget=10000):
        if kind not in ("prox_identity", "quadratic_solve", "inner_iterative"):
            raise ValueError("unknown x-update strategy %r" % (kind,))
        if not (isinstance(budget, numbers.Integral) and budget >= 1):
            raise ValueError("budget must be an integer >= 1, got %r" % (budget,))
        if not 0.0 <= eps_inner < math.inf:
            raise ValueError("eps_inner must be finite and >= 0, got %r"
                             % (eps_inner,))
        self.kind = kind
        self.eps_inner = eps_inner
        self.budget = budget

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


def x_update(state, p, gamma, alpha_k, strat, dy=None, dz=None):
    """Minimize f(x) + <c_k, Lx> + (gamma/2)||Lx - z^k||^2.

    c_k = y^k - alpha_k dy - gamma alpha_k dz with dy = y^k - y^{k-1} and
    dz = z^k - z^{k-1}, computed here unless the caller passes them.
    """
    if dy is None:
        dy = state.y - state.y_prev
    if dz is None:
        dz = state.z - state.z_prev
    c = state.y - alpha_k * dy - gamma * alpha_k * dz
    if strat.kind == "prox_identity":
        return p.f._prox(1.0 / gamma, state.z - c / gamma)
    L = p.L
    if strat.kind == "quadratic_solve":
        rhs = gamma * L._adjoint_apply(state.z) - L._adjoint_apply(c) - p.f.q
        return p.f._solver(gamma, L)(rhs)
    # proximal gradient on the smooth part s(x) = <c,Lx> + gamma/2 ||Lx-z||^2
    t = 1.0 / (gamma * L.norm() ** 2)
    x = state.x.copy()
    Ltc = L._adjoint_apply(c)
    for _ in range(strat.budget):
        grad = Ltc + gamma * L._adjoint_apply(L._apply(x) - state.z)
        x_new = p.f._prox(t, x - t * grad)
        resid = _norm(x_new - x) / t
        x = x_new
        if resid <= strat.eps_inner:
            return x
    raise SubproblemError(
        "inner x-subproblem did not reach eps_inner=%g within %d steps "
        "(achieved residual %g)" % (strat.eps_inner, strat.budget, resid),
        residual=resid,
        iteration=strat.budget,
    )


def step(state, p, params, k, strat):
    """One full inertial ADMM iteration; returns (new_state, ||r||).

    The new state carries x^{k+1}, z^{k+1}, y^{k+1}, v^k and w^{k+1};
    r = Lx^{k+1} - z^k.  Every shared term (dy, dz, Lx^{k+1}, r, drift =
    dy + gamma dz, lambda_k Lx^{k+1}, (1 - lambda_k) z^k, ...) is computed once.
    On (P, m) rows with (P, 1) parameter columns it advances P points, each
    row bit for bit its own step, and ||r|| is the list of the rows' norms.
    """
    gamma = params.gamma
    a_k = params.alpha_at(k)
    a_next = params.alpha_at(k + 1)
    l_k = params.lambda_at(k)
    m_k = 1.0 - l_k
    ma_k = m_k * a_k
    y, z = state.y, state.z
    dy = y - state.y_prev
    dz = z - state.z_prev

    x_next = x_update(state, p, gamma, a_k, strat, dy, dz)
    Lx = p.L._apply(x_next)
    r = Lx - z
    drift = dy + gamma * dz
    # zbar^{k+1} = alpha_{k+1} lambda_k (Lx^{k+1} - z^k)
    #              + ((1 - lambda_k) alpha_k alpha_{k+1} / gamma) drift
    zbar_next = a_next * l_k * r + (ma_k * a_next / gamma) * drift
    # z^{k+1} = -zbar^{k+1} + prox_{g/gamma}(zbar^{k+1} + lambda_k Lx^{k+1}
    #   + (1 - lambda_k) z^k + y^k / gamma + ((1 - lambda_k) alpha_k / gamma) drift)
    l_Lx = l_k * Lx
    l_z = m_k * z
    arg = zbar_next + l_Lx + l_z + y / gamma + (ma_k / gamma) * drift
    z_next = -zbar_next + p.g._prox(1.0 / gamma, arg)
    # y^{k+1} = y^k + gamma (lambda_k Lx^{k+1} + (1 - lambda_k) z^k - z^{k+1})
    #           + (1 - lambda_k) alpha_k drift
    y_next = y + gamma * (l_Lx + l_z - z_next) + ma_k * drift
    # v^k = y^k - gamma z^k + gamma Lx^{k+1} - alpha_k drift, certifying
    # -L*v^k in df(x^{k+1})
    v_k = y - gamma * z + gamma * Lx - a_k * drift
    new_state = IadmmState(k=k + 1, x=x_next, z=z_next, z_prev=z,
                           zbar=zbar_next, y=y_next, y_prev=y, v=v_k,
                           w=y_next + gamma * z_next)
    return new_state, _norm(r) if r.ndim == 1 else _row_norm(r)[:, 0].tolist()


def _iadmm_vectors(prev, new):
    return {"x_next": new.x, "z": prev.z, "z_next": new.z,
            "zbar_next": new.zbar, "y": prev.y, "y_next": new.y, "v": new.v,
            "w": prev.w, "w_next": new.w}


def _classical_vectors(prev, new):
    return {"x_next": new.x, "z": prev.z, "z_next": new.z, "y": prev.y,
            "y_next": new.y}


def _iadmm_schema(p):
    # primal f(x^{k+1}) + g(z^k + zbar^k), dual value at (v^k, y^k)
    return (_iadmm_vectors, lambda prev, new: (
        p.f._value(new.x) + p.g._value(prev.z + prev.zbar),
        _dual_value(p, new.v, prev.y)))


def run_iadmm(p, params, init=None, strat=None, max_iters=100000, tol=1e-10):
    """Run the inertial ADMM iteration to the combined residual tolerance.

    `init` is (y0, y1, z0, z1); defaults to zeros.  Stops when
    max(||Lx^{k+1} - z^k||, ||zbar^{k+1}||, ||w^{k+1} - w^k||) <= tol.
    """
    require_valid(params)
    if strat is None:
        strat = XUpdateStrategy.automatic(p)
    strat.check(p)

    m = p.g.dim
    if init is None:
        y0 = y1 = z0 = z1 = np.zeros(m)
    else:
        y0, y1, z0, z1 = (check_vector(u, m) for u in init)
    schema = _iadmm_schema(p)

    def iterate(state, k):
        try:
            new, feas = step(state, p, params, k, strat)
        except SubproblemError as err:
            err.iteration = k
            raise
        zbar_norm = _norm(new.zbar)
        row = TraceRow(k, feas, zbar_norm, prev=state, new=new, schema=schema)
        return new, row, (feas, zbar_norm)

    state = IadmmState(k=1, x=np.zeros(p.f.dim), z=z1, z_prev=z0,
                       zbar=np.zeros(m), y=y1, y_prev=y0,
                       w=y1 + params.gamma * z1)
    # first_k = 2: k = 1 can show zero residuals by construction (w^2 = w^1 bridge)
    trace, state = drive(iterate, state, max_iters, tol, first_k=2)
    trace.final = {"x": state.x, "z": state.z, "y": state.y, "v": state.v,
                   "w": state.w}
    return trace


def _columns(rows):
    """The schedules of P parameter sets sharing gamma as the (P, 1) columns
    ``step`` reads, each built once; they stay constant from k = 3 (the init
    modes) or the end of the last ramp on."""
    steady = max([3] + [s.ramp_over for q in rows for s in (
        q.alpha_schedule, q.lambda_schedule) if s.kind == "ramp"])
    column = functools.lru_cache(maxsize=None)(lambda name, k: np.array(
        [[getattr(q, name)(k)] for q in rows]))
    return SimpleNamespace(gamma=rows[0].gamma,
                           alpha_at=lambda k: column("alpha_at", min(k, steady)),
                           lambda_at=lambda k: column("lambda_at", min(k, steady)))


class _Row:
    """Row j of a batched state, read as one point's state."""

    __slots__ = ("state", "j")

    def __init__(self, state, j):
        self.state, self.j = state, j

    def __getattr__(self, name):
        return getattr(self.state, name)[self.j]


def run_iadmm_batch(p, rows, max_iters=100000, tol=1e-10, record=True):
    """``[run_iadmm(p, q, max_iters=max_iters, tol=tol) for q in rows]`` bit for
    bit, as one iteration: the points, which share gamma, are the (P, m) rows
    of one state advanced by ``step``, and a point leaves when ``drive``'s rule
    stops it on its row.  With ``record`` false a trace keeps its last row
    only.  An ``inner_iterative`` x-update, whose inner loop stops per point,
    and an f or g without row kernels run serially."""
    strat = XUpdateStrategy.automatic(p)
    if strat.kind == "inner_iterative" or any(
            isinstance(fn, (SeparableSum, IndicatorConsensus)) for fn in (p.f, p.g)):
        return [run_iadmm(p, q, max_iters=max_iters, tol=tol) for q in rows]
    for q in rows:
        require_valid(q)
    if len({q.gamma for q in rows}) > 1:
        raise ValueError("a batch's parameter sets must share gamma")
    check_budget(max_iters, tol)
    traces, sums, live = [SolveTrace() for _ in rows], [0.0] * len(rows), []
    if rows:
        live, columns, schema = list(range(len(rows))), _columns(rows), _iadmm_schema(p)
        zeros = np.zeros((len(rows), p.g.dim))  # w = y + gamma z is zero too
        state = IadmmState(k=1, x=np.zeros((len(rows), p.f.dim)), z=zeros,
                           z_prev=zeros, zbar=zeros, y=zeros, y_prev=zeros, w=zeros)
    while live:
        k, keep = state.k, []
        new, feas = step(state, p, columns, k, strat)
        norms = _row_norm(np.concatenate((new.zbar, new.w - state.w)))[:, 0].tolist()
        for j, res in enumerate(zip(feas, norms[:len(feas)], norms[len(feas):])):
            i = live[j]
            sums[i] += res[2] * res[2]
            stop = stops(traces[i], res, k, 2, tol) or k == max_iters
            if record or stop:
                traces[i].append(TraceRow(k, *res, sums[i], prev=_Row(state, j),
                                          new=_Row(new, j), schema=schema))
            if stop:
                traces[i].final = {f: getattr(new, f)[j] for f in "xzyvw"}
            else:
                keep.append(j)
        if 0 < len(keep) < len(live):
            columns = _columns([rows[live[j]] for j in keep])
            new = IadmmState(k=new.k, **{f: a[keep] for f, a in vars(new).items()
                                         if f != "k"})
        live, state = [live[j] for j in keep], new
    return traces


def classical_admm(p, gamma, init=None, lam=1.0, strat=None,
                   max_iters=100000, tol=1e-10):
    """Standalone classical (lam = 1) or relaxed (0 < lam < 2) ADMM.

    Serves as the reduction oracle: the inertial scheme with alpha_k = 0
    and lambda_k = lam must reproduce it iterate for iterate.
    """
    check_gamma(gamma)
    if strat is None:
        strat = XUpdateStrategy.automatic(p)
    strat.check(p)

    m = p.g.dim
    if init is None:
        y = z = np.zeros(m)
    else:
        y, z = (check_vector(u, m) for u in init)

    zeros = np.zeros(m)

    # primal f(x^{k+1}) + g(z^k), dual value at v^k = y^k + gamma r, with
    # r = Lx^{k+1} - z^k recomputed by the iteration's own expression
    schema = (_classical_vectors, lambda prev, new: (
        p.f._value(new.x) + p.g._value(prev.z),
        _dual_value(p, prev.y + gamma * (p.L._apply(new.x) - prev.z), prev.y)))

    def iterate(state, k):
        y_k, z_k = state.y, state.z
        x_next = x_update(state, p, gamma, 0.0, strat)
        Lx = p.L._apply(x_next)
        relaxed = lam * Lx + (1.0 - lam) * z_k
        z_next = p.g._prox(1.0 / gamma, relaxed + y_k / gamma)
        y_next = y_k + gamma * (relaxed - z_next)
        feas = _norm(Lx - z_k)
        dz = _norm(z_next - z_k)
        dy = _norm(y_next - y_k)
        dw = _norm((y_next + gamma * z_next) - (y_k + gamma * z_k))
        new = IadmmState(k=k + 1, x=x_next, z=z_next, z_prev=z_k,
                         zbar=zeros, y=y_next, y_prev=y_k)
        row = TraceRow(k, feas, zbar_norm=0.0, dw_norm=dw, prev=state, new=new,
                       schema=schema)
        return new, row, (feas, gamma * dz, dy)

    state = IadmmState(k=1, x=np.zeros(p.f.dim), z=z, z_prev=z,
                       zbar=zeros, y=y, y_prev=y)
    trace, state = drive(iterate, state, max_iters, tol, first_k=1)
    trace.final = {"x": state.x, "z": state.z, "y": state.y}
    return trace
