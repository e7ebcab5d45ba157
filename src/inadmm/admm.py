"""Inertial ADMM for min f(x) + g(Lx), plus the classical/relaxed reductions.

The scheme keeps two history levels of the multiplier y and the splitting
variable z, adds an inertial extrapolation controlled by alpha_k, and a
relaxation factor lambda_k.  The auxiliary sequences

    w^k = y^k + gamma z^k
    v^k = y^k - gamma z^k + gamma L x^{k+1} - alpha_k (dy + gamma dz)

recombine the iterates into a Douglas-Rachford trajectory.  Each state
carries the pair: ``step`` computes w^{k+1} and stores it on the state it
returns, which forms v^k on first read (no later iterate and no stop test
reads it), and the run records both from the states so the correspondence
can be checked externally.
"""

import math

import numpy as np

from .duality import _dual_value
from .functions import Quadratic, has_row_kernels
from .functions import _norm as _row_norm
from .linalg import LinearMap, Record, _norm, check_dim, check_gamma, check_step, check_vector
from .params import CoefficientRow, Coefficients, require_valid
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


class ProblemSpec(Record):
    """min f(x) + g(Lx) with L injective (positive injectivity modulus)."""

    _fields = ("f", "g", "L")

    def __init__(self, f, g, L):
        if f.dim != L.domain_dim:
            raise ValueError("f dimension does not match domain of L")
        if g.dim != L.codomain_dim:
            raise ValueError("g dimension does not match codomain of L")
        if not L.is_injective():
            raise ValueError(
                "L must have a positive injectivity modulus "
                "(full column rank); rank-deficient operators are rejected"
            )
        self.f, self.g, self.L = f, g, L


class IadmmState:
    """x^k, z^k, z^{k-1}, zbar^k, y^k, y^{k-1} and w^k = y^k + gamma z^k.

    v^k, the certificate of the step that made the state, is formed on first
    read by that step's expression y^{k-1} - gamma z^{k-1} + gamma L x^k -
    alpha drift, from the ``drift`` = dy + gamma dz, the arrays ``gamma``
    and ``alpha`` of its coefficient row and the map ``L`` the step keeps on
    the state, and then kept; L x^k is computed again rather than kept.  It
    is None for a state no step made; ``v=`` or an assignment sets it.
    """

    __slots__ = ("k", "x", "z", "z_prev", "zbar", "y", "y_prev", "_v", "w",
                 "drift", "gamma", "alpha", "L")

    def __init__(self, k, x, z, z_prev, zbar, y, y_prev, v=None, w=None,
                 drift=None, gamma=None, alpha=None, L=None):
        self.k, self.x, self.z, self.z_prev, self.zbar = k, x, z, z_prev, zbar
        self.y, self.y_prev, self._v, self.w = y, y_prev, v, w
        self.drift, self.gamma, self.alpha, self.L = drift, gamma, alpha, L

    @property
    def v(self):
        if self._v is None and self.drift is not None:
            self._v = (self.y_prev - self.gamma * self.z_prev + self.gamma
                       * self.L._apply(self.x) - self.alpha * self.drift)
        return self._v

    @v.setter
    def v(self, value):
        self._v = value


class XUpdateStrategy:
    """How the x-subproblem is minimized.

    - ``prox_identity``: L'L = cI (``L.frame`` is c), the identity among
      them; one prox call, exact.
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
        budget = check_dim(budget, "budget")
        if not 0.0 <= eps_inner < math.inf:
            raise ValueError("eps_inner must be finite and >= 0, got %r"
                             % (eps_inner,))
        self.kind = kind
        self.eps_inner = eps_inner
        self.budget = budget

    @classmethod
    def automatic(cls, p):
        return cls("prox_identity" if p.L.frame is not None else
                   "quadratic_solve" if isinstance(p.f, Quadratic) else
                   "inner_iterative")

    def check(self, p, gamma):
        if self.kind == "prox_identity" and p.L.frame is None:
            raise ValueError("prox_identity strategy requires L'L = cI")
        if self.kind == "quadratic_solve" and not isinstance(p.f, Quadratic):
            raise ValueError("quadratic_solve strategy requires quadratic f")
        if self.kind != "quadratic_solve":  # the x-update's step 1/(gamma ||L||^2)
            check_step(gamma, p.L.norm() * p.L.norm())  # ||L||^2 = L.frame if set


def x_update(state, p, gamma, c, strat):
    """Minimize f(x) + <c, Lx> + (gamma/2)||Lx - z^k||^2 for the caller's c.

    ``step`` passes c_k = y^k - alpha_k dy - gamma alpha_k dz, and as gamma
    its ``params.Coefficients`` row, a float equal to gamma whose 0-d
    ``gamma`` array the products read; ``classical_admm`` passes c = y^k.
    """
    g = gamma.gamma if type(gamma) is CoefficientRow else gamma
    L = p.L
    if strat.kind == "prox_identity":
        # L'L = L.frame I: x = prox_{f/(gamma L.frame)}(L'(z^k - c_k/gamma) / L.frame)
        return p.f._prox(1.0 / (gamma * L.frame), L._left_inverse(state.z - c / g))
    if strat.kind == "quadratic_solve":
        # (Q + gamma L'L) x = L'(gamma z^k - c_k) - q: one L' product, two
        # triangular solves on the factor f keeps for (gamma, L)
        return p.f._solver(gamma, L)(L._adjoint_apply(g * state.z - c) - p.f.q)
    # proximal gradient on the smooth part s(x) = <c,Lx> + gamma/2 ||Lx-z||^2
    t = 1.0 / (gamma * L.norm() ** 2)
    x = state.x.copy()
    Ltc = L._adjoint_apply(c)
    for _ in range(strat.budget):
        grad = Ltc + g * L._adjoint_apply(L._apply(x) - state.z)
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


def step(state, p, params, k, strat, norm=_norm):
    """One full inertial ADMM iteration; returns (new_state, norm(r)).

    The new state carries x^{k+1}, z^{k+1}, y^{k+1} and w^{k+1}, and forms
    v^k on first read from the drift it keeps (see ``IadmmState``);
    r = Lx^{k+1} - z^k, and ``norm`` is the 2-norm unless the caller gives
    another.  The scalars come from ``params.coefficients`` (see
    ``params.Coefficients``), and every shared term (dy, dz, Lx^{k+1}, r,
    drift = dy + gamma dz, lambda_k Lx^{k+1}, (1 - lambda_k) z^k, ...) is
    computed once.  A ``still`` row (alpha_k = alpha_{k+1} = 0) drops the
    zero drift terms of c_k, of the z-argument and of y^{k+1}, but forms
    the drift, which signs zbar^{k+1}'s zeros and ends v^k; a row with
    lambda_k = 1 drops the (1 - lambda_k) z^k terms.  On (P, m) rows
    with a batch's table it advances P points, each row bit for bit its own
    step; the default norm(r) is then the array of the rows' 2-norms.
    """
    co = params.coefficients.at(k)
    gamma = co.gamma
    y, z = state.y, state.z
    dy = y - state.y_prev
    dz = z - state.z_prev

    c = y if co.still else y - co.alpha * dy - co.gamma_alpha * dz
    x_next = x_update(state, p, co, c, strat)
    Lx = p.L._apply(x_next)
    r = Lx - z
    drift = dy + gamma * dz
    # zbar^{k+1} = alpha_{k+1} lambda_k (Lx^{k+1} - z^k)
    #              + ((1 - lambda_k) alpha_k alpha_{k+1} / gamma) drift
    zbar_next = co.next_lam * r + co.zbar_drift * drift
    # z^{k+1} = prox_{g/gamma}(zbar^{k+1} + lambda_k Lx^{k+1} + (1 - lambda_k)
    #   z^k + y^k / gamma + ((1 - lambda_k) alpha_k / gamma) drift) - zbar^{k+1}
    l_Lx = co.lam * Lx
    arg = zbar_next + l_Lx
    if co.relaxed:  # (1 - lambda_k) z^k, zero on a row with lambda_k = 1
        l_z = co.rest * z
        arg += l_z
        l_Lx += l_z
    arg += y / gamma
    if not co.still:  # the sum's last term, zero on a still row
        arg += co.arg_drift * drift
    z_next = p.g._prox(co.inv_gamma, arg) - zbar_next
    # y^{k+1} = y^k + gamma (lambda_k Lx^{k+1} + (1 - lambda_k) z^k - z^{k+1})
    #           + (1 - lambda_k) alpha_k drift
    y_next = y + gamma * (l_Lx - z_next)
    if not co.still:
        y_next += co.rest_alpha * drift
    # v^k = y^k - gamma z^k + gamma Lx^{k+1} - alpha_k drift, certifying
    # -L*v^k in df(x^{k+1}), is formed by the state on first read
    new_state = IadmmState(k + 1, x_next, z_next, z, zbar_next, y_next, y, None,
                           y_next + gamma * z_next, drift, gamma, co.alpha, p.L)
    return new_state, (norm(r) if r.ndim == 1 or norm is not _norm
                       else _row_norm(r)[:, 0])


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
        _dual_value(p, new.v, prev.y)), _row_kernels(p))


def _row_kernels(p):
    return has_row_kernels(p.f) and has_row_kernels(p.g)


def run_iadmm(p, params, init=None, strat=None, max_iters=100000, tol=1e-10):
    """Run the inertial ADMM iteration to the combined residual tolerance.

    `init` is (y0, y1, z0, z1); defaults to zeros.  Stops when
    max(||Lx^{k+1} - z^k||, ||zbar^{k+1}||, ||w^{k+1} - w^k||) <= tol.
    """
    require_valid(params)
    if strat is None:
        strat = XUpdateStrategy.automatic(p)
    strat.check(p, params.gamma)
    if init is not None:
        init = [check_vector(u, p.g.dim) for u in init]
    trace, state = _loop(p, params, strat, init, max_iters, tol, _iadmm_schema(p))
    trace.final = {"x": state.x, "z": state.z, "y": state.y, "v": state.v,
                   "w": state.w}
    return trace


def _loop(p, params, strat, init, max_iters, tol, schema, norm=_norm):
    """``run_iadmm``'s loop, shared by the consensus runs on their lifts, from
    the checked ``init`` (y0, y1, z0, z1) or zeros; ``norm`` takes the norm of
    r = Lx^{k+1} - z^k.  Returns the trace and the last state."""
    m = p.g.dim
    y0, y1, z0, z1 = [np.zeros(m)] * 4 if init is None else init

    def iterate(state, k):
        try:
            new, feas = step(state, p, params, k, strat, norm)
        except SubproblemError as err:
            err.iteration = k
            raise
        zbar_norm = _norm(new.zbar)
        # positional, for speed; drive fills dw_norm and dw_sq_sum
        row = TraceRow(k, feas, zbar_norm, np.nan, np.nan, None, state, new, schema)
        return new, row, (feas, zbar_norm)

    state = IadmmState(k=1, x=np.zeros(p.f.dim), z=z1, z_prev=z0,
                       zbar=np.zeros(m), y=y1, y_prev=y0,
                       w=y1 + params.gamma * z1)
    # first_k = 2: k = 1 can show zero residuals by construction (w^2 = w^1 bridge)
    return drive(iterate, state, max_iters, tol, first_k=2)


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
    and an f or g without row kernels (``has_row_kernels``) run serially."""
    strat = XUpdateStrategy.automatic(p)
    if strat.kind == "inner_iterative" or not _row_kernels(p):
        return [run_iadmm(p, q, max_iters=max_iters, tol=tol) for q in rows]
    for q in rows:
        require_valid(q)
        strat.check(p, q.gamma)
    if len({q.gamma for q in rows}) > 1:
        raise ValueError("a batch's parameter sets must share gamma")
    check_budget(max_iters, tol)
    traces, live = [SolveTrace() for _ in rows], list(range(len(rows)))
    if rows:
        table, schema = _batch_table(rows, p.g.dim), _iadmm_schema(p)
        sums = [0.0] * len(rows)  # the running sums of dw^2 of the live rows
        zeros = np.zeros((len(rows), p.g.dim))  # w = y + gamma z is zero too
        state = IadmmState(k=1, x=np.zeros((len(rows), p.f.dim)), z=zeros,
                           z_prev=zeros, zbar=zeros, y=zeros, y_prev=zeros, w=zeros)
    while live:
        k = state.k
        new, r = step(state, p, table, k, strat, _keep_r)
        # drive's residuals of every row: ||r||, then ||zbar^{k+1}||, then
        # ||w^{k+1} - w^k||
        res = _row_norms(r, new.zbar, new.w - state.w)
        del r  # not held through the next step
        P = len(live)
        feas, zbar, dw = res[:P], res[P:2 * P], res[2 * P:]
        sums = [s + d * d for s, d in zip(sums, dw)]
        # whether drive's rule may stop a row: a residual that is not finite
        # (their sum is not then), or a row whose residuals are all <= tol;
        # stops() then decides row by row
        if record or k == max_iters or not math.isfinite(sum(res)) or (
                k >= 2 and min(map(max, feas, zbar, dw)) <= tol):
            keep = []
            for j, residuals in enumerate(zip(feas, zbar, dw)):
                i = live[j]
                stop = stops(traces[i], residuals, k, 2, tol) or k == max_iters
                if record or stop:
                    traces[i].append(TraceRow(k, *residuals, sums[j],
                                              prev=_Row(state, j), new=_Row(new, j),
                                              schema=schema))
                if stop:
                    traces[i].final = {f: getattr(new, f)[j] for f in "xzyvw"}
                else:
                    keep.append(j)
            if 0 < len(keep) < len(live):
                table = _batch_table([rows[live[j]] for j in keep], p.g.dim)
                new = IadmmState(k=new.k, **{f: getattr(new, f)[keep] for f in (
                    "x", "z", "z_prev", "zbar", "y", "y_prev", "v", "w")})
                sums = [sums[j] for j in keep]
            live = [live[j] for j in keep]
        state = new
    return traces


# numpy 2 multiplies (P, m) rows by a (P, m) array in about half the time
# it broadcasts a (P, 1) column over them while m <= 4096, and in 1.7 to 2.4
# times that time beyond, where the column takes a faster loop and the full
# array costs a second operand's reads (and memory: 8 (P, m) arrays a table)
FULL_WIDTH_MAX = 4096
# one norm of the stop test's three stacked (P, m) blocks saves two calls:
# a batch run takes 0.89x the time of a norm per block at P m = 90, 0.93x
# at 270 and 1.00x at 1800; beyond about 2000 the (3P, m) copy costs more
# than the calls, and its memory
STACKED_MAX = 2048


def _batch_table(rows, m):
    """The coefficient table of the parameter sets ``rows`` for (P, m) rows:
    full-width columns up to m = FULL_WIDTH_MAX, (P, 1) columns beyond."""
    return Coefficients((rows, m if m <= FULL_WIDTH_MAX else 1))


def _row_norms(*blocks):
    """The 2-norms of the rows of the (P, m) ``blocks``, block after block,
    as floats: one norm of the stacked blocks up to STACKED_MAX entries a
    block, else a norm per block."""
    if blocks[0].size <= STACKED_MAX:
        return _row_norm(np.concatenate(blocks)).ravel().tolist()
    return [x for b in blocks for x in _row_norm(b).ravel().tolist()]


def _keep_r(r):
    """The batch's ``norm`` hook: ``step`` hands back r itself."""
    return r


def classical_admm(p, gamma, init=None, lam=1.0, strat=None,
                   max_iters=100000, tol=1e-10):
    """Standalone classical (lam = 1) or relaxed (0 < lam < 2) ADMM.

    Serves as the reduction oracle: the inertial scheme with alpha_k = 0
    and lambda_k = lam must reproduce it iterate for iterate.
    """
    check_gamma(gamma)
    if strat is None:
        strat = XUpdateStrategy.automatic(p)
    strat.check(p, gamma)

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
        _dual_value(p, prev.y + gamma * (p.L._apply(new.x) - prev.z), prev.y)),
        _row_kernels(p))

    def iterate(state, k):
        y_k, z_k = state.y, state.z
        x_next = x_update(state, p, gamma, y_k, strat)
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
