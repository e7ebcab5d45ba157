"""Product-space schemes for min sum_i f_i(x).

Two variants: the dual-sum-zero form keeps per-block primal iterates and
multipliers summing to zero, and aggregates a shared consensus point u.
The interchanged form keeps one shared primal point and per-block splitting
variables.  Both reduce to the textbook consensus ADMM when inertia is off
and relaxation is 1.
"""

from dataclasses import dataclass, field

import numpy as np

from .admm import IadmmState, ProblemSpec
from .duality import subgradient_violation
from .functions import IndicatorConsensus, SeparableSum
from .linalg import LinearMap, _norm, check_gamma, check_vector
from .params import require_valid
from .trace import TraceRow, drive

__all__ = [
    "ConsensusProblem",
    "ConsensusState",
    "sum1_step",
    "run_sum1",
    "sum2_step",
    "run_sum2",
    "boyd_consensus",
    "consensus_optimality_residual",
    "lift_problem",
]

ZERO_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ConsensusProblem:
    """min sum_i f_i(x); ``stacked`` evaluates all blocks on an (m, n) array."""

    blocks: tuple  # ConvexFn, all on the same space
    stacked: SeparableSum = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if len(blocks) < 2:
            raise ValueError("need at least two blocks")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "stacked", SeparableSum(blocks))

    @property
    def m(self):
        return len(self.blocks)

    @property
    def n(self):
        return self.blocks[0].dim


@dataclass
class ConsensusState(IadmmState):
    """Per-block iterates as (m, n) arrays; `shared` is u or the shared x."""

    shared: np.ndarray = None


def _as_block_array(u, m, n, name):
    a = np.asarray(u, dtype=float)
    if a.shape != (m, n):
        raise ValueError("%s must have shape (%d, %d)" % (name, m, n))
    if not np.isfinite(a).all():
        raise ValueError("%s entries must be finite" % name)
    return a


def _check_zero_sum(y, name):
    if np.linalg.norm(y.sum(axis=0)) > ZERO_SUM_TOL * (1.0 + np.abs(y).max()):
        raise ValueError("%s must sum to zero across blocks" % name)


def _initial_state(cp, init, require_zero_sum):
    m, n = cp.m, cp.n
    if init is None:
        y0 = y1 = z0 = z1 = np.zeros((m, n))
    else:
        y0, y1, z0, z1 = (
            _as_block_array(u, m, n, nm)
            for u, nm in zip(init, ("y0", "y1", "z0", "z1"))
        )
    if require_zero_sum:
        _check_zero_sum(y0, "y0")
        _check_zero_sum(y1, "y1")
    return ConsensusState(
        k=1,
        x=np.zeros((m, n)),
        z=z1,
        z_prev=z0,
        zbar=np.zeros((m, n)),
        y=y1,
        y_prev=y0,
    )


def sum1_step(state, cp, params, k):
    """One step of the dual-sum-zero consensus scheme."""
    gamma = params.gamma
    a_k = params.alpha_at(k)
    a_next = params.alpha_at(k + 1)
    l_k = params.lambda_at(k)
    m = cp.m

    dy = state.y - state.y_prev
    dz = state.z - state.z_prev
    drift = dy + gamma * dz
    c = state.y - a_k * dy - gamma * a_k * dz
    x_next = cp.stacked._prox(1.0 / gamma, state.z - c / gamma)
    zbar_next = (a_next * l_k * (x_next - state.z)
                 + ((1.0 - l_k) * a_k * a_next / gamma) * drift)
    u_next = (
        (l_k * (1.0 + a_next) / m) * x_next.sum(axis=0)
        + ((1.0 - a_next * l_k - l_k) / m) * state.z.sum(axis=0)
        + (a_k * (1.0 - l_k) * (1.0 + a_next) / m) * dz.sum(axis=0)
    )
    z_next = u_next[None, :] - zbar_next
    y_next = (state.y
              + gamma * (l_k * x_next + (1.0 - l_k) * state.z - z_next)
              + (1.0 - l_k) * a_k * drift)
    # v_i^k = y_i^k - gamma z_i^k + gamma x_i^{k+1} - alpha_k drift; the
    # per-block prox x-update certifies -v_i^k in df_i(x_i^{k+1})
    v = state.y - gamma * state.z + gamma * x_next - a_k * drift
    return ConsensusState(k=k + 1, x=x_next, z=z_next, z_prev=state.z,
                          zbar=zbar_next, y=y_next, y_prev=state.y, v=v,
                          w=y_next + gamma * z_next, shared=u_next)


def sum2_step(state, cp, params, k):
    """One step of the interchanged scheme with one shared primal point."""
    gamma = params.gamma
    a_k = params.alpha_at(k)
    a_next = params.alpha_at(k + 1)
    l_k = params.lambda_at(k)
    m = cp.m

    drift = state.y - state.y_prev + gamma * (state.z - state.z_prev)
    x_next = (state.z.sum(axis=0) / m
              - state.y.sum(axis=0) / (m * gamma)
              + (a_k / (m * gamma)) * drift.sum(axis=0))
    zbar_next = (a_next * l_k * (x_next[None, :] - state.z)
                 + ((1.0 - l_k) * a_k * a_next / gamma) * drift)
    arg = (zbar_next + l_k * x_next[None, :] + (1.0 - l_k) * state.z
           + state.y / gamma + ((1.0 - l_k) * a_k / gamma) * drift)
    z_next = -zbar_next + cp.stacked._prox(1.0 / gamma, arg)
    y_next = (state.y
              + gamma * (l_k * x_next[None, :] + (1.0 - l_k) * state.z - z_next)
              + (1.0 - l_k) * a_k * drift)
    # the per-block prox sits in the z-update here, certifying
    # y_i^{k+1} in df_i(z_i^{k+1} + zbar_i^{k+1}); same -v_i convention
    return ConsensusState(k=k + 1, x=np.tile(x_next, (m, 1)), z=z_next,
                          z_prev=state.z, zbar=zbar_next, y=y_next,
                          y_prev=state.y, v=-y_next,
                          w=y_next + gamma * z_next, shared=x_next)


def _blockwise_vectors(prev, new):
    return {"x": new.x, "z": new.z, "zbar": new.zbar, "y": new.y, "v": new.v,
            "shared": new.shared, "w": prev.w, "w_next": new.w}


def _run_blockwise(cp, params, stepper, init, require_zero_sum, max_iters,
                   tol):
    require_valid(params)
    # primal sum_i f_i(x_i) and dual -sum_i f_i*(-v_i)
    schema = (_blockwise_vectors, lambda prev, new: (
        cp.stacked._value(new.x), -cp.stacked._conj(-new.v)))

    def iterate(state, k):
        new = stepper(state, cp, params, k)
        feas = float(np.abs(new.x - state.z).max())
        zbar_norm = _norm(new.zbar)
        row = TraceRow(k, feas, zbar_norm, prev=state, new=new, schema=schema)
        return new, row, (feas, zbar_norm)

    state = _initial_state(cp, init, require_zero_sum)
    state.w = state.y + params.gamma * state.z
    # first_k = 2: k = 1 can show zero residuals by construction (forced bridge step)
    trace, state = drive(iterate, state, max_iters, tol, first_k=2)
    trace.final = {"x": state.x, "z": state.z, "y": state.y,
                   "shared": state.shared, "v": state.v}
    return trace


def run_sum1(cp, params, init=None, max_iters=100000, tol=1e-10):
    """Dual-sum-zero consensus run; initialization must have zero dual sum."""
    return _run_blockwise(cp, params, sum1_step, init, True, max_iters, tol)


def run_sum2(cp, params, init=None, max_iters=100000, tol=1e-10):
    """Interchanged consensus run (no zero-sum requirement on the duals)."""
    return _run_blockwise(cp, params, sum2_step, init, False, max_iters, tol)


@dataclass
class _BoydState:
    x: np.ndarray  # the per-block prox of the step that made this state
    xbar: np.ndarray
    y: np.ndarray


def _boyd_vectors(prev, new):
    return {"x": new.x, "xbar": new.xbar, "y": new.y}


def boyd_consensus(cp, gamma, init=None, max_iters=100000, tol=1e-10):
    """Textbook consensus ADMM: per-block prox against the running average.

    The reduction oracle for the dual-sum-zero scheme with inertia off and
    relaxation 1.
    """
    check_gamma(gamma)
    m, n = cp.m, cp.n
    if init is None:
        y = np.zeros((m, n))
        xbar = np.zeros(n)
    else:
        y, xbar = init
        y = _as_block_array(y, m, n, "y0")
        xbar = check_vector(xbar, n, name="xbar")
        _check_zero_sum(y, "y0")
    stacked = cp.stacked
    schema = (_boyd_vectors, lambda prev, new: (stacked._value(new.x), np.nan))

    def iterate(state, k):
        x = stacked._prox(1.0 / gamma, state.xbar - state.y / gamma)
        xbar_next = x.mean(axis=0)
        new = _BoydState(x, xbar_next, state.y + gamma * (x - xbar_next[None, :]))
        feas = float(np.abs(x - state.xbar[None, :]).max())
        dy = _norm(new.y - state.y)
        row = TraceRow(k, feas, dw_norm=dy, prev=state, new=new, schema=schema)
        return new, row, (feas, dy)

    trace, state = drive(iterate, _BoydState(None, xbar, y), max_iters, tol,
                         first_k=1)
    trace.final = {"x": state.x, "xbar": state.xbar, "y": state.y}
    return trace


def consensus_optimality_residual(x, v, cp, probes=50, rng=None):
    """Violation of the first-order conditions at (x, v_1..v_m).

    The stationarity certificate is -v_i in df_i(x) with sum_i v_i = 0;
    the result sums the worst probed subgradient-inequality violation with
    the norm of sum_i v_i.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    v = np.asarray(v, dtype=float)
    worst = 0.0
    for i, f in enumerate(cp.blocks):
        worst = max(worst, subgradient_violation(f, x, -v[i], probes, rng))
        if np.isinf(worst):
            return np.inf
    return worst + float(np.linalg.norm(v.sum(axis=0)))


def lift_problem(cp):
    """The product-space composite problem equivalent to the consensus one."""
    return ProblemSpec(
        f=cp.stacked,
        g=IndicatorConsensus(cp.m, cp.n),
        L=LinearMap.identity(cp.m * cp.n),
    )
