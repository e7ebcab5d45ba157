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
from .functions import IndicatorConsensus, SeparableSum, StackedBlocks
from .linalg import LinearMap, _norm, check_gamma
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
    stacked: StackedBlocks = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if len(blocks) < 2:
            raise ValueError("need at least two blocks")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "stacked", StackedBlocks(blocks))

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
    return ConsensusState(k=k + 1, x=x_next, z=z_next, z_prev=state.z,
                          zbar=zbar_next, y=y_next, y_prev=state.y,
                          shared=u_next)


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
    return ConsensusState(k=k + 1, x=np.tile(x_next, (m, 1)), z=z_next,
                          z_prev=state.z, zbar=zbar_next, y=y_next,
                          y_prev=state.y, shared=x_next)


def _v_blocks_sum1(state, new_state, gamma, a_k):
    # v_i^k = y_i^k - gamma z_i^k + gamma x_i^{k+1} - alpha_k (dy + gamma dz);
    # the per-block prox x-update certifies -v_i^k in df_i(x_i^{k+1})
    drift = state.y - state.y_prev + gamma * (state.z - state.z_prev)
    return state.y - gamma * state.z + gamma * new_state.x - a_k * drift


def _v_blocks_sum2(state, new_state, gamma, a_k):
    # the per-block prox sits in the z-update here, certifying
    # y_i^{k+1} in df_i(z_i^{k+1} + zbar_i^{k+1}); same -v_i convention
    return -new_state.y


def _run_blockwise(cp, params, stepper, vfn, init, require_zero_sum,
                   max_iters, tol, horizon_check=1000):
    require_valid(params, horizon_check)
    gamma = params.gamma
    dw_sq_sum = 0.0

    def iterate(state, k):
        nonlocal dw_sq_sum
        new = stepper(state, cp, params, k)
        v = vfn(state, new, gamma, params.alpha_at(k))
        w_prev = state.w(gamma)
        w_next = new.w(gamma)
        dw = _norm(w_next - w_prev)
        dw_sq_sum += dw * dw
        feas = float(np.abs(new.x - state.z).max())
        zbar_norm = _norm(new.zbar)
        row = TraceRow(
            k,
            primal=cp.stacked._value(new.x),
            dual=-cp.stacked._conj(-v),
            feas_residual=feas,
            zbar_norm=zbar_norm,
            dw_norm=dw,
            dw_sq_sum=dw_sq_sum,
            vectors={"x": new.x, "z": new.z, "zbar": new.zbar,
                     "y": new.y, "v": v, "shared": new.shared,
                     "w": w_prev, "w_next": w_next},
        )
        return new, row, (feas, zbar_norm, dw)

    # first_k = 2: k = 1 can show zero residuals by construction (forced bridge step)
    trace, state = drive(iterate, _initial_state(cp, init, require_zero_sum),
                         max_iters, tol, first_k=2)
    trace.final = {"x": state.x, "z": state.z, "y": state.y,
                   "shared": state.shared, "v": trace.rows[-1].vectors["v"]}
    return trace


def run_sum1(cp, params, init=None, max_iters=100000, tol=1e-10):
    """Dual-sum-zero consensus run; initialization must have zero dual sum."""
    return _run_blockwise(cp, params, sum1_step, _v_blocks_sum1, init, True,
                          max_iters, tol)


def run_sum2(cp, params, init=None, max_iters=100000, tol=1e-10):
    """Interchanged consensus run (no zero-sum requirement on the duals)."""
    return _run_blockwise(cp, params, sum2_step, _v_blocks_sum2, init, False,
                          max_iters, tol)


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
        xbar = np.asarray(xbar, dtype=float)
        _check_zero_sum(y, "y0")

    def iterate(state, k):
        xbar, y = state
        x = cp.stacked._prox(1.0 / gamma, xbar - y / gamma)
        xbar_next = x.mean(axis=0)
        y_next = y + gamma * (x - xbar_next[None, :])
        feas = float(np.abs(x - xbar[None, :]).max())
        dy = _norm(y_next - y)
        row = TraceRow(
            k,
            primal=cp.stacked._value(x),
            feas_residual=feas,
            dw_norm=dy,
            vectors={"x": x, "xbar": xbar_next, "y": y_next},
        )
        return (xbar_next, y_next), row, (feas, dy)

    trace, (xbar, y) = drive(iterate, (xbar, y), max_iters, tol, first_k=1)
    trace.final = {"x": trace.rows[-1].vectors["x"], "xbar": xbar, "y": y}
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
        f=SeparableSum(cp.blocks),
        g=IndicatorConsensus(cp.m, cp.n),
        L=LinearMap.identity(cp.m * cp.n),
    )
