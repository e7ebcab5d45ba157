"""Product-space schemes for min sum_i f_i(x).

Both schemes run ``run_iadmm``'s own loop on a lift of the problem to
(R^n)^m, the product-space reformulation of Boyd et al. (2011, 7.1) and
Combettes & Pesquet (2008), with flat (m n) iterates.  The dual-sum-zero
form lifts to f = sum_i f_i, g = the indicator of the consensus subspace
and L = I: per-block primal iterates, multipliers summing to zero and a
shared consensus point u.  The interchanged form lifts to f = 0, g = sum_i
f_i and L = m stacked identities: one shared primal point and per-block
splitting variables.  Both reduce to the textbook consensus ADMM when
inertia is off and relaxation is 1.
"""

import numpy as np

from .admm import ProblemSpec, XUpdateStrategy, _loop, step
from .functions import IndicatorConsensus, SeparableSum, Zero
from .linalg import FrozenRecord, LinearMap, Record, _norm, check_gamma, check_vector
from .params import require_valid
from .trace import TraceRow, drive

__all__ = [
    "ConsensusProblem",
    "sum1_step",
    "run_sum1",
    "sum2_step",
    "run_sum2",
    "boyd_consensus",
]

ZERO_SUM_TOL = 1e-12
_EXACT = XUpdateStrategy("prox_identity")  # both lifts have L'L = cI


class ConsensusProblem(FrozenRecord):
    """min sum_i f_i(x); ``stacked`` evaluates all blocks on an (m, n) array,
    and ``lifts`` holds the composite problems of the two schemes."""

    _fields = ("blocks",)  # ConvexFn, all on the same space

    def __init__(self, blocks):
        blocks = tuple(blocks)
        if len(blocks) < 2:
            raise ValueError("need at least two blocks")
        m, n, stacked = len(blocks), blocks[0].dim, SeparableSum(blocks)
        self.__dict__.update(blocks=blocks, stacked=stacked, lifts=(  # sum1's and sum2's
            ProblemSpec(stacked, IndicatorConsensus(m, n), LinearMap.identity(stacked.dim)),
            ProblemSpec(Zero(n), stacked, LinearMap.stacked_identity(m, n))))

    @property
    def m(self):
        return len(self.blocks)

    @property
    def n(self):
        return self.blocks[0].dim


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


def sum1_step(state, cp, params, k):
    """One step of the dual-sum-zero scheme: ``admm.step`` on its lift."""
    return step(state, cp.lifts[0], params, k, _EXACT)


def sum2_step(state, cp, params, k):
    """One step of the interchanged scheme: ``admm.step`` on its lift, with
    v = -y^{k+1}, as ``run_sum2``'s rows read it.  The blocks' prox sits in
    the z-update here, certifying y_i^{k+1} in df_i(z_i^{k+1} + zbar_i^{k+1})."""
    new, r = step(state, cp.lifts[1], params, k, _EXACT)
    new.v = -new.y
    return new, r


def _run_blockwise(cp, params, scheme, shared, init, max_iters, tol):
    """``run_iadmm``'s loop on the lift of scheme 0 (sum1) or 1 (sum2), its
    flat iterates given and shown as (m, n) blocks and its stop residual
    max |Lx^{k+1} - z^k|; ``shared`` maps a state to its shared point."""
    require_valid(params)
    m, n, lift = cp.m, cp.n, cp.lifts[scheme]
    _EXACT.check(lift, params.gamma)
    init = [np.zeros((m, n))] * 4 if init is None else [
        _as_block_array(u, m, n, name) for u, name in zip(init, ("y0", "y1", "z0", "z1"))]
    if scheme == 0:  # sum1's duals sum to zero
        _check_zero_sum(init[0], "y0")
        _check_zero_sum(init[1], "y1")
    blocks, Lx = (lambda a: a.reshape(m, n)), lift.L._apply
    dual = (lambda s: s.v, lambda s: -s.y)[scheme]  # v^k: step's, or sum2's -y^{k+1}

    def vectors(prev, new):
        return {"x": blocks(Lx(new.x)), "z": blocks(new.z),
                "zbar": blocks(new.zbar), "y": blocks(new.y),
                "v": blocks(dual(new)), "shared": shared(new),
                "w": blocks(prev.w), "w_next": blocks(new.w)}

    # primal sum_i f_i(x_i) and dual -sum_i f_i*(-v_i)
    schema = (vectors, lambda prev, new: (
        cp.stacked._value(Lx(new.x)), -cp.stacked._conj(-dual(new))), False)
    trace, _ = _loop(lift, params, _EXACT, [a.ravel() for a in init],
                     max_iters, tol, schema, lambda r: float(np.abs(r).max()))
    trace.final = {f: trace.rows[-1].vectors[f] for f in ("x", "z", "y", "shared", "v")}
    return trace


def run_sum1(cp, params, init=None, max_iters=100000, tol=1e-10):
    """Dual-sum-zero consensus run; initialization must have zero dual sum.
    The shared point u^{k+1} is the block of z^{k+1} + zbar^{k+1}, the
    projection onto the consensus subspace in the z-update."""
    return _run_blockwise(cp, params, 0, lambda s: (s.z + s.zbar).reshape(
        cp.m, cp.n).mean(axis=0), init, max_iters, tol)


def run_sum2(cp, params, init=None, max_iters=100000, tol=1e-10):
    """Interchanged consensus run (no zero-sum requirement on the duals); its
    shared point is x."""
    return _run_blockwise(cp, params, 1, lambda s: s.x, init, max_iters, tol)


class _BoydState(Record):
    __slots__ = _fields = ("x", "xbar", "y")  # x: the per-block prox of the step that made it

    def __init__(self, x, xbar, y):
        self.x, self.xbar, self.y = x, xbar, y


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
    schema = (_boyd_vectors, lambda prev, new: (stacked._value(new.x), np.nan), False)

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
