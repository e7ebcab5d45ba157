import re
from types import SimpleNamespace

import numpy as np
import pytest

from inadmm import (
    ConsensusProblem,
    InertialParams,
    L1Norm,
    Quadratic,
    Translated,
    boyd_consensus,
    constant_schedule,
    default_params,
    run_iadmm,
    run_sum1,
    run_sum2,
)

from inadmm.admm import IadmmState, ProblemSpec, XUpdateStrategy, step
from inadmm.consensus import sum1_step, sum2_step
from inadmm.functions import ConvexFn, sum_or_inf

from conftest import consensus_optimality_residual, mixed_blocks, run_sum1_simplified


def quadratic_blocks(m, n, rng):
    return [
        Quadratic(np.eye(n) * float(rng.uniform(0.5, 3.0)),
                  rng.standard_normal(n))
        for _ in range(m)
    ]


def quadratic_consensus_optimum(blocks):
    n = blocks[0].dim
    H = sum(f.Q for f in blocks)
    rhs = -sum(f.q for f in blocks)
    return np.linalg.solve(H, rhs)


def lambda_one_params(alpha, gamma=1.0):
    # delta chosen so the relaxation cap exceeds 1 (needs alpha <= 0.2)
    return InertialParams(
        gamma=gamma, alpha=alpha, sigma=0.01,
        delta=1.675 if alpha > 0.0 else 1.0, lambda_lo=1e-6,
        alpha_schedule=constant_schedule(alpha),
        lambda_schedule=constant_schedule(1.0),
        init_mode="alpha2_zero",
    )


def test_consensus_problem_validation(rng):
    with pytest.raises(ValueError):
        ConsensusProblem([L1Norm(2, 1.0)])
    with pytest.raises(ValueError):
        ConsensusProblem([L1Norm(2, 1.0), L1Norm(3, 1.0)])


def test_boyd_consensus_matches_hand_loop(rng):
    cp = ConsensusProblem(quadratic_blocks(3, 2, rng))
    gamma = 0.8
    # independent textbook loop
    y = np.zeros((3, 2))
    xbar = np.zeros(2)
    rows = []
    for _ in range(20):
        x = np.stack([f.prox(1.0 / gamma, xbar - y[i] / gamma)
                      for i, f in enumerate(cp.blocks)])
        xbar = x.mean(axis=0)
        y = y + gamma * (x - xbar[None, :])
        rows.append((x.copy(), xbar.copy(), y.copy()))
    trace = boyd_consensus(cp, gamma, max_iters=20, tol=0.0)
    for row, (x, xb, yy) in zip(trace.rows, rows):
        assert np.allclose(row.vectors["x"], x, atol=1e-14)
        assert np.allclose(row.vectors["xbar"], xb, atol=1e-14)
        assert np.allclose(row.vectors["y"], yy, atol=1e-14)


def test_sum1_reduces_to_boyd(rng):
    cp = ConsensusProblem(quadratic_blocks(3, 2, rng))
    params = lambda_one_params(0.0, gamma=0.7)
    inert = run_sum1(cp, params, max_iters=40, tol=0.0)
    boyd = boyd_consensus(cp, 0.7, max_iters=40, tol=0.0)
    for a, b in zip(inert.rows, boyd.rows):
        assert np.abs(a.vectors["x"] - b.vectors["x"]).max() <= 1e-12
        assert np.abs(a.vectors["shared"] - b.vectors["xbar"]).max() <= 1e-12
        assert np.abs(a.vectors["y"] - b.vectors["y"]).max() <= 1e-12


def test_sum1_zero_dual_sum_invariant(rng):
    cp = ConsensusProblem(quadratic_blocks(4, 3, rng))
    params = default_params(0.3, gamma=1.2)
    trace = run_sum1(cp, params, max_iters=60, tol=0.0)
    for row in trace.rows:
        assert np.abs(row.vectors["y"].sum(axis=0)).max() <= 1e-12


def test_sum1_rejects_nonzero_dual_sum(rng):
    cp = ConsensusProblem(quadratic_blocks(2, 2, rng))
    params = default_params(0.1)
    y0 = np.ones((2, 2))
    z0 = np.zeros((2, 2))
    with pytest.raises(ValueError, match="sum to zero"):
        run_sum1(cp, params, init=(y0, y0, z0, z0))


@pytest.mark.parametrize("m", [2, 5])
def test_mean_consensus(rng, m):
    # blocks 0.5 ||x - a_i||^2: minimizer is the mean of the anchors
    n = 3
    anchors = rng.standard_normal((m, n))
    blocks = [Quadratic(np.eye(n), -anchors[i]) for i in range(m)]
    cp = ConsensusProblem(blocks)
    params = default_params(0.25)
    for runner in (run_sum1, run_sum2):
        trace = runner(cp, params, tol=1e-12)
        assert trace.converged
        assert np.abs(trace.final["x"] - anchors.mean(axis=0)).max() <= 1e-8


def test_median_consensus(rng):
    # blocks |x - a_i| with odd m: minimizer is the coordinatewise median
    m, n = 5, 2
    anchors = rng.standard_normal((m, n))
    blocks = [Translated(L1Norm(n, 1.0), anchors[i]) for i in range(m)]
    cp = ConsensusProblem(blocks)
    params = default_params(0.2)
    trace = run_sum1(cp, params, tol=1e-10, max_iters=200000)
    med = np.median(anchors, axis=0)
    assert np.abs(trace.final["x"] - med).max() <= 1e-4


def test_sum1_and_sum2_same_limit(rng):
    cp = ConsensusProblem(quadratic_blocks(3, 2, rng))
    x_star = quadratic_consensus_optimum(cp.blocks)
    params = default_params(0.3)
    t1 = run_sum1(cp, params, tol=1e-12)
    t2 = run_sum2(cp, params, tol=1e-12)
    assert t1.converged and t2.converged
    assert np.abs(t1.final["x"] - x_star).max() <= 1e-9
    assert np.abs(t2.final["x"] - x_star).max() <= 1e-9


def test_simplified_scheme_matches_sum1(rng):
    cp = ConsensusProblem(quadratic_blocks(3, 2, rng))
    params = lambda_one_params(0.2, gamma=0.9)
    full = run_sum1(cp, params, max_iters=50, tol=0.0)
    simp = run_sum1_simplified(cp, params, max_iters=50)
    for a, b in zip(full.rows, simp.rows):
        assert np.abs(a.vectors["x"] - b.vectors["x"]).max() <= 1e-12
        assert np.abs(a.vectors["z"] - b.vectors["z"]).max() <= 1e-12
        assert np.abs(a.vectors["y"] - b.vectors["y"]).max() <= 1e-12


def test_simplified_scheme_guards(rng):
    cp = ConsensusProblem(quadratic_blocks(2, 2, rng))
    with pytest.raises(ValueError, match="alpha_2"):
        run_sum1_simplified(cp, default_params(0.2), max_iters=5)
    bad = InertialParams(
        gamma=1.0, alpha=0.2, sigma=0.01, delta=1.0, lambda_lo=1e-6,
        alpha_schedule=constant_schedule(0.2),
        lambda_schedule=constant_schedule(0.9),
        init_mode="alpha2_zero",
    )
    with pytest.raises(ValueError, match="lambda"):
        run_sum1_simplified(cp, bad, max_iters=5)


@pytest.mark.parametrize("blocks", ["quadratic", "mixed"])
@pytest.mark.parametrize("scheme", [0, 1], ids=["sum1", "sum2"])
def test_product_space_lift_matches_sum1(rng, scheme, blocks):
    # each consensus run is run_iadmm's loop on its lift: x, z and y agree by
    # bytes on every row (x as the lift's Lx, one copy per block)
    fns = quadratic_blocks(3, 2, rng) if blocks == "quadratic" else mixed_blocks(2, rng)
    cp = ConsensusProblem(fns)
    lift = cp.lifts[scheme]
    params = default_params(0.25, gamma=1.1)
    blockwise = (run_sum1, run_sum2)[scheme](cp, params, max_iters=40, tol=0.0)
    lifted = run_iadmm(lift, params, max_iters=40, tol=0.0)
    assert blockwise.iterations == lifted.iterations == 40
    for a, b in zip(blockwise.rows, lifted.rows):
        for name, flat in (("x", lift.L.apply(b.vectors["x_next"])),
                           ("z", b.vectors["z_next"]), ("y", b.vectors["y_next"])):
            assert a.vectors[name].ravel().tobytes() == flat.tobytes(), (a.k, name)


def test_optimality_residual(rng):
    cp = ConsensusProblem(quadratic_blocks(3, 2, rng))
    params = default_params(0.2)
    trace = run_sum1(cp, params, tol=1e-12)
    x = trace.final["x"][0]
    v = trace.final["v"]
    assert consensus_optimality_residual(x, v, cp) <= 1e-8
    # a clearly non-stationary point scores badly
    assert consensus_optimality_residual(x + 5.0, v, cp) > 1e-2


# -- stacked blocks against per-block loops ----------------------------------

def _random_state(rng, m, n, zero_sum):
    # x, z, z_prev, zbar, y, y_prev; with ``zero_sum`` the duals sum to zero
    # across blocks, as sum1's closed form assumes (sum2's assumes nothing)
    arrays = [rng.standard_normal((m, n)) for _ in range(6)]
    if zero_sum:
        for y in arrays[4:]:
            y -= y.mean(axis=0)
    return IadmmState(1, *(a.ravel() for a in arrays))


def _blocks_of(state, m, n):
    """A flat state's iterates as the (m, n) arrays the loops below read."""
    return SimpleNamespace(**{name: getattr(state, name).reshape(m, n)
                              for name in ("y", "y_prev", "z", "z_prev")})


def _same_bytes(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def loop_sum1_step(state, blocks, params, k):
    """sum1_step with one prox call per block."""
    gamma, a_k, a_next, l_k = (params.gamma, params.alpha_at(k),
                               params.alpha_at(k + 1), params.lambda_at(k))
    m = len(blocks)
    drift = state.y - state.y_prev + gamma * (state.z - state.z_prev)
    c = state.y - a_k * (state.y - state.y_prev) - gamma * a_k * (state.z - state.z_prev)
    x = np.stack([f.prox(1.0 / gamma, state.z[i] - c[i] / gamma)
                  for i, f in enumerate(blocks)])
    zbar = (a_next * l_k * (x - state.z)
            + ((1.0 - l_k) * a_k * a_next / gamma) * drift)
    u = ((l_k * (1.0 + a_next) / m) * x.sum(axis=0)
         + ((1.0 - a_next * l_k - l_k) / m) * state.z.sum(axis=0)
         + (a_k * (1.0 - l_k) * (1.0 + a_next) / m)
         * (state.z - state.z_prev).sum(axis=0))
    z = u[None, :] - zbar
    y = (state.y + gamma * (l_k * x + (1.0 - l_k) * state.z - z)
         + (1.0 - l_k) * a_k * drift)
    v = state.y - gamma * state.z + gamma * x - a_k * drift
    return {"x": x, "zbar": zbar, "shared": u, "z": z, "y": y, "v": v,
            "w": y + gamma * z}


def loop_sum2_step(state, blocks, params, k):
    """sum2_step with one prox call per block."""
    gamma, a_k, a_next, l_k = (params.gamma, params.alpha_at(k),
                               params.alpha_at(k + 1), params.lambda_at(k))
    m = len(blocks)
    drift = state.y - state.y_prev + gamma * (state.z - state.z_prev)
    x = (state.z.sum(axis=0) / m - state.y.sum(axis=0) / (m * gamma)
         + (a_k / (m * gamma)) * drift.sum(axis=0))
    zbar = (a_next * l_k * (x[None, :] - state.z)
            + ((1.0 - l_k) * a_k * a_next / gamma) * drift)
    arg = (zbar + l_k * x[None, :] + (1.0 - l_k) * state.z
           + state.y / gamma + ((1.0 - l_k) * a_k / gamma) * drift)
    z = np.stack([-zbar[i] + f.prox(1.0 / gamma, arg[i])
                  for i, f in enumerate(blocks)])
    y = (state.y + gamma * (l_k * x[None, :] + (1.0 - l_k) * state.z - z)
         + (1.0 - l_k) * a_k * drift)
    return {"x": np.tile(x, (m, 1)), "zbar": zbar, "shared": x, "z": z, "y": y,
            "v": -y, "w": y + gamma * z}


def looped_lift(cp, scheme):
    """Lift 0 (sum1) or 1 (sum2) of ``cp`` with its blocks' sum as
    ``LoopedSum``: one kernel call per block."""
    p, looped = cp.lifts[scheme], LoopedSum(cp.blocks)
    return (ProblemSpec(looped, p.g, p.L) if scheme == 0 else
            ProblemSpec(p.f, looped, p.L))


@pytest.mark.parametrize("scheme_step, loop", [(sum1_step, loop_sum1_step),
                                               (sum2_step, loop_sum2_step)],
                         ids=["sum1", "sum2"])
@pytest.mark.parametrize("n", [1, 3])
def test_step_matches_per_block_loop_bit_for_bit(rng, scheme_step, loop, n):
    # bit for bit admm.step on the lift with the blocks looped one by one;
    # within the acceptance gate's 1e-12 of the closed-form loop
    cp = ConsensusProblem(mixed_blocks(n, rng))
    scheme = 0 if scheme_step is sum1_step else 1
    state = _random_state(rng, cp.m, n, zero_sum=scheme == 0)
    params = default_params(0.2, gamma=1.3)
    new, r = scheme_step(state, cp, params, 3)
    want, r_want = step(state, looped_lift(cp, scheme), params, 3,
                        XUpdateStrategy("prox_identity"))
    if scheme == 1:
        want.v = -want.y
    assert r == r_want
    for name in ("x", "z", "zbar", "y", "v", "w"):
        assert _same_bytes(getattr(new, name), getattr(want, name)), name
    closed = loop(_blocks_of(state, cp.m, n), cp.blocks, params, 3)
    got = {name: getattr(new, name).reshape(cp.m, n)
           for name in ("z", "zbar", "y", "v", "w")}
    got["x"] = cp.lifts[scheme].L._apply(new.x).reshape(cp.m, n)
    for name, value in got.items():
        assert np.abs(value - closed[name]).max() <= 1e-12, name


@pytest.mark.parametrize("alpha", [0.0, 0.2])
@pytest.mark.parametrize("run, loop", [(run_sum1, loop_sum1_step),
                                       (run_sum2, loop_sum2_step)],
                         ids=["sum1", "sum2"])
def test_nonzero_start_matches_closed_form_loop(rng, run, loop, alpha):
    cp = ConsensusProblem(mixed_blocks(3, rng, point=rng.standard_normal(3)))
    y0, y1, z0, z1 = rng.standard_normal((4, cp.m, 3))
    if run is run_sum1:  # which takes duals that sum to zero; run_sum2 any
        y0 -= y0.mean(axis=0)
        y1 -= y1.mean(axis=0)
    params = default_params(alpha, gamma=1.3)
    trace = run(cp, params, init=(y0, y1, z0, z1), max_iters=40, tol=0.0)
    assert trace.iterations == 40
    state = SimpleNamespace(y_prev=y0, y=y1, z_prev=z0, z=z1)
    for row in trace.rows:
        want = loop(state, cp.blocks, params, row.k)
        for name in ("x", "z", "y", "v", "shared"):
            assert row.vectors[name].shape == want[name].shape
            assert np.abs(row.vectors[name] - want[name]).max() <= 1e-12, (
                row.k, name)
        state = SimpleNamespace(y_prev=state.y, y=want["y"], z_prev=state.z,
                                z=want["z"])
    for name in ("x", "z", "y", "v", "shared"):
        assert np.array_equal(trace.final[name], trace.rows[-1].vectors[name])


def test_boyd_iteration_matches_per_block_loop_bit_for_bit(rng):
    cp = ConsensusProblem(mixed_blocks(3, rng))
    gamma = 0.9
    y = rng.standard_normal((cp.m, 3))
    y -= y.mean(axis=0)
    xbar = rng.standard_normal(3)
    row = boyd_consensus(cp, gamma, init=(y, xbar), max_iters=1).rows[0]
    x = np.stack([f.prox(1.0 / gamma, xbar - y[i] / gamma)
                  for i, f in enumerate(cp.blocks)])
    xbar_next = x.mean(axis=0)
    assert _same_bytes(row.vectors["x"], x)
    assert _same_bytes(row.vectors["xbar"], xbar_next)
    assert _same_bytes(row.vectors["y"], y + gamma * (x - xbar_next[None, :]))
    assert row.primal == sum_or_inf(f(xi) for f, xi in zip(cp.blocks, x))


def test_blockwise_trace_values_match_per_block_sums(rng):
    p = rng.standard_normal(3)
    cp = ConsensusProblem(mixed_blocks(3, rng, point=p))
    for run in (run_sum1, run_sum2):
        trace = run(cp, default_params(0.2, gamma=1.3), max_iters=30, tol=0.0)
        for row in trace.rows:
            x, v = row.vectors["x"], row.vectors["v"]
            primal = sum_or_inf(f(xi) for f, xi in zip(cp.blocks, x))
            dual = -sum_or_inf(f.conj(-vi) for f, vi in zip(cp.blocks, v))
            assert row.primal == pytest.approx(primal, rel=1e-12, abs=0.0)
            assert row.dual == pytest.approx(dual, rel=1e-12, abs=0.0)


class LoopedSum(ConvexFn):
    """sum_i f_i(x_i) with one kernel call per block on slices of the flat
    vector: the per-block oracle for the lifted ``SeparableSum``."""

    kind = "looped_sum"

    def __init__(self, blocks):
        super().__init__(sum(f.dim for f in blocks))
        self.blocks = blocks
        self._offsets = np.cumsum([0] + [f.dim for f in blocks])

    def _split(self, x):
        return [x[a:b] for a, b in zip(self._offsets[:-1], self._offsets[1:])]

    def _value(self, x):
        return sum_or_inf(f._value(xi) for f, xi in zip(self.blocks, self._split(x)))

    def _prox(self, gamma, x):
        return np.concatenate(
            [f._prox(gamma, xi) for f, xi in zip(self.blocks, self._split(x))])

    def _conj(self, u):
        return sum_or_inf(f._conj(ui) for f, ui in zip(self.blocks, self._split(u)))


@pytest.mark.parametrize("n", [1, 3])
def test_lift_matches_per_block_loop_bit_for_bit(rng, n):
    # both schemes' lifts: sum1's f and sum2's g are the stacked blocks
    cp = ConsensusProblem(mixed_blocks(n, rng, point=rng.standard_normal(n)))
    assert cp.lifts[0].f is cp.stacked
    assert cp.lifts[1].g is cp.stacked
    assert cp.lifts[1].L.kind == "stacked_identity"
    params = default_params(0.2, gamma=1.3)
    for scheme, lifted in enumerate(cp.lifts):
        got = run_iadmm(lifted, params, max_iters=60, tol=0.0)
        want = run_iadmm(looped_lift(cp, scheme), params, max_iters=60, tol=0.0)
        assert len(got.rows) == len(want.rows) == 60
        for a, b in zip(got.rows, want.rows):
            assert a.vectors.keys() == b.vectors.keys()
            for name in a.vectors:
                assert _same_bytes(a.vectors[name], b.vectors[name]), (
                    scheme, a.k, name)
            assert (a.primal, a.dual) == (b.primal, b.dual), (scheme, a.k)


@pytest.mark.parametrize("run", [run_sum1, run_sum2])
@pytest.mark.parametrize("which", ["y0", "y1", "z0", "z1"])
def test_blockwise_rejects_nonfinite_initial_iterates(run, which):
    cp = ConsensusProblem([L1Norm(2, 1.0), L1Norm(2, 2.0), Translated(
        L1Norm(2, 0.5), [1.0, -1.0])])
    init = {name: np.zeros((3, 2)) for name in ("y0", "y1", "z0", "z1")}
    init[which][1, 0] = np.nan
    with pytest.raises(ValueError, match="%s entries must be finite" % which):
        run(cp, default_params(0.2), init=tuple(init.values()), max_iters=5)


def test_boyd_consensus_checks_initial_iterates(rng):
    cp = ConsensusProblem(quadratic_blocks(3, 2, rng))
    y = np.zeros((3, 2))
    with pytest.raises(ValueError, match="xbar has dimension 1, expected 2"):
        boyd_consensus(cp, 1.0, init=(y, np.zeros(1)), max_iters=5)
    with pytest.raises(ValueError, match="vector entries must be finite"):
        boyd_consensus(cp, 1.0, init=(y, [0.0, np.nan]), max_iters=5)
    y[0, 0] = np.inf
    with pytest.raises(ValueError, match="y0 entries must be finite"):
        boyd_consensus(cp, 1.0, init=(y, np.zeros(2)), max_iters=5)


def test_consensus_problem_blocks_are_fixed(rng):
    blocks = [L1Norm(2, 1.0), L1Norm(2, 2.0)]
    cp = ConsensusProblem(blocks)
    blocks.append(L1Norm(2, 3.0))
    assert isinstance(cp.blocks, tuple) and cp.m == 2
    assert cp.stacked.m == 2
    with pytest.raises(AttributeError):
        cp.blocks = tuple(blocks)


@pytest.mark.parametrize("run", [run_sum1, run_sum2], ids=["sum1", "sum2"])
def test_stop_residual_is_the_max_norm_of_the_steps_r(rng, run):
    # max |Lx^{k+1} - z^k| from the row's own states, bit for bit (a 2-norm of
    # an r with more than one nonzero entry reads larger)
    cp = ConsensusProblem(mixed_blocks(2, rng, point=rng.standard_normal(2)))
    trace = run(cp, default_params(0.2, gamma=1.3), max_iters=40, tol=0.0)
    lift = cp.lifts[0 if run is run_sum1 else 1]
    for row in trace.rows:
        r = lift.L.apply(row.new.x) - row.prev.z
        assert row.feas_residual == float(np.abs(r).max()), row.k
        if run is run_sum2:  # v = -y^{k+1}, read in the row
            assert _same_bytes(row.vectors["v"], -row.vectors["y"]), row.k
    assert _same_bytes(trace.final["v"], trace.rows[-1].vectors["v"])


def test_consensus_runs_refuse_what_run_iadmm_refuses_on_the_lift():
    # 1/(gamma ||L||^2) underflows to 0 on sum2's lift (||L||^2 = m = 3) but not
    # on sum1's (L = I); each run follows run_iadmm on its own lift
    cp = ConsensusProblem([Translated(L1Norm(2, 1.0), s)
                           for s in ([1.0, 0.0], [0.0, 1.0], [-1.0, -1.0])])
    params = default_params(0.2, gamma=1e308)
    message = "no finite positive step 1/(gamma c) at gamma 1e+308, c 3"
    assert run_iadmm(cp.lifts[0], params, max_iters=5).iterations >= 1
    assert run_sum1(cp, params, max_iters=5).iterations >= 1
    for solve in (lambda: run_iadmm(cp.lifts[1], params, max_iters=5),
                  lambda: run_sum2(cp, params, max_iters=5)):
        with pytest.raises(ValueError, match=re.escape(message)):
            solve()
