"""Still rows: the step at alpha_k = alpha_{k+1} = 0.

There the scheme is relaxed ADMM, and ``step`` drops the terms its zero
coefficients leave out: c_k's inertial products and the drift terms of the
z-argument and of y^{k+1}.  ``full_formula_step`` (``conftest``) forms every
term, as the step was first written.  The two agree byte for byte on every
array a state carries (x, z, zbar, y, v, w), except in the two cases that
IEEE arithmetic leaves open, which are pinned below: a y^k with -0.0 entries
(y - 0 dy is +0.0 where dy < 0), and a dy or dz that overflows (0 inf is
NaN).
"""

import numpy as np
import pytest

from inadmm import (
    ConsensusProblem,
    IadmmState,
    InertialParams,
    L1Norm,
    LinearMap,
    ProblemSpec,
    Translated,
    XUpdateStrategy,
    Zero,
    classical_admm,
    constant_schedule,
    default_params,
    run_iadmm,
)
from inadmm import admm
from inadmm.admm import run_iadmm_batch, step
from inadmm.consensus import _EXACT
from inadmm.params import Coefficients, constant_params

from conftest import full_formula_step
from test_hot_loop import problem, same_bits

FIELDS = ("x", "z", "zbar", "y", "v", "w")
KINDS = ["prox_identity", "quadratic_solve_dense", "quadratic_solve_scaled",
         "inner_iterative"]


def strategy(kind):
    return XUpdateStrategy(kind.replace("_dense", "").replace("_scaled", ""))


def start(p, rng, init=None):
    """The state run_iadmm starts from, at ``init`` = (y0, y1, z0, z1) or a
    seeded nonzero one."""
    m = p.g.dim
    y0, y1, z0, z1 = init if init is not None else rng.standard_normal((4, m))
    return IadmmState(k=1, x=np.zeros(p.f.dim), z=z1, z_prev=z0,
                      zbar=np.zeros(m), y=y1, y_prev=y0, w=y1 + 1.3 * z1)


def walk(p, params, strat, state, iters):
    """Advance ``step`` and the full-formula step side by side from one
    state, asserting byte-equal states (v read after the next step too) and
    norms; returns the k of the still rows."""
    mine, ref, still = state, state, []
    for k in range(1, iters + 1):
        if params.coefficients.at(k).still:
            still.append(k)
        new, feas = step(mine, p, params, k, strat)
        want, r = full_formula_step(ref, p, params, k, strat)
        assert same_bits(feas, np.linalg.norm(r)), k
        for field in FIELDS:
            assert same_bits(getattr(new, field), getattr(want, field)), (k, field)
        mine, ref = new, want
    return still


def same_bits_or_nan(a, b):
    """``same_bits`` with every NaN read as one NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return same_bits(np.where(np.isnan(a), np.nan, a), np.where(np.isnan(b), np.nan, b))


def full_step(state, p, params, k, strat, norm):
    """``full_formula_step`` in ``step``'s place in ``run_iadmm``'s loop."""
    new, r = full_formula_step(state, p, params, k, strat)
    return new, norm(r)


def assert_rows_equal(a, b, same=same_bits):
    assert (a.iterations, a.converged, a.nonfinite) == (
        b.iterations, b.converged, b.nonfinite)
    for ra, rb in zip(a.rows, b.rows):
        assert all(same(x, y) for x, y in zip(ra.scalars(), rb.scalars())), ra.k
        for key, vec in rb.vectors.items():
            assert same(ra.vectors[key], vec), (ra.k, key)
    for key, vec in b.final.items():
        assert same(a.final[key], vec), key


# -- the flag ---------------------------------------------------------------

def test_still_flag_reads_alpha_k_and_alpha_k_plus_1():
    assert all(default_params(0.0).coefficients.at(k).still for k in (1, 2, 3, 50))
    lifted = default_params(0.2).coefficients  # alpha_1 = 0, alpha_2 = 0.2
    assert not any(lifted.at(k).still for k in (1, 2, 3, 50))
    # alpha2_zero: alpha_1 = alpha_2 = 0, alpha_3 = alpha
    q = constant_params(1.0, 0.2, 0.01, init_mode="alpha2_zero").coefficients
    assert [q.at(k).still for k in (1, 2, 3)] == [True, False, False]
    # a batch is still only where every row is
    batch = Coefficients(([default_params(0.0), default_params(0.2)], 1))
    assert not any(batch.at(k).still for k in (1, 2, 3))
    assert Coefficients(([default_params(0.0), constant_params(
        1.0, 0.0, 0.01, lam=0.5)], 1)).at(1).still is True


# -- step against the full formulas --------------------------------------------

@pytest.mark.parametrize("lam", [None, 1.0])
@pytest.mark.parametrize("kind", KINDS)
def test_constant_alpha_zero_is_the_full_step_bit_for_bit(rng, kind, lam):
    p = problem(kind, rng)
    params = (default_params(0.0, gamma=1.3) if lam is None else
              constant_params(1.3, 0.0, 0.01, lam=lam))
    assert walk(p, params, strategy(kind), start(p, rng), 30) == list(range(1, 31))


@pytest.mark.parametrize("kind", KINDS)
def test_k1_of_an_alpha2_zero_run_is_the_full_step(rng, kind):
    p = problem(kind, rng)
    params = constant_params(1.3, 0.2, 0.01, init_mode="alpha2_zero")
    assert walk(p, params, strategy(kind), start(p, rng), 6) == [1]


@pytest.mark.parametrize("kind", KINDS)
def test_schedule_switching_alpha_on_and_off_is_the_full_step(rng, kind):
    # a callable schedule (not validated: it is not monotone) that is 0.2 at
    # k = 4j and 4j + 1 only, so k = 4j + 2 is still and its state's v^k is
    # read by the walk after the next, non-still, step
    p = problem(kind, rng)
    params = InertialParams(
        gamma=1.3, alpha=0.2, sigma=0.01, delta=1.0, lambda_lo=1e-6,
        alpha_schedule=lambda k: 0.2 if k % 4 in (0, 1) else 0.0,
        lambda_schedule=constant_schedule(0.8), init_mode="raw")
    assert params.coefficients.steady is None
    still = walk(p, params, strategy(kind), start(p, rng), 17)
    assert still == [2, 6, 10, 14]


@pytest.mark.parametrize("scheme", [0, 1])
@pytest.mark.parametrize("lam", [None, 1.0])
def test_consensus_lifts_at_alpha_zero_are_the_full_step(rng, scheme, lam):
    cp = ConsensusProblem([Translated(L1Norm(3, 1.0), rng.standard_normal(3))
                           for _ in range(7)] + [Zero(3)])
    p = cp.lifts[scheme]
    params = (default_params(0.0, gamma=5.0) if lam is None else
              constant_params(5.0, 0.0, 0.01, lam=lam, init_mode="alpha2_zero"))
    assert len(walk(p, params, _EXACT, start(p, rng), 25)) == 25


# -- the two cases IEEE arithmetic leaves open ---------------------------------

def test_negative_zero_y_differs_from_the_full_step_in_signed_zeros_only(rng):
    # f = g = 0 keep the signs of zeros that a prox would clear.  Where
    # y^k = -0.0 and dy < 0, the full c_k = y - 0 dy - 0 dz is +0.0 and the
    # still step's c_k = y^k is -0.0; where z^k = -0.0 too, z^k - c_k / gamma
    # is -0.0 in full and +0.0 still, and x^{k+1} and y^{k+1} carry the sign
    n = 4
    p = ProblemSpec(Zero(n), Zero(n), LinearMap.identity(n))
    strat = XUpdateStrategy("prox_identity")
    init = (np.array([1.0, -2.0, 0.5, 3.0]), np.array([-0.0, -0.0, 1.0, -0.0]),
            np.array([2.0, 1.0, 0.0, -1.0]), np.array([-0.0, 0.0, -0.0, -0.0]))
    state = start(p, rng, init)
    params = default_params(0.0, gamma=1.3)
    new, _ = step(state, p, params, 1, strat)
    want, _ = full_formula_step(state, p, params, 1, strat)
    moved = []
    for field in FIELDS:
        a, b = getattr(new, field), getattr(want, field)
        assert np.array_equal(a, b), field  # the same values
        if not same_bits(a, b):
            differ = np.signbit(a) != np.signbit(b)
            assert (a[differ] == 0.0).all(), field  # zeros, by sign only
            moved.append((field, np.flatnonzero(differ).tolist()))
    assert moved == [("x", [0, 3]), ("y", [0, 3])]
    assert np.signbit(want.x[[0, 3]]).all() and not np.signbit(new.x[[0, 3]]).any()


def test_classical_admm_x_update_is_the_still_rows(rng):
    # classical_admm passes c = y^k, as a still row does: in the case above,
    # y^k = -0.0 with dy < 0 and z^k = -0.0, its x^{k+1} from (y^k, z^k) is
    # the still step's +0.0, not the full formula's -0.0
    n = 4
    p = ProblemSpec(Zero(n), Zero(n), LinearMap.identity(n))
    strat = XUpdateStrategy("prox_identity")
    init = (np.array([1.0, -2.0, 0.5, 3.0]), np.array([-0.0, -0.0, 1.0, -0.0]),
            np.array([2.0, 1.0, 0.0, -1.0]), np.array([-0.0, 0.0, -0.0, -0.0]))
    state = start(p, rng, init)
    params = default_params(0.0, gamma=1.3)
    assert params.coefficients.at(1).still
    x = classical_admm(p, 1.3, init=(state.y, state.z), strat=strat,
                       max_iters=1, tol=0.0).rows[0].vectors["x_next"]
    assert same_bits(x, step(state, p, params, 1, strat)[0].x)
    full = full_formula_step(state, p, params, 1, strat)[0].x
    assert np.signbit(full[[0, 3]]).all() and not np.signbit(x[[0, 3]]).any()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", ["prox_identity", "quadratic_solve_dense"])
@pytest.mark.parametrize("overflows", ["dy", "dz", "drift"])
def test_overflowing_still_row_stops_where_the_full_step_does(rng, kind, overflows):
    # run_iadmm with step and with the full-formula step, from a start whose
    # dy, dz or only dy + gamma dz overflows at k = 1.  A NaN's sign bit is
    # not kept (-zbar + prox and prox - zbar differ in it): NaNs compare equal
    p = problem(kind, rng)
    m = p.g.dim
    big = np.full(m, 1e308)
    init = {"dy": (-big, big, np.zeros(m), np.zeros(m)),
            "dz": (np.zeros(m), np.zeros(m), -big, big),
            "drift": (-0.6 * big, 0.6 * big, -0.6 * big, 0.6 * big)}[overflows]
    y0, y1, z0, z1 = init
    for params in (default_params(0.0), constant_params(
            1.0, 0.2, 0.01, init_mode="alpha2_zero")):
        assert params.coefficients.at(1).still
        mine = run_iadmm(p, params, init=init, max_iters=5, tol=0.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(admm, "step", full_step)
            full = run_iadmm(p, params, init=init, max_iters=5, tol=0.0)
        for trace in (mine, full):
            assert (trace.iterations, trace.converged, trace.nonfinite) == (1, False, True)
        a, b = mine.rows[0], full.rows[0]
        # zbar = 0 r + 0 drift is NaN in both, and so are dw and its sum
        for name in ("k", "dual", "gap", "zbar_norm", "dw_norm", "dw_sq_sum"):
            assert same_bits_or_nan(getattr(a, name), getattr(b, name)), name
        assert np.isnan(a.zbar_norm)
        if overflows == "drift":  # dy and dz are finite: every bit is kept
            assert_rows_equal(mine, full, same_bits_or_nan)
        else:
            # the full c_k is NaN (0 inf), and so are its x^{k+1} and, with
            # it, primal and ||r||; the still step's x^{k+1} is the one of
            # c_k = y^k, the full step's from a state without dy and dz
            assert np.isnan(full.final["x"]).all()
            assert np.isnan(b.primal) and np.isnan(b.feas_residual)
            cleared = start(p, rng, (y1, y1, z1, z1))
            relaxed = full_formula_step(cleared, p, params, 1, strategy(kind))[0]
            assert same_bits_or_nan(mine.final["x"], relaxed.x)
            if kind == "prox_identity":  # a dense L's products overflow too
                assert not np.isnan(relaxed.x).any()


# -- batches -----------------------------------------------------------------

@pytest.mark.parametrize("kind", ["prox_identity", "quadratic_solve_dense"])
def test_mixed_batch_is_its_serial_runs_and_turns_still(rng, kind, monkeypatch):
    p = problem(kind, rng)
    # the alpha = 0 points, slowed by small relaxations, outlive the
    # alpha = 0.2 one
    rows = [constant_params(1.3, 0.0, 0.01, lam=0.3), default_params(0.2, gamma=1.3),
            constant_params(1.3, 0.0, 0.01, lam=0.5)]
    seen = []
    real = admm.step

    def logging_step(state, p_, table, k, strat, *args):
        seen.append((k, len(table._params), table.at(k).still))
        return real(state, p_, table, k, strat, *args)

    monkeypatch.setattr(admm, "step", logging_step)
    traces = run_iadmm_batch(p, rows, max_iters=2000, tol=1e-9)
    monkeypatch.undo()
    stops = [t.iterations for t in traces]
    assert all(t.converged for t in traces) and stops[1] < min(stops[0], stops[2])
    for k, live, still in seen:
        assert live == sum(s >= k for s in stops), k  # the live rows' table
        assert still == (k > stops[1]), k  # still once the alpha > 0 row left
    assert any(still for _, _, still in seen)
    for trace, q in zip(traces, rows):
        assert_rows_equal(trace, run_iadmm(p, q, max_iters=2000, tol=1e-9))
