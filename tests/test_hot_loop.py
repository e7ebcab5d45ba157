"""Bit-identity guards for the per-iteration kernels of the ADMM loop.

The reference below is a test-only copy of the iteration as first written:
every difference computed where it is used, ``np.linalg.norm`` for every
monitor, the masked formula for the quadratic conjugate and copying
identity maps.  ``run_iadmm`` must reproduce it to the last bit.  Because
the reference copies wherever the solver aliases (the identity kernels
return their argument), the comparison also shows that no loop writes into
an array it did not allocate.
"""

import struct

import numpy as np
import pytest

from inadmm import (
    IadmmState,
    L1Norm,
    LinearMap,
    ProblemSpec,
    Quadratic,
    XUpdateStrategy,
    default_params,
    run_iadmm,
)
from inadmm import admm
from inadmm.admm import x_update
from inadmm.functions import DOM_TOL
from inadmm.linalg import _norm

from conftest import counted, random_quadratic, tall_full_rank

ITERS = 50


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# -- the reference iteration -------------------------------------------------

def ref_apply(L, x):
    return L.scale * x if L.matrix is None else L.matrix @ x


def ref_adjoint_apply(L, y):
    return L.scale * y if L.matrix is None else L.matrix.T @ y


def ref_conj(f, u):
    if not isinstance(f, Quadratic):
        return f.conj(u)
    evals, evecs = f._eigh
    w = evecs.T @ (u - f.q)
    small = evals <= f._rank_tol
    if np.any(np.abs(w[small]) > DOM_TOL * (1.0 + np.linalg.norm(u - f.q))):
        return np.inf
    good = ~small
    val = 0.5 * float(np.sum(w[good] ** 2 / evals[good]))
    return val - f.r


def ref_x_update(state, p, gamma, alpha_k, strat):
    c = (state.y - alpha_k * (state.y - state.y_prev)
         - gamma * alpha_k * (state.z - state.z_prev))
    if strat.kind == "prox_identity":
        return p.f.prox(1.0 / gamma, state.z - c / gamma)
    L = p.L
    if strat.kind == "quadratic_solve":
        rhs = ref_adjoint_apply(L, gamma * state.z - c) - p.f.q
        return p.f._solver(gamma, L)(rhs)
    t = 1.0 / (gamma * L.norm() ** 2)
    x = state.x.copy()
    Ltc = ref_adjoint_apply(L, c)
    for _ in range(strat.budget):
        grad = Ltc + gamma * ref_adjoint_apply(L, ref_apply(L, x) - state.z)
        x_new = p.f.prox(t, x - t * grad)
        resid = float(np.linalg.norm(x_new - x)) / t
        x = x_new
        if resid <= strat.eps_inner:
            return x
    raise AssertionError("reference inner solve did not converge")


def ref_step(state, p, params, k, strat):
    gamma = params.gamma
    a_k = params.alpha_at(k)
    a_next = params.alpha_at(k + 1)
    l_k = params.lambda_at(k)
    y, z = state.y, state.z
    x_next = ref_x_update(state, p, gamma, a_k, strat)
    Lx = ref_apply(p.L, x_next)
    r = Lx - z
    drift = y - state.y_prev + gamma * (z - state.z_prev)
    zbar_next = a_next * l_k * r + ((1.0 - l_k) * a_k * a_next / gamma) * drift
    arg = (zbar_next + l_k * Lx + (1.0 - l_k) * z + y / gamma
           + ((1.0 - l_k) * a_k / gamma) * drift)
    z_next = -zbar_next + p.g.prox(1.0 / gamma, arg)
    y_next = (y + gamma * (l_k * Lx + (1.0 - l_k) * z - z_next)
              + (1.0 - l_k) * a_k * drift)
    v_k = y - gamma * z + gamma * Lx - a_k * drift
    new = IadmmState(k=k + 1, x=x_next, z=z_next, z_prev=z, zbar=zbar_next,
                     y=y_next, y_prev=y)
    return new, x_next, v_k, y + gamma * z, y_next + gamma * z_next, r


def ref_dual(p, v, y):
    a = ref_conj(p.f, -ref_adjoint_apply(p.L, v))
    if np.isinf(a):
        return -np.inf
    b = ref_conj(p.g, y)
    if np.isinf(b):
        return -np.inf
    return -a - b


def ref_rows(p, params, strat, iters):
    m = p.g.dim
    state = IadmmState(k=1, x=np.zeros(p.f.dim), z=np.zeros(m),
                       z_prev=np.zeros(m), zbar=np.zeros(m), y=np.zeros(m),
                       y_prev=np.zeros(m))
    rows, dw_sq_sum = [], 0.0
    for k in range(1, iters + 1):
        new, x_next, v, w, w_next, r = ref_step(state, p, params, k, strat)
        dw = float(np.linalg.norm(w_next - w))
        dw_sq_sum += dw * dw
        primal = p.f(x_next) + p.g(state.z + state.zbar)
        dual = ref_dual(p, v, state.y)
        gap = primal - dual if np.isfinite(primal) and np.isfinite(dual) else np.inf
        scalars = (k, primal, dual, gap, float(np.linalg.norm(r)),
                   float(np.linalg.norm(new.zbar)), dw, dw_sq_sum)
        vectors = {"x_next": x_next, "z": state.z, "z_next": new.z,
                   "zbar_next": new.zbar, "y": state.y, "y_next": new.y,
                   "v": v, "w": w, "w_next": w_next}
        rows.append((scalars, vectors))
        state = new
    return rows


def problem(kind, rng):
    n = 6
    if kind == "prox_identity":
        D = tall_full_rank(2 * n, n, rng)
        b = rng.standard_normal(2 * n)
        f = Quadratic(D.T @ D, -D.T @ b, 0.5 * float(b @ b))
        return ProblemSpec(f, L1Norm(n, 0.3), LinearMap.identity(n))
    if kind == "quadratic_solve_dense":
        m = n + 3
        return ProblemSpec(random_quadratic(n, rng), L1Norm(m, 0.2),
                           LinearMap.dense(tall_full_rank(m, n, rng)))
    if kind == "quadratic_solve_scaled":
        return ProblemSpec(random_quadratic(n, rng), L1Norm(n, 0.2),
                           LinearMap.scaled_identity(n, 1.7))
    m = n + 3
    return ProblemSpec(L1Norm(n, 0.4),
                       Quadratic(np.eye(m), -rng.standard_normal(m)),
                       LinearMap.dense(tall_full_rank(m, n, rng)))


@pytest.mark.parametrize("alpha", [0.0, 0.2])
@pytest.mark.parametrize("kind", ["prox_identity", "quadratic_solve_dense",
                                  "quadratic_solve_scaled", "inner_iterative"])
def test_run_iadmm_matches_reference_bit_for_bit(rng, kind, alpha):
    p = problem(kind, rng)
    strat = XUpdateStrategy(kind.replace("_dense", "").replace("_scaled", ""))
    params = default_params(alpha=alpha, gamma=1.3)
    trace = run_iadmm(p, params, strat=strat, max_iters=ITERS, tol=0.0)
    assert trace.iterations == ITERS and not trace.converged
    expected = ref_rows(p, params, strat, ITERS)
    for row, (scalars, vectors) in zip(trace.rows, expected):
        assert all(same_bits(a, b) for a, b in zip(row.scalars(), scalars)), row.k
        assert row.vectors.keys() == vectors.keys()
        for key, vec in vectors.items():
            assert same_bits(row.vectors[key], vec), (row.k, key)
    assert same_bits(trace.final["x"], expected[-1][1]["x_next"])
    assert same_bits(trace.final["v"], expected[-1][1]["v"])


# -- the quadratic x-update's right-hand side --------------------------------

def two_adjoint_x_update(state, p, gamma, c, strat):
    """The quadratic_solve x-update as first written: gamma L'z^k and L'c_k
    as two products."""
    rhs = gamma * p.L._adjoint_apply(state.z) - p.L._adjoint_apply(c) - p.f.q
    return p.f._solver(gamma, p.L)(rhs)


@pytest.mark.parametrize("alpha", [0.0, 0.2])
@pytest.mark.parametrize("kind", ["quadratic_solve_dense", "quadratic_solve_scaled"])
def test_one_adjoint_rhs_is_the_two_adjoint_form_to_rounding(rng, monkeypatch,
                                                             kind, alpha):
    p = problem(kind, rng)
    params = default_params(alpha=alpha, gamma=1.3)
    strat = XUpdateStrategy("quadratic_solve")
    new = run_iadmm(p, params, strat=strat, max_iters=ITERS, tol=0.0)
    monkeypatch.setattr(admm, "x_update", two_adjoint_x_update)
    old = run_iadmm(p, params, strat=strat, max_iters=ITERS, tol=0.0)
    assert new.iterations == old.iterations == ITERS
    for a, b in zip(new.rows, old.rows):
        scale = max(np.abs(v).max() for v in b.vectors.values())
        for key, vec in b.vectors.items():
            assert np.abs(a.vectors[key] - vec).max() <= 1e-12 * scale, (a.k, key)


@pytest.mark.parametrize("kind", ["quadratic_solve_dense", "quadratic_solve_scaled"])
def test_quadratic_solve_makes_one_adjoint_and_no_potrs(rng, monkeypatch, kind):
    from inadmm.linalg import _fortran

    p = problem(kind, rng)
    m = p.g.dim
    strat = XUpdateStrategy("quadratic_solve")
    adjoints = counted(monkeypatch, LinearMap, "_adjoint_apply")
    # on the LAPACK module the factor calls through, whichever copy it loaded
    potrs = counted(monkeypatch, _fortran()[1], "dpotrs")
    for _ in range(5):
        z, y = rng.standard_normal(m), rng.standard_normal(m)
        state = IadmmState(k=1, x=np.zeros(p.f.dim), z=z, z_prev=z.copy(),
                           zbar=np.zeros(m), y=y, y_prev=y.copy())
        x_update(state, p, 1.3, y, strat)
    assert len(adjoints) == 5 and not potrs


# -- the norm kernel ---------------------------------------------------------

def norm_cases(rng):
    yield rng.standard_normal(37)
    yield rng.standard_normal((5, 7))
    yield rng.standard_normal((7, 5)).T  # Fortran-ordered
    yield rng.standard_normal(40)[::3]  # strided view
    yield np.zeros(9)
    yield np.zeros(0)
    yield np.full(4, 5e-324)  # subnormal entries; the squares underflow
    yield np.array([2.2e-308, 3e-310, -1e-320])
    yield np.array([1e200, 1.0, -1e200])  # the squares overflow to inf
    yield np.array([1.0, np.nan, 2.0])
    yield np.array([np.inf, 3.0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_norm_matches_numpy_bit_for_bit(rng):
    for _ in range(20):
        for v in norm_cases(rng):
            got, want = _norm(v), float(np.linalg.norm(v))
            assert type(got) is float
            assert struct.pack("<d", got) == struct.pack("<d", want), v


# -- the quadratic conjugate -------------------------------------------------

def test_full_rank_conjugate_equals_masked_path(rng):
    for n in (1, 3, 10, 40):
        f = random_quadratic(n, rng)
        assert f._full_rank
        for _ in range(20):
            u = 3.0 * rng.standard_normal(n)
            fast = f.conj(u)
            assert same_bits(fast, ref_conj(f, u))
            f._full_rank = False
            masked = f.conj(u)
            f._full_rank = True
            assert type(fast) is type(masked) and same_bits(fast, masked)


def test_rank_deficient_conjugate_is_inf_off_range(rng):
    B = rng.standard_normal((5, 2))
    f = Quadratic(B @ B.T, B @ rng.standard_normal(2), 0.25)
    assert not f._full_rank
    on_range = f.q + B @ rng.standard_normal(2)
    assert np.isfinite(f.conj(on_range))
    assert same_bits(f.conj(on_range), ref_conj(f, on_range))
    normal = np.linalg.svd(B)[0][:, -1]  # orthogonal to range(Q)
    assert f.conj(on_range + normal) == np.inf


# -- copy-free identity kernels ----------------------------------------------

def test_identity_kernels_alias_and_public_calls_copy(rng):
    L = LinearMap.identity(4)
    x = rng.standard_normal(4)
    assert L._apply(x) is x and L._adjoint_apply(x) is x
    keep = x.copy()
    for public in (L.apply, L.adjoint_apply):
        out = public(x)
        assert out is not x and np.array_equal(out, x)
        out[:] = 7.0
        assert np.array_equal(x, keep)
