"""Objective columns evaluated over stacked rows.

The trace reads the objective columns of its unread rows in blocks, with one
call of the run's objective on the block's stacked states.  Each row of such
a call must keep the bits of its own 1-D call: the tests compare them.
"""

import io
import math

import numpy as np
import pytest

from inadmm import (
    IndicatorConsensus,
    IndicatorHyperplane,
    L1Norm,
    LinearMap,
    ProblemSpec,
    Quadratic,
    SeparableSum,
    classical_admm,
    default_params,
    run_iadmm,
)
from inadmm import admm
from inadmm.config import parse_config
from inadmm.duality import _dual_value
from inadmm.functions import DOM_TOL, Translated, has_row_kernels
from inadmm.trace import BLOCK, CSV_COLUMNS

from conftest import CountingL1, catalog, tall_full_rank


def hexes(values):
    return [float(v).hex() for v in values]


def rank_deficient_quadratic(n, rank, rng):
    D = rng.standard_normal((rank, n))
    return Quadratic(D.T @ D, rng.standard_normal(n), float(rng.standard_normal()))


def vector_conj(f, u):
    """``Quadratic._conj`` on one vector as it was written before it took rows."""
    evals, evecs = f._eigh
    w = evecs.T @ (u - f.q)
    if f._full_rank:
        return 0.5 * float((w ** 2 / evals).sum()) - f.r
    small = evals <= f._rank_tol
    if np.any(np.abs(w[small]) > DOM_TOL * (1.0 + np.linalg.norm(u - f.q))):
        return math.inf
    return 0.5 * float(np.sum(w[~small] ** 2 / evals[~small])) - f.r


def quadratic_rows(f, rng, k=12):
    """Random rows, rows in q + range(Q), and rows holding inf or NaN."""
    n = f.dim
    X = 3.0 * rng.standard_normal((k, n))
    inside = f.q + X[: k // 2] @ f.Q
    odd = X[:4].copy()
    odd[0, 0], odd[1, -1], odd[2, 0], odd[3] = np.inf, -np.inf, np.nan, np.inf
    return np.concatenate([X, inside, odd])


@pytest.mark.parametrize("n, rank", [(1, 1), (1, 0), (5, 5), (5, 2), (9, 4),
                                     (30, 30), (30, 17)])
def test_quadratic_rows_are_their_vector_calls(rng, n, rank):
    f = (rank_deficient_quadratic(n, rank, rng) if rank else
         Quadratic(np.zeros((n, n)), rng.standard_normal(n)))
    assert f._full_rank == (rank == n)
    U = quadratic_rows(f, rng)
    with np.errstate(all="ignore"):
        for kernel in (f._value, f._conj):
            rows = kernel(U)
            assert rows.shape == (len(U),)
            assert hexes(rows) == hexes([kernel(u) for u in U]), kernel.__name__
        conj = f._conj(U)
        assert hexes(conj) == hexes([vector_conj(f, u) for u in U])
    finite = U[np.isfinite(U).all(1)]
    if rank < n:  # the masked branch saw rows on both sides of range(Q)
        assert np.isinf(f._conj(finite)).any() and np.isfinite(f._conj(finite)).any()
    else:
        assert np.isfinite(f._conj(finite)).all()


def dual_problems(rng):
    n = 4
    yield ProblemSpec(rank_deficient_quadratic(n, 2, rng), L1Norm(n, 0.5),
                      LinearMap.identity(n))
    m = n + 2
    a = rng.standard_normal(m) + 0.1
    yield ProblemSpec(rank_deficient_quadratic(n, 3, rng),
                      IndicatorHyperplane(a, 0.3), LinearMap.dense(tall_full_rank(m, n, rng)))


@pytest.mark.parametrize("which", [0, 1], ids=["identity", "dense"])
def test_dual_value_rows_are_their_vector_calls(rng, which):
    p = list(dual_problems(rng))[which]
    k, m = 16, p.g.dim
    V = 0.2 * rng.standard_normal((k, m))
    Y = 0.2 * rng.standard_normal((k, m))
    # -L*v in q + range(Q) makes f* finite: rows 0..7; y on g*'s domain: even rows
    x = rng.standard_normal((8, p.f.dim))
    V[:8] = np.linalg.lstsq(p.L.as_matrix().T, -(x @ p.f.Q + p.f.q).T, rcond=None)[0].T
    if isinstance(p.g, L1Norm):
        Y[::2] = np.clip(Y[::2], -0.4, 0.4)
        Y[1::2] += np.sign(Y[1::2]) * 0.6
    else:
        Y[::2] = rng.standard_normal((k // 2, 1)) * p.g.a
    a = np.array([p.f._conj(-p.L._adjoint_apply(v)) for v in V])
    b = np.array([p.g._conj(y) for y in Y])
    rows = _dual_value(p, V, Y)
    assert hexes(rows) == hexes([_dual_value(p, v, y) for v, y in zip(V, Y)])
    # -inf from f* alone, from g* alone, from both; and finite values
    fin_a, fin_b = np.isfinite(a), np.isfinite(b)
    for case in (~fin_a & fin_b, fin_a & ~fin_b, ~fin_a & ~fin_b):
        assert case.any() and (rows[case] == -np.inf).all()
    assert np.isfinite(rows[fin_a & fin_b]).all() and (fin_a & fin_b).any()


def csv_of_row_reads(trace):
    """A trace's CSV built from each row's own reads, one value at a time."""
    lines = [",".join(CSV_COLUMNS)]
    for row in trace.rows:
        lines.append(",".join([str(row.k)] + ["%.17g" % v for v in row.scalars()[1:]]))
    return "\n".join(lines) + "\n"


def iadmm_on(p):
    return lambda: run_iadmm(p, default_params(0.2, gamma=1.3),
                             max_iters=2 * BLOCK + 1, tol=0.0)


def cli_batch_file(n, rng):
    """A problem file shaped like the benchmark's ``cli_batch`` files: dense
    Q and L, an l1 g, alpha 0.2, run to 2 BLOCK + 1 iterations."""
    def numerals(a):
        return " ".join(repr(float(v)) for v in np.ravel(a))
    G = rng.standard_normal((n, n)) / np.sqrt(n)
    Q = G @ G.T + 0.5 * np.eye(n)
    return "\n".join([
        "solver iadmm", "gamma 1.0", "alpha 0.2", "tol 0",
        "max_iters %d" % (2 * BLOCK + 1),
        "begin f", "kind quadratic", "Q " + numerals(0.5 * (Q + Q.T)),
        "q " + numerals(rng.standard_normal(n)), "end",
        "begin g", "kind l1", "dim %d" % n, "tau 0.3", "end",
        "begin L", "kind dense", "rows %d" % n, "cols %d" % n,
        "entries " + numerals(np.eye(n) + 0.3 * G.T), "end"])


def traced_runs(rng):
    n = 5
    D = tall_full_rank(2 * n, n, rng)
    lasso = ProblemSpec(Quadratic(D.T @ D, rng.standard_normal(n)), L1Norm(n, 0.3),
                        LinearMap.identity(n))
    m = n + 2
    deficient = ProblemSpec(rank_deficient_quadratic(n, 2, rng),
                            rank_deficient_quadratic(m, 3, rng),
                            LinearMap.dense(tall_full_rank(m, n, rng)))
    cfg = parse_config(cli_batch_file(n, rng))
    return {
        "iadmm_lasso": iadmm_on(lasso),
        "iadmm_rank_deficient": iadmm_on(deficient),
        "classical_rank_deficient": lambda: classical_admm(
            deficient, 0.8, lam=1.5, max_iters=2 * BLOCK + 1, tol=0.0),
        # a subclass g keeps per-row reads
        "iadmm_subclass": iadmm_on(ProblemSpec(lasso.f, CountingL1(n, 0.3), lasso.L)),
        "iadmm_cli_batch": lambda: run_iadmm(cfg.problem, cfg.params,
                                             max_iters=cfg.max_iters, tol=cfg.tol),
    }


@pytest.mark.parametrize("name", ["iadmm_lasso", "iadmm_rank_deficient",
                                  "classical_rank_deficient", "iadmm_subclass",
                                  "iadmm_cli_batch"])
def test_csv_of_blocks_is_the_rows_own_reads(rng, monkeypatch, name):
    run = traced_runs(rng)[name]
    want = csv_of_row_reads(run())
    calls = []  # the rows of each stacked dual value
    dual_value = admm._dual_value

    def counting(p, v, y):
        if v.ndim == 2:
            calls.append(len(v))
        return dual_value(p, v, y)

    monkeypatch.setattr(admm, "_dual_value", counting)
    trace = run()
    assert len(trace) == 2 * BLOCK + 1
    trace.rows[BLOCK + 3].gap  # noqa: B018 -- a row read alone first
    buf = io.StringIO()
    trace.write_csv(buf)
    assert buf.getvalue() == want
    assert calls == ([] if name == "iadmm_subclass" else [BLOCK, BLOCK - 1, 1])
    for column in ("primal", "dual", "gap"):
        assert hexes(trace.column(column)) == hexes(
            [getattr(row, column) for row in run().rows])


def test_column_reads_in_blocks(rng):
    trace = traced_runs(rng)["iadmm_rank_deficient"]()
    assert all(row._gap is None for row in trace.rows)
    dual = trace.column("dual")
    assert all(row._gap is not None for row in trace.rows)
    assert dual.shape == (len(trace),) and (dual == -np.inf).any()


def test_row_kernel_predicate(rng):
    n = 3
    for f in catalog(n, rng):
        assert has_row_kernels(f), f
    assert has_row_kernels(Translated(Translated(L1Norm(n, 1.0), np.ones(n)), np.ones(n)))
    assert not has_row_kernels(SeparableSum([L1Norm(n, 1.0)] * 2))
    assert not has_row_kernels(IndicatorConsensus(2, n))
    assert not has_row_kernels(Translated(SeparableSum([L1Norm(n, 1.0)] * 2), np.ones(2 * n)))
    assert not has_row_kernels(CountingL1(n, 1.0))
    assert not has_row_kernels(Translated(CountingL1(n, 1.0), np.ones(n)))
