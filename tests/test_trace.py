"""Trace rows compute their objective columns on first read.

Every solver hands its row the arrays the objective values are made of,
and the values are computed when ``primal``, ``dual`` or ``gap`` is first
read.  The tests below read them after the run and compare them, to the
last bit, with the formulas evaluated on copies of the row's arrays taken
when the row was appended, that is, with what an eager row computed.  A
solver that wrote into an array after handing it to a row would fail here.
"""

import io
import math

import numpy as np
import pytest

from inadmm import (
    ConsensusProblem,
    IndicatorHyperplane,
    L1Norm,
    LinearMap,
    ProblemSpec,
    Quadratic,
    XUpdateStrategy,
    boyd_consensus,
    classical_admm,
    default_params,
    run_iadmm,
    run_sum1,
    run_sum2,
)
from inadmm import admm
from inadmm.trace import SolveTrace, TraceRow

from conftest import mixed_blocks, random_quadratic, tall_full_rank

ITERS = 40


def hexes(*values):
    return tuple(float(v).hex() for v in values)


def with_gap(primal, dual):
    gap = primal - dual if math.isfinite(primal) and math.isfinite(dual) else math.inf
    return hexes(primal, dual, gap)


def composite_dual(p, v, y):
    a = p.f.conj(-p.L.adjoint_apply(v))
    if math.isinf(a):
        return -math.inf
    b = p.g.conj(y)
    if math.isinf(b):
        return -math.inf
    return -a - b


@pytest.fixture
def snapshots(monkeypatch):
    """Copies of every appended row's vectors, taken at append time."""
    taken = []
    append = SolveTrace.append

    def copying_append(trace, row):
        taken.append({key: np.array(v, copy=True)
                      for key, v in row.vectors.items()})
        append(trace, row)

    monkeypatch.setattr(SolveTrace, "append", copying_append)
    return taken


def composite_problem(kind, rng):
    n = 5
    if kind == "prox_identity":
        D = tall_full_rank(2 * n, n, rng)
        b = rng.standard_normal(2 * n)
        f = Quadratic(D.T @ D, -D.T @ b, 0.5 * float(b @ b))
        return ProblemSpec(f, L1Norm(n, 0.3), LinearMap.identity(n))
    m = n + 2
    L = LinearMap.dense(tall_full_rank(m, n, rng))
    if kind == "quadratic_solve":
        return ProblemSpec(random_quadratic(n, rng), L1Norm(m, 0.2), L)
    return ProblemSpec(L1Norm(n, 0.4),
                       Quadratic(np.eye(m), -rng.standard_normal(m)), L)


def check_iadmm_rows(p, trace, vectors):
    zbar = np.zeros(p.g.dim)  # zbar^1
    for row, vec in zip(trace.rows, vectors):
        primal = p.f(vec["x_next"]) + p.g(vec["z"] + zbar)
        dual = composite_dual(p, vec["v"], vec["y"])
        assert hexes(row.primal, row.dual, row.gap) == with_gap(primal, dual), row.k
        zbar = vec["zbar_next"]


@pytest.mark.parametrize("alpha", [0.0, 0.2])
@pytest.mark.parametrize("kind", ["prox_identity", "quadratic_solve",
                                  "inner_iterative"])
def test_run_iadmm_objective_columns_bit_for_bit(rng, snapshots, kind, alpha):
    p = composite_problem(kind, rng)
    trace = run_iadmm(p, default_params(alpha, gamma=1.3),
                      strat=XUpdateStrategy(kind), max_iters=ITERS, tol=0.0)
    assert len(snapshots) == ITERS
    check_iadmm_rows(p, trace, snapshots)


def test_infinite_dual_gives_infinite_gap(rng, snapshots):
    # g* of a hyperplane indicator is +inf off the span of its normal, and
    # y^1 is drawn off it: the dual reads -inf and the gap +inf; z^1 = 0
    # lies on the hyperplane, so the primal stays finite
    n = 4
    a = rng.standard_normal(n) + 0.1
    p = ProblemSpec(random_quadratic(n, rng), IndicatorHyperplane(a, 0.0),
                    LinearMap.identity(n))
    zeros = np.zeros(n)
    y1 = rng.standard_normal(n)
    trace = run_iadmm(p, default_params(0.2, gamma=1.1),
                      init=(y1, y1, zeros, zeros), max_iters=ITERS, tol=0.0)
    check_iadmm_rows(p, trace, snapshots)
    first = trace.rows[0]
    assert first.dual == -math.inf and first.gap == math.inf
    assert math.isfinite(first.primal)


@pytest.mark.parametrize("lam", [1.0, 1.5])
def test_classical_admm_objective_columns_bit_for_bit(rng, snapshots, lam):
    p = composite_problem("quadratic_solve", rng)
    gamma = 0.8
    trace = classical_admm(p, gamma, lam=lam, max_iters=ITERS, tol=0.0)
    assert len(snapshots) == ITERS
    for row, vec in zip(trace.rows, snapshots):
        x, z, y = vec["x_next"], vec["z"], vec["y"]
        r = p.L.apply(x) - z
        primal = p.f(x) + p.g(z)
        dual = composite_dual(p, y + gamma * r, y)
        assert hexes(row.primal, row.dual, row.gap) == with_gap(primal, dual), row.k


@pytest.mark.parametrize("run", [run_sum1, run_sum2])
def test_blockwise_objective_columns_bit_for_bit(rng, snapshots, run):
    cp = ConsensusProblem(mixed_blocks(3, rng, point=rng.standard_normal(3)))
    trace = run(cp, default_params(0.2, gamma=1.3), max_iters=ITERS, tol=0.0)
    assert len(snapshots) == ITERS
    for row, vec in zip(trace.rows, snapshots):
        for x, v in ((vec["x"], vec["v"]), (vec["x"].ravel(), vec["v"].ravel())):
            primal = cp.stacked(x)
            dual = -cp.stacked.conj(-v)
            assert hexes(row.primal, row.dual, row.gap) == with_gap(primal, dual), row.k


def test_boyd_consensus_objective_columns_bit_for_bit(rng, snapshots):
    cp = ConsensusProblem(mixed_blocks(3, rng, point=rng.standard_normal(3)))
    trace = boyd_consensus(cp, 0.9, max_iters=ITERS, tol=0.0)
    assert len(snapshots) == ITERS
    for row, vec in zip(trace.rows, snapshots):
        for x in (vec["x"], vec["x"].ravel()):
            primal = cp.stacked(x)
            assert hexes(row.primal, row.dual, row.gap) == with_gap(primal, math.nan)


def test_objective_columns_computed_once_on_first_read(rng, monkeypatch):
    calls = []  # the rows each call of the dual value evaluates
    dual_value = admm._dual_value

    def counting(p, v, y):
        calls.append(len(v) if v.ndim == 2 else 1)
        return dual_value(p, v, y)

    monkeypatch.setattr(admm, "_dual_value", counting)
    p = composite_problem("prox_identity", rng)
    trace = run_iadmm(p, default_params(0.2, gamma=1.3), max_iters=ITERS,
                      tol=0.0)
    rows = trace.rows
    assert sum(calls) == 0
    trace.column("dw_sq_sum")
    assert sum(calls) == 0
    dual = rows[-1].dual
    assert calls == [1]
    assert rows[-1].dual == dual and rows[-1].gap == rows[-1].primal - dual
    assert calls == [1]
    trace.write_csv(io.StringIO())
    # every other row once, in one stacked call (ITERS < BLOCK)
    assert calls == [1, len(rows) - 1]
    trace.column("gap")
    assert calls == [1, len(rows) - 1]


def test_row_without_objective_reads_nan_and_infinite_gap():
    row = TraceRow(3)
    assert math.isnan(row.primal) and math.isnan(row.dual)
    assert row.gap == math.inf
