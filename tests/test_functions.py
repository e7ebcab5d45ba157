import math

import numpy as np
import pytest

from inadmm import (
    IndicatorBox,
    IndicatorConsensus,
    IndicatorHyperplane,
    IndicatorPoint,
    L1Norm,
    L2Norm,
    LinearMap,
    Quadratic,
    SeparableSum,
    Translated,
    Zero,
)
from inadmm.functions import sum_or_inf
from inadmm.linalg import check_vector, cholesky

from conftest import (CountingL1, catalog, counted, mixed_blocks,
                      random_quadratic, tall_full_rank)

INF = math.inf


# -- value examples ----------------------------------------------------------

def test_zero_eval():
    assert Zero(2)([3.0, -1.0]) == 0.0


def test_l1_eval():
    assert L1Norm(2, 2.0)([1.0, -3.0]) == pytest.approx(8.0)


def test_indicator_point_eval():
    f = IndicatorPoint([1.0, 1.0])
    assert f([1.0, 2.0]) == INF
    assert f([1.0, 1.0]) == 0.0


def test_box_and_hyperplane_eval():
    box = IndicatorBox([-1.0, -1.0], [1.0, 2.0])
    assert box([0.5, 1.5]) == 0.0
    assert box([1.5, 0.0]) == INF
    hp = IndicatorHyperplane([1.0, 1.0], 2.0)
    assert hp([0.5, 1.5]) == 0.0
    assert hp([0.0, 0.0]) == INF


# -- prox examples -----------------------------------------------------------

def test_prox_zero_identity():
    assert np.array_equal(Zero(2).prox(1.0, [3.0, 4.0]), [3.0, 4.0])


def test_prox_l1_soft_threshold():
    # oracle: 1-D subgradient optimality y - x + gamma*tau*sign(y) = 0
    got = L1Norm(2, 1.0).prox(1.0, [2.0, -0.5])
    assert np.allclose(got, [1.0, 0.0], atol=1e-15)


def test_prox_quadratic_scalar():
    # minimizer of y^2/2 + (y-4)^2/2 is y = 2
    f = Quadratic([[1.0]], [0.0], 0.0)
    assert f.prox(1.0, [4.0]) == pytest.approx([2.0])


def test_quadratic_data_is_read_only():
    # the prox factor derives from Q and q, so neither may change after it
    Q, q = np.eye(2), np.zeros(2)
    f = Quadratic(Q, q)
    assert f.prox(1.0, [1.0, 2.0]) == pytest.approx([0.5, 1.0], abs=1e-15)
    with pytest.raises(ValueError):
        f.Q[0, 0] = 3.0
    with pytest.raises(ValueError):
        f.q[0] = 1.0
    Q[0, 0], q[0] = 3.0, 1.0  # the caller's arrays stay writeable and apart
    assert f.prox(1.0, [1.0, 2.0]) == pytest.approx([0.5, 1.0], abs=1e-15)


def test_prox_projections():
    assert np.allclose(IndicatorBox([-1, -1], [1, 1]).prox(2.0, [3.0, 0.5]),
                       [1.0, 0.5])
    hp = IndicatorHyperplane([0.0, 1.0], 2.0)
    assert np.allclose(hp.prox(1.0, [5.0, 0.0]), [5.0, 2.0])


# -- conjugate examples ------------------------------------------------------

def test_conj_zero():
    z = Zero(2)
    assert z.conj([0.0, 0.0]) == 0.0
    assert z.conj([1.0, 0.0]) == INF


def test_conj_l1_box():
    f = L1Norm(2, 1.0)
    assert f.conj([0.5, -1.0]) == 0.0
    assert f.conj([0.5, -1.5]) == INF


def test_conj_quadratic():
    f = Quadratic([[1.0]], [0.0], 0.0)
    assert f.conj([3.0]) == pytest.approx(4.5)


def test_conj_quadratic_singular_range_condition():
    f = Quadratic([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0], 0.0)
    assert f.conj([2.0, 0.0]) == pytest.approx(2.0)
    assert f.conj([0.0, 1.0]) == INF


def test_conj_indicator_point_linear():
    f = IndicatorPoint([2.0, -1.0])
    assert f.conj([3.0, 3.0]) == pytest.approx(3.0)


# -- conjugate prox ----------------------------------------------------------

def test_conj_prox_zero():
    assert np.allclose(Zero(2).conj_prox(1.0, [3.0, 4.0]), [0.0, 0.0])


def test_conj_prox_l1_clamp():
    got = L1Norm(2, 1.0).conj_prox(1.0, [2.0, -0.5])
    assert np.allclose(got, [1.0, -0.5], atol=1e-15)


def test_moreau_at_unit_gamma(rng):
    for f in catalog(3, rng):
        x = rng.standard_normal(3)
        assert np.allclose(f.prox(1.0, x) + f.conj_prox(1.0, x), x, atol=1e-12)


# -- property suites ---------------------------------------------------------

@pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
def test_moreau_identity_catalog(rng, gamma):
    for f in catalog(4, rng):
        for _ in range(200):
            x = 3.0 * rng.standard_normal(4)
            # Moreau: prox_{g f}(x) + g * prox_{f*/g}(x/g) = x
            val = f.prox(gamma, x) + gamma * _prox_conj_over_gamma(f, gamma, x)
            assert np.linalg.norm(val - x) <= 1e-12 * (1 + np.linalg.norm(x))


def _prox_conj_over_gamma(f, gamma, x):
    # prox_{f*/gamma}(x/gamma) = (x/gamma) - (1/gamma) prox_{gamma f}(x)
    # computed through conj_prox with parameter 1/gamma for independence
    return f.conj_prox(1.0 / gamma, x / gamma)


def test_firm_nonexpansiveness(rng):
    for f in catalog(4, rng):
        for _ in range(100):
            x = 2.0 * rng.standard_normal(4)
            y = 2.0 * rng.standard_normal(4)
            px = f.prox(1.3, x)
            py = f.prox(1.3, y)
            lhs = np.linalg.norm(px - py) ** 2
            rhs = (x - y) @ (px - py)
            assert lhs <= rhs + 1e-12


def test_prox_optimality_certificate(rng):
    # (x - p)/gamma is a subgradient of f at p = prox_{gamma f}(x)
    gamma = 0.7
    for f in catalog(3, rng):
        for _ in range(50):
            x = 2.0 * rng.standard_normal(3)
            p = f.prox(gamma, x)
            fp = f(p)
            assert np.isfinite(fp)
            sub = (x - p) / gamma
            for _ in range(20):
                y = p + rng.standard_normal(3)
                fy = f(y)
                if np.isinf(fy):
                    continue
                assert fy >= fp + sub @ (y - p) - 1e-10


def _brute_force_conj(f, u, lo=-6.0, hi=6.0, rounds=4, pts=241):
    """Zooming grid supremum of <u, x> - f(x) over a box (n = 1 or 2)."""
    n = f.dim
    width = hi - lo
    center = np.zeros(n)
    best = -INF
    for _ in range(rounds):
        axes = [np.linspace(c - width / 2, c + width / 2, pts) for c in center]
        if n == 1:
            grid = axes[0][:, None]
        else:
            g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
            grid = np.stack([g0.ravel(), g1.ravel()], axis=1)
        # one check per round, then the unchecked value kernel per point
        check_vector(grid.ravel(), None, name="grid")
        vals = np.array([u @ x - f._value(x) for x in grid])
        idx = int(np.argmax(vals))
        best = float(vals[idx])
        center = grid[idx]
        width = 4 * width / (pts - 1)
    return best


@pytest.mark.parametrize("n", [1, 2])
def test_conjugate_matches_brute_force(rng, n):
    # grid search only sees full-dimensional domains; lower-dimensional
    # indicators (point, hyperplane) have exact closed-form checks above
    kinds = (Quadratic, L1Norm, IndicatorBox, Translated)
    pts = 241 if n == 1 else 81
    rounds = 4 if n == 1 else 6
    for f in catalog(n, rng):
        if not isinstance(f, kinds):
            continue
        for _ in range(3):
            u = 0.5 * rng.standard_normal(n)
            exact = f.conj(u)
            approx = _brute_force_conj(f, u, rounds=rounds, pts=pts)
            if np.isinf(exact):
                continue
            assert approx == pytest.approx(exact, abs=1e-6)


# -- structured kinds --------------------------------------------------------

def test_translated_prox_and_conj(rng):
    base = L1Norm(2, 1.0)
    shift = np.array([1.0, -2.0])
    f = Translated(base, shift)
    x = rng.standard_normal(2)
    assert np.allclose(f.prox(0.5, x), shift + base.prox(0.5, x - shift))
    u = np.array([0.5, -0.5])
    assert f.conj(u) == pytest.approx(base.conj(u) + shift @ u)


def test_separable_sum_blockwise(rng):
    f = SeparableSum([L1Norm(2, 1.0), Quadratic(np.eye(2), [0.0, 0.0])])
    x = np.array([2.0, -0.5, 4.0, -2.0])
    for xs in _shapes(x.reshape(2, 2)):
        assert f(xs) == pytest.approx(2.5 + 10.0)
        assert f.conj(xs) == INF
        p = f.prox(1.0, xs)
        assert p.shape == xs.shape
        assert np.allclose(p.ravel(), [1.0, 0.0, 2.0, -1.0])
        q = f.conj_prox(1.0, xs)
        assert q.shape == xs.shape and np.allclose(p + q, xs)


def test_indicator_consensus_projection():
    g = IndicatorConsensus(3, 2)
    x = np.array([1.0, 0.0, 2.0, 3.0, 3.0, 0.0])
    p = g.prox(1.0, x)
    assert np.allclose(p, [2.0, 1.0] * 3)
    assert g(p) == 0.0
    assert g(x) == INF
    # conjugate: indicator of zero block-sum
    assert g.conj(np.array([1.0, 0.0, -1.0, 2.0, 0.0, -2.0])) == 0.0
    assert g.conj(np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])) == INF


@pytest.mark.parametrize("m, n", [(2, 1), (3, 2), (101, 3), (7, 40)])
def test_indicator_consensus_prox_bytes(rng, m, n):
    g = IndicatorConsensus(m, n)
    x = rng.standard_normal(m * n) * 10.0 ** rng.integers(-8, 8, m * n)
    want = np.tile(x.reshape(m, n).mean(0), m)
    got = g.prox(1.0, x)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_constructor_validation():
    with pytest.raises(ValueError):
        Quadratic([[0.0, 1.0], [1.0, 0.0]], [0.0, 0.0])  # indefinite
    with pytest.raises(ValueError):
        L1Norm(2, -1.0)
    with pytest.raises(ValueError):
        IndicatorBox([1.0], [0.0])


@pytest.mark.parametrize("Q, r, message", [
    ([[np.inf]], 0.0, "Q entries must be finite"),
    ([[np.nan]], 0.0, "Q entries must be finite"),  # not "Q must be symmetric"
    ([[1.0]], np.nan, "r must be finite"),
    ([[1.0]], np.inf, "r must be finite"),
], ids=["Q_inf", "Q_nan", "r_nan", "r_inf"])
def test_quadratic_rejects_nonfinite_data(Q, r, message):
    with pytest.raises(ValueError, match=message):
        Quadratic(Q, [0.0], r)


# -- set-up on demand --------------------------------------------------------

def test_first_conjugate_computes_the_eigenbasis_once(rng, monkeypatch):
    n = 6
    f0 = random_quadratic(n, rng)
    evals, evecs = np.linalg.eigh(f0.Q)
    u, x = rng.standard_normal(n), rng.standard_normal(n)
    eager = f0.conj(u)
    calls = counted(monkeypatch, np.linalg, "eigh")
    f = Quadratic(f0.Q, f0.q, f0.r)
    f(x), f.prox(0.7, x), f._solver(1.3, LinearMap.identity(n))
    assert calls == []
    assert f.conj(u) == eager
    assert len(calls) == 1
    f.conj(x), f._conj(u + x)
    assert f._full_rank and len(calls) == 1
    assert f._evecs.tobytes() == evecs.tobytes()
    assert f._evals.tobytes() == np.maximum(evals, 0.0).tobytes()


@pytest.mark.parametrize("n", [1, 5, 40])
def test_psd_test_boundary(rng, n):
    # the construction-time test reads eigvalsh: a singular PSD Q passes,
    # an eigenvalue of -1e-9 * scale (1000 times the tolerance) does not
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    d = rng.uniform(0.5, 2.0, n)
    d[0] = 0.0
    Q = (V * d) @ V.T
    f = Quadratic(0.5 * (Q + Q.T), np.zeros(n))
    assert not f._full_rank
    d[0] = -1e-9 * (1.0 + np.abs(Q).max())
    Q = (V * d) @ V.T
    with pytest.raises(ValueError, match="positive semidefinite"):
        Quadratic(0.5 * (Q + Q.T), np.zeros(n))


def test_psd_certificate_never_accepts_what_eigvalsh_rejects():
    # Q = V diag(d) V' with its smallest eigenvalue on either side of zero
    # and of -rank_tol: whenever the Cholesky certificate accepts, eigvalsh
    # accepts too, and well inside the cone the certificate alone decides
    from inadmm.linalg import pd_after_shift

    accepted = 0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        for n in (1, 2, 5, 30, 120):
            V = np.linalg.qr(rng.standard_normal((n, n)))[0]
            d = rng.uniform(0.5, 2.0, n) * 10.0 ** rng.integers(-3, 4)
            top = d.max()
            for lo in (-1e-6, -1e-9, -1e-11, -1e-12, -1e-13, -1e-15, 0.0, 1e-15,
                       1e-13, 1e-12, 1e-11, 1e-9, 1e-6, 1e-3):
                d[0] = lo * top
                Q = (V * d) @ V.T
                Q = 0.5 * (Q + Q.T)
                rank_tol = 1e-12 * (1.0 + np.abs(Q).max())
                if pd_after_shift(Q, 4 * (n + 1)):
                    accepted += 1
                    assert np.linalg.eigvalsh(Q).min() >= -rank_tol, (seed, n, lo)
                elif lo >= 1e-6:
                    raise AssertionError("not certified: %r" % ((seed, n, lo),))
    assert accepted >= 8 * 5 * 2


def test_certified_quadratic_skips_eigvalsh(rng, monkeypatch):
    calls = counted(monkeypatch, np.linalg, "eigvalsh")
    Quadratic(np.diag([2.0, 1.0, 3.0]), np.zeros(3))
    assert calls == []
    Quadratic(np.diag([2.0, 0.0, 3.0]), np.zeros(3))  # singular: eigvalsh decides
    assert len(calls) == 1


def test_normal_factor_reads_the_maps_gram(rng, monkeypatch):
    # two quadratics and two gammas share one L'L product of the map, and
    # every factor has the bits of Q + gamma L'L computed in place
    n, m = 4, 6
    Lm = tall_full_rank(m, n, rng)
    L = LinearMap.dense(Lm)
    fs = [random_quadratic(n, rng) for _ in range(2)]
    reads = counted(monkeypatch, LinearMap, "as_matrix")
    for f in fs:
        for gamma in (0.7, 1.3):
            b = rng.standard_normal(n)
            want = cholesky(f.Q + gamma * (Lm.T @ Lm))(b)
            assert f._solver(gamma, L)(b).tobytes() == want.tobytes()
    assert len(reads) == 1


@pytest.mark.parametrize("b", [np.inf, np.nan], ids=["inf", "nan"])
def test_hyperplane_rejects_nonfinite_offset(b):
    with pytest.raises(ValueError, match="b must be finite"):
        IndicatorHyperplane([1.0, 0.0], b)


# -- row-stacked evaluation --------------------------------------------------

def _shapes(X):
    """A stacked (m, n) input in both accepted shapes: as it is, and flat."""
    return X, X.ravel()


def _blockwise_prox(blocks, gamma, X):
    return np.stack([f.prox(gamma, x) for f, x in zip(blocks, X)])


def _box(n, rng):
    return IndicatorBox(-rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n))


def _hyperplane(n, rng):
    return IndicatorHyperplane(rng.standard_normal(n) + 0.1, float(rng.standard_normal()))


def _stacked_input(rng, m, n):
    X = 3.0 * rng.standard_normal((m, n))
    X[rng.random((m, n)) < 0.1] = 0.0
    X[rng.random((m, n)) < 0.1] = -0.0
    return X


@pytest.mark.parametrize("n", [1, 3, 10])
@pytest.mark.parametrize("gamma", [0.1, 1.0, 7.0])
def test_stacked_prox_matches_blockwise_bit_for_bit(rng, n, gamma):
    blocks = mixed_blocks(n, rng)
    f = SeparableSum(blocks)
    X = _stacked_input(rng, len(blocks), n)
    want = _blockwise_prox(blocks, gamma, X).tobytes()
    for Xs in _shapes(X):
        got = f.prox(gamma, Xs)
        assert got.shape == Xs.shape and got.tobytes() == want
    counting = [g for g in blocks if isinstance(g, CountingL1)]
    assert counting and all(g.prox_calls == 3 for g in counting)


@pytest.mark.parametrize("make", [
    lambda n, rng: L1Norm(n, 1.0),
    lambda n, rng: Translated(L1Norm(n, 0.5), rng.standard_normal(n)),
    lambda n, rng: Zero(n),
    lambda n, rng: random_quadratic(n, rng),
    lambda n, rng: L2Norm(n, rng.uniform(0.5, 6.0)),
    lambda n, rng: IndicatorPoint(rng.standard_normal(n)),
    lambda n, rng: _box(n, rng),
    lambda n, rng: _hyperplane(n, rng),
    lambda n, rng: Translated(_box(n, rng), rng.standard_normal(n)),
    lambda n, rng: Translated(L2Norm(n, rng.uniform(0.5, 6.0)), rng.standard_normal(n)),
], ids=["l1", "translated_l1", "zero", "quadratic", "l2norm", "point", "box",
        "hyperplane", "translated_box", "translated_l2norm"])
def test_stacked_prox_single_group(rng, make):
    blocks = [make(3, rng) for _ in range(5)]
    X = _stacked_input(rng, 5, 3)
    want = _blockwise_prox(blocks, 0.7, X).tobytes()
    for Xs in _shapes(X):
        assert SeparableSum(blocks).prox(0.7, Xs).tobytes() == want


def _domain_points(blocks, rng, gamma=0.8):
    """Rows in dom f_i and in dom f_i*: a prox point and its Moreau partner."""
    Y = _stacked_input(rng, len(blocks), blocks[0].dim)
    P = _blockwise_prox(blocks, gamma, Y)
    return P, (Y - P) / gamma


# every kind whose kernels take stacked rows, with per-block parameters
ROW_KINDS = {
    "zero": lambda n, rng: Zero(n),
    "l1": lambda n, rng: L1Norm(n, rng.uniform(0.2, 2.0)),
    "l2norm": lambda n, rng: L2Norm(n, rng.uniform(0.5, 6.0)),
    "point": lambda n, rng: IndicatorPoint(rng.standard_normal(n)),
    "box": _box,
    "hyperplane": _hyperplane,
}


@pytest.mark.parametrize("translated", [False, True], ids=["plain", "translated"])
@pytest.mark.parametrize("kind", sorted(ROW_KINDS))
def test_stacked_value_and_conj_rows_match_block_kernels_bitwise(rng, kind, translated):
    for k, n in ((2, 1), (3, 4), (7, 10)):
        blocks = [ROW_KINDS[kind](n, rng) for _ in range(k)]
        if translated:
            blocks = [Translated(g, rng.standard_normal(n)) for g in blocks]
        f = SeparableSum(blocks)
        # one group: an instance of the blocks' own kind
        assert len(f._groups) == 1 and type(f._groups[0][1]) is type(blocks[0])
        X, U = _domain_points(blocks, rng)
        Y = _stacked_input(rng, k, n)
        for method, rows in (("_value", X), ("_value", Y), ("_conj", U), ("_conj", Y)):
            got = [float(v).hex() for v in f._rowwise(method, rows)]
            want = [float(getattr(g, method)(r)).hex() for g, r in zip(blocks, rows)]
            assert got == want, (method, k, n)


def test_l2norm_group_makes_one_prox_call(rng, monkeypatch):
    blocks = [L2Norm(3, tau) for tau in (0.5, 1.0, 2.0)] + [random_quadratic(3, rng)]
    f = SeparableSum(blocks)
    kernel = L2Norm._prox
    shapes = []

    def counting(self, gamma, x):
        shapes.append(x.shape)
        return kernel(self, gamma, x)

    monkeypatch.setattr(L2Norm, "_prox", counting)
    X = _stacked_input(rng, 4, 3)
    for Xs in _shapes(X):
        f.prox(0.7, Xs)
    assert shapes == [(3, 3), (3, 3)]


@pytest.mark.parametrize("n", [1, 3, 10])
def test_stacked_value_and_conj_sum_blocks_in_order(rng, n):
    blocks = mixed_blocks(n, rng)
    f = SeparableSum(blocks)
    X, U = _domain_points(blocks, rng)
    value = sum_or_inf(g(x) for g, x in zip(blocks, X))
    conj = sum_or_inf(g.conj(u) for g, u in zip(blocks, U))
    assert math.isfinite(value) and math.isfinite(conj)
    for Xs, Us in zip(_shapes(X), _shapes(U)):
        assert f(Xs) == pytest.approx(value, rel=1e-12, abs=0.0)
        assert f.conj(Us) == pytest.approx(conj, rel=1e-12, abs=0.0)


def test_stacked_value_and_conj_infinite_exactly(rng):
    blocks = mixed_blocks(3, rng)
    f = SeparableSum(blocks)
    X, U = _domain_points(blocks, rng)
    for i in range(len(blocks)):
        Xi, Ui = X.copy(), U.copy()
        Xi[i] += 100.0
        Ui[i] += 100.0
        value = sum_or_inf(g(x) for g, x in zip(blocks, Xi))
        conj = sum_or_inf(g.conj(u) for g, u in zip(blocks, Ui))
        for Xs, Us in zip(_shapes(Xi), _shapes(Ui)):
            if math.isinf(value):
                assert f(Xs) == INF
            else:
                assert f(Xs) == pytest.approx(value, rel=1e-12, abs=0.0)
            if math.isinf(conj):
                assert f.conj(Us) == INF
            else:
                assert f.conj(Us) == pytest.approx(conj, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_stacked_rejects_nonfinite_rows(rng, bad):
    f = SeparableSum(mixed_blocks(2, rng))
    X = _stacked_input(rng, f.m, 2)
    X[3, 1] = bad
    for Xs in _shapes(X):
        for call in (lambda: f.prox(1.0, Xs), lambda: f(Xs), lambda: f.conj(Xs)):
            with pytest.raises(ValueError, match="vector entries must be finite"):
                call()


def test_stacked_rejects_wrong_shape_and_dimensions(rng):
    f = SeparableSum([L1Norm(2, 1.0), Zero(2)])
    for bad in (np.zeros((2, 3)), np.zeros((4, 1)), np.zeros(5), np.zeros((1, 4))):
        with pytest.raises(ValueError, match="shape"):
            f.prox(1.0, bad)
    with pytest.raises(ValueError, match="one dimension"):
        SeparableSum([L1Norm(2, 1.0), Zero(3)])
    with pytest.raises(ValueError, match="at least one block"):
        SeparableSum([])


@pytest.mark.parametrize("cls", [L1Norm, L2Norm])
@pytest.mark.parametrize("tau", [np.nan, np.inf])
def test_norms_reject_nonfinite_tau(cls, tau):
    with pytest.raises(ValueError, match="tau"):
        cls(2, tau)


@pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan, np.inf],
                         ids=["zero", "negative", "nan", "inf"])
def test_prox_rejects_bad_gamma(rng, gamma):
    fns = catalog(3, rng)
    fns += [SeparableSum(fns), IndicatorConsensus(2, 3)]
    for f in fns:
        x = rng.standard_normal(f.dim)
        for prox in (f.prox, f.conj_prox):
            with pytest.raises(ValueError, match="gamma must be positive"):
                prox(gamma, x)
            # gamma is checked before the vector
            with pytest.raises(ValueError, match="gamma must be positive"):
                prox(gamma, np.full(f.dim, np.nan))


@pytest.mark.parametrize("make", [
    lambda: Zero(2.7),
    lambda: Zero(2.0),
    lambda: L1Norm(True, 1.0),
    lambda: L2Norm(np.float64(3.0), 1.0),
    lambda: IndicatorConsensus(2.9, 2),
    lambda: IndicatorConsensus(2, 1.5),
    lambda: IndicatorConsensus(3, True),
], ids=["zero_float", "zero_integral_float", "l1_bool", "l2_numpy_float",
        "consensus_m_float", "consensus_n_float", "consensus_n_bool"])
def test_dimension_arguments_must_be_integers(make):
    with pytest.raises(ValueError, match="must be an integer"):
        make()


def test_dimension_arguments_accept_integers():
    assert Zero(np.int64(3)).dim == 3 and type(Zero(np.int64(3)).dim) is int
    g = IndicatorConsensus(np.int32(3), 2)
    assert (g.m, g.n, g.dim) == (3, 2, 6)
    with pytest.raises(ValueError, match="number of blocks must be >= 2"):
        IndicatorConsensus(1, 2)
    with pytest.raises(ValueError, match="block dimension must be >= 1"):
        IndicatorConsensus(2, 0)
