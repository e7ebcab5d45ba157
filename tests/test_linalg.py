import numpy as np
import pytest

from inadmm import LinearMap
from inadmm.linalg import cholesky

from conftest import tall_full_rank


def test_identity_apply():
    L = LinearMap.identity(3)
    assert np.array_equal(L.apply([1, 2, 3]), [1, 2, 3])
    assert np.array_equal(L.adjoint_apply([5, 6, 7]), [5, 6, 7])


def test_dense_apply_examples():
    L = LinearMap.dense([[1, 0], [0, 2]])
    assert np.array_equal(L.apply([3, 4]), [3, 8])
    assert np.array_equal(L.adjoint_apply([3, 8]), [3, 16])
    row = LinearMap.dense([[1, 1]])
    assert np.array_equal(row.apply([2, 5]), [7])
    assert np.array_equal(row.adjoint_apply([7]), [7, 7])


def test_dimension_mismatch_rejected():
    L = LinearMap.dense([[1, 0], [0, 2]])
    with pytest.raises(ValueError):
        L.apply([1, 2, 3])
    with pytest.raises(ValueError):
        L.adjoint_apply([1])


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        LinearMap.dense([[np.nan, 0]])
    with pytest.raises(ValueError):
        LinearMap.identity(2).apply([np.inf, 0])


def test_injectivity_modulus_examples():
    assert LinearMap.identity(4).injectivity_modulus() == 1.0
    assert LinearMap.dense([[1, 0], [0, 2]]).injectivity_modulus() == pytest.approx(1.0, abs=1e-12)
    # second column zero: nontrivial kernel (oracle: eigvals of L^T L)
    L = LinearMap.dense([[1, 0], [1, 0]])
    gram = np.array([[1, 0], [1, 0]]).T @ np.array([[1, 0], [1, 0]])
    oracle = np.sqrt(max(np.linalg.eigvalsh(gram)[0], 0.0))
    assert oracle == pytest.approx(0.0, abs=1e-12)
    assert L.injectivity_modulus() == 0.0


def test_wide_matrix_modulus_zero():
    assert LinearMap.dense([[1.0, 2.0]]).injectivity_modulus() == 0.0


def test_scaled_identity():
    L = LinearMap.scaled_identity(2, -3.0)
    assert np.array_equal(L.apply([1, 2]), [-3, -6])
    assert L.injectivity_modulus() == 3.0
    assert L.norm() == 3.0


def test_adjoint_consistency_random(rng):
    for _ in range(5):
        m, n = rng.integers(1, 7, size=2)
        L = LinearMap.dense(rng.standard_normal((m, n)))
        for _ in range(200):
            x = rng.standard_normal(n)
            y = rng.standard_normal(m)
            lhs = L.apply(x) @ y
            rhs = x @ L.adjoint_apply(y)
            bound = 1e-12 * (1 + np.linalg.norm(x) * np.linalg.norm(y))
            assert abs(lhs - rhs) <= bound


def test_double_adjoint_round_trip(rng):
    L = LinearMap.dense(rng.standard_normal((3, 2)))
    assert np.array_equal(L.adjoint().adjoint().as_matrix(), L.as_matrix())


def test_modulus_sharpness(rng):
    for _ in range(10):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, m + 1))
        mat = rng.standard_normal((m, n))
        L = LinearMap.dense(mat)
        theta = L.injectivity_modulus()
        for _ in range(100):
            x = rng.standard_normal(n)
            assert np.linalg.norm(L.apply(x)) >= theta * np.linalg.norm(x) - 1e-10
        # the trailing right singular vector attains the bound
        _, s, vt = np.linalg.svd(mat)
        v = vt[-1]
        assert np.linalg.norm(L.apply(v)) == pytest.approx(theta, abs=1e-8)


def test_tiny_scaled_identity_modulus_zero():
    L = LinearMap.scaled_identity(2, 1e-12)
    assert L.injectivity_modulus() == 0.0
    assert L.norm() == 1e-12


def test_norm_and_modulus_share_one_svd(rng, monkeypatch):
    mat = rng.standard_normal((5, 3))
    sv = np.linalg.svd(mat, compute_uv=False)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    L = LinearMap.dense(mat)
    for _ in range(3):
        assert L.norm() == sv[0] and L.injectivity_modulus() == sv[-1]
    assert len(calls) == 1
    wide = LinearMap.dense(mat.T)
    assert wide.injectivity_modulus() == 0.0 and len(calls) == 1
    assert wide.norm() == pytest.approx(sv[0], rel=1e-12)


def test_adjoint_shares_singular_values(rng, monkeypatch):
    square = LinearMap.dense(tall_full_rank(4, 4, rng))
    tall = LinearMap.dense(tall_full_rank(5, 3, rng))
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    theta = square.injectivity_modulus()
    adj = square.adjoint()
    assert adj.injectivity_modulus() == theta and adj.norm() == square.norm()
    assert tall.injectivity_modulus() > 0.0
    wide = tall.adjoint()
    assert wide.injectivity_modulus() == 0.0  # the shape rule still holds
    assert wide.norm() == tall.norm()
    assert len(calls) == 2


@pytest.mark.parametrize("n", [1, 3, 30, 200])
def test_cholesky_matches_scipy_bytes(rng, n):
    import scipy.linalg

    a = rng.standard_normal((n, n))
    M = a @ a.T + 0.1 * np.eye(n)
    solve = cholesky(M)
    fct = scipy.linalg.cho_factor(M)
    for _ in range(3):
        b = rng.standard_normal(n)
        assert solve(b).tobytes() == scipy.linalg.cho_solve(fct, b).tobytes()


def test_cholesky_rejects_nonfinite_and_indefinite():
    with pytest.raises(ValueError):
        cholesky(np.array([[1.0, 0.0], [0.0, np.inf]]))
    with pytest.raises(np.linalg.LinAlgError):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
