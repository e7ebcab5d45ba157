import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import inadmm

from inadmm import (L1Norm, LinearMap, ProblemSpec, XUpdateStrategy, Zero,
                    default_params, run_iadmm)
from inadmm.linalg import SINGULAR_TOL, cholesky

from conftest import counted, random_quadratic, tall_full_rank


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


@pytest.mark.parametrize("scale", [np.inf, -np.inf, np.nan])
def test_nonfinite_scale_rejected(scale):
    # an infinite scale used to pass as theta = inf and fail in the first
    # factorization; a NaN one was reported as rank-deficient
    with pytest.raises(ValueError, match="scale must be finite"):
        LinearMap.scaled_identity(2, scale)


@pytest.mark.parametrize("dim", [1.5, True])
def test_non_integer_identity_dimension_rejected(dim):
    # int() used to truncate both to a 1 x 1 map
    with pytest.raises(ValueError, match="must be an integer"):
        LinearMap.identity(dim)


def test_numpy_integer_identity_dimension_accepted():
    assert LinearMap.identity(np.int64(3)).shape == (3, 3)


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


def test_frame_constant_and_structural_singular_values(rng, monkeypatch):
    # L'L = cI: c = s^2 for sI, with theta and ||L|| known without an SVD
    monkeypatch.setattr(np.linalg, "svd", None)
    for L, c in ((LinearMap.identity(3), 1.0),
                 (LinearMap.scaled_identity(3, -0.5), 0.25),
                 (LinearMap.scaled_identity(3, 2.0), 4.0)):
        assert L.frame == c
        assert np.array_equal(L.gram(), c * np.eye(3))
        assert L.norm() == L.injectivity_modulus() == np.sqrt(c)
        assert L.is_injective()
    assert LinearMap.dense(rng.standard_normal((3, 2))).frame is None


@pytest.mark.parametrize("m, n, s", [
    pytest.param(1, 3, 1.0, id="identity"),
    pytest.param(1, 3, -0.7, id="scaled_negative"),
    pytest.param(1, 4, 2.5, id="scaled_positive"),
    pytest.param(2, 1, 1.0, id="2-1"),
    pytest.param(3, 2, 1.0, id="3-2"),
    pytest.param(101, 3, 1.0, id="101-3"),
])
def test_stacked_identity_kernels_match_its_matrix(rng, m, n, s):
    # every structured map is x -> (s x, ..., s x), m copies of sI on R^n
    L = LinearMap.stacked_identity(m, n) if m > 1 else LinearMap.scaled_identity(n, s)
    A = L.as_matrix()
    assert L.shape == A.shape == (m * n, n)
    assert np.array_equal(A, np.vstack([s * np.eye(n)] * m))
    # L'L = s^2 m I, with both singular values |s| sqrt(m), in today's bits
    assert L.frame.hex() == (s * s if m == 1 else float(m)).hex()
    assert [v.hex() for v in L._sv] == [(abs(s) if m == 1 else np.sqrt(m)).hex()] * 2
    x, y = rng.standard_normal(n), rng.standard_normal(m * n)
    X, Y = rng.standard_normal((4, n)), rng.standard_normal((4, m * n))
    assert np.array_equal(L._apply(x), A @ x)  # sums of one entry and zeros
    assert np.array_equal(L.apply(x), A @ x)
    assert np.allclose(L._adjoint_apply(y), A.T @ y, rtol=1e-14, atol=1e-14)
    assert np.allclose(L.adjoint_apply(y), A.T @ y, rtol=1e-14, atol=1e-14)
    # L'y / (s^2 m) is the least-squares inverse of L: y / s, or the mean block
    want = y / s if m == 1 else y.reshape(m, n).sum(0) / m
    assert L._left_inverse(y).tobytes() == want.tobytes()
    assert np.allclose(L._left_inverse(y), np.linalg.pinv(A) @ y,
                       rtol=1e-13, atol=1e-14)
    assert np.allclose(L._left_inverse(L._apply(x)), x, rtol=1e-13, atol=0.0)
    # each row of a (P, .) stack is bit for bit the vector's
    for kernel, rows in ((L._apply, X), (L._adjoint_apply, Y),
                         (L._left_inverse, Y)):
        got = kernel(rows)
        assert got.shape == (4, kernel(rows[0]).size)
        for j in range(4):
            assert got[j].tobytes() == kernel(rows[j]).tobytes(), kernel
    if (m, s) == (1, 1.0):  # the identity's kernels return their argument
        assert L._apply(x) is x and L._adjoint_apply(y) is y and L._left_inverse(y) is y


def test_stacked_identity_structure(rng, monkeypatch):
    # c = m and the singular values (sqrt(m), sqrt(m)) come from construction
    monkeypatch.setattr(np.linalg, "svd", None)
    L = LinearMap.stacked_identity(4, 3)
    assert L.kind == "stacked_identity" and L.frame == 4.0
    assert L.norm() == L.injectivity_modulus() == 2.0 and L.is_injective()
    assert np.array_equal(L.gram(), 4.0 * np.eye(3))
    assert repr(L) == "LinearMap(stacked identity, 4 copies of 3)"
    for f in (Zero(3), random_quadratic(3, rng), L1Norm(3, 0.5)):
        p = ProblemSpec(f, L1Norm(12, 0.3), L)
        assert XUpdateStrategy.automatic(p).kind == "prox_identity"


def test_stacked_identity_rejects_a_bad_number_of_copies():
    with pytest.raises(ValueError, match="number of copies must be >= 2"):
        LinearMap.stacked_identity(1, 3)
    with pytest.raises(ValueError, match="must be an integer"):
        LinearMap.stacked_identity(2.0, 3)


def test_stacked_identity_prox_x_update_is_exact(rng):
    # on a quadratic f the exact prox x-update and the linear solve agree
    p = ProblemSpec(random_quadratic(3, rng), L1Norm(15, 0.4),
                    LinearMap.stacked_identity(5, 3))
    runs = [run_iadmm(p, default_params(0.2, gamma=1.3),
                      strat=XUpdateStrategy(kind), max_iters=60, tol=0.0)
            for kind in ("prox_identity", "quadratic_solve")]
    for a, b in zip(*(r.rows for r in runs)):
        scale = 1.0 + np.abs(b.vectors["y_next"]).max()
        for name in ("x_next", "z_next", "y_next"):
            assert np.abs(a.vectors[name] - b.vectors[name]).max() <= 1e-12 * scale


@pytest.mark.parametrize("scale", [1e200, -1.4e154])
def test_scale_with_an_overflowing_square_rejected(scale):
    # an inf frame constant would zero the prox step 1/(gamma c) of the x-update
    with pytest.raises(ValueError, match="scale must be finite"):
        LinearMap.scaled_identity(2, scale)
    assert LinearMap.scaled_identity(2, 1.3e153).frame < np.inf


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
    assert wide.norm() == sv[0]  # a wide map takes the SVD of its transpose


# -- the Gram matrix and the rank certificate --------------------------------

def test_gram_is_cached_and_read_only(rng):
    Lm = rng.standard_normal((5, 3))
    L = LinearMap.dense(Lm)
    G = L.gram()
    assert G is L.gram() and not G.flags.writeable
    assert G.tobytes() == (Lm.T @ Lm).tobytes()
    wide = LinearMap.dense(Lm.T)
    assert wide.gram().shape == (5, 5)  # L'L of the 3 x 5 map
    assert np.allclose(wide.gram(), Lm @ Lm.T, rtol=1e-14, atol=1e-14)
    assert np.array_equal(LinearMap.scaled_identity(3, 2.0).gram(), 4.0 * np.eye(3))


def with_singular_values(s, m, rng):
    """An m x len(s) matrix with singular values s and random singular vectors."""
    U = np.linalg.qr(rng.standard_normal((m, len(s))))[0]
    V = np.linalg.qr(rng.standard_normal((len(s), len(s))))[0]
    return (U * s) @ V.T


def rank_cases(rng):
    """Seeded maps around the rank decision, each with whether the
    certificate alone must decide it: sigma_min just above and below
    SINGULAR_TOL at norms 1e-9, 1 and 1e3, well-conditioned, exactly
    rank-deficient, square and wide."""
    for _ in range(30):
        m = int(rng.integers(1, 25))
        n = int(rng.integers(1, m + 1))
        for top in (1e-9, 1.0, 1e3):
            for low in (SINGULAR_TOL * (1 - 1e-3), SINGULAR_TOL * (1 + 1e-3),
                        0.3 * top):
                s = np.concatenate([[top], rng.uniform(low, top, max(n - 2, 0)), [low]])
                certify = low == 0.3 * top or (top == 1e-9 and low > SINGULAR_TOL)
                yield with_singular_values(s[-n:], m, rng), certify
                yield with_singular_values(s[-n:], n, rng), certify  # square
        a = rng.standard_normal((m, n))
        a[:, -1] = a[:, 0] if n > 1 else 0.0  # a repeated or a zero column
        yield a, False
        if n < m:
            yield rng.standard_normal((n, m)), False  # wide


def test_certificate_agrees_with_the_svd_decision(rng):
    for mat, certify in rank_cases(rng):
        L = LinearMap.dense(mat)
        injective = L.is_injective()
        if certify:
            assert injective and L._sv is None  # decided with no SVD
        assert injective == (LinearMap.dense(mat).injectivity_modulus() > 0.0)


@pytest.mark.parametrize("read", ["norm", "injectivity_modulus"])
def test_problem_spec_runs_no_svd_until_the_singular_values_are_read(
        rng, monkeypatch, read):
    n, m = 5, 8
    Lm = tall_full_rank(m, n, rng)
    svds = counted(monkeypatch, np.linalg, "svd")
    reads = counted(monkeypatch, LinearMap, "as_matrix")
    p = ProblemSpec(random_quadratic(n, rng), L1Norm(m, 0.3), LinearMap.dense(Lm))
    run_iadmm(p, default_params(0.2), max_iters=1)  # the first factor
    assert svds == [] and len(reads) == 1  # one L'L for the test and factor
    first = getattr(p.L, read)()
    assert first > 0.0 and len(svds) == 1
    assert p.L.norm() >= p.L.injectivity_modulus() > 0.0
    assert getattr(p.L, read)() == first and len(svds) == 1


@pytest.mark.parametrize("n", [1, 3, 30, 200, 1000])
def test_cholesky_matches_scipy_bytes(rng, n):
    # a vector solve is two triangular solves on the potrf factor, U'w = b
    # then Ux = w, not one potrs; it stays within rounding of cho_solve
    import scipy.linalg

    a = rng.standard_normal((n, n))
    M = a @ a.T + 0.1 * np.eye(n)
    solve = cholesky(M)
    fct = scipy.linalg.cho_factor(M)
    for _ in range(3):
        b = rng.standard_normal(n)
        x = solve(b)
        w = scipy.linalg.solve_triangular(fct[0], b, trans="T")
        assert x.tobytes() == scipy.linalg.solve_triangular(fct[0], w).tobytes()
        expected = scipy.linalg.cho_solve(fct, b)
        assert np.abs(x - expected).max() <= 1e-13 * np.abs(expected).max()


def test_cholesky_rejects_nonfinite_and_indefinite():
    with pytest.raises(ValueError):
        cholesky(np.array([[1.0, 0.0], [0.0, np.inf]]))
    with pytest.raises(np.linalg.LinAlgError):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


# -- loading scipy's compiled wrappers ---------------------------------------
# Each test runs in a fresh interpreter, since the pytest process has long
# imported scipy.linalg.

def run_fresh(*code):
    """Run the ``code`` blocks, each dedented, in a fresh interpreter that
    imports this package."""
    src = os.path.dirname(os.path.dirname(inadmm.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + sys.path))
    proc = subprocess.run([sys.executable, "-c", "".join(map(textwrap.dedent, code))], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


DENSE_FILE = """
solver iadmm
alpha 0.2
tol 1e-10
begin f
kind quadratic
Q 2 0 0 1
q -1 0.5
end
begin g
kind l1
dim 3
tau 0.3
end
begin L
kind dense
rows 3
cols 2
entries 1 0 0 1 1 1
end
"""

FACTORING_RUNS = {
    "quadratic_solve": """
        from inadmm import XUpdateStrategy, default_params, run_iadmm
        run_iadmm(problem, default_params(0.2), strat=XUpdateStrategy("quadratic_solve"),
                  max_iters=50, tol=0.0)
    """,
    "batch_sweep": """
        from inadmm import default_params
        from inadmm.admm import run_iadmm_batch
        run_iadmm_batch(problem, [default_params(a) for a in (0.0, 0.1, 0.2)], 50, 0.0)
    """,
    "cli": """
        import io, os, tempfile
        from inadmm.cli import main
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "dense.cfg")
            with open(path, "w") as fh:
                fh.write(%r)
            assert main([path], out=io.StringIO()) == 0
    """ % DENSE_FILE,
}


@pytest.mark.parametrize("run", FACTORING_RUNS.values(), ids=FACTORING_RUNS)
def test_factoring_leaves_scipy_linalg_unimported(run):
    run_fresh("""
        import os, sys
        import numpy as np
        from inadmm import L1Norm, LinearMap, ProblemSpec, Quadratic
        from inadmm.linalg import _fortran
        problem = ProblemSpec(Quadratic(np.diag([2.0, 1.0]), [-1.0, 0.5]),
                              L1Norm(3, 0.3), LinearMap.dense([[1, 0], [0, 1], [1, 1]]))
    """, run, """
        assert _fortran.cache_info().currsize == 1, "no factor was made"
        assert "scipy.linalg" not in sys.modules
        # the wrappers' directory comes from scipy's spec, not its init
        assert os.name == "nt" or "scipy" not in sys.modules
    """)


@pytest.mark.parametrize("program_first", [True, False],
                         ids=["program_first", "scipy_first"])
def test_wrappers_are_scipy_linalgs_in_either_import_order(program_first):
    run_fresh("""
        import numpy as np
        if not %r:
            import scipy.linalg
        from inadmm.linalg import _fortran, cholesky
        cholesky(np.eye(2))
        import scipy.linalg
        import scipy.optimize
        fblas, flapack = _fortran()
        assert fblas.dtrsv is scipy.linalg.blas.dtrsv
        assert flapack.dpotrf is scipy.linalg.lapack.dpotrf
        assert scipy.linalg._fblas.dtrsv is fblas.dtrsv
        assert scipy.optimize.minimize(lambda x: ((x - 1.0) ** 2).sum(), np.zeros(2)).success
    """ % program_first)


def test_wrapper_fallback_keeps_the_bytes():
    # the finder finds no module file: the loader imports scipy.linalg instead
    run_fresh("""
        import sys, types
        from importlib import machinery
        import numpy as np
        from inadmm import linalg

        class Nothing(machinery.FileFinder):
            def find_spec(self, fullname, target=None):
                return None

        linalg.machinery = types.SimpleNamespace(**{**vars(machinery),
                                                    "FileFinder": Nothing})
        rng = np.random.default_rng(5)
        for n in (1, 3, 30, 200):
            a = rng.standard_normal((n, n))
            M = a @ a.T + 0.1 * np.eye(n)
            solve = linalg.cholesky(M)
            assert "scipy.linalg" in sys.modules
            import scipy.linalg
            U = scipy.linalg.cho_factor(M)[0]
            for _ in range(3):
                b = rng.standard_normal(n)
                w = scipy.linalg.solve_triangular(U, b, trans="T")
                assert solve(b).tobytes() == scipy.linalg.solve_triangular(U, w).tobytes()
    """)
