import numpy as np
import pytest

from inadmm import (
    IndicatorBox,
    IndicatorHyperplane,
    IndicatorPoint,
    L1Norm,
    L2Norm,
    LinearMap,
    Quadratic,
    Translated,
    Zero,
)
from inadmm.consensus import ConsensusState, _initial_state
from inadmm.trace import SolveTrace, TraceRow


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    try:
        from test_acceptance import ACCEPTANCE_CRITERIA
    except ImportError:
        return
    results = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            name = report.nodeid.split("::")[-1]
            if name in ACCEPTANCE_CRITERIA:
                results[name] = outcome
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for name, label in ACCEPTANCE_CRITERIA.items():
        status = "PASS" if results.get(name) == "passed" else (
            "FAIL" if name in results else "NOT RUN")
        terminalreporter.write_line("[%s] %s" % (status, label))


def random_psd(n, rng, ridge=0.0):
    a = rng.standard_normal((n, n))
    return a @ a.T / n + ridge * np.eye(n)


def random_quadratic(n, rng, ridge=0.5):
    return Quadratic(random_psd(n, rng, ridge), rng.standard_normal(n),
                     float(rng.standard_normal()))


def catalog(n, rng):
    """One instance of every catalog kind on R^n (plus a translated one)."""
    lo = -np.abs(rng.standard_normal(n)) - 0.2
    hi = np.abs(rng.standard_normal(n)) + 0.2
    fns = [
        Zero(n),
        random_quadratic(n, rng),
        L1Norm(n, 0.5 + rng.random()),
        L2Norm(n, 0.5 + rng.random()),
        IndicatorPoint(rng.standard_normal(n)),
        IndicatorBox(lo, hi),
        IndicatorHyperplane(rng.standard_normal(n) + 0.1, float(rng.standard_normal())),
        Translated(L1Norm(n, 1.0), rng.standard_normal(n)),
    ]
    return fns


def tall_full_rank(m, n, rng):
    """Random m x n (m >= n) matrix with a comfortably positive smallest SV."""
    a = rng.standard_normal((m, n))
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    s = s + 0.5  # bound the spectrum away from zero
    return u @ np.diag(s) @ vt


def random_composite(rng, allow_dense=True):
    """Random small min f(x) + g(Lx) instance with exact subproblems.

    f is quadratic (any L) or an l1 norm (L = identity); g is drawn from
    the full catalog kinds that keep the dual trace finite.
    """
    n = int(rng.integers(1, 5))
    use_l1 = bool(rng.random() < 0.4) or not allow_dense
    if use_l1:
        f = L1Norm(n, 0.5 + rng.random())
        L = LinearMap.identity(n)
        m = n
    else:
        f = random_quadratic(n, rng)
        if allow_dense and rng.random() < 0.5:
            m = n + int(rng.integers(0, 2))
            L = LinearMap.dense(tall_full_rank(m, n, rng))
        else:
            L = LinearMap.identity(n)
            m = n
    g_choice = rng.integers(0, 3)
    if g_choice == 0:
        g = random_quadratic(m, rng)
    elif g_choice == 1:
        g = L1Norm(m, 0.5 + rng.random())
    else:
        g = L2Norm(m, 0.5 + rng.random())
    return f, g, L


def run_sum1_simplified(cp, params, init=None, max_iters=1000):
    """Independent implementation of the lambda_k = 1 simplification.

    Requires the alpha_2 = 0 initialization mode (the simplification keeps
    lambda_1 = 1) and a constant relaxation of exactly 1.  A test oracle for
    run_sum1, so it keeps its own loop rather than the solvers' driver.
    """
    if params.init_mode != "alpha2_zero":
        raise ValueError("simplified scheme assumes the alpha_2 = 0 init mode")
    gamma = params.gamma
    m, n = cp.m, cp.n
    state = _initial_state(cp, init, True)
    x_prev = None
    trace = SolveTrace()
    for k in range(1, max_iters + 1):
        a_k = params.alpha_at(k)
        a_next = params.alpha_at(k + 1)
        if params.lambda_at(k) != 1.0:
            raise ValueError("simplified scheme requires lambda_k = 1")
        c = (state.y - a_k * (state.y - state.y_prev)
             - gamma * a_k * (state.z - state.z_prev))
        x_next = np.stack([
            f.prox(1.0 / gamma, state.z[i] - c[i] / gamma)
            for i, f in enumerate(cp.blocks)
        ])
        mean_next = x_next.mean(axis=0)
        if a_next == 0.0:
            z_next = np.tile(mean_next, (m, 1))
        else:
            z_next = ((1.0 + a_next) * mean_next - a_next * x_prev.mean(axis=0)
                      )[None, :] - a_next * (x_next - state.z)
        y_next = state.y + gamma * (x_next - z_next)
        trace.append(TraceRow(k, vectors={"x": x_next, "z": z_next, "y": y_next}))
        state = ConsensusState(k=k + 1, x=x_next, z=z_next, z_prev=state.z,
                               zbar=np.zeros((m, n)), y=y_next,
                               y_prev=state.y)
        x_prev = x_next
    trace.final = {"x": state.x, "z": state.z, "y": state.y}
    return trace
