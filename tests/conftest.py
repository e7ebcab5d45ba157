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
    ResolventOp,
    Translated,
    Zero,
)
from inadmm import admm
from inadmm.duality import subgradient_violation
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


class CountingL1(L1Norm):
    """A user subclass that counts its prox calls, so a test can see that the
    stacked evaluator kept the block's own method."""

    def __init__(self, dim, tau):
        super().__init__(dim, tau)
        self.prox_calls = 0

    def prox(self, gamma, x):
        self.prox_calls += 1
        return super().prox(gamma, x)


def mixed_blocks(n, rng, point=None):
    """Equal-dimension blocks hitting stacked groups and the looped kinds.

    Two blocks each of ``L1Norm``, ``Zero``, ``IndicatorPoint`` and
    ``IndicatorBox``, plain and translated (stacked groups of two), with
    different parameters, and one block each of the others: a ``Quadratic``,
    an ``L2Norm`` and an ``IndicatorHyperplane`` (groups of one), a nested
    translation and two subclass blocks (looped), in shuffled order.  With
    ``point`` every block's domain contains it, so the consensus problem
    over the blocks is feasible.
    """
    p = rng.standard_normal(n) if point is None else point
    fns = []
    for _ in range(2):
        s = rng.standard_normal(n)
        width = rng.uniform(0.1, 1.0, n)
        fns += [
            Zero(n),
            Translated(Zero(n), s),
            L1Norm(n, rng.uniform(0.2, 2.0)),
            Translated(L1Norm(n, rng.uniform(0.2, 2.0)), s),
            IndicatorPoint(p),
            Translated(IndicatorPoint(p - s), s),
            IndicatorBox(p - width, p + width),
            Translated(IndicatorBox(p - s - width, p - s + width), s),
        ]
    a = rng.standard_normal(n) + 0.1
    fns += [
        random_quadratic(n, rng),
        L2Norm(n, rng.uniform(0.2, 2.0)),
        IndicatorHyperplane(a, float(a @ p)),
        Translated(Translated(L1Norm(n, 1.0), rng.standard_normal(n)),
                   rng.standard_normal(n)),
        CountingL1(n, 0.7),
        Translated(CountingL1(n, 0.3), rng.standard_normal(n)),
    ]
    return [fns[i] for i in rng.permutation(len(fns))]


def counted(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that logs each call; return the log."""
    calls = []
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *a, **kw: calls.append(1) or original(*a, **kw))
    return calls


def tall_full_rank(m, n, rng):
    """Random m x n (m >= n) matrix with a comfortably positive smallest SV."""
    a = rng.standard_normal((m, n))
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    s = s + 0.5  # bound the spectrum away from zero
    return u @ np.diag(s) @ vt


def zero_operator(dim):
    """A = 0 on R^dim, hand-built: its resolvent is the identity."""
    return ResolventOp("zero", lambda gamma, u: u.copy(), dim)


def point_normal_cone(a):
    """A = the normal cone of {a}, hand-built: its resolvent is the constant a."""
    a = np.asarray(a, dtype=float)
    return ResolventOp("point_normal_cone", lambda gamma, u: a.copy(), a.shape[0])


def consensus_optimality_residual(x, v, cp, rng=None):
    """Violation of the first-order conditions at (x, v_1..v_m).

    The stationarity certificate is -v_i in df_i(x) with sum_i v_i = 0;
    the result sums the worst probed subgradient-inequality violation with
    the norm of sum_i v_i.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    v = np.asarray(v, dtype=float)
    worst = 0.0
    for i, f in enumerate(cp.blocks):
        worst = max(worst, subgradient_violation(f, x, -v[i], rng))
        if np.isinf(worst):
            return np.inf
    return worst + float(np.linalg.norm(v.sum(axis=0)))


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
    y_prev, y, z_prev, z = ((np.zeros((m, n)),) * 4 if init is None else
                            (np.asarray(u, dtype=float) for u in init))
    x_prev = x_next = None
    trace = SolveTrace()
    for k in range(1, max_iters + 1):
        a_k = params.alpha_at(k)
        a_next = params.alpha_at(k + 1)
        if params.lambda_at(k) != 1.0:
            raise ValueError("simplified scheme requires lambda_k = 1")
        c = y - a_k * (y - y_prev) - gamma * a_k * (z - z_prev)
        x_next = np.stack([
            f.prox(1.0 / gamma, z[i] - c[i] / gamma)
            for i, f in enumerate(cp.blocks)
        ])
        mean_next = x_next.mean(axis=0)
        if a_next == 0.0:
            z_next = np.tile(mean_next, (m, 1))
        else:
            z_next = ((1.0 + a_next) * mean_next - a_next * x_prev.mean(axis=0)
                      )[None, :] - a_next * (x_next - z)
        y_next = y + gamma * (x_next - z_next)
        trace.append(TraceRow(k, vectors={"x": x_next, "z": z_next, "y": y_next}))
        y_prev, y, z_prev, z = y, y_next, z, z_next
        x_prev = x_next
    trace.final = {"x": x_next, "z": z, "y": y}
    return trace


def full_formula_step(state, p, params, k, strat):
    """``admm.step`` with every term of its recurrences formed, as the step
    was first written: c_k's two inertial products and the drift terms of
    the z-argument and of y^{k+1} are formed and added even where alpha_k =
    alpha_{k+1} = 0, z^{k+1} is -zbar^{k+1} + prox, and v^k is formed at
    once.  It reads the same coefficient table as ``step`` and ignores the
    row's ``still`` flag.  Returns the new state (x, z, zbar, y, v and w
    set) and r = Lx^{k+1} - z^k."""
    co = params.coefficients.at(k)
    gamma = co.gamma
    y, z = state.y, state.z
    dy = y - state.y_prev
    dz = z - state.z_prev
    c = y - co.alpha * dy - co.gamma_alpha * dz
    x_next = admm.x_update(state, p, co, c, strat)
    Lx = p.L._apply(x_next)
    r = Lx - z
    drift = dy + gamma * dz
    zbar_next = co.next_lam * r + co.zbar_drift * drift
    l_Lx = co.lam * Lx
    l_z = co.rest * z
    arg = zbar_next + l_Lx + l_z + y / gamma + co.arg_drift * drift
    z_next = -zbar_next + p.g._prox(co.inv_gamma, arg)
    y_next = y + gamma * (l_Lx + l_z - z_next) + co.rest_alpha * drift
    v = y - gamma * z + gamma * Lx - co.alpha * drift
    new = admm.IadmmState(k=k + 1, x=x_next, z=z_next, z_prev=z, zbar=zbar_next,
                          y=y_next, y_prev=y, v=v, w=y_next + gamma * z_next)
    return new, r
