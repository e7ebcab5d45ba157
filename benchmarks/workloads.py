"""The benchmark's four workloads: seeded inputs, solves, floors and checks.

Each workload turns a seed into plain numpy inputs, builds the program's
objects from them (``build``), pays the one-time first-use costs
(``first_use``), and prepares the independent references and floors
(``prepare``).  A pass runs every unit once: its operations call the program,
``floor`` runs the plain-numpy ADMM of ``reference.py`` on the same
problem, and ``check`` compares the outputs with the references.
"""

import io
import os
from dataclasses import dataclass

import numpy as np

from inadmm import (
    ConsensusProblem,
    L1Norm,
    LinearMap,
    ProblemSpec,
    Quadratic,
    ResolventOp,
    Translated,
    default_params,
    run_iadmm,
    run_idr,
    run_sum1,
    run_sum2,
)
from inadmm.cli import main as cli_main
from inadmm.config import parse_config_file

import reference


@dataclass
class OpResult:
    """Outcome of one operation: a solve or one CLI invocation.

    ``error`` names a failure to converge, an exception or a non-zero exit
    code; ``wrong`` names a failed correctness check.  Either one makes the
    operation failed.
    """

    name: str
    iters: int = 0
    error: str = None
    wrong: str = None

    @property
    def failed(self):
        return self.error is not None or self.wrong is not None


def _rng(seed, salt):
    return np.random.default_rng([int(seed), salt])


def _sym(a):
    return 0.5 * (a + a.T)


def _first_problem(problems):
    return "; ".join(problems) if problems else None


# ---------------------------------------------------------------- checks
# Each check returns a list of problems; an empty list means the output
# passed.  They take plain arrays and strings so that the tests can feed
# them deliberately wrong answers.


def check_close(name, got, want, rtol):
    err = float(np.abs(np.asarray(got) - want).max())
    bound = rtol * (1.0 + float(np.abs(want).max()))
    if not err <= bound:
        return ["%s off by %.3g (allowed %.3g)" % (name, err, bound)]
    return []


def check_l1_dual_feasible(v, tau, atol):
    excess = float(np.abs(v).max()) - tau
    if not excess <= atol:
        return ["|v|_inf exceeds tau by %.3g" % excess]
    return []


def check_gap(primal, dual, rtol):
    gap = primal - dual
    if not (np.isfinite(gap) and abs(gap) <= rtol * (1.0 + abs(primal))):
        return ["primal-dual gap %.3g at primal %.12g" % (gap, primal)]
    return []


def quadratic_l1_gap(Q, Qinv, q, r, tau, L, x, v):
    """Primal and dual values of min x'Qx/2 + q'x + r + tau ||Lx||_1 in numpy.

    ``L`` is None for the identity.  The dual value is taken at v clipped
    into the dual box [-tau, tau]; ``check_l1_dual_feasible`` bounds how far
    v was outside it.
    """
    Lx = x if L is None else L @ x
    primal = 0.5 * x @ Q @ x + q @ x + r + tau * np.abs(Lx).sum()
    vc = np.clip(v, -tau, tau)
    u = vc + q if L is None else L.T @ vc + q
    dual = -0.5 * u @ Qinv @ u + r
    return primal, dual


def check_twin_iterates(admm_rows, dr_rows, tol=1e-9):
    """ADMM rows (y, v, w) against Douglas-Rachford rows, from the 2nd on."""
    n = min(len(admm_rows), len(dr_rows))
    if n < 2:
        return ["fewer than two iterations to compare"]
    worst = 0.0
    for k in range(1, n):
        for key in ("y", "v", "w"):
            dev = float(np.abs(admm_rows[k][key] - dr_rows[k][key]).max())
            worst = max(worst, dev)
    if not worst <= tol:
        return ["ADMM and DR iterates differ by %.3g" % worst]
    return []


def check_stationarity(Q, q, L, x, v, rtol):
    """Qx + q + L'v = 0, the x-update's optimality condition."""
    res = Q @ x + q + L.T @ v
    scale = 1.0 + float(np.abs(q).max()) + float(np.abs(L.T @ v).max())
    err = float(np.abs(res).max())
    if not err <= rtol * scale:
        return ["stationarity residual %.3g" % err]
    return []


def check_zero_sum(y, tol):
    s = float(np.abs(np.asarray(y).sum(axis=0)).max())
    if not s <= tol * (1.0 + float(np.abs(y).max())):
        return ["multipliers sum to %.3g, not zero" % s]
    return []


def _field(stdout, prefix):
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


def check_cli_run(code, stdout, csv_text, optimum, rtol):
    """Exit 0, a CSV of one row per iteration plus a header, final primal."""
    if code != 0:
        return ["exit code %r" % (code,)]
    iters = _field(stdout, "iterations:")
    if iters is None:
        return ["no iteration count in the summary"]
    lines = csv_text.splitlines()
    if not lines or not lines[0].startswith("k,primal,"):
        return ["CSV has no header"]
    if len(lines) != int(iters) + 1:
        return ["CSV has %d lines for %s iterations" % (len(lines), iters)]
    try:
        last = lines[-1].split(",")
        k, primal = int(last[0]), float(last[1])
    except (IndexError, ValueError):
        return ["malformed last CSV row %r" % lines[-1]]
    if k != int(iters):
        return ["last CSV row is k=%d, not %s" % (k, iters)]
    if not abs(primal - optimum) <= rtol * (1.0 + abs(optimum)):
        return ["final primal %.12g, optimum %.12g" % (primal, optimum)]
    return []


def sweep_rows(stdout):
    lines = stdout.splitlines()
    if not lines or lines[0] != "alpha lambda iterations converged final_dw":
        return None
    return [line.split() for line in lines[1:]]


def check_cli_sweep(code, stdout, points):
    if code != 0:
        return ["exit code %r" % (code,)]
    rows = sweep_rows(stdout)
    if rows is None or len(rows) != points:
        return ["expected %d sweep rows" % points]
    bad = [r for r in rows if len(r) != 5 or r[3] != "yes"]
    if bad:
        return ["sweep row not converged: %s" % " ".join(bad[0])]
    return []


def check_cli_compare(code, stdout, tol=1e-9):
    if code != 0:
        return ["exit code %r" % (code,)]
    dev = _field(stdout, "max deviation (y, v, w):")
    if dev is None:
        return ["no deviation line"]
    if not float(dev) <= tol:
        return ["compare deviation %s" % dev]
    return []


# ---------------------------------------------------------------- units


class Unit:
    """One problem of a workload: its solves, its floor and its checks.

    The floor is ``floor_repeats`` plain-numpy solves of the same problem
    to the unit's tolerance, run as one fixed count of iterations that a
    pass splits into equal shares around the unit's operations.
    """

    floor_repeats = 1

    def operations(self):
        """The unit's operations, each a call without arguments."""
        raise NotImplementedError

    @property
    def ops(self):
        return len(self.operations())

    def set_floor(self, floor):
        self._floor = floor
        self.floor_iters = (self.floor_repeats
                            * reference.iterations_to(floor, self.tol))

    def floor(self, part, parts):
        """Run share ``part`` of ``parts`` of the floor iterations."""
        lo = self.floor_iters * part // parts
        hi = self.floor_iters * (part + 1) // parts
        self._floor.run(hi - lo)

    def check(self, out):
        raise NotImplementedError


def _converged(name, trace):
    if not trace.converged:
        return OpResult(name, trace.iterations,
                        error="not converged in %d iterations" % trace.iterations)
    return OpResult(name, trace.iterations)


class LassoUnit(Unit):
    """0.5||Dx - b||^2 + tau||x||_1 with L = I: ADMM at two alphas, DR twin."""

    floor_repeats = 20

    def __init__(self, D, b, tau, tol):
        self.tau, self.tol = tau, tol
        Q = D.T @ D
        ev = np.linalg.eigvalsh(Q)
        self.gamma = float(np.sqrt(ev[0] * ev[-1]))
        self.Q, self.q, self.r = Q, -D.T @ b, 0.5 * float(b @ b)

    def build(self):
        n = self.Q.shape[0]
        f = Quadratic(self.Q, self.q, self.r)
        g = L1Norm(n, self.tau)
        self.p = ProblemSpec(f, g, LinearMap.identity(n))
        self.params0 = default_params(alpha=0.0, gamma=self.gamma)
        self.params = default_params(alpha=0.2, gamma=self.gamma)
        self.A = ResolventOp.composed_conjugate(f, self.p.L)
        self.B = ResolventOp.conjugate_subdifferential(g)

    def first_use(self):
        run_iadmm(self.p, self.params, max_iters=1)

    def prepare(self):
        self.x_ref = reference.fista_l1(self.Q, self.q, self.tau)
        self.Qinv = np.linalg.inv(self.Q)
        self.set_floor(reference.AdmmFloor(self.Q, self.q, self.tau, self.gamma))

    def operations(self):
        zeros = np.zeros(self.Q.shape[0])
        return [
            lambda: run_iadmm(self.p, self.params0, tol=self.tol),
            lambda: run_iadmm(self.p, self.params, tol=self.tol),
            lambda: run_idr(self.A, self.B, self.gamma, self.params, zeros,
                            zeros, tol=self.tol),
        ]

    def check(self, out):
        results = []
        for name, trace in (("iadmm_alpha0", out[0]), ("iadmm_alpha", out[1])):
            res = _converged(name, trace)
            x, v = trace.final["x"], trace.final["v"]
            problems = check_close("x", x, self.x_ref, 1e-7)
            problems += check_l1_dual_feasible(v, self.tau, 1e-8)
            primal, dual = quadratic_l1_gap(self.Q, self.Qinv, self.q, self.r,
                                            self.tau, None, x, v)
            problems += check_gap(primal, dual, 1e-9)
            res.wrong = _first_problem(problems)
            results.append(res)
        res = _converged("idr", out[2])
        res.wrong = _first_problem(check_twin_iterates(
            [r.vectors for r in out[1].rows], [r.vectors for r in out[2].rows]))
        results.append(res)
        return results


class DenseQuadraticUnit(Unit):
    """x'Qx/2 + q'x + tau||Lx||_1 with a dense tall L: ``quadratic_solve``."""

    floor_repeats = 3

    def __init__(self, Q, q, Lm, tau, gamma, tol):
        self.Q, self.q, self.Lm, self.tau = Q, q, Lm, tau
        self.gamma, self.tol = gamma, tol

    def build(self):
        self.p = ProblemSpec(Quadratic(self.Q, self.q),
                             L1Norm(self.Lm.shape[0], self.tau),
                             LinearMap.dense(self.Lm))
        self.params = default_params(alpha=0.2, gamma=self.gamma)

    def first_use(self):
        run_iadmm(self.p, self.params, max_iters=1)

    def prepare(self):
        self.Qinv = np.linalg.inv(self.Q)
        self.set_floor(reference.AdmmFloor(self.Q, self.q, self.tau,
                                           self.gamma, self.Lm))

    def operations(self):
        return [lambda: run_iadmm(self.p, self.params, tol=self.tol)]

    def check(self, out):
        (trace,) = out
        res = _converged("quadratic_solve", trace)
        x, v = trace.final["x"], trace.final["v"]
        problems = check_stationarity(self.Q, self.q, self.Lm, x, v, 1e-9)
        problems += check_l1_dual_feasible(v, self.tau, 1e-7)
        primal, dual = quadratic_l1_gap(self.Q, self.Qinv, self.q, 0.0,
                                        self.tau, self.Lm, x, v)
        problems += check_gap(primal, dual, 1e-8)
        res.wrong = _first_problem(problems)
        return [res]


class GeneralizedLassoUnit(Unit):
    """tau||x||_1 + 0.5||Lx - b||^2 with dense L: ``inner_iterative``."""

    floor_repeats = 100

    def __init__(self, Lm, b, tau, gamma, tol):
        self.Lm, self.b, self.tau, self.gamma, self.tol = Lm, b, tau, gamma, tol

    def build(self):
        m, n = self.Lm.shape
        g = Quadratic(np.eye(m), -self.b, 0.5 * float(self.b @ self.b))
        self.p = ProblemSpec(L1Norm(n, self.tau), g, LinearMap.dense(self.Lm))
        self.params = default_params(alpha=0.2, gamma=self.gamma)

    def first_use(self):
        run_iadmm(self.p, self.params, max_iters=1)

    def prepare(self):
        M, p = self.Lm.T @ self.Lm, -self.Lm.T @ self.b
        self.x_ref = reference.fista_l1(M, p, self.tau)
        self.set_floor(reference.AdmmFloor(M, p, self.tau, self.gamma))

    def operations(self):
        return [lambda: run_iadmm(self.p, self.params, tol=self.tol)]

    def check(self, out):
        (trace,) = out
        res = _converged("inner_iterative", trace)
        res.wrong = _first_problem(
            check_close("x", trace.final["x"], self.x_ref, 1e-8))
        return [res]


class ConsensusUnit(Unit):
    """sum_i |x - s_i| over m blocks by ``run_sum1`` and ``run_sum2``."""

    floor_repeats = 190

    def __init__(self, shifts, gamma, tol):
        self.S, self.gamma, self.tol = shifts, gamma, tol

    def build(self):
        n = self.S.shape[1]
        self.cp = ConsensusProblem(
            [Translated(L1Norm(n, 1.0), s) for s in self.S])
        self.params = default_params(alpha=0.2, gamma=self.gamma)

    def first_use(self):
        run_sum1(self.cp, self.params, max_iters=1)
        run_sum2(self.cp, self.params, max_iters=1)

    def prepare(self):
        self.set_floor(reference.ConsensusFloor(self.S, self.gamma))

    def operations(self):
        return [lambda: run_sum1(self.cp, self.params, tol=self.tol),
                lambda: run_sum2(self.cp, self.params, tol=self.tol)]

    def check(self, out):
        results = []
        for name, trace in (("sum1", out[0]), ("sum2", out[1])):
            res = _converged(name, trace)
            problems = check_close("shared point vs median",
                                   trace.final["shared"],
                                   np.median(self.S, axis=0), 1e-6)
            if name == "sum1":
                problems += check_zero_sum(trace.final["y"], 1e-9)
            res.wrong = _first_problem(problems)
            results.append(res)
        return results


def _numerals(a):
    return " ".join(repr(float(v)) for v in np.ravel(a))


def config_text(Q, q, Lm, tau, gamma, alpha, tol, max_iters):
    """A problem file with dense Q and L entries at 17 significant digits."""
    m, n = Lm.shape
    return "\n".join([
        "solver iadmm",
        "gamma %r" % gamma,
        "alpha %r" % alpha,
        "tol %r" % tol,
        "max_iters %d" % max_iters,
        "",
        "begin f",
        "kind quadratic",
        "Q " + _numerals(Q),
        "q " + _numerals(q),
        "end",
        "",
        "begin g",
        "kind l1",
        "dim %d" % m,
        "tau %r" % tau,
        "end",
        "",
        "begin L",
        "kind dense",
        "rows %d" % m,
        "cols %d" % n,
        "entries " + _numerals(Lm),
        "end",
        "",
    ])


SWEEP = "alpha=0,0.1,0.2"
SWEEP_POINTS = 3


class CliUnit(Unit):
    """One generated problem file through run, sweep and compare."""

    floor_repeats = 50

    def __init__(self, Q, q, Lm, tau, gamma, tol, path):
        self.Q, self.q, self.Lm, self.tau = Q, q, Lm, tau
        self.gamma, self.tol = gamma, tol
        self.path = path
        self.csv_path = path[:-len(".cfg")] + ".csv"
        with open(path, "w") as fh:
            fh.write(config_text(Q, q, Lm, tau, gamma, 0.2, tol, 20000))

    def build(self):
        self.cfg = parse_config_file(self.path)

    def first_use(self):
        run_iadmm(self.cfg.problem, self.cfg.params, max_iters=1)

    def prepare(self):
        # u = Lx turns the problem into a lasso in u with M = L^-T Q L^-1
        Linv = np.linalg.inv(self.Lm)
        M = _sym(Linv.T @ self.Q @ Linv)
        p = Linv.T @ self.q
        u = reference.fista_l1(M, p, self.tau)
        self.optimum = reference.lasso_value(M, p, self.tau, u)
        self.set_floor(reference.AdmmFloor(self.Q, self.q, self.tau,
                                           self.gamma, self.Lm))

    def _main(self, *args):
        buf = io.StringIO()
        code = cli_main([self.path, *args], out=buf)
        return code, buf.getvalue()

    def operations(self):
        return [lambda: self._main("--output", self.csv_path),
                lambda: self._main("--sweep", SWEEP),
                lambda: self._main("--compare")]

    def check(self, out):
        (c_run, s_run), (c_sweep, s_sweep), (c_cmp, s_cmp) = out
        csv_text = ""
        if c_run == 0:
            with open(self.csv_path) as fh:
                csv_text = fh.read()
        run = OpResult("run", _int_field(s_run, "iterations:"))
        run.wrong = _first_problem(
            check_cli_run(c_run, s_run, csv_text, self.optimum, 1e-8))
        rows = sweep_rows(s_sweep) or []
        sweep = OpResult("sweep", sum(int(r[2]) for r in rows if len(r) == 5))
        sweep.wrong = _first_problem(check_cli_sweep(c_sweep, s_sweep,
                                                     SWEEP_POINTS))
        cmp_ = OpResult("compare", _int_field(s_cmp, "compared iterations:"))
        cmp_.wrong = _first_problem(check_cli_compare(c_cmp, s_cmp))
        for res, code in ((run, c_run), (sweep, c_sweep), (cmp_, c_cmp)):
            if code != 0:
                res.error = "exit code %r" % (code,)
        return [run, sweep, cmp_]


def _int_field(stdout, prefix):
    value = _field(stdout, prefix)
    return int(value) if value is not None and value.isdigit() else 0


# ---------------------------------------------------------------- workloads


def make_units(name, seed, smoke, workdir):
    """The units of one workload, generated from ``seed``."""
    if name == "lasso_small":
        rng = _rng(seed, 1)
        units = []
        for _ in range(2 if smoke else 20):
            n = int(rng.integers(8, 13) if smoke else rng.integers(10, 51))
            D = rng.standard_normal((2 * n, n))
            b = rng.standard_normal(2 * n)
            tau = 0.2 * float(np.abs(D.T @ b).max())
            units.append(LassoUnit(D, b, tau, tol=1e-10))
        return units
    if name == "dense_large":
        rng = _rng(seed, 2)
        n, m = (60, 80) if smoke else (1000, 1200)
        G = rng.standard_normal((n, n)) / np.sqrt(n)
        Q = _sym(G @ G.T + 0.5 * np.eye(n))
        q = rng.standard_normal(n)
        Lm = rng.standard_normal((m, n)) / np.sqrt(m)
        quad = DenseQuadraticUnit(Q, q, Lm, tau=0.05, gamma=1.0, tol=1e-8)
        n2, m2 = (20, 40) if smoke else (200, 400)
        L2 = rng.standard_normal((m2, n2)) / np.sqrt(m2)
        b2 = rng.standard_normal(m2)
        tau2 = 0.2 * float(np.abs(L2.T @ b2).max())
        glasso = GeneralizedLassoUnit(L2, b2, tau2, gamma=1.0, tol=1e-8)
        return [quad, glasso]
    if name == "consensus_median":
        rng = _rng(seed, 3)
        m, n, core = (11, 2, 3) if smoke else (101, 3, 41)
        return [ConsensusUnit(consensus_shifts(rng, m, n, core), gamma=5.0,
                              tol=1e-7)
                for _ in range(1 if smoke else 2)]
    if name == "cli_batch":
        rng = _rng(seed, 4)
        os.makedirs(workdir, exist_ok=True)
        units = []
        for i, n in enumerate((6,) if smoke else (30, 40, 50)):
            G = rng.standard_normal((n, n)) / np.sqrt(n)
            Q = _sym(G @ G.T + 0.5 * np.eye(n))
            q = rng.standard_normal(n)
            Lm = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
            path = os.path.join(workdir, "problem%d.cfg" % i)
            units.append(CliUnit(Q, q, Lm, tau=0.3, gamma=1.0, tol=1e-9,
                                 path=path))
        return units
    raise ValueError("unknown workload %r" % (name,))


def consensus_shifts(rng, m, n, core):
    """Shifts whose coordinate-wise median is a core value shared by ``core``
    blocks, with (m - core) / 2 outliers strictly on each side of it."""
    half = (m - core) // 2
    S = np.empty((m, n))
    for j in range(n):
        c = rng.normal()
        vals = np.concatenate([
            np.full(core, c),
            c - 0.01 - rng.exponential(1.0, half),
            c + 0.01 + rng.exponential(1.0, half),
        ])
        S[:, j] = rng.permutation(vals)
    return S
