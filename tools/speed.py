"""Time per iteration, per call, per run or per process of every layer.

    python tools/speed.py [--smoke]

Each row times one callable ``PAIRS`` times, or, with a reference, the two
in ``PAIRS`` interleaved pairs, the order alternating from pair to pair.  It
prints the median [quartiles] of its time, of the ratio to its reference
over the pairs, and the iteration counts of the traces it returns; a
process row adds the median paired difference, the program's own share.
Units: ``us/iter`` (a run or a loop of steps over its iterations),
``us/call``, ``ms/run`` and ``ms/process``.  Fresh objects a call needs are
made before its clock starts.  One BLAS thread.  The rows, from zeros:

- loops of ``ITERS`` public calls, ``default_params(0.2)``: ``admm.step`` on
  a lasso (f = 0.5 ||Dx - b||^2, D a seeded 2n x n Gaussian, g = tau
  ||.||_1, L = I) at n = 10, 30, 50, each followed by ``run_iadmm`` on the
  lasso over it (its ratio is the run's own share: ``drive``, the trace
  rows and the stop test), then ``run_iadmm`` at n = 30 with a callable
  constant alpha schedule over the closed form, and ``admm.step`` on a
  batch of P = 3 parameter sets (alpha 0, 0.1, 0.2), through the table
  ``run_iadmm_batch`` builds: with a dense L at n = 30 (full-width
  columns) over a table of (P, 1) columns, and with f =
  ``Translated(L1Norm)`` and L = I at n = 2 ``FULL_WIDTH_MAX`` ((P, 1)
  columns) over a full-width table, then ``run_iadmm_batch`` there over
  that step loop (a norm per residual block in its stop test);
  ``dr.idr_step`` on the n = 30 lasso's Douglas-Rachford twin and
  ``dr.run_idr`` on each twin;
  ``consensus.sum1_step`` and ``sum2_step`` on 101 seeded
  ``Translated(L1Norm)`` blocks on R^3 (gamma 5);
- at alpha = 0 and lambda = 1, ``RUN_ITERS`` iterations at tolerance 0:
  ``run_iadmm`` over ``classical_admm`` on the lasso at n = 10 and 200, and
  ``run_sum1`` over ``boyd_consensus`` at m = 101 and 1001 blocks;
- ``run_sum1``, and ``run_sum2`` and ``run_iadmm`` on each of ``cp.lifts``
  over it, alpha 0.2, gamma 5, on those 101 blocks (``median``) and on 99
  (``mixed``: ``Translated(L2Norm)``, ``IndicatorBox``,
  ``Translated(L1Norm)``);
- on ``problem_file``s (shaped like the benchmark's ``cli_batch`` files) at
  n = 30, 50 and 200: ``parse_config_file``, ``run_iadmm``, ``write_csv``
  and ``cli._summary`` of a fresh trace, ``kkt_residual``, ``cli.main``, and
  ``main --output`` over it; the sweep ``alpha=0,0.1,0.2`` (and
  ``;lambda=0.3,0.4,0.5``) point by point, and ``run_iadmm_batch`` over
  serial and over one run;
- at n = 30, 200 and 1000, on M = Q + L'L (L dense, 1.2n x n): LAPACK
  ``dpotrs`` on M's factor, ``linalg.cholesky``'s solve (two BLAS ``trsv``)
  of a vector and of P = 1, 3, 9 rows, and the ``quadratic_solve``
  x-update's subproblem for a given c (alpha 0.2's c_k, formed untimed);
- the set-up of a problem shaped like ``dense_large``'s (a dense quadratic
  f on R^1000, a dense 1200 x 1000 L): ``Quadratic.__init__``, and over it
  the same on a Q symmetric only up to rounding (``Q ~ Q'``, where
  ``np.allclose`` decides, not the exact test), the rank test
  ``is_injective``, the SVD of ``injectivity_modulus`` over it, the first
  x-update factor and the first conjugate (``eigh``); then
  ``Quadratic.__init__`` and the first conjugate on a singular Q = A'A of
  rank n/3, over ``Quadratic.__init__`` alone (its PSD test reads the
  spectrum the conjugate reuses);
- fresh processes over ``python -c "import numpy"``: ``python -m
  inadmm.cli`` on the n = 10 lasso's file, ``import inadmm, inadmm.cli``
  (no factor, so no scipy wrappers), and ``import inadmm`` with a first
  factor.

It exits 1 if a ``us/iter`` row's run or reference stops short of the
row's iterations, if a row and its reference that return as many traces
stop differently, trace for trace (iterations, converged, non-finite), as
a batched sweep against its serial points, if a child process or ``main``
exits non-zero, or if the set-up's L is not injective.  ``--smoke`` runs 20
iterations, 11 and 9 blocks, n = 6, a set-up at n = 60, m = 80, and one
pair: it checks that the script works and that its runs agree.  Runs from
the root of a checkout and imports the program from its ``src/``.
"""

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import functools
import io
import subprocess
import sys
import tempfile
import time

import numpy as np
from scipy.linalg import lapack

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from inadmm import (ConsensusProblem, IadmmState, IndicatorBox, L1Norm, L2Norm,
                    LinearMap, ProblemSpec, Quadratic, ResolventOp, SolveTrace,
                    Translated, XUpdateStrategy, boyd_consensus, classical_admm,
                    default_params, kkt_residual, run_iadmm, run_idr, run_sum1,
                    run_sum2)
from inadmm.admm import FULL_WIDTH_MAX, _batch_table, run_iadmm_batch, step, x_update
from inadmm.cli import _summary, main as cli_main
from inadmm.config import parse_config_file
from inadmm.consensus import sum1_step, sum2_step
from inadmm.dr import IdrState, idr_step
from inadmm.linalg import cholesky
from inadmm.params import Coefficients, constant_params
from stdout_guard import run

ITERS = 500  # steps per timed loop
RUN_ITERS = 300  # iterations per timed run at tolerance 0
PAIRS = 9  # timed runs, or interleaved pairs of runs, per row
SWEEPS = (("3 points", (0.0, 0.1, 0.2), (None,)),
          ("9 points", (0.0, 0.1, 0.2), (0.3, 0.4, 0.5)))
FIRST_FACTOR = ("import numpy, inadmm; "
                "inadmm.Quadratic(numpy.diag([2.0, 1.0]), [-1.0, 0.5])._solver(1.0)")

# ``run``'s time counts ``per`` units; ``over`` is a reference's (label,
# callable); with ``make``, each call takes a fresh ``make()``
Row = collections.namedtuple("Row", "label unit per run over make",
                             defaults=(None, None))
Scale = collections.namedtuple(
    "Scale", "iters run_iters pairs ratio_sizes ratio_blocks lift_blocks "
    "cli_sizes solve_sizes setup_dims")
FULL = Scale(ITERS, RUN_ITERS, PAIRS, (10, 200), (101, 1001), (101, 99),
             (30, 50, 200), (30, 200, 1000), (1000, 1200))
SMOKE = Scale(20, 20, 1, (10,), (11,), (11, 9), (6,), (6,), (60, 80))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--smoke", action="store_true",
                    help="20 iterations, 11 and 9 blocks, n = 6, one pair")
    return ap.parse_args(argv)


def stops(result):
    """(iterations, converged, nonfinite) of each trace a run returned."""
    traces = result if isinstance(result, list) else [result]
    return [(t.iterations, t.converged, t.nonfinite) for t in traces
            if isinstance(t, SolveTrace)]


def check(row, result, reference=None):
    """Exit 1 unless a pair's runs stop as the module docstring says."""
    got, want = stops(result), stops(reference)
    if row.unit == "us/iter" and any(s[0] != row.per for s in got + want):
        sys.exit("speed: %s: runs stopped at %s and %s, not at %d iterations"
                 % (row.label, got, want, row.per))
    if want and len(got) == len(want) and got != want:
        sys.exit("speed: %s: runs stopped at %s, their reference at %s"
                 % (row.label, got, want))


def measure(row, pairs):
    """Seconds of each run of ``row.run`` (column 0) and of its reference
    (column 1) over ``pairs`` runs or interleaved pairs, the order
    alternating, and the last result of ``row.run``."""
    calls = (row.run,) if row.over is None else (row.run, row.over[1])
    seconds = np.empty((pairs, len(calls)))
    for i in range(pairs):
        results = [None] * len(calls)
        for j in range(len(calls))[::1 if i % 2 == 0 else -1]:
            args = () if row.make is None else (row.make(),)
            t0 = time.perf_counter()
            results[j] = calls[j](*args)
            seconds[i, j] = time.perf_counter() - t0
        check(row, *results)
    return seconds, results[0]


def show(row, seconds, result):
    scale = (1e3 if row.unit.startswith("ms") else 1e6) / row.per
    line = "%-46s %9.1f [%.1f, %.1f] %s" % (
        row.label, *np.percentile(seconds[:, 0], [50, 25, 75]) * scale, row.unit)
    if row.over is not None:
        line += "  %.3f [%.3f, %.3f] x %s" % (
            *np.percentile(seconds[:, 0] / seconds[:, 1], [50, 25, 75]), row.over[0])
    if row.unit == "ms/process":
        line += "  difference %.1f ms" % (1e3 * np.median(np.subtract(*seconds.T)))
    if stops(result):
        line += "  iterations " + " ".join(str(s[0]) for s in stops(result))
    print(line)


def stepping(scheme_step, p, table, iters, spec, rows=(), *tail):
    """A loop of ``iters`` calls of ``scheme_step(state, p, table, k, *tail)``
    from the zero state of ``spec``'s dimensions, ``rows`` stacked."""
    def loop():
        zeros = np.zeros(rows + (spec.g.dim,))
        state = IadmmState(k=1, x=np.zeros(rows + (spec.f.dim,)), z=zeros,
                           z_prev=zeros, zbar=zeros, y=zeros, y_prev=zeros, w=zeros)
        for k in range(1, iters + 1):
            state, _ = scheme_step(state, p, table, k, *tail)
    return loop


def repeat(call, times, *args):
    """A loop of ``times`` calls of ``call(*args)``."""
    def loop():
        for _ in range(times):
            call(*args)
    return loop


def lasso(n, rng):
    D = rng.standard_normal((2 * n, n))
    b = rng.standard_normal(2 * n)
    f = Quadratic(D.T @ D, -D.T @ b, 0.5 * float(b @ b))
    tau = 0.2 * float(np.abs(D.T @ b).max())
    return ProblemSpec(f, L1Norm(n, tau), LinearMap.identity(n))


def twin(p):
    """The DR operators (A, B) whose iteration is the lasso's ADMM."""
    return (ResolventOp.composed_conjugate(p.f, p.L),
            ResolventOp.conjugate_subdifferential(p.g))


def median_blocks(m, rng):
    return [Translated(L1Norm(3, 1.0), rng.standard_normal(3)) for _ in range(m)]


def mixed_blocks(m, rng):
    blocks = []
    for _ in range(m // 3):
        blocks += [
            Translated(L2Norm(3, rng.uniform(0.2, 2.0)), rng.standard_normal(3)),
            IndicatorBox(-rng.uniform(0.5, 2.0, 3), rng.uniform(0.5, 2.0, 3)),
            Translated(L1Norm(3, rng.uniform(0.2, 2.0)), rng.standard_normal(3)),
        ]
    return [blocks[i] for i in rng.permutation(len(blocks))]


def spec_file(path, p, *top):
    """Write the problem file of ``p`` (quadratic f, l1 g, identity or dense
    L) with the ``top`` lines to ``path``; return ``path``."""
    def numerals(a):
        return " ".join(repr(float(v)) for v in np.ravel(a))
    rows, cols = p.L.shape
    L = (["kind identity", "dim %d" % cols] if p.L.kind == "identity" else
         ["kind dense", "rows %d" % rows, "cols %d" % cols,
          "entries " + numerals(p.L.matrix)])
    with open(path, "w") as fh:
        fh.write("\n".join([
            *top, "",
            "begin f", "kind quadratic", "Q " + numerals(p.f.Q),
            "q " + numerals(p.f.q), "r %r" % p.f.r, "end", "",
            "begin g", "kind l1", "dim %d" % rows, "tau %r" % p.g.tau, "end", "",
            "begin L", *L, "end", ""]))
    return path


def problem_file(path, n, rng):
    """A problem file at ``path`` shaped like the benchmark's ``cli_batch``
    files: dense Q = G G'/n + I/2 and L = I + 0.3 G'/sqrt(n), an l1 g with
    tau 0.3, gamma 1, alpha 0.2, tol 1e-9."""
    G = rng.standard_normal((n, n)) / np.sqrt(n)
    Q = G @ G.T + 0.5 * np.eye(n)
    Lm = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    p = ProblemSpec(Quadratic(0.5 * (Q + Q.T), rng.standard_normal(n)),
                    L1Norm(n, 0.3), LinearMap.dense(Lm))
    return spec_file(path, p, "solver iadmm", "gamma 1.0", "alpha 0.2", "tol 1e-9",
                     "max_iters 20000")


def cli(*argv):
    """An in-process CLI run of ``argv``; exits 1 if ``main`` returns non-zero."""
    def call():
        code = cli_main(list(argv), out=io.StringIO())
        if code != 0:
            sys.exit("speed: inadmm %s exited %d" % (" ".join(argv), code))
    return call


def process(*argv):
    """A fresh ``python argv`` process, the program on its path; exits 1 if
    the process exits non-zero."""
    def call():
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=SRC))
        if proc.returncode != 0:
            sys.exit("speed: python %s exited %d:\n%s"
                     % (" ".join(argv), proc.returncode, proc.stderr))
    return call


def sweep_points(cfg, alphas, lams):
    """The sweep's parameter sets, as the CLI builds them."""
    return [constant_params(cfg.params.gamma, a, cfg.params.sigma, cfg.delta,
                            lam, "lambda1_alpha1_zero" if a > 0.0 else "alpha2_zero")
            for a in alphas for lam in lams]


def serial(p, points, max_iters, tol):
    return [run_iadmm(p, q, max_iters=max_iters, tol=tol) for q in points]


def cli_rows(path, n):
    """The rows of the CLI's phases and sweeps on the problem file at ``path``."""
    cfg = parse_config_file(path)
    p, tol, budget, where = cfg.problem, cfg.tol, cfg.max_iters, ", n = %d" % n
    one = functools.partial(run_iadmm, p, cfg.params, max_iters=budget, tol=tol)
    final = one().final
    yield Row("parse_config_file" + where, "us/call", 1,
              functools.partial(parse_config_file, path))
    yield Row("run_iadmm, cli_batch file" + where, "ms/run", 1, one)
    yield Row("write_csv, fresh trace" + where, "us/call", 1,
              lambda trace: trace.write_csv(io.StringIO()), make=one)
    yield Row("cli._summary, fresh trace" + where, "us/call", 1,
              lambda trace: _summary(cfg, "iadmm", trace, io.StringIO()), make=one)
    yield Row("kkt_residual" + where, "us/call", 1,
              functools.partial(kkt_residual, p, final["x"], final["v"]))
    main = cli(path)
    yield Row("cli.main" + where, "ms/run", 1, main)
    yield Row("cli.main --output" + where, "ms/run", 1,
              cli(path, "--output", path + ".csv"), ("main", main))
    for name, alphas, lams in SWEEPS:
        points = sweep_points(cfg, alphas, lams)
        one_by_one = functools.partial(serial, p, points, budget, tol)
        batched = functools.partial(run_iadmm_batch, p, points, budget, tol,
                                    record=False)
        yield Row("serial sweep, %s%s" % (name, where), "ms/run", 1, one_by_one)
        for over in (("serial", one_by_one), ("one run", one)):
            yield Row("batched sweep, %s%s" % (name, where), "ms/run", 1, batched, over)


def solve_problem(n, rng):
    m = (6 * n) // 5
    G = rng.standard_normal((n, n))
    Q = G @ G.T / n + 0.5 * np.eye(n)
    f = Quadratic(0.5 * (Q + Q.T), rng.standard_normal(n))
    L = LinearMap.dense(rng.standard_normal((m, n)) / np.sqrt(m))
    return ProblemSpec(f, L1Norm(m, 0.05), L)


def cases(s, tmp):
    """The rows, in print order, at the scale ``s``; problem files go to the
    directory ``tmp``."""
    params, iters = default_params(0.2), s.iters
    lassos = {n: lasso(n, np.random.default_rng([0, n])) for n in (10, 30, 50)}
    for n, p in lassos.items():
        loop = stepping(step, p, params, iters, p, (), XUpdateStrategy.automatic(p))
        yield Row("admm.step, lasso L = I, n = %d" % n, "us/iter", iters, loop)
        yield Row("run_iadmm, lasso L = I, alpha 0.2, n = %d" % n, "us/iter", iters,
                  functools.partial(run_iadmm, p, params, max_iters=iters, tol=0.0),
                  ("admm.step", loop))
    # alpha_k from a callable, which has no steady k, against the closed form
    called = params.replace(alpha_schedule=lambda k: 0.2)
    run_30 = functools.partial(run_iadmm, lassos[30], max_iters=iters, tol=0.0)
    yield Row("run_iadmm, callable alpha schedule, n = 30", "us/iter", iters,
              functools.partial(run_30, called),
              ("closed form", functools.partial(run_30, params)))

    n, rng = 30, np.random.default_rng(1)
    G = rng.standard_normal((n, n)) / np.sqrt(n)
    Lm = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    p = ProblemSpec(Quadratic(G @ G.T + 0.5 * np.eye(n), rng.standard_normal(n)),
                    L1Norm(n, 0.3), LinearMap.dense(Lm))
    points = [default_params(a) for a in (0.0, 0.1, 0.2)]
    strat = XUpdateStrategy.automatic(p)
    yield Row("admm.step, batch P = 3, dense L, n = 30", "us/iter", iters,
              stepping(step, p, _batch_table(points, n), iters, p, (3,), strat),
              ("(P, 1) columns", stepping(step, p, Coefficients((points, 1)), iters,
                                          p, (3,), strat)))
    n = 2 * FULL_WIDTH_MAX  # rows the batch multiplies by (P, 1) columns
    p = ProblemSpec(Translated(L1Norm(n, 1.0), rng.standard_normal(n)),
                    L1Norm(n, 0.3), LinearMap.identity(n))
    strat = XUpdateStrategy.automatic(p)
    loop = stepping(step, p, _batch_table(points, n), iters, p, (3,), strat)
    yield Row("admm.step, batch P = 3, L = I, n = %d" % n, "us/iter", iters, loop,
              ("full width", stepping(step, p, Coefficients((points, n)), iters,
                                      p, (3,), strat)))
    yield Row("run_iadmm_batch, P = 3, L = I, n = %d" % n, "us/iter", iters,
              functools.partial(run_iadmm_batch, p, points, iters, 0.0, record=False),
              ("admm.step", loop))

    A, B = twin(lassos[30])

    def idr_loop():
        state = IdrState(k=0, w_prev=np.zeros(30), w=np.zeros(30))
        for k in range(1, iters + 1):
            co = params.coefficients.at(k)
            state, _ = idr_step(state, A, B, params.gamma, co.alpha, co.lam)
    yield Row("dr.idr_step, lasso twin, n = 30", "us/iter", iters, idr_loop)
    for n, p in lassos.items():
        yield Row("dr.run_idr, lasso twin, n = %d" % n, "us/iter", iters,
                  functools.partial(run_idr, *twin(p), params.gamma, params,
                                    np.zeros(n), np.zeros(n), max_iters=iters,
                                    tol=0.0))

    lifted = default_params(0.2, gamma=5.0)
    median = ConsensusProblem(median_blocks(s.lift_blocks[0], np.random.default_rng(0)))
    for name, scheme_step, lift in (("sum1_step", sum1_step, median.lifts[0]),
                                    ("sum2_step", sum2_step, median.lifts[1])):
        yield Row("consensus.%s, %d blocks on R^3" % (name, median.m), "us/iter",
                  iters, stepping(scheme_step, median, lifted, iters, lift))

    runs = s.run_iters
    still = constant_params(1.0, 0.0, 0.01, lam=1.0)
    for n in s.ratio_sizes:
        p = lasso(n, np.random.default_rng([0, n]))
        yield Row("run_iadmm, alpha = 0, lambda = 1, n = %d" % n, "us/iter", runs,
                  functools.partial(run_iadmm, p, still, max_iters=runs, tol=0.0),
                  ("classical_admm", functools.partial(
                      classical_admm, p, 1.0, max_iters=runs, tol=0.0)))
    boyd = constant_params(5.0, 0.0, 0.01, lam=1.0, init_mode="alpha2_zero")
    for m in s.ratio_blocks:
        cp = ConsensusProblem(median_blocks(m, np.random.default_rng([1, m])))
        yield Row("run_sum1, alpha = 0, lambda = 1, m = %d" % m, "us/iter", runs,
                  functools.partial(run_sum1, cp, boyd, max_iters=runs, tol=0.0),
                  ("boyd_consensus", functools.partial(
                      boyd_consensus, cp, 5.0, max_iters=runs, tol=0.0)))

    mixed = ConsensusProblem(mixed_blocks(s.lift_blocks[1], np.random.default_rng(0)))
    for name, cp in (("median", median), ("mixed", mixed)):
        where = "%s, %d blocks" % (name, cp.m)
        sum1 = functools.partial(run_sum1, cp, lifted, max_iters=runs, tol=0.0)
        yield Row("run_sum1, " + where, "us/iter", runs, sum1)
        for label, solve, problem in (("run_sum2", run_sum2, cp),
                                      ("run_iadmm on lift 1", run_iadmm, cp.lifts[0]),
                                      ("run_iadmm on lift 2", run_iadmm, cp.lifts[1])):
            yield Row("%s, %s" % (label, where), "us/iter", runs, functools.partial(
                solve, problem, lifted, max_iters=runs, tol=0.0), ("run_sum1", sum1))

    rng = np.random.default_rng(2015)
    for n in s.cli_sizes:
        yield from cli_rows(problem_file(
            os.path.join(tmp, "cli_batch_%d.cfg" % n), n, rng), n)

    rng = np.random.default_rng(2014)
    for n in s.solve_sizes:
        calls, p = max(5, 20000 // n), solve_problem(n, rng)
        M = p.f.Q + p.L.gram()
        solve, factor = cholesky(M), lapack.dpotrf(M, clean=False)[0]
        b = rng.standard_normal(n)
        yield Row("lapack dpotrs, n = %d" % n, "us/call", calls,
                  repeat(lapack.dpotrs, calls, factor, b))
        yield Row("linalg.cholesky solve, n = %d" % n, "us/call", calls,
                  repeat(solve, calls, b))
        for P in (1, 3, 9):
            yield Row("linalg.cholesky solve, P = %d rows, n = %d" % (P, n), "us/call",
                      calls, repeat(solve, calls, rng.standard_normal((P, n))))
        m = p.g.dim
        z, y = rng.standard_normal(m), rng.standard_normal(m)
        state = IadmmState(k=2, x=np.zeros(n), z=z, z_prev=0.9 * z,
                           zbar=np.zeros(m), y=y, y_prev=0.9 * y)
        strat = XUpdateStrategy("quadratic_solve")
        c = y - 0.2 * (y - state.y_prev) - 0.2 * (z - state.z_prev)
        x_update(state, p, 1.0, c, strat)  # makes the factor
        yield Row("admm.x_update, quadratic_solve, n = %d" % n, "us/call", calls,
                  repeat(x_update, calls, state, p, 1.0, c, strat))

    n, m = s.setup_dims
    rng = np.random.default_rng(0)
    G = rng.standard_normal((n, n)) / np.sqrt(n)
    Q, q = G @ G.T + 0.5 * np.eye(n), rng.standard_normal(n)
    fresh_f = functools.partial(Quadratic, 0.5 * (Q + Q.T), q)
    Lm = rng.standard_normal((m, n)) / np.sqrt(m)
    fresh_L = functools.partial(LinearMap.dense, Lm)
    u, where = rng.standard_normal(n), ", n = %d, m = %d" % (n, m)
    rank_test = ("rank test", LinearMap.is_injective)
    yield Row("Quadratic.__init__" + where, "ms/run", 1, fresh_f)
    rounded = 0.5 * (Q + Q.T)
    rounded[0, 1] *= 1.0 + 1e-15  # one pair off by rounding
    yield Row("Quadratic.__init__, Q ~ Q'" + where, "ms/run", 1,
              functools.partial(Quadratic, rounded, q), ("exact", fresh_f))
    yield Row("rank test (is_injective)" + where, "ms/run", 1, rank_test[1],
              make=fresh_L)
    yield Row("SVD (injectivity_modulus)" + where, "ms/run", 1,
              LinearMap.injectivity_modulus, rank_test, make=fresh_L)
    # ProblemSpec runs the rank test (which forms L's Gram matrix) and
    # refuses an L that is not injective
    yield Row("first x-update factor" + where, "ms/run", 1,
              lambda p: p.f._solver(1.0, p.L),
              make=lambda: ProblemSpec(fresh_f(), L1Norm(m, 1.0), fresh_L()))
    yield Row("first conjugate (eigh)" + where, "ms/run", 1, lambda f: f.conj(u),
              make=fresh_f)
    A = np.random.default_rng(1).standard_normal((n // 3, n)) / np.sqrt(n)
    fresh_singular = functools.partial(Quadratic, A.T @ A, q)
    inside = q + A.T @ A @ u  # in q + range(Q): a finite conjugate
    yield Row("singular Q: __init__, first conjugate, n = %d" % n, "ms/run", 1,
              lambda: fresh_singular().conj(inside), ("__init__", fresh_singular))

    numpy = ("import numpy", process("-c", "import numpy"))
    path = spec_file(os.path.join(tmp, "lasso.cfg"), lassos[10], "solver iadmm",
                     "alpha 0.2", "tol 1e-10")
    yield Row("python -m inadmm.cli, lasso file, n = 10", "ms/process", 1,
              process("-m", "inadmm.cli", path), numpy)
    yield Row("python: import inadmm, inadmm.cli", "ms/process", 1,
              process("-c", "import inadmm, inadmm.cli"), numpy)
    yield Row("python: import inadmm, first factor", "ms/process", 1,
              process("-c", FIRST_FACTOR), numpy)


def main(argv=None):
    s = SMOKE if parse_args(argv).smoke else FULL
    print("median [quartiles] over %d runs, or over %d interleaved pairs with "
          "the ratio to a reference; one BLAS thread" % (s.pairs, s.pairs))
    with tempfile.TemporaryDirectory() as tmp:
        for row in cases(s, tmp):
            show(row, *measure(row, s.pairs))


if __name__ == "__main__":
    run(main)
