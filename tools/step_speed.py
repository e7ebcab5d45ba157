"""Microseconds per iteration of one inertial ADMM step, batched and serial.

    python tools/step_speed.py [--smoke]

Every step reads its scalars from the coefficient table of its parameter
set (``params.Coefficients``).  The script times, from the zero state and
with ``default_params(0.2)``, loops of ``ITERS`` public calls of:

- ``admm.step`` on a lasso, f = 0.5 ||Dx - b||^2 (D a seeded 2n x n
  Gaussian matrix), g = tau ||.||_1, L = I, at n = 10, 30 and 50;
- ``admm.step`` on a batch of P = 3 parameter sets (alpha 0, 0.1 and 0.2)
  sharing gamma, with (3, n) rows, at n = 30 with a dense L = I + 0.3 G /
  sqrt(n) (G seeded Gaussian) and a quadratic f: the batch's table is a
  ``Coefficients`` of the three sets;
- ``dr.idr_step`` on the n = 30 lasso's twin, with alpha_k and lambda_k
  read from the table as ``run_idr`` reads them;
- ``dr.run_idr`` on the lasso's twin at n = 10, 30 and 50, whose catalog
  resolvents are bound once per gamma (``ResolventOp``);
- ``consensus.sum1_step`` and ``sum2_step``, ``admm.step`` on the two
  product-space lifts of a consensus problem of 101 ``Translated(L1Norm)``
  blocks on R^3.

Each line is the best of ``REPEATS`` loops in microseconds per iteration.

At alpha = 0 and lambda = 1 the paper's scheme is classical ADMM, and its
steps are ``still`` (``params.Coefficients``): they skip the terms the zero
alpha leaves out.  The script then prints two ratios of whole runs (
``RATIO_ITERS`` iterations at tolerance 0, the same count for both), each
the median and quartiles over ``PAIRS`` interleaved pairs of runs, in
alternating order:

- ``run_iadmm`` at alpha = 0, lambda = 1 over ``classical_admm`` on the
  lasso, at n = 10 and 200;
- ``run_sum1`` at alpha = 0, lambda = 1 (``alpha2_zero``, so lambda_1 = 1
  too) over ``boyd_consensus``, the textbook scheme it reduces to, at m =
  101 and 1001 ``Translated(L1Norm)`` blocks on R^3, gamma = 5.

Then it checks, on each lasso and with constant, ramped, alpha = 0 and
``alpha2_zero`` schedules, that a loop of public ``step`` calls with an
``InertialParams`` gives the rows of ``run_iadmm`` with the same parameters
byte for byte (x, z, zbar, y, v, w), and exits 1 if any differs; and that a
loop of public ``idr_step`` calls, fed alpha_k and lambda_k as floats, gives
the rows of ``run_idr`` byte for byte (w, y, v), exiting 1 if any differs.
One BLAS thread.  ``--smoke`` runs 20 iterations once, 11 blocks, and one
pair of 20-iteration runs per ratio at n = 10 and m = 11, which checks that
the script works and that the loops agree.  Runs from the root of a
checkout and imports the program from its ``src/``.
"""

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from inadmm import (ConsensusProblem, IadmmState, L1Norm, LinearMap,
                    ProblemSpec, Quadratic, ResolventOp, Translated,
                    XUpdateStrategy, boyd_consensus, classical_admm,
                    default_params, ramp_schedule, run_iadmm, run_idr, run_sum1)
from inadmm.admm import step
from inadmm.consensus import sum1_step, sum2_step
from inadmm.dr import IdrState, idr_step
from inadmm.params import Coefficients, constant_params
from stdout_guard import run

ITERS = 500  # steps per timed loop
REPEATS = 7  # timed loops per case; the best one is reported
SIZES = (10, 30, 50)
RATIO_ITERS = 300  # iterations per run of a ratio's pair
PAIRS = 9  # interleaved pairs of runs per ratio
FIELDS = ("x", "z", "zbar", "y", "v", "w")  # a state's arrays, as a row names them
ROW_KEYS = ("x_next", "z_next", "zbar_next", "y_next", "v", "w_next")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--smoke", action="store_true",
                    help="20 iterations, one loop, 11 consensus blocks, one ratio pair")
    return ap.parse_args(argv)


def zero_state(n, m, rows=()):
    zeros = np.zeros(rows + (m,))
    return IadmmState(k=1, x=np.zeros(rows + (n,)), z=zeros, z_prev=zeros,
                      zbar=zeros, y=zeros, y_prev=zeros, w=zeros)


def best_us(loop, iters, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best / iters


def lasso(n, rng):
    D = rng.standard_normal((2 * n, n))
    b = rng.standard_normal(2 * n)
    f = Quadratic(D.T @ D, -D.T @ b, 0.5 * float(b @ b))
    tau = 0.2 * float(np.abs(D.T @ b).max())
    return ProblemSpec(f, L1Norm(n, tau), LinearMap.identity(n))


def stepping(p, params, strat, iters, start):
    """A loop of ``iters`` public steps from the state ``start()``."""
    def loop():
        state = start()
        for k in range(1, iters + 1):
            state, _ = step(state, p, params, k, strat)
    return loop


def differing_row(p, params, iters):
    """The first k at which public steps and ``run_iadmm`` differ, or None."""
    trace = run_iadmm(p, params, max_iters=iters, tol=0.0)
    state, strat = zero_state(p.f.dim, p.g.dim), XUpdateStrategy.automatic(p)
    for row in trace.rows:
        state, _ = step(state, p, params, row.k, strat)
        for field, key in zip(FIELDS, ROW_KEYS):
            if getattr(state, field).tobytes() != row.vectors[key].tobytes():
                return row.k
    return None


def ratio_quartiles(solve, reference, pairs):
    """Median and quartiles of time(solve) / time(reference) over ``pairs``
    pairs of runs, the order alternating from pair to pair.  Exits 1 if the
    two runs take different numbers of iterations."""
    ratios = []
    for i in range(pairs):
        timed = {}
        for name, fn in ((("a", solve), ("b", reference)) if i % 2 == 0 else
                         (("b", reference), ("a", solve))):
            t0 = time.perf_counter()
            trace = fn()
            timed[name] = (time.perf_counter() - t0, trace.iterations)
        if timed["a"][1] != timed["b"][1]:
            sys.exit("step_speed: a ratio's runs took %d and %d iterations"
                     % (timed["a"][1], timed["b"][1]))
        ratios.append(timed["a"][0] / timed["b"][0])
    return np.percentile(ratios, [50, 25, 75])


def twin(p):
    """The DR operators (A, B) whose iteration is the lasso's ADMM."""
    return (ResolventOp.composed_conjugate(p.f, p.L),
            ResolventOp.conjugate_subdifferential(p.g))


def differing_dr_row(p, params, iters):
    """The first k at which public ``idr_step`` calls and ``run_idr`` differ,
    or None."""
    A, B = twin(p)
    zeros = np.zeros(p.g.dim)
    trace = run_idr(A, B, params.gamma, params, zeros, zeros, max_iters=iters,
                    tol=0.0)
    state = IdrState(k=0, w_prev=zeros, w=zeros)
    for row in trace.rows:
        state = idr_step(state, A, B, params.gamma, params.alpha_at(row.k),
                         params.lambda_at(row.k))
        for field, key in (("w", "w_next"), ("y", "y"), ("v", "v")):
            if getattr(state, field).tobytes() != row.vectors[key].tobytes():
                return row.k
    return None


def main(argv=None):
    args = parse_args(argv)
    iters, repeats, blocks = (20, 1, 11) if args.smoke else (ITERS, REPEATS, 101)
    ratio_iters, pairs, ratio_sizes, ratio_blocks = (
        (20, 1, (10,), (11,)) if args.smoke else
        (RATIO_ITERS, PAIRS, (10, 200), (101, 1001)))
    params = default_params(0.2)
    print("us per iteration, best of %d loops of %d steps, one BLAS thread"
          % (repeats, iters))
    problems = {}
    for n in SIZES:
        p = problems[n] = lasso(n, np.random.default_rng([0, n]))
        loop = stepping(p, params, XUpdateStrategy.automatic(p), iters,
                        lambda: zero_state(n, n))
        print("%-40s %8.1f" % ("admm.step, lasso L = I, n = %d" % n,
                               best_us(loop, iters, repeats)))

    n, P = 30, 3
    rng = np.random.default_rng(1)
    G = rng.standard_normal((n, n)) / np.sqrt(n)
    Lm = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    p = ProblemSpec(Quadratic(G @ G.T + 0.5 * np.eye(n), rng.standard_normal(n)),
                    L1Norm(n, 0.3), LinearMap.dense(Lm))
    table = Coefficients([default_params(a) for a in (0.0, 0.1, 0.2)])
    loop = stepping(p, table, XUpdateStrategy.automatic(p), iters,
                    lambda: zero_state(n, n, (P,)))
    print("%-40s %8.1f" % ("admm.step, batch P = %d, dense L, n = %d" % (P, n),
                           best_us(loop, iters, repeats)))

    p = problems[30]
    A, B = twin(p)

    def dr_loop():
        state = IdrState(k=0, w_prev=np.zeros(30), w=np.zeros(30))
        for k in range(1, iters + 1):
            co = params.coefficients.at(k)
            state = idr_step(state, A, B, params.gamma, co.alpha, co.lam)
    print("%-40s %8.1f" % ("dr.idr_step, lasso twin, n = 30",
                           best_us(dr_loop, iters, repeats)))
    for n, p in problems.items():
        A, B, zeros = *twin(p), np.zeros(n)
        print("%-40s %8.1f" % ("dr.run_idr, lasso twin, n = %d" % n, best_us(
            lambda: run_idr(A, B, params.gamma, params, zeros, zeros,
                            max_iters=iters, tol=0.0), iters, repeats)))

    rng = np.random.default_rng(0)
    cp = ConsensusProblem([Translated(L1Norm(3, 1.0), rng.standard_normal(3))
                           for _ in range(blocks)])
    lifted = default_params(0.2, gamma=5.0)
    for name, scheme_step, lift in (("sum1_step", sum1_step, cp.lifts[0]),
                                    ("sum2_step", sum2_step, cp.lifts[1])):
        def lift_loop():
            state = zero_state(lift.f.dim, lift.g.dim)
            for k in range(1, iters + 1):
                state, _ = scheme_step(state, cp, lifted, k)
        print("%-40s %8.1f" % ("consensus.%s, %d blocks on R^3" % (name, blocks),
                               best_us(lift_loop, iters, repeats)))

    print("ratio of whole runs at alpha = 0, lambda = 1: median [quartiles] "
          "over %d interleaved pairs" % pairs)
    still = constant_params(1.0, 0.0, 0.01, lam=1.0)
    for n in ratio_sizes:
        p = lasso(n, np.random.default_rng([0, n]))
        print("%-40s %6.3f [%.3f, %.3f]" % (
            ("run_iadmm / classical_admm, n = %d" % n,) + tuple(ratio_quartiles(
                lambda: run_iadmm(p, still, max_iters=ratio_iters, tol=0.0),
                lambda: classical_admm(p, 1.0, max_iters=ratio_iters, tol=0.0),
                pairs))))
    boyd = constant_params(5.0, 0.0, 0.01, lam=1.0, init_mode="alpha2_zero")
    for m in ratio_blocks:
        rng = np.random.default_rng([1, m])
        cp = ConsensusProblem([Translated(L1Norm(3, 1.0), rng.standard_normal(3))
                               for _ in range(m)])
        print("%-40s %6.3f [%.3f, %.3f]" % (
            ("run_sum1 / boyd_consensus, m = %d" % m,) + tuple(ratio_quartiles(
                lambda: run_sum1(cp, boyd, max_iters=ratio_iters, tol=0.0),
                lambda: boyd_consensus(cp, 5.0, max_iters=ratio_iters, tol=0.0),
                pairs))))

    ramped = dataclasses.replace(params, alpha_schedule=ramp_schedule(0.2, 0.0, 10))
    schedules = (("constant", params), ("ramped", ramped),
                 ("alpha 0", default_params(0.0)),
                 ("alpha2_zero", dataclasses.replace(params, init_mode="alpha2_zero")))
    for n, p in problems.items():
        for label, q in schedules:
            k = differing_row(p, q, iters)
            if k is not None:
                sys.exit("step_speed: public steps differ from run_iadmm at "
                         "k = %d (n = %d, %s schedules)" % (k, n, label))
    print("public steps = run_iadmm rows, byte for byte: yes")
    for n, p in problems.items():
        for label, q in (("constant", params), ("ramped", ramped)):
            k = differing_dr_row(p, q, iters)
            if k is not None:
                sys.exit("step_speed: public idr_step calls differ from run_idr "
                         "at k = %d (n = %d, %s schedules)" % (k, n, label))
    print("public idr_step calls = run_idr rows, byte for byte: yes")


if __name__ == "__main__":
    run(main)
