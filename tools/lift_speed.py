"""Time per iteration of the consensus solvers and of ``run_iadmm`` on their lifts.

    python tools/lift_speed.py [--smoke]

``run_sum1`` and ``run_sum2`` run ``run_iadmm``'s own loop on two
product-space lifts of the consensus problem, ``cp.lifts``:
``lift_problem(cp)`` (f = sum_i f_i, g = the consensus indicator, L = I)
and f = 0, g = sum_i f_i, L = m stacked identities.  The script builds two
consensus problems on R^3 and times ``run_sum1``, ``run_sum2`` and
``run_iadmm`` on each lift with gamma = 5, alpha = 0.2 and 300 iterations
at tolerance 0, so every run takes the same number of steps.  ``median``
has 101 ``Translated(L1Norm)`` blocks (the shifts are seeded standard
normals).  ``mixed`` has 99 blocks of three kinds, 33 each of
``Translated(L2Norm)``, ``IndicatorBox`` (boxes around the origin) and
``Translated(L1Norm)``, in seeded order.  Each solver reports the best of
``REPEATS`` runs in microseconds per iteration, and its ratio to
``run_sum1``.  It exits non-zero if a consensus run and ``run_iadmm`` on
its lift differ at all in x, z or y on any row: they are the same loop, so
their iterates are equal bit for bit.  One BLAS thread.  ``--smoke`` runs
11 and 9 blocks on R^2 for 20 iterations, once, which checks that the
script works and that the runs agree.  Runs from the root of a checkout and
imports the program from its ``src/``.
"""

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from inadmm import (ConsensusProblem, IndicatorBox, L1Norm, L2Norm, Translated,
                    default_params, lift_problem, run_iadmm, run_sum1,
                    run_sum2)
from stdout_guard import run

REPEATS = 5  # timed runs per solver; the best one is reported


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--smoke", action="store_true",
                    help="11 blocks on R^2, 20 iterations, one run")
    return ap.parse_args(argv)


def best_us_per_iter(solve, iters, repeats):
    """The best time per iteration in microseconds, and the last trace."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        trace = solve()
        elapsed = time.perf_counter() - t0
        if trace.iterations != iters:
            sys.exit("lift_speed: a run stopped after %d of %d iterations"
                     % (trace.iterations, iters))
        best = min(best, elapsed)
    return 1e6 * best / iters, trace


def deviation(blockwise, lifted, lift):
    """Largest difference in x, z and y between a consensus run's rows and
    the rows of ``run_iadmm`` on its lift."""
    diff = 0.0
    for a, b in zip(blockwise.rows, lifted.rows):
        for name, flat in (("x", lift.L.apply(b.vectors["x_next"])),
                           ("z", b.vectors["z_next"]), ("y", b.vectors["y_next"])):
            diff = max(diff, float(np.abs(a.vectors[name].ravel() - flat).max()))
    return diff


def median_blocks(m, n, rng):
    return [Translated(L1Norm(n, 1.0), rng.standard_normal(n)) for _ in range(m)]


def mixed_blocks(m, n, rng):
    blocks = []
    for _ in range(m // 3):
        blocks += [
            Translated(L2Norm(n, rng.uniform(0.2, 2.0)), rng.standard_normal(n)),
            IndicatorBox(-rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)),
            Translated(L1Norm(n, rng.uniform(0.2, 2.0)), rng.standard_normal(n)),
        ]
    return [blocks[i] for i in rng.permutation(len(blocks))]


def main(argv=None):
    args = parse_args(argv)
    n, iters, repeats = (2, 20, 1) if args.smoke else (3, 300, REPEATS)
    params = default_params(0.2, gamma=5.0)
    for name, make, m in (("median", median_blocks, 11 if args.smoke else 101),
                          ("mixed", mixed_blocks, 9 if args.smoke else 99)):
        cp = ConsensusProblem(make(m, n, np.random.default_rng(0)))
        assert lift_problem(cp) is cp.lifts[0]
        solvers = [
            ("run_sum1", lambda: run_sum1(cp, params, max_iters=iters, tol=0.0)),
            ("run_sum2", lambda: run_sum2(cp, params, max_iters=iters, tol=0.0)),
            ("run_iadmm, lift 1",
             lambda: run_iadmm(cp.lifts[0], params, max_iters=iters, tol=0.0)),
            ("run_iadmm, lift 2",
             lambda: run_iadmm(cp.lifts[1], params, max_iters=iters, tol=0.0)),
        ]
        print("%s: %d blocks on R^%d, %d iterations, best of %d"
              % (name, m, n, iters, repeats))
        base, traces = None, []
        for solver, solve in solvers:
            us, trace = best_us_per_iter(solve, iters, repeats)
            base = us if base is None else base
            traces.append(trace)
            print("%-18s %9.1f us/iter  %5.2fx run_sum1" % (solver, us, us / base))
        for scheme, (blockwise, lifted) in enumerate(zip(traces, traces[2:])):
            dev = deviation(blockwise, lifted, cp.lifts[scheme])
            print("run_sum%d against its lift: %.2g" % (scheme + 1, dev))
            if not dev == 0.0:
                sys.exit("lift_speed: run_sum%d differs from run_iadmm on its "
                         "lift by %.3g" % (scheme + 1, dev))


if __name__ == "__main__":
    run(main)
