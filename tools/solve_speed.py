"""Time of the linear solves behind a quadratic x-update.

    python tools/solve_speed.py [--smoke]

At n = 30, 200 and 1000 it builds, with seeded Gaussian G and L, the
matrix M = Q + L'L of a quadratic f with Q = GG'/n + I/2 and a dense
m x n L (m = 1.2n, scaled by 1/sqrt(m)), and times:

- ``dpotrs``: one vector solve by LAPACK potrs on M's potrf factor;
- ``trsv``: the same solve as the package does it, ``linalg.cholesky``'s
  two triangular solves (BLAS trsv);
- ``P = 1, 3, 9``: the package's solve of a (P, n) stack, row by row;
- ``x-update``: one ``quadratic_solve`` x-update of ``run_iadmm`` on
  f(x) + 0.05 ||Lx||_1 at gamma 1, with its factor already made.

Each figure is the best of ``REPEATS`` rounds of a fixed number of calls,
in microseconds per call.  One BLAS thread.  The script exits non-zero if
the package's solve of a vector, or of any row of a stack, differs in bytes
from two ``scipy.linalg.solve_triangular`` calls on
``scipy.linalg.cho_factor``'s factor.  ``--smoke`` runs n = 6 once, which
only checks that the script works.  Runs from the root of a checkout and
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
import scipy.linalg
from scipy.linalg import lapack

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from inadmm import IadmmState, L1Norm, LinearMap, ProblemSpec, Quadratic, XUpdateStrategy
from inadmm.admm import x_update
from inadmm.linalg import cholesky
from stdout_guard import run

REPEATS = 7  # timed rounds per figure; the best one is reported
ROWS = (1, 3, 9)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--smoke", action="store_true", help="n = 6, one run")
    return ap.parse_args(argv)


def best_us(call, number, repeats):
    """Best time per call of ``call()`` over ``repeats`` rounds of
    ``number`` calls, in microseconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            call()
        best = min(best, (time.perf_counter() - t0) / number)
    return 1e6 * best


def problem(n, rng):
    m = (6 * n) // 5
    G = rng.standard_normal((n, n))
    Q = G @ G.T / n + 0.5 * np.eye(n)
    f = Quadratic(0.5 * (Q + Q.T), rng.standard_normal(n))
    L = LinearMap.dense(rng.standard_normal((m, n)) / np.sqrt(m))
    return ProblemSpec(f, L1Norm(m, 0.05), L)


def same_bytes_as_scipy(solve, M, rng):
    """Whether the package's solve of a vector and of a stack is, row for
    row, two solve_triangular calls on cho_factor's factor."""
    U = scipy.linalg.cho_factor(M)[0]
    B = rng.standard_normal((max(ROWS), M.shape[0]))
    want = [scipy.linalg.solve_triangular(U, scipy.linalg.solve_triangular(
        U, b, trans="T")).tobytes() for b in B]
    return (solve(B[0]).tobytes() == want[0]
            and [row.tobytes() for row in solve(B)] == want)


def main(argv=None):
    args = parse_args(argv)
    sizes, repeats = ((6,), 1) if args.smoke else ((30, 200, 1000), REPEATS)
    rng = np.random.default_rng(2014)
    print("| n | dpotrs us | trsv us | %s | x-update us |"
          % " | ".join("P = %d us" % P for P in ROWS))
    print("|---|---|---|%s---|" % ("---|" * len(ROWS)))
    for n in sizes:
        number = 1 if args.smoke else max(5, 20000 // n)
        p = problem(n, rng)
        M = p.f.Q + p.L.gram()
        solve = cholesky(M)
        if not same_bytes_as_scipy(solve, M, rng):
            sys.exit("solve_speed: the solve at n = %d differs in bytes from "
                     "two solve_triangular calls" % n)
        factor = lapack.dpotrf(M, clean=False)[0]
        b = rng.standard_normal(n)
        timed = [best_us(lambda: lapack.dpotrs(factor, b), number, repeats),
                 best_us(lambda: solve(b), number, repeats)]
        for P in ROWS:
            B = rng.standard_normal((P, n))
            timed.append(best_us(lambda: solve(B), number, repeats))
        m = p.g.dim
        z, y = rng.standard_normal(m), rng.standard_normal(m)
        state = IadmmState(k=2, x=np.zeros(n), z=z, z_prev=0.9 * z,
                           zbar=np.zeros(m), y=y, y_prev=0.9 * y)
        strat = XUpdateStrategy("quadratic_solve")
        x_update(state, p, 1.0, 0.2, strat)  # makes the factor
        timed.append(best_us(lambda: x_update(state, p, 1.0, 0.2, strat),
                             number, repeats))
        print("| %d | %s |" % (n, " | ".join("%.1f" % t for t in timed)))


if __name__ == "__main__":
    run(main)
