"""Solve time of a ``--sweep``: its points one after another, and batched.

    python tools/sweep_speed.py [--smoke]

Builds problem files shaped like the benchmark's ``cli_batch`` files (dense
Q = G G'/n + I/2, dense L = I + 0.3 G'/sqrt(n), an l1 g with tau 0.3, gamma 1,
alpha 0.2, tol 1e-9) at n = 30, 50 and 200, with seeded G.  On each it
times, as the CLI solves them without ``--output``:

- ``one``: one ``run_iadmm`` with the file's parameters;
- ``serial``: ``run_iadmm`` for each point of a sweep, summed;
- ``batched``: ``run_iadmm_batch`` over the same points (``record=False``).

The sweeps are ``alpha=0,0.1,0.2`` (3 points) and
``alpha=0,0.1,0.2;lambda=0.3,0.4,0.5`` (9 points).  The five solves of a
file are timed in turn, ``REPEATS`` rounds, and each figure is the best of
its rounds, in milliseconds; the script also reports
batched/serial and batched/one (the target for 9 points is 2x one run), and
exits non-zero if a batched point's iteration count or stop flag differs
from its serial run's.  One BLAS thread.  ``--smoke`` runs n = 6 once,
which only checks that the script works.  Runs from the root of a checkout
and imports the program from its ``src/``.
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

from inadmm import run_iadmm
from inadmm.admm import run_iadmm_batch
from inadmm.config import parse_config
from inadmm.params import constant_params
from stdout_guard import run

REPEATS = 7  # timed runs per figure; the best one is reported
SWEEPS = (("3 points", (0.0, 0.1, 0.2), (None,)),
          ("9 points", (0.0, 0.1, 0.2), (0.3, 0.4, 0.5)))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--smoke", action="store_true", help="n = 6, one run")
    return ap.parse_args(argv)


def _numerals(a):
    return " ".join(repr(float(v)) for v in np.ravel(a))


def problem_file(n, rng):
    G = rng.standard_normal((n, n)) / np.sqrt(n)
    Q = G @ G.T + 0.5 * np.eye(n)
    Q = 0.5 * (Q + Q.T)
    Lm = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    return "\n".join([
        "solver iadmm", "gamma 1.0", "alpha 0.2", "tol 1e-9",
        "max_iters 20000", "",
        "begin f", "kind quadratic", "Q " + _numerals(Q),
        "q " + _numerals(rng.standard_normal(n)), "end", "",
        "begin g", "kind l1", "dim %d" % n, "tau 0.3", "end", "",
        "begin L", "kind dense", "rows %d" % n, "cols %d" % n,
        "entries " + _numerals(Lm), "end", "",
    ])


def sweep_points(cfg, alphas, lams):
    """The sweep's parameter sets, as the CLI builds them."""
    return [constant_params(cfg.params.gamma, a, cfg.params.sigma, cfg.delta,
                            lam, "lambda1_alpha1_zero" if a > 0.0 else "alpha2_zero")
            for a in alphas for lam in lams]


def best_ms(solves, repeats):
    """name -> (best milliseconds, last result) of each zero-argument
    callable in ``solves``, timed in turn in each of ``repeats`` rounds."""
    best = dict.fromkeys(solves, float("inf"))
    results = {}
    for _ in range(repeats):
        for name, solve in solves.items():
            t0 = time.perf_counter()
            results[name] = solve()
            best[name] = min(best[name], time.perf_counter() - t0)
    return {name: (1e3 * best[name], results[name]) for name in solves}


def main(argv=None):
    args = parse_args(argv)
    sizes, repeats = ((6,), 1) if args.smoke else ((30, 50, 200), REPEATS)
    rng = np.random.default_rng(2015)
    print("| n | sweep | one ms | serial ms | batched ms | batched/serial "
          "| batched/one | iterations |")
    print("|---|---|---|---|---|---|---|---|")
    for n in sizes:
        cfg = parse_config(problem_file(n, rng))
        p, tol, budget = cfg.problem, cfg.tol, cfg.max_iters
        solves = {"one": lambda: run_iadmm(p, cfg.params, max_iters=budget,
                                           tol=tol)}
        for name, alphas, lams in SWEEPS:
            points = sweep_points(cfg, alphas, lams)
            solves[name, "serial"] = lambda points=points: [
                run_iadmm(p, q, max_iters=budget, tol=tol) for q in points]
            solves[name, "batched"] = lambda points=points: run_iadmm_batch(
                p, points, budget, tol, record=False)
        timed = best_ms(solves, repeats)
        one = timed["one"][0]
        for name, _, _ in SWEEPS:
            (serial, serial_traces), (batched, batch_traces) = (
                timed[name, "serial"], timed[name, "batched"])
            flags = [[(t.iterations, t.converged, t.nonfinite) for t in traces]
                     for traces in (serial_traces, batch_traces)]
            if flags[0] != flags[1]:
                sys.exit("sweep_speed: batched stops %s differ from serial %s"
                         % (flags[1], flags[0]))
            print("| %d | %s | %.2f | %.2f | %.2f | %.2f | %.2f | %s |"
                  % (n, name, one, serial, batched, batched / serial,
                     batched / one, " ".join(str(f[0]) for f in flags[0])))


if __name__ == "__main__":
    run(main)
