"""Re-measure the ROADMAP baseline table with this harness.

Microseconds per iteration of ``run_iadmm``, of ``step()`` alone and of the
plain-numpy floor, on a lasso (f quadratic, g = tau ||.||_1, L = I,
``default_params(alpha=0.2)``), 300 iterations at tol 0, one BLAS thread.
Each figure is the median of ``REPEATS`` timings.

    python3 benchmarks/baseline.py
"""

import statistics
import time

import run  # pins BLAS to one thread before numpy is imported

ITERS = 300
SIZES = (10, 200, 2000)
SEED = 0
REPEATS = 5


def median_time(fn, repeats):
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def measure(n, seed, repeats):
    import numpy as np
    from inadmm import L1Norm, LinearMap, ProblemSpec, Quadratic
    from inadmm import default_params, run_iadmm
    from inadmm.admm import IadmmState, XUpdateStrategy, step

    import reference

    rng = np.random.default_rng([seed, n])
    D = rng.standard_normal((2 * n, n))
    b = rng.standard_normal(2 * n)
    Q, q = D.T @ D, -D.T @ b
    tau = 0.2 * float(np.abs(q).max())
    p = ProblemSpec(Quadratic(Q, q), L1Norm(n, tau), LinearMap.identity(n))
    params = default_params(alpha=0.2)
    floor = reference.AdmmFloor(Q, q, tau, params.gamma)

    def steps():
        zeros = np.zeros(n)
        state = IadmmState(k=1, x=zeros, z=zeros, z_prev=zeros, zbar=zeros,
                           y=zeros, y_prev=zeros)
        strat = XUpdateStrategy.automatic(p)
        for k in range(1, ITERS + 1):
            state, _ = step(state, p, params, k, strat)

    run_iadmm(p, params, max_iters=2, tol=0.0)  # first factorization
    scale = 1e6 / ITERS
    return (
        scale * median_time(lambda: run_iadmm(p, params, max_iters=ITERS,
                                              tol=0.0), repeats),
        scale * median_time(steps, repeats),
        scale * median_time(lambda: floor.run(ITERS), repeats),
    )


def main():
    run.add_program_path()
    print("| n | `run_iadmm` us/iter | `step()` only us/iter | floor us/iter |")
    print("|---|---|---|---|")
    for n in SIZES:
        full, steps, floor = measure(n, SEED, REPEATS)
        print("| %d | %.1f | %.1f | %.1f |" % (n, full, steps, floor))


if __name__ == "__main__":
    main()
