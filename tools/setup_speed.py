"""Direct timings of the set-up phases of a dense quadratic problem.

    python tools/setup_speed.py [--smoke]

Builds the problem shape of the ``dense_large`` benchmark workload, a
quadratic f on R^1000 (Q = GG'/2 + G'G/2 + I/2 with G a seeded Gaussian
matrix scaled by 1/sqrt(n)) and a dense 1200 x 1000 L (seeded Gaussian,
scaled by 1/sqrt(m)), and times each set-up phase on fresh objects:

- ``Quadratic.__init__``: the copies, the symmetry test and the
  positive-semidefiniteness test;
- the rank test that ``ProblemSpec`` runs, ``LinearMap.is_injective()``,
  with the Gram matrix it computes;
- for comparison, the SVD that ``injectivity_modulus()`` and ``norm()``
  read;
- the first x-update factor, the Cholesky of Q + gamma L'L, on a map whose
  Gram matrix the rank test already computed;
- the first conjugate value, which computes the eigenbasis of Q.

First it times a whole CLI process: the median of ``PROCESSES`` fresh
``python -m inadmm.cli`` runs on a seeded lasso file (n = 10, f = 0.5
||Dx - b||^2, g = tau ||.||_1, L = I), next to the median of as many
``python -c "import numpy"`` processes, started in alternation; the
difference is the program's own share.  Then it times, in a fresh
interpreter with numpy already imported, ``import inadmm`` and the first
factor of a 2 x 2 quadratic, and reports whether that imported the
``scipy.linalg`` package: the program loads only scipy's compiled BLAS and
LAPACK wrappers.  The phases above run after that load.  Each phase reports
the best of ``REPEATS`` runs in milliseconds.  One BLAS thread.  ``--smoke``
uses n = 60, m = 80, one run and one process of each kind, which only
checks that the script works.  Runs from the root of a checkout and imports
the program from its ``src/``.
"""

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from inadmm import LinearMap, Quadratic
from stdout_guard import run

REPEATS = 3  # timed runs per phase; the best one is reported
PROCESSES = 7  # fresh processes of each kind in the whole-process phase

IMPORT_PHASE = """
import sys, time
import numpy as np
t0 = time.perf_counter()
import inadmm
inadmm.Quadratic(np.diag([2.0, 1.0]), [-1.0, 0.5])._solver(1.0)
print(1e3 * (time.perf_counter() - t0), "scipy.linalg" in sys.modules)
"""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--smoke", action="store_true",
                    help="n = 60, m = 80, one run")
    return ap.parse_args(argv)


def best_ms(make, phase, repeats):
    """Best time of ``phase(obj)`` over fresh objects ``make()``, in ms."""
    best = float("inf")
    for _ in range(repeats):
        obj = make()
        t0 = time.perf_counter()
        phase(obj)
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


def import_phase(repeats):
    """Best milliseconds of IMPORT_PHASE over fresh interpreters, and whether
    it imported scipy.linalg."""
    env = dict(os.environ, PYTHONPATH=SRC)
    runs = [subprocess.run([sys.executable, "-c", IMPORT_PHASE], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
            for _ in range(repeats)]
    return min(float(ms) for ms, _ in runs), runs[0][1] == "True"


def lasso_file(path, n=10):
    """A seeded lasso problem file for the CLI: f = 0.5 ||Dx - b||^2,
    g = tau ||.||_1, L = I on R^n."""
    rng = np.random.default_rng(0)
    D = rng.standard_normal((2 * n, n))
    b = rng.standard_normal(2 * n)
    numerals = lambda a: " ".join(repr(float(v)) for v in np.ravel(a))
    with open(path, "w") as fh:
        fh.write("\n".join([
            "solver iadmm", "alpha 0.2", "tol 1e-10", "",
            "begin f", "kind quadratic", "Q " + numerals(D.T @ D),
            "q " + numerals(-D.T @ b), "r %r" % (0.5 * float(b @ b)), "end", "",
            "begin g", "kind l1", "dim %d" % n,
            "tau %r" % (0.2 * float(np.abs(D.T @ b).max())), "end", "",
            "begin L", "kind identity", "dim %d" % n, "end", ""]))


def process_phase(processes):
    """Median milliseconds of a whole ``python -m inadmm.cli`` process on a
    small lasso file, and of a ``python -c "import numpy"`` process."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = {"cli": [], "numpy": []}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lasso.cfg")
        lasso_file(path)
        commands = {"cli": [sys.executable, "-m", "inadmm.cli", path],
                    "numpy": [sys.executable, "-c", "import numpy"]}
        for _ in range(processes):
            for kind, cmd in commands.items():
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
                times[kind].append(time.perf_counter() - t0)
                if proc.returncode != 0:
                    sys.exit("setup_speed: %s exited %d:\n%s"
                             % (" ".join(cmd), proc.returncode, proc.stderr))
    return {kind: 1e3 * statistics.median(t) for kind, t in times.items()}


def main(argv=None):
    args = parse_args(argv)
    n, m, repeats = (60, 80, 1) if args.smoke else (1000, 1200, REPEATS)
    rng = np.random.default_rng(0)
    G = rng.standard_normal((n, n)) / np.sqrt(n)
    Q = G @ G.T + 0.5 * np.eye(n)
    Q = 0.5 * (Q + Q.T)
    q = rng.standard_normal(n)
    Lm = rng.standard_normal((m, n)) / np.sqrt(m)
    u = rng.standard_normal(n)

    def tested_map():
        L = LinearMap.dense(Lm)
        if not L.is_injective():
            sys.exit("setup_speed: the generated L is not injective")
        return L

    phases = [
        ("Quadratic.__init__", lambda: None, lambda _: Quadratic(Q, q)),
        ("rank test (is_injective)", lambda: LinearMap.dense(Lm),
         lambda L: L.is_injective()),
        ("SVD (injectivity_modulus)", lambda: LinearMap.dense(Lm),
         lambda L: L.injectivity_modulus()),
        ("first x-update factor", lambda: (Quadratic(Q, q), tested_map()),
         lambda fL: fL[0]._solver(1.0, fL[1])),
        ("first conjugate (eigh)", lambda: Quadratic(Q, q),
         lambda f: f.conj(u)),
    ]
    processes = 1 if args.smoke else PROCESSES
    whole = process_phase(processes)
    print("whole process, median of %d: python -m inadmm.cli on a lasso file "
          "(n = 10) %.1f ms, python -c \"import numpy\" %.1f ms, difference "
          "%.1f ms" % (processes, whole["cli"], whole["numpy"],
                       whole["cli"] - whole["numpy"]))
    ms, imported = import_phase(repeats)
    print("import and first factor, fresh interpreter: %.1f ms, scipy.linalg "
          "imported: %s" % (ms, "yes" if imported else "no"))
    Quadratic(np.diag([2.0, 1.0]), [-1.0, 0.5])  # loads the wrappers
    print("set-up phases at n = %d, m = %d, best of %d, one BLAS thread"
          % (n, m, repeats))
    times = {}
    for name, make, phase in phases:
        times[name] = best_ms(make, phase, repeats)
        print("%-26s %9.2f ms" % (name, times[name]))
    print("SVD / rank test: %.1fx" % (times["SVD (injectivity_modulus)"]
                                      / times["rank test (is_injective)"]))


if __name__ == "__main__":
    run(main)
