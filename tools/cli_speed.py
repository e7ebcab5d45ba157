"""Where a CLI run's time goes, phase by phase, with and without ``--output``.

    python tools/cli_speed.py [--smoke]

Writes problem files shaped like the benchmark's ``cli_batch`` files
(``speed.problem_file``: dense Q and L, an l1 g, alpha 0.2, tol 1e-9)
at n = 30, 40 and 50, with seeded G, and times on each, in milliseconds:

- ``parse``: ``parse_config_file``;
- ``solve``: ``run_iadmm`` with the file's parameters;
- ``write_csv``: the trace CSV of a fresh solve, into memory;
- ``summary``: the CLI's summary of that trace (its ``kkt`` probes
  included), and ``kkt``: ``kkt_residual`` alone;
- ``main`` and ``main --output``: the whole in-process CLI run, without and
  with a trace CSV, and their ratio, the cost of ``--output``.

Each figure is the best of ``REPEATS`` rounds.  The script exits 1 if the
bytes of ``write_csv`` differ from a CSV built from each row's own read of
its columns, one value at a time.  One BLAS thread.  ``--smoke`` runs n = 6
once, which only checks that the script works.  Runs from the root of a
checkout and imports the program from its ``src/``.
"""

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import io
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from inadmm import kkt_residual, run_iadmm
from inadmm.cli import _summary, main as cli_main
from inadmm.config import parse_config_file
from inadmm.trace import CSV_COLUMNS
from stdout_guard import run
from speed import problem_file

REPEATS = 7  # timed rounds per figure; the best one is reported


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--smoke", action="store_true", help="n = 6, one round")
    return ap.parse_args(argv)


def csv_of_row_reads(trace):
    """The trace's CSV from each row's own reads, one value at a time."""
    lines = [",".join(CSV_COLUMNS)]
    for row in trace.rows:
        lines.append(",".join([str(row.k)] + ["%.17g" % v for v in row.scalars()[1:]]))
    return "\n".join(lines) + "\n"


def timed(call):
    """(seconds, result) of one call."""
    t0 = time.perf_counter()
    result = call()
    return time.perf_counter() - t0, result


def measure(path, csv_path, repeats):
    """Best milliseconds of each phase on one file, and its iteration count."""
    best = {}

    def keep(name, seconds):
        best[name] = min(best.get(name, float("inf")), 1e3 * seconds)

    for _ in range(repeats):
        seconds, cfg = timed(lambda: parse_config_file(path))
        keep("parse", seconds)
        solve = lambda: run_iadmm(cfg.problem, cfg.params,  # noqa: E731
                                  max_iters=cfg.max_iters, tol=cfg.tol)
        seconds, trace = timed(solve)
        keep("solve", seconds)
        buf = io.StringIO()
        keep("write_csv", timed(lambda: trace.write_csv(buf))[0])
        if buf.getvalue() != csv_of_row_reads(solve()):
            sys.exit("cli_speed: write_csv's bytes differ from the rows' own "
                     "reads on %s" % os.path.basename(path))
        keep("summary", timed(lambda: _summary(cfg, "iadmm", trace,
                                               io.StringIO()))[0])
        x, v = trace.final["x"], trace.final["v"]
        keep("kkt", timed(lambda: kkt_residual(
            cfg.problem, x, v, np.random.default_rng(cfg.seed)))[0])
        for name, argv in (("main", []), ("main --output", ["--output", csv_path])):
            seconds, code = timed(lambda: cli_main([path] + argv, out=io.StringIO()))
            if code != 0:
                sys.exit("cli_speed: %s exited %d" % (name, code))
            keep(name, seconds)
    return best, trace.iterations


def main(argv=None):
    args = parse_args(argv)
    sizes, repeats = ((6,), 1) if args.smoke else ((30, 40, 50), REPEATS)
    rng = np.random.default_rng(2015)
    print("| n | iterations | parse | solve | write_csv | summary | kkt | main "
          "| main --output | --output cost |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    with tempfile.TemporaryDirectory() as tmp:
        for n in sizes:
            path = os.path.join(tmp, "problem%d.cfg" % n)
            with open(path, "w") as fh:
                fh.write(problem_file(n, rng))
            best, iters = measure(path, os.path.join(tmp, "trace.csv"), repeats)
            print("| %d | %d | %s | %.2fx |" % (
                n, iters, " | ".join("%.2f" % best[name] for name in (
                    "parse", "solve", "write_csv", "summary", "kkt", "main",
                    "main --output")),
                best["main --output"] / best["main"]))


if __name__ == "__main__":
    run(main)
