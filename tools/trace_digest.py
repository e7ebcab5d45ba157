"""SHA-256 digests of solver traces and CLI outputs, for byte-identity checks.

    python tools/trace_digest.py [--smoke]

Prints one ``family digest`` line per solver family and per CLI run.  Run it
from the root of two checkouts and compare the lines: equal digests mean
equal bytes.

A solver family hashes, for every run in it: the stop flags and iteration
count; each row's scalars (``TraceRow.scalars()``, read after the run, as
``float.hex``) and each of its vectors (name, shape, dtype and bytes); every
``trace.final`` entry; and the bytes of ``write_csv``.  The CSV is written
first, so the scalars hashed are the objective columns that ``write_csv``
read, in blocks where the program reads them so.  The families are
``run_iadmm`` with each x-update strategy at alpha 0 and 0.2 (and a
hyperplane g whose first dual reads -inf), ``classical_admm`` at lambda 1
and 1.5, ``run_idr``, ``run_sum1``, ``run_sum2``, ``run_iadmm`` on the
lifted consensus problem, and ``boyd_consensus``, on seeded problems
(seeds 1 to 3, 60 iterations at tolerance 0).  The ``scaled_identity_*``
families run ``run_iadmm``, with the strategy it picks itself, and its
``run_idr`` twin on L = 2I and L = -0.7I, for an l1 or a quadratic f, an
l1 or a translated l2norm g, at alpha 0 and 0.2, from a seeded nonzero
start.  The family
``mixed_consensus`` runs ``run_sum1``, ``run_sum2`` and the lifted
``run_iadmm`` on a problem with two blocks of every kind the consensus
solvers evaluate stacked, plain and translated, and a ``Quadratic``.  The
``consensus_init_*`` families run ``run_sum1`` and ``run_sum2`` at alpha 0
and 0.2 from a seeded nonzero start whose duals sum to zero across blocks.
The ``rank_deficient_*`` families run ``run_iadmm`` at alpha 0 and 0.2 and
``classical_admm`` at lambda 1.5, from a seeded nonzero start, on a
quadratic f of rank 9 on R^12 and a quadratic g of rank 10, with L = I or a
tall dense L: their conjugates take the range(Q) branch, and the first
row's dual reads -inf.

A CLI run hashes the exit code (or the name of an escaping exception),
stdout, stderr and the bytes of every CSV it wrote, with the temporary
directory's name replaced by a placeholder.  The runs cover a run with CSV,
a sweep with CSVs, a ``lambda`` sweep of a file that gives ``delta``, compare,
a run, a sweep and compare on a scaled identity with an l1 f, budget exhaustion, classical, idr, the three consensus solvers and an
``--output`` into a missing directory, in run and in sweep mode.  The
``cli_sweep_*`` runs cover the sweep's other paths: an L = I file, a budget
that one point converges within and two exhaust, a ``lambda`` grid whose last
point is infeasible, a file whose iterates overflow, the classical solver, and
(``cli_sweep_init_mode``) a file that gives ``init_mode alpha2_zero``.  The
``cli_error_*`` runs give the CLI a bad input each: the rejected inputs of
``tests/test_cli.py``, top-level keys that are duplicated, valueless or
unknown (also after a duplicate), ``tol inf``, ``--tol inf``, ``seed -1``,
``--compare`` on a problem whose iterates overflow, ``--compare`` with ``--output`` or
``--sweep``, a scale whose square overflows, an ``inner_iterative``
x-update on a map whose squared norm overflows, a scale s whose gamma s^2
overflows (iadmm on an l1 and a quadratic f, idr, and a sweep, iadmm and
classical), ``consensus_sum2`` on three blocks at a gamma whose 1/(3 gamma)
is 0, a sweep, iadmm and classical, with a zero budget or a NaN
tolerance, and (``cli_error_sweep_nonfinite``) a sweep value that is not
finite.  Warnings are silenced, since their
text names source lines.

``--smoke`` runs seed 1 for 10 iterations, which only checks that the script
works.  Imports the program from the ``src/`` of the checkout it sits in.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import sys
import tempfile
import warnings

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from inadmm import (ConsensusProblem, IndicatorBox, IndicatorHyperplane,
                    IndicatorPoint, L1Norm, L2Norm, LinearMap, ProblemSpec,
                    Quadratic, ResolventOp, Translated, XUpdateStrategy, Zero,
                    boyd_consensus, classical_admm, default_params,
                    run_iadmm, run_idr, run_sum1, run_sum2)
from inadmm.cli import main as cli_main
from stdout_guard import run

STRATEGIES = ("prox_identity", "quadratic_solve", "inner_iterative")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--smoke", action="store_true",
                    help="seed 1 only, 10 iterations")
    return ap.parse_args(argv)


def _scalar(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return float(value).hex()


def _array(h, name, value):
    h.update(name.encode() + b"\0")
    if value is None:
        h.update(b"None\0")
        return
    a = np.ascontiguousarray(value)
    h.update(("%s %s\0" % (a.dtype.str, a.shape)).encode())
    h.update(a.tobytes())


def hash_trace(h, trace):
    # the CSV first: its rows' objective columns are then write_csv's, read
    # in blocks, and the per-row reads below find them already read
    csv = io.StringIO()
    trace.write_csv(csv)
    h.update(("%s %s %d\0" % (trace.converged, trace.nonfinite,
                              trace.iterations)).encode())
    for row in trace.rows:
        h.update(" ".join(_scalar(v) for v in row.scalars()).encode() + b"\0")
        for name, value in row.vectors.items():
            _array(h, name, value)
    for name, value in trace.final.items():
        _array(h, "final." + name, value)
    h.update(csv.getvalue().encode())


def tall_full_rank(m, n, rng):
    while True:
        A = rng.standard_normal((m, n))
        if np.linalg.matrix_rank(A) == n:
            return A


def random_quadratic(n, rng):
    A = rng.standard_normal((n, n))
    return Quadratic(A.T @ A + 0.1 * np.eye(n), rng.standard_normal(n))


def composite_problem(kind, rng):
    n = 5
    if kind == "prox_identity":
        D = tall_full_rank(2 * n, n, rng)
        b = rng.standard_normal(2 * n)
        f = Quadratic(D.T @ D, -D.T @ b, 0.5 * float(b @ b))
        return ProblemSpec(f, L1Norm(n, 0.3), LinearMap.identity(n))
    m = n + 2
    L = LinearMap.dense(tall_full_rank(m, n, rng))
    if kind == "quadratic_solve":
        return ProblemSpec(random_quadratic(n, rng), L1Norm(m, 0.2), L)
    return ProblemSpec(L1Norm(n, 0.4),
                       Quadratic(np.eye(m), -rng.standard_normal(m)), L)


def scaled_identity_problem(f_kind, g_kind, scale, rng, n=5):
    f = L1Norm(n, 0.4) if f_kind == "l1" else random_quadratic(n, rng)
    g = (L1Norm(n, 0.3) if g_kind == "l1" else
         Translated(L2Norm(n, 0.5), rng.standard_normal(n)))
    return ProblemSpec(f, g, LinearMap.scaled_identity(n, scale))


def rank_deficient_problem(dense, rng, n=12):
    """A rank-9 quadratic f and a rank-10 quadratic g, both bounded below, on
    L = I or a tall dense L: their conjugates are +inf off range(Q), and sum
    at least 8 terms in range(Q), where numpy's pairwise sum unrolls."""
    D = rng.standard_normal((9, n))
    f = Quadratic(D.T @ D, D.T @ rng.standard_normal(9))
    m = n + 2 if dense else n
    E = rng.standard_normal((10, m))
    g = Quadratic(E.T @ E, E.T @ rng.standard_normal(10))
    L = (LinearMap.dense(tall_full_rank(m, n, rng)) if dense
         else LinearMap.identity(n))
    return ProblemSpec(f, g, L)


def consensus_problem(rng, n=3):
    p = rng.standard_normal(n)
    s = rng.standard_normal(n)
    width = rng.uniform(0.1, 1.0, n)
    return ConsensusProblem([
        Zero(n),
        L1Norm(n, rng.uniform(0.2, 2.0)),
        Translated(L1Norm(n, rng.uniform(0.2, 2.0)), s),
        Translated(L1Norm(n, rng.uniform(0.2, 2.0)), -s),
        IndicatorPoint(p),
        L2Norm(n, 0.7),
        IndicatorBox(p - width, p + width),
        Translated(IndicatorBox(p - s - width, p - s + width), s),
        Quadratic(np.eye(n) * 1.5, rng.standard_normal(n)),
    ])


def mixed_consensus_problem(rng, n=3):
    p = rng.standard_normal(n)
    blocks = [Quadratic(np.eye(n) * 1.5, rng.standard_normal(n))]
    for _ in range(2):
        s = rng.standard_normal(n)
        width = rng.uniform(0.1, 1.0, n)
        a = rng.standard_normal(n) + 0.1
        blocks += [
            Zero(n),
            L1Norm(n, rng.uniform(0.2, 2.0)),
            L2Norm(n, rng.uniform(0.2, 2.0)),
            IndicatorPoint(p),
            IndicatorBox(p - width, p + width),
            IndicatorHyperplane(a, float(a @ p)),
            Translated(Zero(n), s),
            Translated(L1Norm(n, rng.uniform(0.2, 2.0)), s),
            Translated(L2Norm(n, rng.uniform(0.2, 2.0)), s),
            Translated(IndicatorPoint(p - s), s),
            Translated(IndicatorBox(p - s - width, p - s + width), s),
            Translated(IndicatorHyperplane(a, float(a @ (p - s))), s),
        ]
    return ConsensusProblem([blocks[i] for i in rng.permutation(len(blocks))])


def solver_families(seeds, iters):
    """family name -> list of zero-argument callables returning a trace."""
    fam = {}
    for seed in seeds:
        for kind in STRATEGIES:
            for alpha in (0.0, 0.2):
                p = composite_problem(kind, np.random.default_rng(seed))
                fam.setdefault("iadmm_%s_alpha%g" % (kind, alpha), []).append(
                    lambda p=p, kind=kind, alpha=alpha: run_iadmm(
                        p, default_params(alpha, gamma=1.3),
                        strat=XUpdateStrategy(kind), max_iters=iters, tol=0.0))
            for lam in (1.0, 1.5):
                p = composite_problem(kind, np.random.default_rng(seed))
                fam.setdefault("classical_lam%g" % lam, []).append(
                    lambda p=p, lam=lam: classical_admm(
                        p, 0.8, lam=lam, max_iters=iters, tol=0.0))
        for kind in STRATEGIES[:2]:
            p = composite_problem(kind, np.random.default_rng(seed))
            zeros = np.zeros(p.g.dim)
            fam.setdefault("idr", []).append(
                lambda p=p, zeros=zeros: run_idr(
                    ResolventOp.composed_conjugate(p.f, p.L),
                    ResolventOp.conjugate_subdifferential(p.g), 1.3,
                    default_params(0.2, gamma=1.3), zeros, zeros,
                    max_iters=iters, tol=0.0))
        for f_kind, g_kind, alpha, scale in itertools.product(
                ("l1", "quadratic"), ("l1", "translated_l2norm"), (0.0, 0.2),
                (2.0, -0.7)):
            rng = np.random.default_rng(seed)
            p = scaled_identity_problem(f_kind, g_kind, scale, rng)
            params = default_params(alpha, gamma=1.3)
            y1, z1 = rng.standard_normal((2, p.g.dim))  # l1 + l1 moves too
            fam.setdefault("scaled_identity_%s_%s_alpha%g" % (
                f_kind, g_kind, alpha), []).extend([
                    lambda p=p, params=params, y1=y1, z1=z1: run_iadmm(
                        p, params, init=(y1, y1, z1, z1), max_iters=iters,
                        tol=0.0),
                    lambda p=p, params=params, w1=y1 + 1.3 * z1: run_idr(
                        ResolventOp.composed_conjugate(p.f, p.L),
                        ResolventOp.conjugate_subdifferential(p.g), 1.3,
                        params, w1, w1, max_iters=iters, tol=0.0)])
        rng = np.random.default_rng(seed)
        n = 4
        a = rng.standard_normal(n) + 0.1
        p = ProblemSpec(random_quadratic(n, rng), IndicatorHyperplane(a, 0.0),
                        LinearMap.identity(n))
        y1 = rng.standard_normal(n)
        zeros = np.zeros(n)
        fam.setdefault("iadmm_hyperplane", []).append(
            lambda p=p, y1=y1, zeros=zeros: run_iadmm(
                p, default_params(0.2, gamma=1.1), init=(y1, y1, zeros, zeros),
                max_iters=iters, tol=0.0))
        for L_kind in ("identity", "dense"):
            rng = np.random.default_rng(seed)
            p = rank_deficient_problem(L_kind == "dense", rng)
            y1, z1 = rng.standard_normal((2, p.g.dim))
            fam.setdefault("rank_deficient_%s" % L_kind, []).extend([
                *(lambda p=p, alpha=alpha, y1=y1, z1=z1: run_iadmm(
                    p, default_params(alpha, gamma=1.3), init=(y1, y1, z1, z1),
                    max_iters=iters, tol=0.0) for alpha in (0.0, 0.2)),
                lambda p=p, y1=y1, z1=z1: classical_admm(
                    p, 0.8, init=(y1, z1), lam=1.5, max_iters=iters, tol=0.0)])
        cp = consensus_problem(np.random.default_rng(seed))
        params = default_params(0.2, gamma=1.3)
        fam.setdefault("sum1", []).append(
            lambda cp=cp: run_sum1(cp, params, max_iters=iters, tol=0.0))
        fam.setdefault("sum2", []).append(
            lambda cp=cp: run_sum2(cp, params, max_iters=iters, tol=0.0))
        fam.setdefault("lifted_iadmm", []).append(
            lambda cp=cp: run_iadmm(cp.lifts[0], params,
                                    max_iters=iters, tol=0.0))
        fam.setdefault("boyd_consensus", []).append(
            lambda cp=cp: boyd_consensus(cp, 0.9, max_iters=iters, tol=0.0))
        for alpha in (0.0, 0.2):
            rng = np.random.default_rng(seed)
            cp = consensus_problem(rng)
            y0, y1, z0, z1 = rng.standard_normal((4, cp.m, cp.n))
            init = (y0 - y0.mean(axis=0), y1 - y1.mean(axis=0), z0, z1)
            params = default_params(alpha, gamma=1.3)
            fam.setdefault("consensus_init_alpha%g" % alpha, []).extend([
                lambda cp=cp, params=params, init=init, run=run: run(
                    cp, params, init=init, max_iters=iters, tol=0.0)
                for run in (run_sum1, run_sum2)])
    for seed in seeds:
        cp = mixed_consensus_problem(np.random.default_rng(seed))
        params = default_params(0.2, gamma=1.3)
        fam.setdefault("mixed_consensus", []).extend([
            lambda cp=cp: run_sum1(cp, params, max_iters=iters, tol=0.0),
            lambda cp=cp: run_sum2(cp, params, max_iters=iters, tol=0.0),
            lambda cp=cp: run_iadmm(cp.lifts[0], params,
                                    max_iters=iters, tol=0.0)])
    return fam


def _numerals(a):
    return " ".join(repr(float(v)) for v in np.ravel(a))


def composite_config(solver, rng, max_iters):
    n, m = 4, 6
    A = rng.standard_normal((n, n))
    Q = A.T @ A + 0.5 * np.eye(n)
    Lm = tall_full_rank(m, n, rng)
    return "\n".join([
        "solver %s" % solver, "gamma 1.2", "alpha 0.2", "tol 1e-9",
        "max_iters %d" % max_iters, "seed 0", "",
        "begin f", "kind quadratic", "Q " + _numerals(Q),
        "q " + _numerals(rng.standard_normal(n)), "end", "",
        "begin g", "kind l1", "dim %d" % m, "tau 0.3", "end", "",
        "begin L", "kind dense", "rows %d" % m, "cols %d" % n,
        "entries " + _numerals(Lm), "end", "",
    ])


def consensus_config(solver, rng):
    lines = ["solver %s" % solver, "gamma 1.0", "alpha 0.2", "tol 1e-9",
             "max_iters 3000", ""]
    for _ in range(3):
        lines += ["begin block", "kind l1", "dim 2", "tau 1",
                  "shift " + _numerals(rng.standard_normal(2)), "end", ""]
    return "\n".join(lines)


LASSO = """
solver iadmm
gamma 1.0
alpha 0.2
max_iters 50000
tol 1e-11
seed 0

begin f
kind quadratic
Q 2 0 0 1
q -1 0.5
r 0
end

begin g
kind l1
dim 2
tau 0.3
end

begin L
kind identity
dim 2
end
"""

CONSENSUS = """
solver consensus_sum1
gamma 1.0
alpha 0.2
tol 1e-11

begin block
kind quadratic
Q 1 0 0 1
q -1 0
end

begin block
kind quadratic
Q 2 0 0 2
q 0 -2
end
"""


SCALED = """
solver iadmm
gamma 1.1
alpha 0.2
max_iters 5000
tol 1e-10

begin f
kind l1
dim 3
tau 0.4
end

begin g
kind l2norm
dim 3
tau 0.5
shift 1 -2 0.5
end

begin L
kind scaled_identity
dim 3
scale -0.7
end
"""


def error_runs():
    """run name -> (config text, extra argv): inputs the CLI must refuse."""
    lasso = LASSO.replace
    runs = {
        "max_iters_0": (lasso("max_iters 50000", "max_iters 0"), []),
        "flag_max_iters_0": (LASSO, ["--max-iters", "0"]),
        "tol_nan": (lasso("tol 1e-11", "tol nan"), []),
        "flag_tol_inf": (LASSO, ["--tol", "inf"]),
        "consensus_solver_on_fgl": (LASSO, ["--solver", "consensus_sum1"]),
        "composite_solver_on_blocks": (CONSENSUS, ["--solver", "iadmm"]),
        "l1_dim_without_value": (lasso("kind l1\ndim 2", "kind l1\ndim"), []),
        "operator_kind_without_value": (lasso("kind identity", "kind"), []),
        "gamma_nan": (lasso("gamma 1.0", "gamma nan"), []),
        "gamma_inf": (lasso("gamma 1.0", "gamma inf"), []),
        "sigma_nan": (lasso("seed 0", "sigma nan"), []),
        "delta_nan": (lasso("seed 0", "delta nan"), []),
        "l1_tau_nan": (lasso("tau 0.3", "tau nan"), []),
        "l2norm_tau_nan": (lasso("kind l1", "kind l2norm").replace(
            "tau 0.3", "tau nan"), []),
        "shift_without_value": (lasso("tau 0.3", "tau 0.3\nshift"), []),
        "operator_dim_not_integer": (
            lasso("kind identity\ndim 2", "kind identity\ndim 1.5"), []),
        "blocks_of_mixed_dimension": (CONSENSUS.replace(
            "Q 2 0 0 2\nq 0 -2", "Q 2 0 0 0 2 0 0 0 2\nq 0 -2 0"), []),
        "delta_bound_overflows": (lasso("alpha 0.2", "alpha 0.9\nsigma 1e308"), []),
        "lambda_max_underflows": (lasso("alpha 0.2", "alpha 0.5\nsigma 1e308"), []),
        "lambda_max_overflows": (
            lasso("alpha 0.2", "alpha 0\ndelta 1e308\nlambda 5"), []),
        "duplicate_key": (lasso("alpha 0.2", "alpha 0.2\nalpha 0.1"), []),
        "valueless_key": (lasso("gamma 1.0", "gamma"), []),
        "unknown_key": (lasso("gamma 1.0", "gama 1.0"), []),
        "duplicate_then_unknown": (
            lasso("alpha 0.2", "alpha 0.2\nalpha 0.1\ngama 1.0"), []),
        "tol_inf": (lasso("tol 1e-11", "tol inf"), []),
        "seed_negative": (lasso("seed 0", "seed -1"), []),
        "compare_overflow": (lasso("q -1 0.5", "q 1e308 -1e308"), ["--compare"]),
        "compare_output": (LASSO, ["--compare", "--output", "c.csv"]),
        "compare_sweep": (LASSO, ["--compare", "--sweep", "alpha=0,0.1"]),
        "scale_overflow": (SCALED.replace("scale -0.7", "scale 1e200"), []),
        "scale_overflow_quadratic": (lasso(
            "kind identity", "kind scaled_identity\nscale 1e200"), []),
        "inner_iterative_overflow": (SCALED.replace(
            "kind scaled_identity\ndim 3\nscale -0.7",
            "kind dense\nrows 3\ncols 3\nentries 1e160 0 0 0 1 0 0 0 1"), []),
        **{"frame_step_overflow" + name: (text, argv) for name, text, argv in (
            ("", SCALED.replace("scale -0.7", "scale 1.3e154"), []),
            ("_quadratic", lasso("gamma 1.0", "gamma 1.1").replace(
                "kind identity", "kind scaled_identity\nscale 1.3e154"), []),
            ("_idr", SCALED.replace("scale -0.7", "scale 1.3e154"), ["--solver", "idr"]),
            ("_sweep", SCALED.replace("scale -0.7", "scale 1.3e154"),
             ["--sweep", "alpha=0,0.2"]),
            ("_sweep_classical", SCALED.replace("scale -0.7", "scale 1.3e154"),
             ["--sweep", "alpha=0,0.2", "--solver", "classical_admm"]))},
        "consensus_step_overflow": (consensus_config(
            "consensus_sum2", np.random.default_rng(0)).replace(
                "gamma 1.0", "gamma 1e308"), []),
        **{"sweep_%s%s" % (solver, name): (LASSO, ["--sweep", "alpha=0,0.2"]
                                           + flags + argv)
           for solver, flags in (("", []), ("classical_",
                                            ["--solver", "classical_admm"]))
           for name, argv in (("max_iters_0", ["--max-iters", "0"]),
                              ("tol_nan", ["--tol", "nan"]))},
        "sweep_nonfinite": (LASSO, ["--sweep", "alpha=0,nan"]),
    }
    return {"cli_error_" + name: run for name, run in runs.items()}


def cli_runs(tmp):
    """run name -> (config text, extra argv, output prefix or None)."""
    rng = np.random.default_rng(7)
    dense = composite_config("iadmm", rng, 5000)
    missing = os.path.join(tmp, "missing", "x")
    return {
        "cli_run_csv": (dense, [], "run.csv"),
        "cli_sweep": (dense, ["--sweep", "alpha=0,0.1,0.2"], "sweep"),
        "cli_sweep_delta": (dense.replace("alpha 0.2", "alpha 0.2\ndelta 0.625"),
                            ["--sweep", "lambda=0.9,1.2"], "sd"),
        "cli_compare": (dense, ["--compare"], None),
        "cli_scaled_identity": (SCALED, [], "si.csv"),
        "cli_scaled_identity_sweep": (SCALED, ["--sweep", "alpha=0,0.2"], "ss"),
        "cli_scaled_identity_compare": (SCALED, ["--compare"], None),
        "cli_budget": (dense, ["--max-iters", "5"], None),
        "cli_classical": (dense, ["--solver", "classical_admm"], "c.csv"),
        "cli_idr": (dense, ["--solver", "idr"], "idr.csv"),
        "cli_sum1": (consensus_config("consensus_sum1", rng), [], "s1.csv"),
        "cli_sum2": (consensus_config("consensus_sum2", rng), [], "s2.csv"),
        "cli_boyd": (consensus_config("boyd_consensus", rng), [], "b.csv"),
        "cli_sweep_identity": (LASSO, ["--sweep", "alpha=0,0.1,0.2"], "si"),
        "cli_sweep_budget": (dense, ["--sweep", "alpha=0,0.1,0.2",
                                     "--max-iters", "150"], "sb"),
        "cli_sweep_lambda_infeasible": (
            dense.replace("alpha 0.2", "alpha 0.2\ndelta 0.625"),
            ["--sweep", "lambda=0.5,1.0,1.95"], "sl"),
        "cli_sweep_overflow": (LASSO.replace("q -1 0.5", "q 1e308 -1e308"),
                               ["--sweep", "alpha=0,0.2"], None),
        "cli_sweep_classical": (dense, ["--solver", "classical_admm",
                                        "--sweep", "alpha=0,0.2"], "sc"),
        "cli_sweep_init_mode": (
            dense.replace("alpha 0.2", "alpha 0.2\ninit_mode alpha2_zero"),
            ["--sweep", "alpha=0,0.2"], "sim"),
        "cli_missing_output_run": (dense, ["--output", missing + ".csv"], None),
        "cli_missing_output_sweep": (
            dense, ["--sweep", "alpha=0,0.1", "--output", missing], None),
        **{name: (text, argv, None)
           for name, (text, argv) in error_runs().items()},
    }


def hash_cli(h, tmp, name, text, argv, output):
    run_dir = os.path.join(tmp, name)
    os.mkdir(run_dir)
    cfg = os.path.join(run_dir, "problem.cfg")
    with open(cfg, "w") as fh:
        fh.write(text)
    if output is not None:
        argv = argv + ["--output", os.path.join(run_dir, output)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = str(cli_main([cfg] + argv, out=out))
        except Exception as exc:  # a traceback at the command line
            code = type(exc).__name__
    h.update(code.encode() + b"\0")
    for stream in (out, err):
        h.update(stream.getvalue().replace(tmp, "<tmp>").encode() + b"\0")
    for fname in sorted(os.listdir(run_dir)):
        with open(os.path.join(run_dir, fname), "rb") as fh:
            h.update(fname.encode() + b"\0" + fh.read())


def main(argv=None):
    args = parse_args(argv)
    seeds, iters = ((1,), 10) if args.smoke else ((1, 2, 3), 60)
    for name, runs in solver_families(seeds, iters).items():
        h = hashlib.sha256()
        with np.errstate(all="ignore"):
            for run in runs:
                hash_trace(h, run())
        print("%-32s %s" % (name, h.hexdigest()))
    with tempfile.TemporaryDirectory() as tmp:
        for name, (text, extra, output) in cli_runs(tmp).items():
            h = hashlib.sha256()
            hash_cli(h, tmp, name, text, extra, output)
            print("%-32s %s" % (name, h.hexdigest()))


if __name__ == "__main__":
    run(main)
