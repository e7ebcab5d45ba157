"""Batch front end: parse a problem file, solve, then write the CSV trace.

Exit codes: 0 converged, 3 iteration budget exhausted or non-finite
iterates, 2 input error.
"""

import argparse
import errno
import functools
import itertools
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .admm import (ProblemSpec, SubproblemError, classical_admm, run_iadmm,
                   run_iadmm_batch)
from .config import ConfigError, check_solver, parse_config_file
from .consensus import boyd_consensus, run_sum1, run_sum2
from .dr import ResolventOp, run_idr
from .duality import duality_report
from .params import InfeasibleParameters, constant_params, validate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3


@functools.cache
def build_parser():
    """The command line's parser, built once per process: ``parse_args``
    leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="inadmm",
        description="Inertial ADMM / Douglas-Rachford solver runner.",
    )
    parser.add_argument("config", help="problem file path")
    parser.add_argument("--output", help="trace CSV path (overrides config)")
    parser.add_argument("--max-iters", type=int, help="iteration budget override")
    parser.add_argument("--tol", type=float, help="stopping tolerance override")
    parser.add_argument("--solver", help="solver override")
    parser.add_argument(
        "--sweep",
        help="parameter grid, e.g. 'alpha=0,0.1,0.2;lambda=0.9,1.4'",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="run the inertial ADMM and its Douglas-Rachford twin and "
        "report the max per-iterate deviation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    return parser


def _run_solver(cfg, solver, params, max_iters, tol):
    problem = cfg.problem
    if solver == "iadmm":
        return run_iadmm(problem, params, max_iters=max_iters, tol=tol)
    if solver == "classical_admm":
        return classical_admm(problem, params.gamma,
                              lam=params.lambda_schedule.value,
                              max_iters=max_iters, tol=tol)
    if solver == "idr":
        A = ResolventOp.composed_conjugate(problem.f, problem.L)
        B = ResolventOp.conjugate_subdifferential(problem.g)
        zeros = np.zeros(problem.g.dim)
        return run_idr(A, B, params.gamma, params, zeros, zeros,
                       max_iters=max_iters, tol=tol)
    if solver == "consensus_sum1":
        return run_sum1(problem, params, max_iters=max_iters, tol=tol)
    if solver == "consensus_sum2":
        return run_sum2(problem, params, max_iters=max_iters, tol=tol)
    return boyd_consensus(problem, params.gamma, max_iters=max_iters, tol=tol)


def _summary(cfg, solver, trace, out):
    last = trace.rows[-1]
    print("solver: %s" % solver, file=out)
    print("iterations: %d" % trace.iterations, file=out)
    print("converged: %s" % ("yes" if trace.converged else "no"), file=out)
    print(
        "final residuals: feas=%.3g zbar=%.3g dw=%.3g"
        % (_nan0(last.feas_residual), _nan0(last.zbar_norm), _nan0(last.dw_norm)),
        file=out,
    )
    if math.isfinite(last.primal) or math.isfinite(last.dual):
        print(
            "objective: primal=%.12g dual=%.12g gap=%.3g"
            % (last.primal, last.dual, last.gap),
            file=out,
        )
    if isinstance(cfg.problem, ProblemSpec) and solver in ("iadmm", "classical_admm"):
        x = trace.final["x"]
        v = trace.final.get("v", trace.final["y"])
        print("diagnostics: %s" % duality_report(cfg.problem, x, v), file=out)
    report = validate(cfg.params)
    print("parameters: %s" % report, file=out)


def _nan0(v):
    return 0.0 if v is None or (isinstance(v, float) and np.isnan(v)) else v


def _report_nonfinite(*traces, where=""):
    """Report the first trace whose iterates became non-finite, if any."""
    for trace in traces:
        if trace.nonfinite:
            print("iterates became non-finite at iteration %d%s"
                  % (trace.iterations, where), file=sys.stderr)
            return True
    return False


def _run_compare(cfg, max_iters, tol, out):
    if not isinstance(cfg.problem, ProblemSpec):
        raise ConfigError("--compare needs a composite (f/g/L) problem")
    trace_admm = _run_solver(cfg, "iadmm", cfg.params, max_iters, tol)
    trace_dr = _run_solver(cfg, "idr", cfg.params, max_iters, tol)
    if _report_nonfinite(trace_admm, trace_dr):
        return EXIT_BUDGET
    n = min(len(trace_admm), len(trace_dr))
    worst = 0.0
    for key in ("y", "v", "w"):  # one stacked difference from the second row on
        a, d = ([row.vectors[key] for row in trace.rows[1:n]]
                for trace in (trace_admm, trace_dr))
        worst = max(worst, float(np.abs(np.subtract(a, d)).max(initial=0.0)))
    print("compared iterations: %d" % (n - 1), file=out)
    print("max deviation (y, v, w): %.3g" % worst, file=out)
    return EXIT_OK


def _parse_sweep(spec):
    grids = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError("sweep entries look like name=v1,v2,...")
        name, values = part.split("=", 1)
        name = name.strip()
        if name not in ("alpha", "lambda"):
            raise ConfigError("sweep supports only alpha and lambda")
        if name in grids:
            raise ConfigError("sweep names %r twice" % name)
        try:
            grids[name] = [float(v) for v in values.split(",") if v.strip()]
        except ValueError:
            raise ConfigError("malformed numeral in sweep %r" % name)
        if not grids[name]:
            raise ConfigError("sweep %r has no values" % name)
        if not all(map(math.isfinite, grids[name])):
            raise ConfigError("sweep %r must be finite" % name)
    if not grids:
        raise ConfigError("empty sweep specification")
    return grids


def _check_output(output, sweep):
    """Raise, before any solve, the OSError that writing the trace CSV
    ``output`` (in a sweep, the prefix of its CSVs' names) would raise."""
    try:
        if not sweep and os.path.isdir(output):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        tempfile.TemporaryFile(dir=os.path.dirname(output) or ".").close()
    except OSError as err:
        raise OSError(err.errno, err.strerror, output)


def _run_sweep(cfg, solver, sweep_spec, max_iters, tol, output, out):
    """Solve the feasible points (in one ``run_iadmm_batch`` for iadmm) and print
    one row per point in grid order, the header after the first solve.  A point
    takes the file's ``init_mode``, or without one the alpha rule below."""
    grids = _parse_sweep(sweep_spec)
    points = []
    for alpha in grids.get("alpha", [cfg.params.alpha]):
        for lam in grids.get("lambda", [None]):
            try:
                params = constant_params(
                    cfg.params.gamma, alpha, cfg.params.sigma, cfg.delta, lam,
                    cfg.init_mode or ("lambda1_alpha1_zero" if alpha else "alpha2_zero"))
            except InfeasibleParameters as err:
                params = err
            points.append((alpha, lam, params))
    feasible = [q for _, _, q in points if not isinstance(q, InfeasibleParameters)]
    if output:
        _check_csv_names(output, points)
    traces = iter(run_iadmm_batch(cfg.problem, feasible, max_iters, tol, bool(output))
                  if solver == "iadmm" else
                  (_run_solver(cfg, solver, q, max_iters, tol) for q in feasible))
    traces = itertools.chain([next(traces)] if feasible else [], traces)
    print("alpha lambda iterations converged final_dw", file=out)
    all_ok = len(feasible) == len(points)
    for alpha, lam, params in points:
        if isinstance(params, InfeasibleParameters):
            print("%g %s infeasible (%s)"
                  % (alpha, "-" if lam is None else "%g" % lam, params), file=out)
            continue
        trace, lam_eff = next(traces), params.lambda_schedule.value
        dw = trace.rows[-1].dw_norm  # a non-finite point shows the dw it recorded
        print("%g %g %d %s %.3g" % (alpha, lam_eff, trace.iterations, "yes" if
                                    trace.converged else "no",
                                    dw if trace.nonfinite else _nan0(dw)), file=out)
        _report_nonfinite(trace, where=" (alpha %g, lambda %g)" % (alpha, lam_eff))
        all_ok = all_ok and trace.converged
        if output:
            trace.write_csv(_csv_name(output, alpha, lam_eff))
    return EXIT_OK if all_ok else EXIT_BUDGET


def _csv_name(output, alpha, lam):
    return "%s.alpha%g_lambda%g.csv" % (output, alpha, lam)


def _check_csv_names(output, points):
    """Refuse, before any solve, two distinct feasible sweep points whose
    CSVs would have one name: their alpha and lambda agree to ``%g``."""
    named = {}
    for alpha, _, params in points:
        if isinstance(params, InfeasibleParameters):
            continue
        point = (alpha, params.lambda_schedule.value)
        name = _csv_name(output, *point)
        first = named.setdefault(name, point)
        if first != point:
            raise ConfigError("sweep points (alpha %r, lambda %r) and (alpha %r, "
                              "lambda %r) would share the CSV %s"
                              % (*first, *point, name))


def main(argv=None, out=None):
    """Run the command line ``argv`` (default ``sys.argv[1:]``), writing to
    ``out`` (default stdout); return the exit code."""
    stream = sys.stdout if out is None else out
    try:
        code = _main(argv, stream)
        stream.flush()
        return code
    except OSError as err:  # the trace CSV, or a closed stdout
        if isinstance(err, BrokenPipeError) and out is None:
            # stdout is flushed again at exit: point it at devnull, as the
            # signal module's documentation advises
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("cannot write output: %s" % err, file=sys.stderr)
        return EXIT_INPUT


def _main(argv, out):
    args = build_parser().parse_args(argv)
    if args.compare and (args.output is not None or args.sweep is not None):
        print("input error: --compare takes neither --output nor --sweep",
              file=sys.stderr)
        return EXIT_INPUT
    try:
        cfg = parse_config_file(args.config)
    except ConfigError as err:
        print("config error: %s" % err, file=sys.stderr)
        return EXIT_INPUT
    except OSError as err:
        print("cannot read config: %s" % err, file=sys.stderr)
        return EXIT_INPUT

    solver = args.solver or cfg.solver
    max_iters = args.max_iters if args.max_iters is not None else cfg.max_iters
    tol = args.tol if args.tol is not None else cfg.tol
    output = args.output or cfg.output

    try:
        if tol == math.inf:  # the file's rule: a tol that is not finite is refused
            raise ValueError("tol must be finite, got inf")
        if args.compare:
            return _run_compare(cfg, max_iters, tol, out)
        composite = isinstance(cfg.problem, ProblemSpec)
        check_solver(solver, composite, not composite)
        if output:
            _check_output(output, args.sweep)
        if args.sweep:
            return _run_sweep(cfg, solver, args.sweep, max_iters, tol, output, out)
        trace = _run_solver(cfg, solver, cfg.params, max_iters, tol)
        if output:
            trace.write_csv(output)
    except ValueError as err:
        print("input error: %s" % err, file=sys.stderr)
        return EXIT_INPUT
    except SubproblemError as err:
        print("solver error: %s" % err, file=sys.stderr)
        return EXIT_BUDGET

    if _report_nonfinite(trace):
        return EXIT_BUDGET
    _summary(cfg, solver, trace, out)
    if not trace.converged:
        print("budget exhausted after %d iterations" % trace.iterations, file=out)
        return EXIT_BUDGET
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
