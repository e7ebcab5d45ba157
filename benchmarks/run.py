"""Benchmark command: one workload, one seed, one run.

    python3 benchmarks/run.py --workload lasso_small --seed 1 --seconds 22 --trace 0

Runs from the root of a checkout and imports the program from its ``src/``.
With ``--trace 0`` it reports the end-to-end metrics (solve_xfloor, iters,
setup_s, peak_rss_mb); with ``--trace 1`` it wraps the program's public
calls and reports the per-layer metrics instead.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md for the workloads and what each metric means.
"""

import os

# One BLAS thread, set before numpy is first imported, here and in the
# set-up probes that inherit this environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("lasso_small", "dense_large", "consensus_median", "cli_batch")
SETUP_PROBES = (3, 11)  # at least 3, at most 11 fresh interpreters ...
SETUP_PROBE_BUDGET_S = 3.0  # ... and probes continue until this much time
MIN_SAMPLES = 3
PROBE_TIMEOUT_S = 60
# Time of the set-up floor in a fast phase of the machine that defined the
# benchmark (see README.md): setup_s is set-up seconds at that speed.
SETUP_FLOOR_S = 0.125

END_TO_END_UNITS = {
    "solve_xfloor": "x",
    "iters": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the measured part of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--out-dir", default=os.path.join(HERE, "out"),
                    help="where config files, CSVs and span dumps go")
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def add_program_path():
    """Put the checkout's ``src/`` first on the path, or stop the run."""
    if not os.path.isfile(os.path.join(SRC, "inadmm", "__init__.py")):
        sys.exit("benchmark: program sources not found at %s" % SRC)
    sys.path.insert(0, SRC)


def check_program_origin(inadmm):
    if not os.path.abspath(inadmm.__file__).startswith(SRC + os.sep):
        sys.exit("benchmark: imported inadmm from %s, not from %s"
                 % (inadmm.__file__, SRC))


def workdir(args, suffix=""):
    return os.path.join(args.out_dir, args.workload + suffix)


# ------------------------------------------------------------------ set-up


def probe_setup(args):
    """In a fresh interpreter: import, build, first use; print the seconds.

    numpy is imported first, since it is not the program's.  The set-up
    floor of ``reference.py`` runs once before and once after the set-up,
    and the probe prints both times.
    """
    add_program_path()
    import reference  # imports numpy

    floor = reference.SetupFloor()
    t0 = time.perf_counter()
    floor.run()
    floor_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    import inadmm
    if args.workload == "cli_batch":
        import inadmm.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    check_program_origin(inadmm)

    import workloads

    units = workloads.make_units(args.workload, args.seed, args.smoke,
                                 workdir(args, "-probe"))
    t0 = time.perf_counter()
    build(units)
    setup_s = import_s + time.perf_counter() - t0

    t0 = time.perf_counter()
    floor.run()
    floor_s += time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "floor_s": floor_s}))


def build(units):
    for unit in units:
        unit.build()
    for unit in units:
        unit.first_use()


def measure_setup(args):
    """(set-up seconds, set-up floor seconds) of fresh interpreters, one
    sample per interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--out-dir", args.out_dir]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    t0 = time.perf_counter()
    while len(samples) < SETUP_PROBES[0] or (
            len(samples) < SETUP_PROBES[1]
            and time.perf_counter() - t0 < SETUP_PROBE_BUDGET_S):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit("benchmark: set-up probe failed:\n" + proc.stderr)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((probe["setup_s"], probe["floor_s"]))
    return samples


# ------------------------------------------------------------------ passes


def run_pass(units):
    """One pass over the units, each operation timed between floor shares.

    A unit with k operations runs its floor in k + 1 equal shares: one
    before each operation and one after the last.  Returns (solve seconds,
    floor seconds, [(outputs, error) per unit]).
    """
    gc.collect()
    solve_s = floor_s = 0.0
    outs = []
    for unit in units:
        ops = unit.operations()
        out, err = [], None
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            unit.floor(i, len(ops) + 1)
            t1 = time.perf_counter()
            try:
                out.append(op())
            except Exception as exc:  # a failed operation, counted below
                err = err or "%s: %s" % (type(exc).__name__, exc)
                out.append(None)
            t2 = time.perf_counter()
            floor_s += t1 - t0
            solve_s += t2 - t1
        t0 = time.perf_counter()
        unit.floor(len(ops), len(ops) + 1)
        floor_s += time.perf_counter() - t0
        outs.append((tuple(out), err))
    return solve_s, floor_s, outs


def untimed_pass(units):
    """Every operation once, unchecked: a failure is counted by the passes."""
    outs = []
    for unit in units:
        for op in unit.operations():
            try:
                outs.append(op())
            except Exception:
                outs.append(None)
    return outs


def check_pass(units, outs):
    """Operation results of one pass.  When an operation of a unit raised,
    every operation of that unit counts as failed."""
    from workloads import OpResult

    results = []
    for unit, (out, err) in zip(units, outs):
        if err is not None:
            results += [OpResult(type(unit).__name__, error=err)
                        for _ in range(unit.ops)]
            continue
        try:
            results += unit.check(out)
        except Exception as exc:  # malformed output counts as wrong
            results += [OpResult(type(unit).__name__,
                                 wrong="check raised %s: %s"
                                 % (type(exc).__name__, exc))
                        for _ in range(unit.ops)]
    return results


def peak_rss_mb():
    """Peak resident memory of this process so far (ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def main(argv=None):
    args = parse_args(argv)
    if args.probe_setup:
        probe_setup(args)
        return 0

    add_program_path()
    setup_samples = [] if args.trace else measure_setup(args)

    import inadmm

    check_program_origin(inadmm)
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    units = workloads.make_units(args.workload, args.seed, args.smoke,
                                 workdir(args))
    if tracer:
        tracer.install([workloads])
        tracer.mark_phase("setup")
    t0 = time.perf_counter()
    build(units)
    inprocess_setup_s = time.perf_counter() - t0
    if tracer:
        tracer.uninstall()
        setup_agg = tracer.snapshot()
        tracer.reset()
        tracer.mark_phase("passes")
    rss_after = {"build": peak_rss_mb()}
    # One untimed pass of the operations before the benchmark allocates its
    # references and floors, so that peak_rss_mb is the program's peak.
    outs = untimed_pass(units)
    rss_after["first_pass"] = peak_rss_mb()
    outs = None
    for unit in units:
        unit.prepare()
    rss_after["prepare"] = peak_rss_mb()

    # first_use, the untimed pass and the floors' calibration in prepare()
    # have run every code path once, so every pass is a sample
    results = []
    passes = []  # (solve_s, floor_s, traced, iters)
    t_start = time.perf_counter()
    while True:
        traced = bool(tracer) and len(passes) % 2 == 1
        if traced:
            tracer.install([workloads])
        solve_s, floor_s, outs = run_pass(units)
        if traced:
            tracer.uninstall()
        checked = check_pass(units, outs)
        outs = None  # so that one pass's traces are never alive in the next
        results += checked
        passes.append((solve_s, floor_s, traced, sum(r.iters for r in checked)))
        untraced = sum(1 for p in passes if not p[2])
        if (time.perf_counter() - t_start >= args.seconds
                and untraced >= MIN_SAMPLES
                and (not tracer or len(passes) - untraced >= MIN_SAMPLES - 1)):
            break

    rss_after["passes"] = peak_rss_mb()
    plain = [p for p in passes if not p[2]]
    floor_iters = sum(u.floor_iters for u in units)
    floor_us = statistics.median(p[1] for p in passes) / floor_iters * 1e6
    if tracer:
        traced_passes = [p for p in passes if p[2]]
        metrics = tracing.layer_metrics(setup_agg, tracer.snapshot(),
                                        len(traced_passes))
        metrics["floor.us_per_iter"] = floor_us
        metrics["tracing.overhead_x"] = (
            statistics.median(p[0] for p in traced_passes)
            / statistics.median(p[0] for p in plain))
        units_of = tracing.layer_unit
        dump = write_spans(tracer, args)
    else:
        metrics = {
            "solve_xfloor": statistics.median(p[0] / p[1] for p in plain),
            "iters": statistics.median_low(p[3] for p in plain),
            "setup_s": SETUP_FLOOR_S * statistics.median(
                s / f for s, f in setup_samples),
            "peak_rss_mb": rss_after["first_pass"],
        }
        units_of = END_TO_END_UNITS.get
        dump = None

    failed = [r for r in results if r.failed]
    for r in failed[:5]:
        print("failed %s: %s" % (r.name, r.error or r.wrong), file=sys.stderr)
    if len({p[3] for p in passes}) != 1:
        print("warning: iteration totals differ between passes: %s"
              % sorted({p[3] for p in passes}), file=sys.stderr)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "env": environment(),
        "program_version": inadmm.__version__,
        "passes": len(plain),
        "traced_passes": len(passes) - len(plain),
        "solve_pass_s_median": statistics.median(p[0] for p in plain),
        "floor_pass_s_median": statistics.median(p[1] for p in plain),
        "pass_ratios": [round(p[0] / p[1], 4) for p in plain],
        "floor_us_per_iter": floor_us,
        "setup_samples_s": [s for s, _ in setup_samples],
        "setup_floor_samples_s": [f for _, f in setup_samples],
        "inprocess_setup_s": inprocess_setup_s,
        "peak_rss_mb_after": rss_after,
        "span_dump": dump,
    }
    print("info " + json.dumps(info))
    for name, value in metrics.items():
        print("%-36s %14.6g %s" % (name, value, units_of(name)))
    print(json.dumps({
        "correct": not any(r.wrong for r in results),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


def write_spans(tracer, args):
    import numpy as np

    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "spans-%s-seed%d.npz"
                        % (args.workload, args.seed))
    spans = tracer.spans()
    np.savez_compressed(
        path,
        names=np.array(spans["names"]),
        parent=np.frombuffer(spans["parent"], dtype=np.int64),
        name=np.frombuffer(spans["name"], dtype=np.int64),
        start=np.frombuffer(spans["start"], dtype=np.float64),
        end=np.frombuffer(spans["end"], dtype=np.float64),
        phase_labels=np.array(list(spans["phase_starts"])),
        phase_starts=np.array(list(spans["phase_starts"].values()), dtype=np.int64),
    )
    return os.path.relpath(path)


if __name__ == "__main__":
    sys.exit(main())
