"""Record the benchmark of a checkout, and optionally of a baseline, in one JSON file.

    python tools/record_bench.py --seeds 10 --against ../baseline --out bench.json

For every workload of ``BENCHMARK.json`` and every seed it runs
``benchmarks/run.py`` for the declared ``run_seconds`` once with
``--trace 0`` (end-to-end metrics) and, for the first ``--trace-seeds``
seeds, once with ``--trace 1`` (per-layer metrics).  With ``--against DIR``
it runs the same commands from the checkout at DIR as well, alternating
which side runs first from one seed to the next, and records each pair.
The file holds, per workload, the median, quartiles and runs of each
end-to-end and each per-layer metric, the failed and attempted operation
counts, and for ``--against`` the pairs and how many of them the checkout
won, the traced pairs (``traced_pairs``) and how many of those it won on
each per-layer metric (``per_layer_wins``); plus ``wc -l src/inadmm/*.py``
and the Python, numpy and scipy versions.  ``--smoke`` runs the benchmark's tiny inputs,
which only checks that the recorder works.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=3,
                    help="run seeds 1..N of every workload")
    ap.add_argument("--trace-seeds", type=int, default=None,
                    help="traced runs for seeds 1..K only (default: all)")
    ap.add_argument("--against", default=None, metavar="DIR",
                    help="a baseline checkout to run in alternation")
    ap.add_argument("--smoke", action="store_true",
                    help="the benchmark's tiny inputs")
    ap.add_argument("--out", required=True, help="the JSON file to write")
    return ap.parse_args(argv)


def run_benchmark(checkout, workload, seed, seconds, trace, smoke):
    """The metrics and operation counts of one run of run.py in `checkout`."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("record_bench: %s failed in %s:\n%s"
                 % (" ".join(cmd), checkout, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
    }


def spread(values):
    """Median, quartiles and interquartile range of a list of numbers."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1, "runs": values}


def summarize(runs, traced):
    names = runs[0]["metrics"]
    out = {
        "end_to_end": {k: spread([r["metrics"][k] for r in runs]) for k in names},
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "correct": all(r["correct"] for r in runs),
    }
    if traced:
        out["per_layer"] = {k: spread([r["metrics"][k] for r in traced])
                            for k in traced[0]["metrics"]}
    return out


def wins(pairs, better):
    """How many pairs the checkout won, per metric; ties count for neither."""
    out = {}
    for name, direction in better.items():
        won = 0
        for p in pairs:
            a, b = p["change"][name], p["baseline"][name]
            won += (a < b) if direction == "lower" else (a > b)
        out[name] = "%d of %d" % (won, len(pairs))
    return out


def source_lines(checkout):
    src = os.path.join(checkout, "src", "inadmm")
    lines = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                lines[name] = sum(1 for _ in fh)
    lines["total"] = sum(lines.values())
    return lines


def environment():
    import platform

    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0))}


def record(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    seconds = 0 if args.smoke else declared["run_seconds"]
    trace_seeds = args.seeds if args.trace_seeds is None else args.trace_seeds
    better, layer_better = ({m["name"]: m["better"] for m in declared[kind]}
                            for kind in ("end_to_end", "per_layer"))
    sides = {"change": ROOT}
    if args.against:
        sides["baseline"] = os.path.abspath(args.against)

    report = {
        "command": declared["command"],
        "settings": {"seeds": list(range(1, args.seeds + 1)),
                     "trace_seeds": list(range(1, trace_seeds + 1)),
                     "seconds": seconds, "smoke": args.smoke,
                     "baseline": args.against and os.path.basename(
                         os.path.abspath(args.against))},
        "env": environment(),
        "src_lines": {side: source_lines(path) for side, path in sides.items()},
        "workloads": {},
    }
    for workload in (w["name"] for w in declared["workloads"]):
        runs = {side: [] for side in sides}
        traced = {side: [] for side in sides}
        pairs, traced_pairs = [], []
        for seed in range(1, args.seeds + 1):
            order = list(sides)
            if seed % 2 == 0:
                order.reverse()
            for side in order:
                runs[side].append(run_benchmark(sides[side], workload, seed,
                                                seconds, 0, args.smoke))
                print("%s seed %d %s: %s" % (workload, seed, side,
                                             runs[side][-1]["metrics"]),
                      file=sys.stderr, flush=True)
            if args.against:
                pairs.append({"seed": seed, "first": order[0],
                              **{side: runs[side][-1]["metrics"] for side in sides}})
            if seed <= trace_seeds:
                for side in order:
                    traced[side].append(run_benchmark(
                        sides[side], workload, seed, seconds, 1, args.smoke))
                if args.against:
                    traced_pairs.append({"seed": seed, "first": order[0], **{
                        side: traced[side][-1]["metrics"] for side in sides}})
        entry = summarize(runs["change"], traced["change"])
        if args.against:
            entry["baseline"] = summarize(runs["baseline"], traced["baseline"])
            entry["pairs"] = pairs
            entry["wins"] = wins(pairs, better)
            if traced_pairs:
                entry["traced_pairs"] = traced_pairs
                entry["per_layer_wins"] = wins(traced_pairs, layer_better)
        report["workloads"][workload] = entry
    return report


def main(argv=None):
    args = parse_args(argv)
    report = record(args)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
