"""Spans around the program's public calls, recorded from outside the program.

``Tracer.install`` replaces the public functions and methods of each
``inadmm`` module with wrappers, in every namespace that binds them, and
``uninstall`` puts the originals back.  A wrapper records a span (name,
parent, start, end) in memory; self time is the span's duration minus the
durations of its child spans.  Counters sit at the same boundaries.
"""

import functools
import os
import time
from array import array
from collections import defaultdict

SPAN_CAP = 1_000_000  # spans kept for the dump; aggregates never stop


def _mode_of_argv(args, kwargs):
    argv = args[0] if args else kwargs["argv"]
    if "--sweep" in argv:
        return "cli.main.sweep"
    if "--compare" in argv:
        return "cli.main.compare"
    return "cli.main.run"


def _strategy_kind(args, kwargs):
    strat = args[4] if len(args) > 4 else kwargs["strat"]
    return "admm.x_update." + strat.kind


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.phase_starts = {}
        self._stack = []
        self._patches = []
        self.reset()

    # -- recording -------------------------------------------------------

    def reset(self):
        """Start a fresh set of aggregates (spans already kept stay)."""
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(float)

    def snapshot(self):
        """The aggregates as (calls, self_s, total_s, counts) plain dicts."""
        return (dict(self.calls), dict(self.self_s), dict(self.total_s),
                dict(self.counts))

    def mark_phase(self, label):
        self.phase_starts[label] = len(self.start)

    def _name_id(self, name):
        try:
            return self._name_ids[name]
        except KeyError:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            return self._name_ids[name]

    def call(self, name, fn, args, kwargs):
        stack = self._stack
        idx = len(self.start)
        if idx < SPAN_CAP:
            self.parent.append(stack[-1][0] if stack else -1)
            self.name.append(self._name_id(name))
            self.start.append(0.0)
            self.end.append(0.0)
        else:
            idx = -1
        frame = [idx, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            if idx >= 0:
                self.start[idx] = t0
                self.end[idx] = t1
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - frame[1]
            if stack:
                stack[-1][1] += dur

    def spans(self):
        return {
            "names": list(self.names),
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "phase_starts": dict(self.phase_starts),
        }

    # -- wrapping --------------------------------------------------------

    def _span_wrapper(self, fn, name, after=None):
        tracer = self
        namer = name if callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            result = tracer.call(label, fn, args, kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch_function(self, module, attr, wrapper_of, namespaces):
        original = getattr(module, attr)
        wrapper = wrapper_of(original)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, key, original))
                    setattr(ns, key, wrapper)

    def _patch_method(self, cls, attr, wrapper_of):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper_of(original))

    def install(self, extra_namespaces=()):
        """Wrap the program's public calls in every namespace binding them."""
        import inadmm
        from inadmm import admm, cli, config, consensus, dr, duality
        from inadmm import functions, linalg, params, trace

        namespaces = [inadmm, admm, cli, config, consensus, dr, duality,
                      functions, linalg, params, trace, *extra_namespaces]
        span = lambda name, after=None: (
            lambda fn: self._span_wrapper(fn, name, after))
        count = lambda name: (lambda fn: self._count_wrapper(fn, name))

        def run_iters(key):
            def after(tracer, args, kwargs, result):
                tracer.counts[key] += result.iterations
            return after

        fn_targets = [
            (admm, "run_iadmm", span("admm.run_iadmm", run_iters("admm.iters"))),
            (admm, "step", span("admm.step")),
            (admm, "x_update", span(_strategy_kind)),
            (dr, "run_idr", span("dr.run_idr")),
            (dr, "idr_step", span("dr.idr_step")),
            (consensus, "run_sum1",
             span("consensus.run_sum1", run_iters("consensus.iters"))),
            (consensus, "run_sum2",
             span("consensus.run_sum2", run_iters("consensus.iters"))),
            (consensus, "sum1_step", span("consensus.sum1_step")),
            (consensus, "sum2_step", span("consensus.sum2_step")),
            (linalg, "check_vector", count("linalg.check_vector")),
            (params, "validate", span("params.validate")),
            (duality, "duality_report", span("duality.report")),
            (config, "parse_config", span("config.parse", _parse_bytes)),
            (cli, "main", span(_mode_of_argv)),
        ]
        for module, attr, wrapper_of in fn_targets:
            self._patch_function(module, attr, wrapper_of, namespaces)

        for cls in vars(functions).values():
            if isinstance(cls, type) and issubclass(cls, functions.ConvexFn):
                for attr, name in (("__call__", "functions.value"),
                                   ("prox", "functions.prox"),
                                   ("conj", "functions.conj")):
                    if attr in cls.__dict__:
                        self._patch_method(cls, attr, span(name))
        method_targets = [
            (functions.Quadratic, "__init__", span("functions.quadratic_init")),
            (linalg.LinearMap, "apply", span("linalg.apply")),
            (linalg.LinearMap, "adjoint_apply", span("linalg.adjoint_apply")),
            (linalg.LinearMap, "norm", span("linalg.norm")),
            (linalg.LinearMap, "injectivity_modulus", span("linalg.injectivity")),
            (dr.ResolventOp, "resolvent", span("dr.resolvent")),
            (trace.TraceRow, "__init__", span("trace.row")),
            (trace.SolveTrace, "append", span("trace.append", _vector_bytes)),
            (trace.SolveTrace, "write_csv", span("trace.write_csv", _csv_bytes)),
        ]
        for cls, attr, wrapper_of in method_targets:
            self._patch_method(cls, attr, wrapper_of)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def _vector_bytes(tracer, args, kwargs, result):
    trace, row = args[0], args[1]
    nbytes = sum(v.nbytes for v in row.vectors.values() if v is not None)
    held = trace.__dict__.get("_held_vector_bytes", 0) + nbytes
    trace.__dict__["_held_vector_bytes"] = held
    tracer.counts["trace.vector_bytes_max"] = max(
        tracer.counts["trace.vector_bytes_max"], held)


def _csv_bytes(tracer, args, kwargs, result):
    tracer.counts["trace.csv_bytes"] += os.path.getsize(args[1])


def _parse_bytes(tracer, args, kwargs, result):
    tracer.counts["config.parse_bytes"] += len(args[0])


def layer_metrics(setup, passes, n_passes):
    """Per-layer metrics for one set-up plus one average pass.

    ``setup`` and ``passes`` are (calls, self_s, total_s, counts) tuples of
    aggregates; pass aggregates are divided by ``n_passes``.  ``*_calls``
    are counts, ``*_us`` mean self microseconds per call, ``*_s`` self
    seconds, and ``cli.main_s.*`` inclusive seconds per invocation.
    """

    def get(field, name):
        return setup[field].get(name, 0.0) + passes[field].get(name, 0.0) / n_passes

    calls = lambda name: get(0, name)
    self_s = lambda name: get(1, name)
    total_s = lambda name: get(2, name)
    count = lambda name: get(3, name)

    def per(num, den, scale=1e6):
        return scale * num / den if den else 0.0

    def mean_self_us(*names):
        return per(sum(self_s(n) for n in names), sum(calls(n) for n in names))

    out = {
        "admm.step_us": mean_self_us("admm.step"),
        "admm.x_update_us.prox_identity": mean_self_us("admm.x_update.prox_identity"),
        "admm.x_update_us.quadratic_solve": mean_self_us("admm.x_update.quadratic_solve"),
        "admm.x_update_us.inner_iterative": mean_self_us("admm.x_update.inner_iterative"),
        "admm.run_self_us": per(self_s("admm.run_iadmm"), count("admm.iters")),
        "dr.idr_step_us": mean_self_us("dr.idr_step"),
        "dr.resolvent_calls": calls("dr.resolvent"),
        "consensus.sum1_step_us": mean_self_us("consensus.sum1_step"),
        "consensus.sum2_step_us": mean_self_us("consensus.sum2_step"),
        "consensus.run_self_us": per(
            self_s("consensus.run_sum1") + self_s("consensus.run_sum2"),
            count("consensus.iters")),
        "functions.prox_calls": calls("functions.prox"),
        "functions.prox_us": mean_self_us("functions.prox"),
        "functions.conj_calls": calls("functions.conj"),
        "functions.conj_us": mean_self_us("functions.conj"),
        "functions.value_calls": calls("functions.value"),
        "functions.value_us": mean_self_us("functions.value"),
        "functions.quadratic_init_s": self_s("functions.quadratic_init"),
        "linalg.apply_calls": calls("linalg.apply"),
        "linalg.apply_us": mean_self_us("linalg.apply"),
        "linalg.adjoint_apply_calls": calls("linalg.adjoint_apply"),
        "linalg.norm_calls": calls("linalg.norm"),
        "linalg.norm_s": self_s("linalg.norm"),
        "linalg.injectivity_s": self_s("linalg.injectivity"),
        "linalg.check_vector_calls": count("linalg.check_vector"),
        "params.validate_calls": calls("params.validate"),
        "params.validate_s": self_s("params.validate"),
        "duality.report_s": self_s("duality.report"),
        "trace.rows": calls("trace.append"),
        "trace.append_us": per(self_s("trace.append") + self_s("trace.row"),
                               calls("trace.append")),
        "trace.vector_mb": max(setup[3].get("trace.vector_bytes_max", 0.0),
                               passes[3].get("trace.vector_bytes_max", 0.0)) / 1e6,
        "trace.write_csv_s": self_s("trace.write_csv"),
        "trace.csv_mb": count("trace.csv_bytes") / 1e6,
        "config.parse_s": self_s("config.parse"),
        "config.parse_mb": count("config.parse_bytes") / 1e6,
    }
    for mode in ("run", "sweep", "compare"):
        name = "cli.main." + mode
        out["cli.main_s." + mode] = per(total_s(name), calls(name), 1.0)
    return out


def layer_unit(name):
    """The unit of a per-layer metric, read from its name."""
    if name == "tracing.overhead_x":
        return "x"
    if name == "trace.vector_mb":
        return "MB_computed"
    if name.endswith("_calls") or name == "trace.rows":
        return "count"
    if name == "floor.us_per_iter" or "_us" in name:
        return "us"
    if name.endswith("_mb"):
        return "MB"
    return "s"
