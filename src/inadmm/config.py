"""Line-oriented problem-file format and its parser.

A config is a sequence of `key value...` lines with nested blocks:

    solver iadmm
    gamma 1.0
    alpha 0.2
    max_iters 20000
    tol 1e-10
    seed 0

    begin f
    kind quadratic
    Q 1 0 0 1
    q 0 0
    r 0
    end

    begin g
    kind l1
    dim 2
    tau 0.5
    end

    begin L
    kind identity
    dim 2
    end

Consensus problems use repeated `begin block ... end` sections instead of
f/g/L.  `#` starts a comment.  Unknown keys are rejected with the line
number.
"""

from dataclasses import dataclass

import numpy as np

from .admm import ProblemSpec
from .consensus import ConsensusProblem
from .functions import (
    IndicatorBox,
    IndicatorHyperplane,
    IndicatorPoint,
    L1Norm,
    L2Norm,
    Quadratic,
    Translated,
    Zero,
)
from .linalg import LinearMap
from .params import InertialParams, constant_params, delta_lower_bound

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_config_file"]

SOLVERS = (
    "iadmm",
    "classical_admm",
    "idr",
    "consensus_sum1",
    "consensus_sum2",
    "boyd_consensus",
)

COMPOSITE_SOLVERS = ("iadmm", "classical_admm", "idr")


class ConfigError(ValueError):
    """Malformed problem file; carries the offending line number if known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


@dataclass
class RunConfig:
    solver: str
    problem: object  # ProblemSpec or ConsensusProblem
    params: InertialParams
    max_iters: int = 100000
    tol: float = 1e-10
    output: str = None
    seed: int = 0
    lambda_value: float = None  # as requested, before feasibility clamping


def _tokenize(text):
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line.split()))
    return rows


def _floats(tokens, lineno, key):
    try:
        return [float(t) for t in tokens]
    except ValueError:
        raise ConfigError("malformed numeral in %r" % key, lineno)


def _parse_blocks(rows):
    """Split token rows into top-level pairs and named blocks."""
    top = []
    blocks = []
    i = 0
    while i < len(rows):
        lineno, toks = rows[i]
        if toks[0] == "begin":
            if len(toks) != 2:
                raise ConfigError("begin takes exactly one block name", lineno)
            name = toks[1]
            body = []
            i += 1
            while i < len(rows) and rows[i][1][0] != "end":
                body.append(rows[i])
                i += 1
            if i == len(rows):
                raise ConfigError("unterminated block %r" % name, lineno)
            blocks.append((lineno, name, body))
            i += 1
        elif toks[0] == "end":
            raise ConfigError("end without begin", lineno)
        else:
            top.append((lineno, toks))
            i += 1
    return top, blocks


def _block_fields(body, block_lineno):
    fields = {}
    for lineno, toks in body:
        key = toks[0]
        if key in fields:
            raise ConfigError("duplicate field %r" % key, lineno)
        fields[key] = (lineno, toks[1:])
    return fields


_FN_FIELDS = {
    "zero": {"dim"},
    "quadratic": {"Q", "q", "r"},
    "l1": {"dim", "tau"},
    "l2norm": {"dim", "tau"},
    "indicator_point": {"a"},
    "indicator_box": {"lo", "hi"},
    "indicator_hyperplane": {"a", "b"},
}


def _build_function(name, body, block_lineno):
    fields = _block_fields(body, block_lineno)
    if "kind" not in fields:
        raise ConfigError("block %r needs a kind" % name, block_lineno)
    kind_lineno, kind_toks = fields.pop("kind")
    if len(kind_toks) != 1:
        raise ConfigError("kind takes one value", kind_lineno)
    kind = kind_toks[0]
    if kind not in _FN_FIELDS:
        raise ConfigError("unknown function kind %r" % kind, kind_lineno)
    shift = None
    if "shift" in fields:
        lineno, toks = fields.pop("shift")
        shift = np.array(_floats(toks, lineno, "shift"))
    unknown = set(fields) - _FN_FIELDS[kind]
    if unknown:
        lineno = min(fields[k][0] for k in unknown)
        raise ConfigError(
            "unknown field %r for kind %r" % (sorted(unknown)[0], kind), lineno
        )

    def need(key):
        if key not in fields:
            raise ConfigError(
                "kind %r needs field %r" % (kind, key), block_lineno
            )
        lineno, toks = fields[key]
        return lineno, toks

    try:
        if kind == "zero":
            lineno, toks = need("dim")
            fn = Zero(int(toks[0]))
        elif kind == "quadratic":
            _, q_toks = need("q")
            q = np.array(_floats(q_toks, block_lineno, "q"))
            n = q.shape[0]
            lineno, Q_toks = need("Q")
            Qv = _floats(Q_toks, lineno, "Q")
            if len(Qv) != n * n:
                raise ConfigError("Q needs %d entries (row-major)" % (n * n), lineno)
            r = 0.0
            if "r" in fields:
                lineno, r_toks = fields["r"]
                r = _floats(r_toks, lineno, "r")[0]
            fn = Quadratic(np.array(Qv).reshape(n, n), q, r)
        elif kind in ("l1", "l2norm"):
            lineno, toks = need("dim")
            dim = int(toks[0])
            lineno, toks = need("tau")
            tau = _floats(toks, lineno, "tau")[0]
            fn = (L1Norm if kind == "l1" else L2Norm)(dim, tau)
        elif kind == "indicator_point":
            lineno, toks = need("a")
            fn = IndicatorPoint(np.array(_floats(toks, lineno, "a")))
        elif kind == "indicator_box":
            lineno, toks = need("lo")
            lo = np.array(_floats(toks, lineno, "lo"))
            lineno, toks = need("hi")
            hi = np.array(_floats(toks, lineno, "hi"))
            fn = IndicatorBox(lo, hi)
        else:  # indicator_hyperplane
            lineno, toks = need("a")
            a = np.array(_floats(toks, lineno, "a"))
            lineno, toks = need("b")
            b = _floats(toks, lineno, "b")[0]
            fn = IndicatorHyperplane(a, b)
    except ValueError as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(str(err), block_lineno)
    if shift is not None:
        fn = Translated(fn, shift)
    return fn


def _build_operator(body, block_lineno):
    fields = _block_fields(body, block_lineno)
    if "kind" not in fields:
        raise ConfigError("operator block needs a kind", block_lineno)
    _, kind_toks = fields.pop("kind")
    kind = kind_toks[0]
    try:
        if kind == "identity":
            lineno, toks = fields["dim"]
            return LinearMap.identity(int(toks[0]))
        if kind == "scaled_identity":
            lineno, toks = fields["dim"]
            n = int(toks[0])
            lineno, toks = fields["scale"]
            return LinearMap.scaled_identity(n, _floats(toks, lineno, "scale")[0])
        if kind == "dense":
            lineno, toks = fields["rows"]
            rows = int(toks[0])
            lineno, toks = fields["cols"]
            cols = int(toks[0])
            lineno, toks = fields["entries"]
            entries = _floats(toks, lineno, "entries")
            if len(entries) != rows * cols:
                raise ConfigError(
                    "entries needs %d values (row-major)" % (rows * cols), lineno
                )
            return LinearMap.dense(np.array(entries).reshape(rows, cols))
    except KeyError as err:
        raise ConfigError(
            "operator kind %r needs field %r" % (kind, err.args[0]), block_lineno
        )
    raise ConfigError("unknown operator kind %r" % kind, block_lineno)


_TOP_KEYS = {
    "solver", "gamma", "alpha", "sigma", "delta", "lambda",
    "init_mode", "max_iters", "tol", "seed", "output",
}


def parse_config(text):
    """Parse a problem file into a RunConfig; raise ConfigError on any defect."""
    top, blocks = _parse_blocks(_tokenize(text))

    settings = {}
    lines = {}
    for lineno, toks in top:
        key = toks[0]
        if key not in _TOP_KEYS:
            raise ConfigError("unknown key %r" % key, lineno)
        if key in settings:
            raise ConfigError("duplicate key %r" % key, lineno)
        settings[key] = toks[1:]
        lines[key] = lineno

    def scalar(key, default=None, cast=float):
        if key not in settings:
            return default
        toks = settings[key]
        if len(toks) != 1:
            raise ConfigError("%s takes one value" % key, lines[key])
        try:
            return cast(toks[0])
        except ValueError:
            raise ConfigError("malformed numeral in %r" % key, lines[key])

    solver = scalar("solver", cast=str)
    if solver is None:
        raise ConfigError("missing required key 'solver'")
    if solver not in SOLVERS:
        raise ConfigError("unknown solver %r" % solver, lines["solver"])

    gamma = scalar("gamma", 1.0)
    if gamma <= 0:
        raise ConfigError("gamma must be positive", lines["gamma"])
    alpha = scalar("alpha", 0.0)
    if not 0.0 <= alpha < 1.0:
        raise ConfigError("alpha must lie in [0,1)", lines.get("alpha"))
    sigma = scalar("sigma", 0.01)
    if sigma <= 0:
        raise ConfigError("sigma must be positive", lines["sigma"])

    lb = delta_lower_bound(alpha, sigma)
    delta = scalar("delta")
    if delta is not None and delta <= lb:
        raise ConfigError(
            "delta must exceed its lower bound %g" % lb, lines["delta"]
        )
    lam = scalar("lambda")
    init_mode = scalar("init_mode", "lambda1_alpha1_zero", cast=str)
    if init_mode not in ("alpha2_zero", "lambda1_alpha1_zero"):
        raise ConfigError("unknown init_mode %r" % init_mode, lines["init_mode"])

    params = constant_params(gamma, alpha, sigma, delta, lam, init_mode)
    lam_max = params.max_relaxation()
    if lam is not None and not 0.0 < lam <= lam_max:
        raise ConfigError(
            "lambda must lie in (0, %g]" % lam_max, lines["lambda"]
        )

    named = {}
    consensus_blocks = []
    for lineno, name, body in blocks:
        if name in ("f", "g"):
            if name in named:
                raise ConfigError("duplicate block %r" % name, lineno)
            named[name] = _build_function(name, body, lineno)
        elif name == "L":
            if name in named:
                raise ConfigError("duplicate block 'L'", lineno)
            named[name] = _build_operator(body, lineno)
        elif name == "block":
            consensus_blocks.append(_build_function("block", body, lineno))
        else:
            raise ConfigError("unknown block %r" % name, lineno)

    if solver in COMPOSITE_SOLVERS:
        if consensus_blocks:
            raise ConfigError(
                "solver %r takes f/g/L blocks, not consensus blocks" % solver
            )
        for need_block in ("f", "g", "L"):
            if need_block not in named:
                raise ConfigError("solver %r needs block %r" % (solver, need_block))
        try:
            problem = ProblemSpec(named["f"], named["g"], named["L"])
        except ValueError as err:
            raise ConfigError(str(err))
    else:
        if named:
            raise ConfigError(
                "solver %r takes consensus blocks, not f/g/L" % solver
            )
        if len(consensus_blocks) < 2:
            raise ConfigError("consensus solvers need at least two blocks")
        problem = ConsensusProblem(consensus_blocks)

    max_iters = scalar("max_iters", 100000, cast=int)
    if max_iters < 1:
        raise ConfigError("max_iters must be at least 1", lines["max_iters"])
    tol = scalar("tol", 1e-10)
    if not tol >= 0.0:
        raise ConfigError("tol must be a nonnegative number", lines["tol"])
    return RunConfig(
        solver=solver,
        problem=problem,
        params=params,
        max_iters=max_iters,
        tol=tol,
        output=settings.get("output", [None])[0],
        seed=scalar("seed", 0, cast=int),
        lambda_value=params.lambda_schedule.value,
    )


def parse_config_file(path):
    with open(path) as fh:
        return parse_config(fh.read())
