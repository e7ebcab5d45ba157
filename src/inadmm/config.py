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

import math
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
from .params import InertialParams, InfeasibleParameters, constant_params

__all__ = ["ConfigError", "RunConfig", "check_solver", "parse_config",
           "parse_config_file"]

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


def check_solver(solver, fgl=False, blocks=False, line=None):
    """Raise ConfigError unless ``solver`` is known and takes what it is
    given: f/g/L blocks (``fgl``) for the composite solvers, consensus
    blocks (``blocks``) for the others.  ``line`` locates an unknown name."""
    if solver not in SOLVERS:
        raise ConfigError("unknown solver %r" % solver, line)
    if solver in COMPOSITE_SOLVERS and blocks:
        raise ConfigError("solver %r takes f/g/L blocks, not consensus blocks" % solver)
    if solver not in COMPOSITE_SOLVERS and fgl:
        raise ConfigError("solver %r takes consensus blocks, not f/g/L" % solver)


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
    delta: float = None  # as requested; None means the default


def _tokenize(text):
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line.split()))
    return rows


def _floats(tokens, lineno, key):
    try:
        values = [float(t) for t in tokens]
    except ValueError:
        raise ConfigError("malformed numeral in %r" % key, lineno)
    if not all(map(math.isfinite, values)):
        raise ConfigError("%s must be finite" % key, lineno)
    return values


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


class _Fields:
    """The fields of one block; every read checks presence, arity and numerals."""

    def __init__(self, body, block_lineno):
        self.lines = {}
        for lineno, toks in body:
            if toks[0] in self.lines:
                raise ConfigError("duplicate field %r" % toks[0], lineno)
            self.lines[toks[0]] = (lineno, toks[1:])
        self.block_lineno = block_lineno
        self.kind = None

    def pop_kind(self, kinds, family, owner):
        """Remove and return the block's kind, a key of ``kinds``, after
        checking that the other fields are among ``kinds[kind]``."""
        if "kind" not in self.lines:
            raise ConfigError("%s needs a kind" % owner, self.block_lineno)
        lineno, toks = self.lines.pop("kind")
        if len(toks) != 1:
            raise ConfigError("kind takes one value", lineno)
        kind = toks[0]
        if kind not in kinds:
            raise ConfigError("unknown %s kind %r" % (family, kind), lineno)
        unknown = set(self.lines) - kinds[kind]
        if unknown:
            key = min(unknown, key=lambda k: self.lines[k][0])
            raise ConfigError("unknown field %r for kind %r" % (key, kind),
                              self.lines[key][0])
        self.kind = kind
        return kind

    def tokens(self, key):
        if key not in self.lines:
            raise ConfigError("kind %r needs field %r" % (self.kind, key),
                              self.block_lineno)
        lineno, toks = self.lines[key]
        if not toks:
            raise ConfigError("field %r needs a value" % key, lineno)
        return lineno, toks

    def vector(self, key):
        lineno, toks = self.tokens(key)
        return np.array(_floats(toks, lineno, key))

    def scalar(self, key, cast=float):
        lineno, toks = self.tokens(key)
        if len(toks) != 1:
            raise ConfigError("%s takes one value" % key, lineno)
        if cast is float:
            return _floats(toks, lineno, key)[0]
        try:
            return cast(toks[0])
        except ValueError:
            raise ConfigError("malformed numeral in %r" % key, lineno)


_FN_FIELDS = {
    "zero": {"dim"},
    "quadratic": {"Q", "q", "r"},
    "l1": {"dim", "tau"},
    "l2norm": {"dim", "tau"},
    "indicator_point": {"a"},
    "indicator_box": {"lo", "hi"},
    "indicator_hyperplane": {"a", "b"},
}


_OP_FIELDS = {
    "identity": {"dim"},
    "scaled_identity": {"dim", "scale"},
    "dense": {"rows", "cols", "entries"},
}


def _build_function(name, body, block_lineno):
    fields = _Fields(body, block_lineno)
    kind = fields.pop_kind({k: v | {"shift"} for k, v in _FN_FIELDS.items()},
                           "function", "block %r" % name)
    try:
        if kind == "zero":
            fn = Zero(fields.scalar("dim", int))
        elif kind == "quadratic":
            q = fields.vector("q")
            n = q.shape[0]
            Qv = fields.vector("Q")
            if Qv.size != n * n:
                raise ConfigError("Q needs %d entries (row-major)" % (n * n),
                                  fields.lines["Q"][0])
            r = fields.scalar("r") if "r" in fields.lines else 0.0
            fn = Quadratic(Qv.reshape(n, n), q, r)
        elif kind in ("l1", "l2norm"):
            dim = fields.scalar("dim", int)
            fn = (L1Norm if kind == "l1" else L2Norm)(dim, fields.scalar("tau"))
        elif kind == "indicator_point":
            fn = IndicatorPoint(fields.vector("a"))
        elif kind == "indicator_box":
            fn = IndicatorBox(fields.vector("lo"), fields.vector("hi"))
        else:  # indicator_hyperplane
            fn = IndicatorHyperplane(fields.vector("a"), fields.scalar("b"))
        if "shift" in fields.lines:
            fn = Translated(fn, fields.vector("shift"))
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(str(err), block_lineno)
    return fn


def _build_operator(body, block_lineno):
    fields = _Fields(body, block_lineno)
    kind = fields.pop_kind(_OP_FIELDS, "operator", "operator block")
    try:
        if kind == "identity":
            return LinearMap.identity(fields.scalar("dim", int))
        if kind == "scaled_identity":
            return LinearMap.scaled_identity(fields.scalar("dim", int),
                                             fields.scalar("scale"))
        rows = fields.scalar("rows", int)
        cols = fields.scalar("cols", int)
        entries = fields.vector("entries")
        if rows < 1 or cols < 1:
            raise ConfigError("rows and cols must be at least 1", block_lineno)
        if entries.size != rows * cols:
            raise ConfigError("entries needs %d values (row-major)" % (rows * cols),
                              fields.lines["entries"][0])
        return LinearMap.dense(entries.reshape(rows, cols))
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(str(err), block_lineno)


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

    def number(key, default=None):
        value = scalar(key, default)
        if value is not None and not math.isfinite(value):
            raise ConfigError("%s must be finite" % key, lines[key])
        return value

    solver = scalar("solver", cast=str)
    if solver is None:
        raise ConfigError("missing required key 'solver'")
    check_solver(solver, line=lines["solver"])

    gamma = number("gamma", 1.0)
    alpha = number("alpha", 0.0)
    sigma = number("sigma", 0.01)
    delta = number("delta")
    lam = number("lambda")
    init_mode = scalar("init_mode", "lambda1_alpha1_zero", cast=str)
    if init_mode not in ("alpha2_zero", "lambda1_alpha1_zero"):
        raise ConfigError("unknown init_mode %r" % init_mode, lines["init_mode"])
    try:
        params = constant_params(gamma, alpha, sigma, delta, lam, init_mode)
    except InfeasibleParameters as err:
        # an input the file left out is blamed on the nearest one it gave
        at = next((lines[k] for k in (err.key, "delta", "sigma", "alpha")
                   if k in lines), None)
        raise ConfigError(str(err), at)

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

    check_solver(solver, bool(named), bool(consensus_blocks))
    if solver in COMPOSITE_SOLVERS:
        for need_block in ("f", "g", "L"):
            if need_block not in named:
                raise ConfigError("solver %r needs block %r" % (solver, need_block))
        try:
            problem = ProblemSpec(named["f"], named["g"], named["L"])
        except ValueError as err:
            raise ConfigError(str(err))
    else:
        if len(consensus_blocks) < 2:
            raise ConfigError("consensus solvers need at least two blocks")
        try:
            problem = ConsensusProblem(consensus_blocks)
        except ValueError as err:
            raise ConfigError(str(err))

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
        output=scalar("output", cast=str),
        seed=scalar("seed", 0, cast=int),
        lambda_value=params.lambda_schedule.value,
        delta=delta,
    )


def parse_config_file(path):
    with open(path) as fh:
        return parse_config(fh.read())
