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
from .linalg import LinearMap, Record
from .params import InfeasibleParameters, constant_params

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


class RunConfig(Record):
    """A parsed run: ``problem`` is a ProblemSpec or a ConsensusProblem, and
    ``delta`` is the delta as requested, None meaning the default."""

    _fields = ("solver", "problem", "params", "max_iters", "tol", "output", "seed", "delta")

    def __init__(self, solver, problem, params, max_iters=100000, tol=1e-10, output=None,
                 seed=0, delta=None):
        self.solver, self.problem, self.params = solver, problem, params
        self.max_iters, self.tol, self.output, self.seed, self.delta = (
            max_iters, tol, output, seed, delta)


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


_REQUIRED = object()


class _Fields:
    """The key lines of the top level or of one block, and their types (str,
    int, float or np.ndarray for a vector); every read checks presence,
    arity and numerals.  A block's types are known once its kind is."""

    def __init__(self, body, block_lineno=None, types=None):
        self.lines = {}
        for lineno, toks in body:
            if types is not None and toks[0] not in types:
                raise ConfigError("unknown key %r" % toks[0], lineno)
            if toks[0] in self.lines:
                raise ConfigError("duplicate field %r" % toks[0], lineno)
            self.lines[toks[0]] = (lineno, toks[1:])
        self.block_lineno = block_lineno
        self.types = types
        self.kind = None

    def pop_kind(self, table, family, owner, **extra):
        """Remove the block's kind, a key of ``table``, and return its entry
        after checking that the other fields are the kind's or ``extra``."""
        if "kind" not in self.lines:
            raise ConfigError("%s needs a kind" % owner, self.block_lineno)
        lineno, toks = self.lines.pop("kind")
        if len(toks) != 1:
            raise ConfigError("kind takes one value", lineno)
        kind = toks[0]
        if kind not in table:
            raise ConfigError("unknown %s kind %r" % (family, kind), lineno)
        self.types = {**table[kind][1], **extra}
        unknown = set(self.lines) - set(self.types)
        if unknown:
            key = min(unknown, key=lambda k: self.lines[k][0])
            raise ConfigError("unknown field %r for kind %r" % (key, kind),
                              self.lines[key][0])
        self.kind = kind
        return table[kind]

    def read(self, key, default=_REQUIRED):
        """The value of ``key``, or ``default`` when given and ``key`` is absent."""
        if key not in self.lines:
            if default is not _REQUIRED:
                return default
            raise ConfigError("kind %r needs field %r" % (self.kind, key),
                              self.block_lineno)
        lineno, toks = self.lines[key]
        cast = self.types[key]
        if not toks:
            raise ConfigError("field %r needs a value" % key, lineno)
        if cast is np.ndarray:
            return np.array(_floats(toks, lineno, key))
        if len(toks) != 1:
            raise ConfigError("%s takes one value" % key, lineno)
        if cast is float:
            return _floats(toks, lineno, key)[0]
        try:
            return cast(toks[0])
        except ValueError:
            raise ConfigError("malformed numeral in %r" % key, lineno)


def _in_order(make):
    """A builder that reads a kind's fields in order and passes them to ``make``."""
    return lambda fields, *keys: make(*map(fields.read, keys))


def _quadratic(fields, q, Q, r):
    # the square, row-major Q is checked before r is read
    qv, Qv = fields.read(q), fields.read(Q)
    n = qv.shape[0]
    if Qv.size != n * n:
        raise ConfigError("%s needs %d entries (row-major)" % (Q, n * n),
                          fields.lines[Q][0])
    return Quadratic(Qv.reshape(n, n), qv, fields.read(r, 0.0))


def _dense(fields, rows, cols, entries):
    m, n, values = map(fields.read, (rows, cols, entries))
    if m < 1 or n < 1:
        raise ConfigError("%s and %s must be at least 1" % (rows, cols),
                          fields.block_lineno)
    if values.size != m * n:
        raise ConfigError("%s needs %d values (row-major)" % (entries, m * n),
                          fields.lines[entries][0])
    return LinearMap.dense(values.reshape(m, n))


# kind -> (builder, its fields in reading order with their types); a
# function block may also carry a vector ``shift``
_FUNCTIONS = {
    "zero": (_in_order(Zero), {"dim": int}),
    "quadratic": (_quadratic, {"q": np.ndarray, "Q": np.ndarray, "r": float}),
    "l1": (_in_order(L1Norm), {"dim": int, "tau": float}),
    "l2norm": (_in_order(L2Norm), {"dim": int, "tau": float}),
    "indicator_point": (_in_order(IndicatorPoint), {"a": np.ndarray}),
    "indicator_box": (_in_order(IndicatorBox), {"lo": np.ndarray, "hi": np.ndarray}),
    "indicator_hyperplane": (_in_order(IndicatorHyperplane),
                             {"a": np.ndarray, "b": float}),
}

_OPERATORS = {
    "identity": (_in_order(LinearMap.identity), {"dim": int}),
    "scaled_identity": (_in_order(LinearMap.scaled_identity),
                        {"dim": int, "scale": float}),
    "dense": (_dense, {"rows": int, "cols": int, "entries": np.ndarray}),
}


def _build(name, body, block_lineno):
    """The function (f, g or a consensus block) or operator (L) of a block."""
    fields = _Fields(body, block_lineno)
    if name == "L":
        make, types = fields.pop_kind(_OPERATORS, "operator", "operator block")
    else:
        make, types = fields.pop_kind(_FUNCTIONS, "function", "block %r" % name,
                                      shift=np.ndarray)
    try:
        built = make(fields, *types)
        if "shift" in fields.lines:
            built = Translated(built, fields.read("shift"))
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(str(err), block_lineno)
    return built


_TOP_KEYS = {
    "solver": str, "gamma": float, "alpha": float, "sigma": float,
    "delta": float, "lambda": float, "init_mode": str, "max_iters": int,
    "tol": float, "seed": int, "output": str,
}


def parse_config(text):
    """Parse a problem file into a RunConfig; raise ConfigError on any defect."""
    top, blocks = _parse_blocks(_tokenize(text))
    top = _Fields(top, types=_TOP_KEYS)
    line = {key: lineno for key, (lineno, _) in top.lines.items()}

    if "solver" not in line:
        raise ConfigError("missing required key 'solver'")
    solver = top.read("solver")
    check_solver(solver, line=line["solver"])

    gamma = top.read("gamma", 1.0)
    alpha = top.read("alpha", 0.0)
    sigma = top.read("sigma", 0.01)
    delta = top.read("delta", None)
    lam = top.read("lambda", None)
    init_mode = top.read("init_mode", "lambda1_alpha1_zero")
    if init_mode not in ("alpha2_zero", "lambda1_alpha1_zero"):
        raise ConfigError("unknown init_mode %r" % init_mode, line["init_mode"])
    try:
        params = constant_params(gamma, alpha, sigma, delta, lam, init_mode)
    except InfeasibleParameters as err:
        # an input the file left out is blamed on the nearest one it gave
        at = next((line[k] for k in (err.key, "delta", "sigma", "alpha")
                   if k in line), None)
        raise ConfigError(str(err), at)

    named = {}
    consensus_blocks = []
    for lineno, name, body in blocks:
        if name not in ("f", "g", "L", "block"):
            raise ConfigError("unknown block %r" % name, lineno)
        if name in named:
            raise ConfigError("duplicate block %r" % name, lineno)
        built = _build(name, body, lineno)
        if name == "block":
            consensus_blocks.append(built)
        else:
            named[name] = built

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

    max_iters = top.read("max_iters", 100000)
    if max_iters < 1:
        raise ConfigError("max_iters must be at least 1", line["max_iters"])
    tol = top.read("tol", 1e-10)
    if tol < 0.0:
        raise ConfigError("tol must be a nonnegative number", line["tol"])
    output = top.read("output", None)
    seed = top.read("seed", 0)
    if seed < 0:
        raise ConfigError("seed must be a nonnegative integer", line["seed"])
    return RunConfig(solver=solver, problem=problem, params=params,
                     max_iters=max_iters, tol=tol, output=output, seed=seed,
                     delta=delta)


def parse_config_file(path):
    with open(path) as fh:
        return parse_config(fh.read())
