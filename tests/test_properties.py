"""Property tests of the input contract: the parser raises only ConfigError,
and the CLI exits only with 0, 2 or 3, whatever the problem file says."""

import io
import os
import tempfile

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from inadmm.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, main
from inadmm.config import SOLVERS, ConfigError, parse_config
from inadmm.params import InfeasibleParameters, constant_params

TOP_KEYS = ["solver", "gamma", "alpha", "sigma", "delta", "lambda",
            "init_mode", "max_iters", "tol", "seed", "output"]
FIELD_KEYS = ["kind", "dim", "tau", "Q", "q", "r", "a", "b", "lo", "hi",
              "shift", "rows", "cols", "entries", "scale"]
FN_KINDS = ["zero", "quadratic", "l1", "l2norm", "indicator_point",
            "indicator_box", "indicator_hyperplane"]
OP_KINDS = ["identity", "scaled_identity", "dense"]
WORDS = (TOP_KEYS + FIELD_KEYS + FN_KINDS + OP_KINDS + list(SOLVERS)
         + ["alpha2_zero", "lambda1_alpha1_zero", "f", "g", "L", "block",
            "begin", "end", "#"])
NUMERALS = ["0", "1", "2", "3", "-1", "0.5", "0.9", "-0.5", "1e-12", "1e308",
            "-1e308", "1e-320", "nan", "inf", "-inf", "1x", "0.0.1"]

token = st.sampled_from(WORDS + NUMERALS)
numeral = st.sampled_from(NUMERALS)

# A stream of lines, each a word or numeral followed by zero to four tokens.
token_lines = st.lists(
    st.tuples(token, st.lists(token, max_size=4)).map(
        lambda t: " ".join((t[0],) + tuple(t[1]))),
    max_size=25,
)


def _values(count):
    """``count`` plain numerals, usually; sometimes none or a bad one."""
    good = st.lists(st.sampled_from(["0", "1", "2", "-1", "0.5", "0.3"]),
                    min_size=count, max_size=count)
    return st.one_of(good, good, good, st.lists(numeral, max_size=count + 1))


@st.composite
def block_lines(draw, name):
    """A block with a kind and the fields of that kind, some of them broken."""
    kinds = OP_KINDS if name == "L" else FN_KINDS
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(1, 2))
    counts = {"dim": 1, "tau": 1, "r": 1, "b": 1, "rows": 1, "cols": 1,
              "scale": 1, "Q": n * n, "entries": n * n}
    fields = {
        "zero": ["dim"], "quadratic": ["Q", "q", "r"], "l1": ["dim", "tau"],
        "l2norm": ["dim", "tau"], "indicator_point": ["a"],
        "indicator_box": ["lo", "hi"], "indicator_hyperplane": ["a", "b"],
        "identity": ["dim"], "scaled_identity": ["dim", "scale"],
        "dense": ["rows", "cols", "entries"],
    }[kind]
    if name != "L" and draw(st.booleans()):
        fields = fields + ["shift"]
    lines = ["begin " + name]
    if draw(st.integers(0, 9)):
        lines.append("kind " + kind)
    for key in fields:
        if not draw(st.integers(0, 9)):
            continue  # a missing field
        if key in ("dim", "rows", "cols"):
            vals = [str(n)] if draw(st.integers(0, 4)) else draw(_values(1))
        else:
            vals = draw(_values(counts.get(key, n)))
        lines.append(" ".join([key] + vals))
    lines.append("end")
    return lines


@st.composite
def configs(draw, small_budget=False):
    """A problem file shaped by the grammar, with perturbed values."""
    composite = draw(st.booleans())
    solvers = ["iadmm", "classical_admm", "idr"] if composite else [
        "consensus_sum1", "consensus_sum2", "boyd_consensus"]
    lines = ["solver " + draw(st.sampled_from(solvers))]
    for key in ("gamma", "alpha", "sigma", "delta", "lambda", "tol"):
        if draw(st.integers(0, 2)) == 0:
            value = draw(st.sampled_from(
                ["0.1", "0.2", "0.5", "0.9", "1", "1.5", "2"] + NUMERALS + [""]))
            lines.append(("%s %s" % (key, value)).rstrip())
    if small_budget:
        budget = str(draw(st.integers(1, 50)))
    else:
        budget = draw(st.sampled_from(["0", "1", "5", "", "nan", "1.5"]))
    lines.append(("max_iters %s" % budget).rstrip())
    names = ["f", "g", "L"] if composite else ["block"] * draw(st.integers(1, 3))
    for name in names:
        lines.extend(draw(block_lines(name)))
    return "\n".join(lines) + "\n"


def _parse_only_config_errors(text):
    try:
        parse_config(text)
    except ConfigError:
        pass


@settings(max_examples=300, deadline=None, derandomize=True)
@given(token_lines)
def test_parser_raises_only_config_error_on_token_streams(lines):
    _parse_only_config_errors("\n".join(lines))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(configs())
def test_parser_raises_only_config_error_on_grammar_shaped_files(text):
    _parse_only_config_errors(text)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs(small_budget=True),
       st.sampled_from([[], ["--compare"], ["--max-iters", "20"]]))
def test_cli_exits_only_with_contract_codes(text, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        code = main([path] + flags, out=io.StringIO())
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_BUDGET)


# -- the admissible region has one owner ---------------------------------------

REGION_FILE = """solver iadmm
max_iters 1
begin f
kind quadratic
Q 2 0 0 1
q -1 0.5
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

# overflow-sized and arbitrary values, next to draws near the region's boundaries
extreme = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1e300, 1e307, 1e308, 1.7e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
ALPHA = st.one_of(st.floats(-0.05, 1.0), st.floats(0.0, 0.99), extreme)
SIGMA = st.one_of(st.floats(-0.05, 2.0), st.floats(1e-6, 1.0), extreme)
DELTA = st.one_of(st.floats(-0.05, 3.0), st.floats(0.0, 3.0), extreme)
LAMBDA = st.one_of(st.floats(-0.05, 2.1), st.floats(0.0, 2.0), extreme)


def _region_file(alpha=None, sigma=None, delta=None, lam=None):
    values = zip(("alpha", "sigma", "delta", "lambda"), (alpha, sigma, delta, lam))
    return "".join("%s %r\n" % kv for kv in values if kv[1] is not None) + REGION_FILE


def _parses(text):
    try:
        parse_config(text)
    except ConfigError as err:
        return str(err)
    return None


@settings(max_examples=400, deadline=None, derandomize=True)
@given(*[st.one_of(st.none(), s) for s in (ALPHA, SIGMA, DELTA, LAMBDA)])
def test_parser_accepts_a_file_iff_constant_params_does(alpha, sigma, delta, lam):
    try:
        constant_params(1.0, 0.0 if alpha is None else alpha,
                        0.01 if sigma is None else sigma, delta, lam)
        verdict = None
    except InfeasibleParameters as err:
        verdict = str(err)
    error = _parses(_region_file(alpha, sigma, delta, lam))
    if verdict is None:
        assert error is None
    else:
        assert error is not None and error.endswith(verdict)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.one_of(st.none(), st.floats(1e-6, 1.0)),
       st.one_of(st.none(), st.floats(1e-3, 10.0), st.just(1e307)),
       ALPHA, LAMBDA)
def test_sweep_reports_infeasible_iff_the_file_is_rejected(sigma, delta,
                                                           alpha, lam):
    # the sweep runs on a file holding the same sigma and delta, without
    # alpha and lambda, which must itself be accepted
    base = _region_file(None, sigma, delta)
    assume(_parses(base) is None)
    rejected = _parses(_region_file(alpha, sigma, delta, lam)) is not None
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.cfg")
        with open(path, "w") as fh:
            fh.write(base)
        out = io.StringIO()
        code = main([path, "--sweep", "alpha=%r;lambda=%r" % (alpha, lam)],
                    out=out)
    assert code in (EXIT_OK, EXIT_BUDGET)
    row = out.getvalue().splitlines()[1]
    assert ("infeasible" in row) == rejected, row
