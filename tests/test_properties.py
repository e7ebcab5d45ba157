"""Property tests of the input contract: the parser raises only ConfigError,
and the CLI exits only with 0, 2 or 3, whatever the problem file says."""

import io
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from inadmm.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, main
from inadmm.config import SOLVERS, ConfigError, parse_config

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
