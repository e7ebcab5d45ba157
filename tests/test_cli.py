import argparse
import errno
import io
import os
import subprocess
import sys

import numpy as np
import pytest

import inadmm
from inadmm import cli
from inadmm.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, main
from inadmm.config import ConfigError, parse_config

from conftest import counted

LASSO_CONFIG = """
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

CONSENSUS_CONFIG = """
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


def write(tmp_path, text, name="problem.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


# -- parser unit behaviour ---------------------------------------------------

def test_parse_config_roundtrip():
    cfg = parse_config(LASSO_CONFIG)
    assert cfg.solver == "iadmm"
    assert cfg.params.gamma == 1.0
    assert cfg.params.alpha == 0.2
    assert cfg.max_iters == 50000
    assert cfg.tol == 1e-11
    assert cfg.problem.f.dim == 2


def test_parse_config_defaults():
    cfg = parse_config(CONSENSUS_CONFIG)
    assert cfg.max_iters == 100000
    assert cfg.seed == 0
    assert cfg.params.sigma == 0.01
    assert cfg.problem.m == 2


def test_parse_error_unknown_key():
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'gama'"):
        parse_config("solver iadmm\ngama 1.0\n")


def test_parse_error_bad_numeral():
    with pytest.raises(ConfigError, match="malformed numeral"):
        parse_config("solver iadmm\ngamma one\n")


def test_parse_error_alpha_range():
    with pytest.raises(ConfigError, match=r"alpha must lie in \[0,1\)"):
        parse_config("solver iadmm\nalpha 1.5\n")


def test_parse_error_lambda_above_cap():
    with pytest.raises(ConfigError, match="lambda must lie in"):
        parse_config("solver iadmm\nalpha 0.5\nlambda 1.9\n")


def test_parse_error_missing_blocks():
    with pytest.raises(ConfigError, match="needs block"):
        parse_config("solver iadmm\n")


def test_parse_error_unterminated_block():
    with pytest.raises(ConfigError, match="unterminated block"):
        parse_config("solver iadmm\nbegin f\nkind zero\ndim 2\n")


def test_parse_error_wrong_block_family():
    with pytest.raises(ConfigError, match="consensus blocks"):
        parse_config(CONSENSUS_CONFIG.replace("consensus_sum1", "iadmm"))


def test_parse_error_rank_deficient_operator():
    bad = LASSO_CONFIG.replace(
        "kind identity\ndim 2", "kind dense\nrows 2\ncols 2\nentries 1 1 1 1"
    )
    with pytest.raises(ConfigError, match="full column rank"):
        parse_config(bad)


# -- end-to-end runs ---------------------------------------------------------

def test_run_lasso_converges(tmp_path, capsys):
    cfg = write(tmp_path, LASSO_CONFIG)
    csv = str(tmp_path / "trace.csv")
    code, out = run([cfg, "--output", csv])
    assert code == EXIT_OK
    assert "converged: yes" in out
    assert "diagnostics:" in out
    assert "parameters: parameters valid" in out
    header = open(csv).readline().strip()
    assert header == "k,primal,dual,gap,feas_residual,zbar_norm,dw_norm,dw_sq_sum"


def test_run_deterministic_output(tmp_path):
    cfg = write(tmp_path, LASSO_CONFIG)
    csv1 = str(tmp_path / "a.csv")
    csv2 = str(tmp_path / "b.csv")
    code1, out1 = run([cfg, "--output", csv1])
    code2, out2 = run([cfg, "--output", csv2])
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert open(csv1).read() == open(csv2).read()


def test_parser_is_built_once_per_process(tmp_path, monkeypatch, capsys):
    # parse_args leaves the parser as it was: a later call, a usage error
    # or --version after a run, reads the same options and prints the same
    built = counted(monkeypatch, argparse.ArgumentParser, "__init__")
    cli.build_parser.cache_clear()
    cfg = write(tmp_path, LASSO_CONFIG)
    outs = [run([cfg, "--max-iters", "3"]) for _ in range(2)]
    assert outs[0] == outs[1] and outs[0][0] == EXIT_BUDGET
    for argv, code in ((["--bogus"], 2), (["--version"], 0)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
    assert capsys.readouterr().out == inadmm.__version__ + "\n"
    assert len(built) == 1


def test_csv_floats_roundtrip(tmp_path):
    # 17 significant digits reproduce the binary doubles exactly
    cfg = write(tmp_path, LASSO_CONFIG)
    csv = str(tmp_path / "trace.csv")
    run([cfg, "--output", csv])
    with open(csv) as fh:
        header = fh.readline()
        for line in fh:
            cells = line.strip().split(",")
            for cell in cells[1:]:
                v = float(cell)
                assert "%.17g" % v == cell


def test_budget_exhaustion_exit_code(tmp_path):
    cfg = write(tmp_path, LASSO_CONFIG)
    code, out = run([cfg, "--max-iters", "3"])
    assert code == EXIT_BUDGET
    assert "budget exhausted" in out
    assert "converged: no" in out


def test_input_error_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, "solver iadmm\ngama 1.0\n")
    code, _ = run([cfg])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "config error" in err
    assert "line 2" in err


def test_missing_file_exit_code(tmp_path, capsys):
    code, _ = run([str(tmp_path / "absent.cfg")])
    assert code == EXIT_INPUT
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("argv, name", [
    ([], "missing/x.csv"), (["--sweep", "alpha=0,0.1"], "missing/x"),
    (["--max-iters", "5"], "."),
], ids=["run", "sweep", "run_into_directory"])
def test_unwritable_output_exit_code(tmp_path, capsys, monkeypatch, argv, name):
    # found before any solve: nothing is solved and nothing reaches stdout
    from inadmm import cli

    solves = []
    monkeypatch.setattr(cli, "_run_solver", lambda *a: solves.append(a))
    cfg = write(tmp_path, LASSO_CONFIG)
    output = str(tmp_path / name)
    code, out = run([cfg, "--output", output] + argv)
    assert code == EXIT_INPUT
    assert out == "" and solves == []
    err = capsys.readouterr().err
    assert err.startswith("cannot write output: ") and output in err
    assert err.count("\n") == 1


def test_solver_override(tmp_path):
    cfg = write(tmp_path, LASSO_CONFIG)
    code, out = run([cfg, "--solver", "classical_admm"])
    assert code == EXIT_OK
    assert "solver: classical_admm" in out


def test_unknown_solver_override(tmp_path, capsys):
    cfg = write(tmp_path, LASSO_CONFIG)
    code, _ = run([cfg, "--solver", "bogus"])
    assert code == EXIT_INPUT
    assert "unknown solver" in capsys.readouterr().err


def test_idr_solver(tmp_path):
    cfg = write(tmp_path, LASSO_CONFIG)
    code, out = run([cfg, "--solver", "idr"])
    assert code == EXIT_OK
    assert "converged: yes" in out


def test_consensus_solvers(tmp_path):
    cfg = write(tmp_path, CONSENSUS_CONFIG)
    for solver in ("consensus_sum1", "consensus_sum2", "boyd_consensus"):
        code, out = run([cfg, "--solver", solver])
        assert code == EXIT_OK, solver
        assert "converged: yes" in out


def test_compare_mode(tmp_path):
    cfg = write(tmp_path, LASSO_CONFIG)
    code, out = run([cfg, "--compare", "--max-iters", "300", "--tol", "0"])
    assert code == EXIT_OK
    dev = float(out.strip().splitlines()[-1].split()[-1])
    assert dev <= 1e-9


def test_compare_factors_normal_matrix_once(tmp_path, monkeypatch):
    # the ADMM x-update and the Douglas-Rachford resolvent share f's factor
    # of Q + gamma L'L
    from inadmm import functions

    factored = []
    cholesky = functions.cholesky
    monkeypatch.setattr(functions, "cholesky",
                        lambda M: factored.append(M.shape) or cholesky(M))
    dense = LASSO_CONFIG.replace("dim 2\ntau", "dim 3\ntau").replace(
        "kind identity\ndim 2",
        "kind dense\nrows 3\ncols 2\nentries 1 0.5 0 1 0.3 0.2")
    code, out = run([write(tmp_path, dense), "--compare", "--max-iters", "300",
                     "--tol", "0"])
    assert code == EXIT_OK
    assert float(out.strip().splitlines()[-1].split()[-1]) <= 1e-9
    assert factored == [(2, 2)]


def test_run_with_dense_operator_computes_one_svd(tmp_path, monkeypatch):
    # ProblemSpec proves L injective with no SVD; the diagnostics line's
    # theta runs one, and its theta* follows from the shape of L
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    dense = LASSO_CONFIG.replace(
        "kind identity\ndim 2", "kind dense\nrows 2\ncols 2\nentries 1 0.5 0.2 1")
    code, out = run([write(tmp_path, dense)])
    assert code == EXIT_OK and "theta* " in out
    assert len(calls) == 1


def test_compare_rejects_consensus(tmp_path, capsys):
    cfg = write(tmp_path, CONSENSUS_CONFIG)
    code, _ = run([cfg, "--compare"])
    assert code == EXIT_INPUT
    assert "composite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--output", "c.csv"], ["--sweep", "alpha=0,0.1"]],
                         ids=["output", "sweep"])
def test_compare_refuses_flags_it_cannot_honour(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("inadmm.cli.run_iadmm", None)  # no solve may start
    code, out = run([write(tmp_path, LASSO_CONFIG), "--compare"] + argv)
    assert code == EXIT_INPUT and out == ""
    assert capsys.readouterr().err == (
        "input error: --compare takes neither --output nor --sweep\n")
    assert sorted(os.listdir(tmp_path)) == ["problem.cfg"]


def test_sweep_mode(tmp_path):
    cfg = write(tmp_path, LASSO_CONFIG)
    code, out = run([cfg, "--sweep", "alpha=0,0.1,0.2"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("alpha lambda iterations")
    assert len(lines) == 4


def test_sweep_writes_one_csv_per_point(tmp_path):
    cfg = write(tmp_path, LASSO_CONFIG)
    prefix = str(tmp_path / "sw")
    code, out = run([cfg, "--sweep", "alpha=0,0.1,0.2;lambda=0.5", "--output", prefix])
    assert code == EXIT_OK and len(out.splitlines()) == 4
    assert sorted(os.listdir(tmp_path)) == [
        "problem.cfg", "sw.alpha0.1_lambda0.5.csv", "sw.alpha0.2_lambda0.5.csv",
        "sw.alpha0_lambda0.5.csv"]


@pytest.mark.parametrize("spec, points, name", [
    ("alpha=0.1,0.1000000001;lambda=0.5",
     "(alpha 0.1, lambda 0.5) and (alpha 0.1000000001, lambda 0.5)",
     "alpha0.1_lambda0.5"),
    ("alpha=0.2;lambda=0.5,0.5000000001",
     "(alpha 0.2, lambda 0.5) and (alpha 0.2, lambda 0.5000000001)",
     "alpha0.2_lambda0.5")], ids=["alpha", "lambda"])
def test_sweep_refuses_points_that_would_share_a_csv(tmp_path, capsys, monkeypatch,
                                                     spec, points, name):
    # alike at %g: the second point's CSV used to overwrite the first's; the
    # sweep is refused before it solves anything
    cfg = write(tmp_path, LASSO_CONFIG)
    prefix = str(tmp_path / "out")
    monkeypatch.setattr(cli, "run_iadmm_batch", None)
    code, out = run([cfg, "--sweep", spec, "--output", prefix])
    monkeypatch.undo()
    assert code == EXIT_INPUT and out == ""
    assert capsys.readouterr().err == (
        "input error: sweep points %s would share the CSV %s.%s.csv\n"
        % (points, prefix, name))
    assert sorted(os.listdir(tmp_path)) == ["problem.cfg"]
    # without --output no CSV is written, and both points are solved
    code, out = run([cfg, "--sweep", spec])
    assert code == EXIT_OK and len(out.splitlines()) == 3


def test_sweep_reports_infeasible(tmp_path):
    cfg = write(tmp_path, LASSO_CONFIG)
    code, out = run([cfg, "--sweep", "alpha=0.2;lambda=0.5,1.95"])
    assert code == EXIT_BUDGET
    assert "infeasible" in out


def test_sweep_bad_spec(tmp_path, capsys):
    cfg = write(tmp_path, LASSO_CONFIG)
    for spec, message in [("gamma=1,2", "alpha and lambda"),
                          ("alpha=", "sweep 'alpha' has no values"),
                          ("alpha=0.1;lambda= , ", "sweep 'lambda' has no values"),
                          ("alpha=0.1;alpha=0.2", "sweep names 'alpha' twice")]:
        code, out = run([cfg, "--sweep", spec])
        assert code == EXIT_INPUT and out == "", spec
        assert message in capsys.readouterr().err, spec


@pytest.mark.parametrize("solver", [[], ["--solver", "classical_admm"]],
                         ids=["iadmm", "classical_admm"])
@pytest.mark.parametrize("argv, message", [
    (["--max-iters", "0"], "input error: max_iters must be at least 1"),
    (["--tol", "nan"], "input error: tol must be a nonnegative number")],
    ids=["max_iters_0", "tol_nan"])
def test_sweep_input_error_prints_nothing(tmp_path, capsys, solver, argv, message):
    # the header used to reach stdout before the solver refused the budget
    cfg = write(tmp_path, LASSO_CONFIG)
    code, out = run([cfg, "--sweep", "alpha=0,0.2"] + solver + argv)
    assert code == EXIT_INPUT and out == ""
    assert capsys.readouterr().err == message + ", got %s\n" % argv[1]


@pytest.mark.parametrize("solver", ["iadmm", "classical_admm", "idr"])
def test_sweep_refused_step_prints_nothing(tmp_path, capsys, solver):
    # gamma s^2 overflows: every point is refused, the first before the header
    cfg = write(tmp_path, SCALED_CONFIG.replace("scale -0.7", "scale 1.3e154"))
    code, out = run([cfg, "--sweep", "alpha=0,0.2", "--solver", solver])
    assert code == EXIT_INPUT and out == ""
    assert capsys.readouterr().err == (
        "input error: no finite positive step 1/(gamma c) at gamma 1.1, c 1.69e+308\n")


def test_sweep_infeasible_row_without_lambda_grid(tmp_path):
    # alpha 0.7 puts the file's delta 0.625 below its lower bound 1.64706
    cfg = write(tmp_path, LASSO_CONFIG.replace("alpha 0.2", "alpha 0.2\ndelta 0.625"))
    code, out = run([cfg, "--sweep", "alpha=0.7"])
    assert code == EXIT_BUDGET
    assert out.splitlines()[1].startswith("0.7 - infeasible (delta must exceed")
    code, out = run([cfg, "--sweep", "alpha=0.7;lambda=0.25"])
    assert out.splitlines()[1].startswith("0.7 0.25 infeasible (")


class ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


@pytest.mark.parametrize("argv", [[], ["--sweep", "alpha=0,0.1"], ["--compare"]],
                         ids=["run", "sweep", "compare"])
def test_closed_output_exits_with_one_line(tmp_path, capsys, argv):
    code = main([write(tmp_path, LASSO_CONFIG)] + argv, out=ClosedPipe())
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert err == "cannot write output: [Errno %d] %s\n" % (
        errno.EPIPE, os.strerror(errno.EPIPE))


def test_stdout_closed_by_reader_gives_no_traceback(tmp_path):
    # the child imports the package these tests import
    src = os.path.dirname(os.path.dirname(inadmm.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "inadmm.cli", write(tmp_path, LASSO_CONFIG)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # before the child has imported numpy
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_INPUT, err
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.startswith("cannot write output: ") and err.count("\n") == 1, err


DELTA_CONFIG = LASSO_CONFIG.replace("alpha 0.2", "alpha 0.2\ndelta 0.625\nlambda 1.0")


def test_sweep_keeps_the_files_delta(tmp_path):
    # with the default delta the relaxation cap at alpha 0.2 is 0.505679;
    # the file's delta 0.625 raises it to 1.28, so lambda 1.0 is admissible
    cfg = write(tmp_path, DELTA_CONFIG)
    code, out = run([cfg])
    assert code == EXIT_OK
    assert out.splitlines()[1] == "iterations: 24"
    code, out = run([cfg, "--sweep", "lambda=1.0,1.2"])
    assert code == EXIT_OK
    rows = [line.split()[:4] for line in out.splitlines()[1:]]
    assert rows[0] == ["0.2", "1", "24", "yes"]
    assert rows[1][:2] == ["0.2", "1.2"] and rows[1][3] == "yes"


OVERFLOW_CONFIG = LASSO_CONFIG.replace("q -1 0.5", "q 1e308 -1e308")

SCALED_CONFIG = """
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


@pytest.mark.parametrize("text, argv, message", [
    (LASSO_CONFIG.replace("max_iters 50000", "max_iters 0"), [],
     "line 5: max_iters must be at least 1"),
    (LASSO_CONFIG, ["--max-iters", "0"], "max_iters must be at least 1"),
    (LASSO_CONFIG.replace("tol 1e-11", "tol nan"), [],
     "line 6: tol must be finite"),
    (LASSO_CONFIG, ["--tol", "inf"], "input error: tol must be finite, got inf"),
    (LASSO_CONFIG, ["--solver", "consensus_sum1"],
     "solver 'consensus_sum1' takes consensus blocks, not f/g/L"),
    (CONSENSUS_CONFIG, ["--solver", "iadmm"],
     "solver 'iadmm' takes f/g/L blocks, not consensus blocks"),
    (LASSO_CONFIG.replace("kind l1\ndim 2", "kind l1\ndim"), [],
     "line 18: field 'dim' needs a value"),
    (LASSO_CONFIG.replace("kind identity", "kind"), [],
     "line 23: kind takes one value"),
    (LASSO_CONFIG.replace("gamma 1.0", "gamma nan"), [], "line 3: gamma must be finite"),
    (LASSO_CONFIG.replace("gamma 1.0", "gamma inf"), [], "line 3: gamma must be finite"),
    (LASSO_CONFIG.replace("seed 0", "sigma nan"), [], "line 7: sigma must be finite"),
    (LASSO_CONFIG.replace("seed 0", "delta nan"), [], "line 7: delta must be finite"),
    (LASSO_CONFIG.replace("tau 0.3", "tau nan"), [], "line 19: tau must be finite"),
    (LASSO_CONFIG.replace("kind l1", "kind l2norm").replace("tau 0.3", "tau nan"), [],
     "line 19: tau must be finite"),
    (LASSO_CONFIG.replace("tau 0.3", "tau 0.3\nshift"), [],
     "line 20: field 'shift' needs a value"),
    (LASSO_CONFIG.replace("kind identity\ndim 2", "kind identity\ndim 1.5"), [],
     "line 24: malformed numeral in 'dim'"),
    (CONSENSUS_CONFIG.replace("Q 2 0 0 2\nq 0 -2", "Q 2 0 0 0 2 0 0 0 2\nq 0 -2 0"), [],
     "all blocks must share one dimension"),
    (LASSO_CONFIG.replace("alpha 0.2", "alpha 0.9\nsigma 1e308"), [],
     "line 5: sigma too large: the delta lower bound overflows"),
    (LASSO_CONFIG.replace("alpha 0.2", "alpha 0.5\nsigma 1e308"), [],
     "line 5: alpha, sigma and delta leave no admissible lambda"),
    (LASSO_CONFIG.replace("alpha 0.2", "alpha 0\ndelta 1e308\nlambda 5"), [],
     "line 5: alpha, sigma and delta leave no admissible lambda"),
    (LASSO_CONFIG.replace("seed 0", "seed -1"), [], "line 7: seed "),
    (SCALED_CONFIG.replace("scale -0.7", "scale 1e200"), [],
     "line 21: scale must be finite"),
    (LASSO_CONFIG.replace("kind identity", "kind scaled_identity\nscale 1e200"), [],
     "line 22: scale must be finite"),
    (SCALED_CONFIG.replace("kind scaled_identity\ndim 3\nscale -0.7", "kind dense\n"
                           "rows 3\ncols 3\nentries 1e160 0 0 0 1 0 0 0 1"), [],
     "input error: no finite positive step 1/(gamma c) at gamma 1.1, c inf"),
    (SCALED_CONFIG.replace("scale -0.7", "scale 1.3e154"), [],
     "input error: no finite positive step 1/(gamma c) at gamma 1.1, c 1.69e+308"),
    (LASSO_CONFIG.replace("gamma 1.0", "gamma 1.1").replace(
        "kind identity", "kind scaled_identity\nscale 1.3e154"), [],
     "input error: no finite positive step 1/(gamma c) at gamma 1.1, c 1.69e+308"),
    (SCALED_CONFIG.replace("scale -0.7", "scale 1.3e154"), ["--solver", "classical_admm"],
     "input error: no finite positive step 1/(gamma c) at gamma 1.1, c 1.69e+308"),
    (SCALED_CONFIG.replace("scale -0.7", "scale 1.3e154"), ["--solver", "idr"],
     "input error: no finite positive step 1/(gamma c) at gamma 1.1, c 1.69e+308"),
    # sum2's lift stacks 3 identities: 1/(3 gamma) is 0, as run_iadmm refuses it
    ("solver consensus_sum1\ngamma 1e308\n" + "".join(
        "begin block\nkind l1\ndim 2\ntau 1\nshift %s\nend\n" % s
        for s in ("1 0", "0 1", "-1 -1")), ["--solver", "consensus_sum2"],
     "input error: no finite positive step 1/(gamma c) at gamma 1e+308, c 3"),
], ids=["config_max_iters_0", "flag_max_iters_0", "config_tol_nan", "flag_tol_inf",
        "consensus_solver_on_fgl_file", "composite_solver_on_block_file",
        "l1_dim_without_value", "operator_kind_without_value", "gamma_nan",
        "gamma_inf", "sigma_nan", "delta_nan", "l1_tau_nan", "l2norm_tau_nan",
        "shift_without_value", "operator_dim_not_integer",
        "blocks_of_mixed_dimension", "delta_bound_overflows",
        "lambda_max_underflows", "lambda_max_overflows", "seed_negative",
        "scale_overflow", "scale_overflow_quadratic", "inner_iterative_overflow",
        "frame_step_overflow", "frame_step_overflow_quadratic",
        "frame_step_overflow_classical", "frame_step_overflow_idr",
        "consensus_step_overflow"])
def test_rejected_inputs_exit_with_diagnostic(tmp_path, capsys, text, argv, message):
    code, _ = run([write(tmp_path, text)] + argv)
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert message in err and err.count("\n") == 1, err


@pytest.mark.parametrize("mode", [[], ["--sweep", "alpha=0,0.2"], ["--compare"]],
                         ids=["run", "sweep", "compare"])
@pytest.mark.parametrize("tol", ["inf", "1e400"])
def test_flag_tol_inf_is_refused_as_in_the_file(tmp_path, capsys, mode, tol):
    # it used to stop at iteration 2 as converged, with feas 2.57
    code, out = run([write(tmp_path, LASSO_CONFIG), "--tol", tol] + mode)
    assert code == EXIT_INPUT and out == ""
    assert capsys.readouterr().err == "input error: tol must be finite, got inf\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_iterates_exit_code(tmp_path, capsys):
    code, _ = run([write(tmp_path, OVERFLOW_CONFIG)])
    assert code == EXIT_BUDGET
    assert "iterates became non-finite at iteration 1" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_compare_nonfinite_iterates_exit_code(tmp_path, capsys):
    code, out = run([write(tmp_path, OVERFLOW_CONFIG), "--compare"])
    assert code == EXIT_BUDGET and out == ""
    assert capsys.readouterr().err == "iterates became non-finite at iteration 1\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_reports_each_nonfinite_point(tmp_path, capsys):
    code, out = run([write(tmp_path, OVERFLOW_CONFIG), "--sweep", "alpha=0,0.2"])
    assert code == EXIT_BUDGET
    # each row shows the dw its point recorded: inf at alpha 0, where w
    # overflows, and 0 at alpha 0.2, where the first step leaves w at zero
    assert out.splitlines()[1:] == ["0 1 1 no inf", "0.2 0.455111 1 no 0"]
    assert capsys.readouterr().err == (
        "iterates became non-finite at iteration 1 (alpha 0, lambda 1)\n"
        "iterates became non-finite at iteration 1 (alpha 0.2, lambda 0.455111)\n")


def test_sweep_passes_lambda_without_mutating_config(monkeypatch):
    from inadmm import cli

    cfg = parse_config(LASSO_CONFIG)
    seen = []

    def failing_classical(problem, gamma, lam=1.0, **kwargs):
        seen.append(lam)
        raise RuntimeError("solver failed")

    monkeypatch.setattr(cli, "classical_admm", failing_classical)
    with pytest.raises(RuntimeError):
        cli._run_sweep(cfg, "classical_admm", "alpha=0;lambda=0.7", 100, 1e-8,
                       None, io.StringIO())
    assert seen == [0.7]
    assert cfg.params == parse_config(LASSO_CONFIG).params

