"""The benchmark's own tests.

Every correctness check must reject a deliberately wrong answer, the
references must be right, and a smoke run of each workload must finish in
seconds with the metric names and units that BENCHMARK.json declares.

    python -m pytest benchmarks
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402


def smoke(name, tmp_path_factory):
    units = W.make_units(name, 7, True, str(tmp_path_factory.mktemp(name)))
    for unit in units:
        unit.build()
        unit.first_use()
        unit.prepare()
    outs = [tuple(op() for op in unit.operations()) for unit in units]
    for unit, out in zip(units, outs):
        assert not any(r.failed for r in unit.check(out)), unit.check(out)
    return units, outs


def wrong(unit, out):
    return [r.wrong for r in unit.check(out) if r.wrong]


@pytest.fixture(scope="module")
def lasso(tmp_path_factory):
    return smoke("lasso_small", tmp_path_factory)


@pytest.fixture(scope="module")
def dense(tmp_path_factory):
    return smoke("dense_large", tmp_path_factory)


@pytest.fixture(scope="module")
def consensus(tmp_path_factory):
    return smoke("consensus_median", tmp_path_factory)


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    return smoke("cli_batch", tmp_path_factory)


# ------------------------------------------------------------- references


def test_fista_matches_separable_closed_form():
    d = np.array([1.0, 2.0, 4.0])
    p = np.array([-3.0, 0.5, 2.5])
    x = reference.fista_l1(np.diag(d), p, 1.0)
    np.testing.assert_allclose(x, reference.soft(-p, 1.0) / d, atol=1e-12)


def test_floor_reaches_the_reference_minimizer():
    rng = np.random.default_rng(0)
    D = rng.standard_normal((20, 8))
    Q, q = D.T @ D, -D.T @ rng.standard_normal(20)
    floor = reference.AdmmFloor(Q, q, 0.5, 2.0)
    k = reference.iterations_to(floor, 1e-10)
    np.testing.assert_allclose(floor.run(k)[1], reference.fista_l1(Q, q, 0.5),
                               atol=1e-8)


def test_consensus_floor_finds_the_median():
    rng = np.random.default_rng(0)
    S = W.consensus_shifts(rng, 11, 2, 3)
    floor = reference.ConsensusFloor(S, 5.0)
    xbar = floor.run(reference.iterations_to(floor, 1e-9))[1]
    np.testing.assert_allclose(xbar, np.median(S, axis=0), atol=1e-7)


# ------------------------------------------------------------- checks


def test_lasso_rejects_perturbed_x(lasso):
    unit, out = lasso[0][0], copy.deepcopy(lasso[1][0])
    out[1].final["x"] = out[1].final["x"] + 1e-4
    assert any("x off by" in w for w in wrong(unit, out))


def test_lasso_rejects_infeasible_dual(lasso):
    unit, out = lasso[0][0], copy.deepcopy(lasso[1][0])
    out[0].final["v"] = out[0].final["v"] * 1.01
    assert wrong(unit, out)


def test_lasso_rejects_feasible_but_suboptimal_dual(lasso):
    # x is right and v stays in the dual box: only the gap can catch it
    unit, out = lasso[0][0], copy.deepcopy(lasso[1][0])
    out[0].final["v"] = 0.5 * out[0].final["v"]
    assert wrong(unit, out)[0].startswith("primal-dual gap")


def test_lasso_rejects_diverging_twin(lasso):
    unit, out = lasso[0][0], copy.deepcopy(lasso[1][0])
    row = out[2].rows[len(out[2].rows) // 2]
    row.vectors["w"] = row.vectors["w"] + 1e-7
    assert any("ADMM and DR" in w for w in wrong(unit, out))


def test_lasso_counts_non_convergence(lasso):
    unit, out = lasso[0][0], copy.deepcopy(lasso[1][0])
    out[1].converged = False
    assert any(r.error for r in unit.check(out))


def test_dense_rejects_non_stationary_x(dense):
    unit, out = dense[0][0], copy.deepcopy(dense[1][0])
    out[0].final["x"] = out[0].final["x"] * (1 + 1e-6)
    assert any("stationarity" in w for w in wrong(unit, out))


def test_dense_rejects_infeasible_dual(dense):
    unit, out = dense[0][0], copy.deepcopy(dense[1][0])
    out[0].final["v"] = out[0].final["v"].copy()
    out[0].final["v"][0] = 2 * unit.tau
    assert any("exceeds tau" in w for w in wrong(unit, out))


def test_dense_rejects_stationary_but_suboptimal_pair(dense):
    # v stays in the dual box and x solves the x-update for it, so only the
    # gap can tell that the pair is not optimal
    unit, out = dense[0][0], copy.deepcopy(dense[1][0])
    v = 0.5 * out[0].final["v"]
    out[0].final["v"] = v
    out[0].final["x"] = -unit.Qinv @ (unit.q + unit.Lm.T @ v)
    assert wrong(unit, out)[0].startswith("primal-dual gap")


def test_generalized_lasso_rejects_perturbed_x(dense):
    unit, out = dense[0][1], copy.deepcopy(dense[1][1])
    out[0].final["x"] = out[0].final["x"] + 1e-6
    assert any("x off by" in w for w in wrong(unit, out))


def test_consensus_rejects_shifted_median(consensus):
    unit, out = consensus[0][0], copy.deepcopy(consensus[1][0])
    out[1].final["shared"] = out[1].final["shared"] + 1e-4
    assert any("median" in w for w in wrong(unit, out))


def test_consensus_rejects_nonzero_multiplier_sum(consensus):
    unit, out = consensus[0][0], copy.deepcopy(consensus[1][0])
    out[0].final["y"] = out[0].final["y"] + 1e-6
    assert any("sum to" in w for w in wrong(unit, out))


def test_cli_rejects_truncated_csv(cli):
    unit, out = cli[0][0], cli[1][0]
    with open(unit.csv_path) as fh:
        text = fh.read()
    try:
        with open(unit.csv_path, "w") as fh:
            fh.write("\n".join(text.splitlines()[:-1]) + "\n")
        assert any("CSV has" in w for w in wrong(unit, out))
    finally:
        with open(unit.csv_path, "w") as fh:
            fh.write(text)
    assert not wrong(unit, out)


def test_cli_rejects_nonzero_exit_codes(cli):
    unit, out = cli[0][0], cli[1][0]
    for i in range(3):
        bad = list(out)
        bad[i] = (3, out[i][1])
        results = unit.check(bad)
        assert results[i].error and results[i].wrong


def test_cli_rejects_wrong_optimum(cli):
    unit, out = cli[0][0], cli[1][0]
    saved = unit.optimum
    try:
        unit.optimum = saved + 1e-5 * (1 + abs(saved))
        assert any("optimum" in w for w in wrong(unit, out))
    finally:
        unit.optimum = saved


def test_cli_rejects_unconverged_sweep_row_and_deviation(cli):
    code, text = cli[1][0][1]
    lines = text.splitlines()
    lines[1] = lines[1].replace(" yes ", " no ")
    assert W.check_cli_sweep(code, "\n".join(lines), W.SWEEP_POINTS)
    assert W.check_cli_sweep(code, "\n".join(lines[:-1]), W.SWEEP_POINTS)
    code, text = cli[1][0][2]
    assert not W.check_cli_compare(code, text)
    assert W.check_cli_compare(code, text.replace(
        text.splitlines()[-1], "max deviation (y, v, w): 2e-06"))


# ------------------------------------------------------------- the command


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def run_command(cwd, workload, trace, out_dir):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke",
         "--out-dir", str(out_dir)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_runs_every_workload(trace, tmp_path):
    end_to_end, per_layer, names = declared_metrics()
    assert names == list(run.WORKLOADS)
    want = per_layer if trace else end_to_end
    for workload in names:
        proc = run_command(ROOT, workload, trace, tmp_path)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        if not trace:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_command(tmp_path, "lasso_small", 0, tmp_path / "out")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
