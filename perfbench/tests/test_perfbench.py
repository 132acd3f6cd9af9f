"""Self-tests of the benchmark: tiny runs of every workload, metric names
against BENCHMARK.json, counter reconciliation and patch restoration.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import secar  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "fit-small": {"rows": 4, "T": 12, "pool": 2},
    "surface-large": {"rows": 3, "T": 6, "pool": 60},
    "mcmc-quickstart": {"rows": 3, "T": 6, "n_iter": 20},
}
D = 4  # tau2, zeta, eta, beta0
HESSIAN_EVALS = 2 * D + 4 * (D * (D - 1) // 2)


def _quiet(*_):
    pass


@pytest.fixture(scope="module")
def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_is_correct_and_prints_end_to_end_metrics(name, bench):
    result = run.run(name, seed=5, seconds=0.01, trace=0, sizes=TINY[name], log=_quiet)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in bench["end_to_end"]]
    assert list(result["metrics"]) == names
    for m in bench["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0.0


def test_metric_names_match_benchmark_file(bench):
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in bench["per_layer"]] == tracing.metric_names()
    for m in bench["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])


def test_traced_fit_counters_reconcile(bench):
    result = run.run("fit-small", seed=5, seconds=0.01, trace=1, sizes=TINY["fit-small"],
                     log=_quiet)
    assert result["correct"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(m) == [x["name"] for x in bench["per_layer"]]
    parts = ("initial_evals", "stencil_evals", "line_search_evals", "final_hessian_evals",
             "grid_evals")
    assert math.isclose(m["inference.evals"], sum(m[f"inference.{p}"] for p in parts))
    assert math.isclose(m["inference.evals"], m["inference.LaplaceObjective.evaluate.calls"])
    fits = m["inference.maximize_posterior.calls"]
    assert math.isclose(m["inference.initial_evals"], fits)
    assert math.isclose(m["inference.final_hessian_evals"], fits * HESSIAN_EVALS)
    assert math.isclose(m["inference.stencil_evals"],
                        2 * D * m["inference.fd_gradient.calls"]
                        + HESSIAN_EVALS * (m["inference.fd_hessian.calls"] - fits))
    assert m["inference.grid_evals"] > 0 and m["mode.blocks"] > 0
    assert 0.0 < m["mode.first_try_ratio"] <= 1.0
    assert m["model.simulate.calls"] == TINY["fit-small"]["pool"]  # per set-up


def test_traced_surface_separates_setup_prelude_and_operations():
    result = run.run("surface-large", seed=5, seconds=0.01, trace=1,
                     sizes=TINY["surface-large"], log=_quiet)
    assert result["correct"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # one cold la1 and one cold xla mode per operation; the PIT / pD stage's
    # modes are not spread over the operations
    assert m["mode.find_mode.calls"] == 2.0
    assert m["xla.xla_log_posterior.calls"] == 1.0
    assert m["diagnostics.pit_residuals.calls"] == 1.0
    assert m["diagnostics.effective_parameters.calls"] == 1.0
    assert m["diagnostics.pit_residuals.self_s"] < m["diagnostics.pit_residuals.s"]
    assert m["model.simulate.calls"] == 1.0


def test_traced_evaluations_match_the_fit_record(tmp_path):
    wl = workloads.FitSmall(5, tmp_path, **TINY["fit-small"])
    wl.setup()
    with tracing.Tracer() as tracer:
        answer, _ = wl.op(0)
    c = tracer.counters()
    assert c["inference.evals"] - c["inference.grid_evals"] == answer["fit"].n_evals
    assert c["inference.newton_steps"] == answer["fit"].newton_steps
    assert c["io.bytes_written"] == sum(f.stat().st_size for f in answer["out"].iterdir())


def _namespaces():
    mods = [m for k, m in sys.modules.items() if k == "secar" or k.startswith("secar.")]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snap[("LaplaceObjective", "evaluate")] = \
        secar.inference.LaplaceObjective.__dict__["evaluate"]
    return snap


def test_every_patch_is_undone():
    before = _namespaces()
    result = run.run("mcmc-quickstart", seed=5, seconds=0.01, trace=1,
                     sizes=TINY["mcmc-quickstart"], log=_quiet)
    assert result["correct"]
    after = _namespaces()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert not changed


def test_missing_layer_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(secar.kernels, "pair_term")
    tracer = tracing.Tracer()
    with tracer:
        pass
    assert tracer.absent == ["kernels.pair_term"]
    assert tracer.layer_times()["kernels.pair_term"] == [0, 0.0, 0.0]
    assert not hasattr(secar.kernels, "pair_term")


def test_answer_check_rejects_a_wrong_answer(tmp_path):
    wl = workloads.SurfaceLarge(5, tmp_path, **TINY["surface-large"])
    wl.setup()
    answer, _ = wl.op(0)
    assert wl.check_op(0, answer)[1] < workloads.LOGPOST_TOL
    answer["xla"] *= 1.0 + 1e-6
    with pytest.raises(workloads.AnswerError):
        wl.check_op(0, answer)


def test_fit_check_tolerates_optimizer_noise_only(tmp_path):
    wl = workloads.FitSmall(5, tmp_path, **TINY["fit-small"])
    wl.setup()
    answer, _ = wl.op(0)
    ref = wl.summary(answer)
    wl.reference = {"ops": [ref]}
    shift = np.asarray(ref["sd"]) * workloads.THETA_SD_TOL
    for factor, ok in ((0.5, True), (2.0, False)):
        ref["phi"] = (answer["fit"].phi_hat + factor * shift).tolist()
        if ok:
            assert wl.check_op(0, answer)[0] <= workloads.THETA_SD_TOL
        else:
            with pytest.raises(workloads.AnswerError):
                wl.check_op(0, answer)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = subprocess.run(bench["command"] + ["--workload", "fit-small", "--seed", "0",
                                             "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
