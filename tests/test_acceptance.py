"""Acceptance suite: one test per numbered criterion.

Each test prints a PASS/FAIL line through the conftest terminal-summary hook.
Criteria 3 and 8 are long-running and marked slow (run with ``pytest -m
slow``); criterion 8 additionally needs the supplemental Chicago files under
data/chicago/.
"""

import time
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.stats import kstest

from helpers import exact_single_cell_logmarginal, single_cell_problem, torus_problem
from secar import (BiasStudyConfig, CarStructure, ModelParams, PriorSpec,
                   SpatialGraph, bias_study, build_torus_lattice,
                   car_precision_block, credible_intervals, la1_log_posterior,
                   linear_predictor, log_joint, logdet_precision,
                   maximize_posterior, pit_residuals, posterior_summary,
                   run_chains, simulate, spatial_correlation, xla_log_posterior,
                   g_value)
from secar import CovariateDesign, CountPanel
from secar import kernels

mp.mp.dps = 30

CHICAGO_DIR = Path(__file__).resolve().parent.parent / "data" / "chicago"


@pytest.mark.acceptance(num=1, title="derivative oracle gate (f, k, g3, g4, g6)")
def test_criterion_1_derivative_oracle_gate():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250801)
    n = 1000
    mu = rng.uniform(-3.0, 3.0, n)
    z = rng.integers(0, 21, n).astype(np.float64)
    z_prev = rng.integers(0, 21, n).astype(np.float64)
    eta = rng.uniform(0.0, 0.7, n)
    c = eta * z_prev
    f, k = kernels.fk_values(mu, z, c)
    g3, g4, g6 = kernels.g_derivs(mu, z, c)

    worst = {"f": 0.0, "k": 0.0, "g3": 0.0, "g4": 0.0, "g6": 0.0}
    for i in range(n):
        zz, cc = float(z[i]), float(c[i])

        def cell(y):
            lam = mp.e ** y + cc
            return cc + mp.e ** y - (zz * mp.log(lam) if zz > 0 else mp.mpf(0))

        d1 = float(mp.diff(cell, mu[i], 1))
        d2 = float(mp.diff(cell, mu[i], 2))
        d3 = float(mp.diff(cell, mu[i], 3))
        d4 = float(mp.diff(cell, mu[i], 4))
        d6 = float(mp.diff(cell, mu[i], 6))

        def rel(a, b):
            return abs(a - b) / max(1.0, abs(b))

        # f enters through the tangent identity f - k*mu = -g1(data part)
        worst["f"] = max(worst["f"], rel(f[i] - k[i] * mu[i], -d1))
        worst["k"] = max(worst["k"], rel(k[i], d2))
        worst["g3"] = max(worst["g3"], rel(g3[i], d3))
        worst["g4"] = max(worst["g4"], rel(g4[i], d4))
        worst["g6"] = max(worst["g6"], rel(g6[i], d6))

    elapsed = time.perf_counter() - t0
    assert worst["f"] < 1e-6 and worst["k"] < 1e-6
    assert worst["g3"] < 1e-6 and worst["g4"] < 1e-6
    assert worst["g6"] < 1e-4
    assert elapsed < 60.0


@pytest.mark.acceptance(num=2, title="quadrature equivalence, 200 single cells "
                                     "(verbatim tolerance KNOWN-INFEASIBLE)")
def test_criterion_2_quadrature_equivalence():
    """Verbatim criterion. The '<1e-3 for every instance' clause sits below
    the mathematical floor of the Eq.-17 correction subset (see the decisions
    ledger); it is asserted as stated and expected to fail, with both clauses
    reported. The attainable contract is asserted in the companion test."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250809)
    errs_la1, errs_xla, tau2s = [], [], []
    for _ in range(200):
        z = int(rng.integers(0, 21))
        z_prev = int(rng.integers(0, 21))
        eta = rng.uniform(0.0, 0.7)
        tau2 = rng.uniform(0.1, 1.0)
        a = rng.uniform(-1.0, 1.0)
        panel, design, car, params = single_cell_problem(z, z_prev, eta, tau2, a)
        exact = exact_single_cell_logmarginal(z, eta * z_prev, tau2, a)
        errs_la1.append(abs(la1_log_posterior(panel, params, design, car) - exact))
        errs_xla.append(abs(xla_log_posterior(panel, params, design, car) - exact))
        tau2s.append(tau2)
    errs_la1 = np.array(errs_la1)
    errs_xla = np.array(errs_xla)
    elapsed = time.perf_counter() - t0
    frac_better = float(np.mean(errs_xla < errs_la1))
    n_over = int(np.sum(errs_xla >= 1e-3))
    print(f"\ncriterion 2 detail: max|xla-exact|={errs_xla.max():.3e}, "
          f"{n_over}/200 instances over 1e-3, xla beats la1 in "
          f"{100 * frac_better:.1f}% (need >= 90%), runtime {elapsed:.1f}s")
    assert elapsed < 300.0
    assert frac_better >= 0.90, "ordering clause failed"
    assert errs_xla.max() < 1e-3, (
        f"verbatim tolerance clause: max error {errs_xla.max():.3e} exceeds 1e-3 "
        "(intrinsic O(h^4) floor of the prescribed correction subset; "
        "see decisions ledger)")


@pytest.mark.acceptance(num="2b", title="quadrature equivalence, attainable contract")
def test_criterion_2_attainable_contract():
    rng = np.random.default_rng(20250809)
    rows = []
    for _ in range(200):
        z = int(rng.integers(0, 21))
        z_prev = int(rng.integers(0, 21))
        eta = rng.uniform(0.0, 0.7)
        tau2 = rng.uniform(0.1, 1.0)
        a = rng.uniform(-1.0, 1.0)
        panel, design, car, params = single_cell_problem(z, z_prev, eta, tau2, a)
        exact = exact_single_cell_logmarginal(z, eta * z_prev, tau2, a)
        la1 = la1_log_posterior(panel, params, design, car)
        xla = xla_log_posterior(panel, params, design, car)
        rows.append((tau2, abs(la1 - exact), abs(xla - exact)))
    rows = np.array(rows)
    # measured behavior of the verified implementation (see decisions ledger):
    # median error ~2e-3, tau2<=0.4 subset max ~6.7e-2, xla beats la1 in 94%
    assert float(np.mean(rows[:, 2] < rows[:, 1])) >= 0.90
    assert float(np.median(rows[:, 2])) < 5e-3
    low = rows[rows[:, 0] <= 0.4]
    assert low[:, 2].max() < 0.1


@pytest.mark.slow
@pytest.mark.acceptance(num=3, title="Table-1 bias ordering at reduced scale")
def test_criterion_3_bias_ordering():
    config = BiasStudyConfig(cells=[(0.1, 0.4), (0.4, 0.6)], n_reps=10,
                             rows=10, cols=10, T=100, zeta=0.245)
    report = bias_study(config, methods=("la1", "xla"), seed=31)

    b_la1_a = report.mean_rel_bias(0.1, 0.4, "la1")
    b_xla_a = report.mean_rel_bias(0.1, 0.4, "xla")
    b_la1_b = report.mean_rel_bias(0.4, 0.6, "la1")
    b_xla_b = report.mean_rel_bias(0.4, 0.6, "xla")
    print(f"\ncriterion 3 detail: cell(.1,.4) la1={b_la1_a:+.3f} xla={b_xla_a:+.3f}; "
          f"cell(.4,.6) la1={b_la1_b:+.3f} xla={b_xla_b:+.3f}")
    assert abs(b_xla_a) < abs(b_la1_a)
    assert abs(b_xla_b) < abs(b_la1_b)
    # per-replicate ordering holds in the majority of replicates
    for eta, tau2 in config.cells:
        la1_rows = {r.replicate: r for r in report.cell_rows(eta, tau2, "la1")}
        wins = sum(abs(r.rel_bias["tau2"]) <= abs(la1_rows[r.replicate].rel_bias["tau2"])
                   for r in report.cell_rows(eta, tau2, "xla"))
        assert wins > config.n_reps / 2, (eta, tau2, wins)
    # paper's magnitude .12; sign is negative per its own sec. 7 finding
    # ("LA(1) appears to underestimate tau^2") - see decisions ledger
    assert 0.05 <= abs(b_la1_a) <= 0.30
    assert b_la1_a < 0.0
    assert abs(b_xla_a) <= 0.10

    # extreme cell: ordering only (la1 >> xla >> mcmc in magnitude)
    config_x = BiasStudyConfig(cells=[(0.7, 1.0)], n_reps=3, rows=10, cols=10,
                               T=100, zeta=0.245, mcmc_iter=4000, mcmc_chains=2)
    report_x = bias_study(config_x, methods=("la1", "xla", "mcmc"), seed=77)
    b_la1 = abs(report_x.mean_rel_bias(0.7, 1.0, "la1"))
    b_xla = abs(report_x.mean_rel_bias(0.7, 1.0, "xla"))
    b_mcmc = abs(report_x.mean_rel_bias(0.7, 1.0, "mcmc"))
    print(f"criterion 3 extreme cell: |la1|={b_la1:.3f} |xla|={b_xla:.3f} "
          f"|mcmc|={b_mcmc:.3f}")
    assert b_la1 > b_xla > b_mcmc
    assert report_x.preferred_method(0.7, 1.0) == "mcmc"


@pytest.mark.acceptance(num=4, title="MCMC-vs-XLA agreement on 5x5, T=50")
def test_criterion_4_mcmc_vs_xla():
    t0 = time.perf_counter()
    truth = ModelParams(eta=0.3, zeta=0.15, tau2=0.5, beta=np.array([0.0]))
    car, design, panel, latent = torus_problem(5, 5, 50, truth, seed=404)
    priors = PriorSpec()

    # log_joint identity at stated tolerance on this instance
    rng = np.random.default_rng(1)
    for _ in range(20):
        params = ModelParams(eta=rng.uniform(0, 0.8), zeta=rng.uniform(-0.2, 0.2),
                             tau2=rng.uniform(0.2, 1.5), beta=np.array([rng.normal()]))
        y = rng.normal(0.0, 1.0, (panel.T, panel.n_d))
        alpha = linear_predictor(design, params.beta)
        assembled = (-g_value(y, panel, params, alpha, car)
                     + 0.5 * logdet_precision(car, params.zeta, params.tau2, panel.T)
                     - 0.5 * panel.n_cells * np.log(2 * np.pi)
                     + priors.log_prior(params, car))
        assert abs(log_joint(params, y, panel, design, car, priors)
                   - assembled) < 1e-10

    fit = maximize_posterior(panel, design, car, priors, method="xla")
    assert fit.converged
    samples, diag = run_chains(panel, design, car, priors, n_chains=3,
                               n_iter=6000, seed=505)
    summ = posterior_summary(samples)
    mode_values = {"tau2": fit.params_hat.tau2, "zeta": fit.params_hat.zeta,
                   "eta": fit.params_hat.eta, "beta0": float(fit.params_hat.beta[0])}
    print(f"\ncriterion 4 detail: max R-hat {diag.max_rhat():.3f}; "
          + "; ".join(f"{k}: mode {v:.3f} in ({summ[k]['q025']:.3f},"
                      f"{summ[k]['q975']:.3f})" for k, v in mode_values.items()))
    for name, value in mode_values.items():
        assert summ[name]["q025"] <= value <= summ[name]["q975"], name
    assert diag.max_rhat() < 1.05
    assert time.perf_counter() - t0 < 1800.0


@pytest.mark.acceptance(num=5, title="spectral log-determinant identity")
def test_criterion_5_logdet_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 51))
        p_edge = rng.uniform(0.05, 0.5)
        a = (rng.uniform(size=(n, n)) < p_edge).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        car = CarStructure.from_graph(SpatialGraph(a))
        lo, hi = car.zeta_bounds
        lo, hi = max(lo, -20.0), min(hi, 20.0)
        zeta = rng.uniform(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo))
        tau2 = rng.uniform(0.05, 3.0)
        T = int(rng.integers(1, 4))
        q = car_precision_block(car, zeta, tau2)
        _, dense = np.linalg.slogdet(q)
        spectral = logdet_precision(car, zeta, tau2, T)
        assert abs(spectral - T * dense) < 1e-8 * max(1.0, abs(T * dense))
        checked += 1
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.acceptance(num=6, title="spatial correlation formula vs long simulation")
def test_criterion_6_spatial_correlation():
    t0 = time.perf_counter()
    car = CarStructure.from_graph(build_torus_lattice(10, 10))
    settings = [
        (0.245, 0.4, 0.1),
        (0.15, 0.6, 0.3),
        (0.08, 0.5, 0.0),
    ]
    T = 20000
    design = CovariateDesign.intercept_only(T, car.n_d)
    for idx, (zeta, tau2, eta) in enumerate(settings):
        params = ModelParams(eta=eta, zeta=zeta, tau2=tau2, beta=np.array([0.0]))
        formula = spatial_correlation(params, car, 0, 1)  # adjacent pair
        panel, _ = simulate(car, params, design, T, seed=600 + idx)
        x = panel.counts[:, 0].astype(float)
        y = panel.counts[:, 1].astype(float)
        # batched correlation estimates give an honest MC standard error
        n_batch = 40
        batch = T // n_batch
        corrs = []
        for b in range(n_batch):
            xs = x[b * batch:(b + 1) * batch]
            ys = y[b * batch:(b + 1) * batch]
            corrs.append(np.corrcoef(xs, ys)[0, 1])
        corrs = np.array(corrs)
        emp = float(np.mean(corrs))
        se = float(np.std(corrs, ddof=1) / np.sqrt(n_batch))
        print(f"\ncriterion 6 detail: zeta={zeta} tau2={tau2} eta={eta}: "
              f"formula={formula:.4f} empirical={emp:.4f} +- {se:.4f}")
        assert abs(formula - emp) <= 3.0 * se, (zeta, tau2, eta)
    assert time.perf_counter() - t0 < 600.0


@pytest.mark.acceptance(num=7, title="PIT calibration over 40 replicate runs")
def test_criterion_7_pit_calibration():
    t0 = time.perf_counter()
    truth = ModelParams(eta=0.3, zeta=0.15, tau2=0.5, beta=np.array([0.2]))
    passes = 0
    n_reps = 40
    for rep in range(n_reps):
        car, design, panel, _ = torus_problem(5, 5, 60, truth, seed=7000 + rep)
        priors = PriorSpec()
        fit = maximize_posterior(panel, design, car, priors, method="xla")
        res = pit_residuals(panel, design, car, fit, n_theta_draws=60,
                            seed=8000 + rep, gh_points=21)
        _, pvalue = kstest(res.u.ravel(), "uniform")
        passes += pvalue > 0.01
    elapsed = time.perf_counter() - t0
    print(f"\ncriterion 7 detail: {passes}/{n_reps} replicates pass KS at "
          f"alpha=.01, runtime {elapsed:.0f}s")
    assert passes >= int(np.ceil(0.95 * n_reps))
    assert elapsed < 900.0


needs_chicago = pytest.mark.skipif(
    not (CHICAGO_DIR / "chi.graph").exists(),
    reason="supplemental Chicago files not present under data/chicago/ "
           "(chi.graph, counts.csv, covariates.csv)")


@pytest.mark.slow
@needs_chicago
@pytest.mark.acceptance(num=8, title="Chicago reproduction (Tables 2-3)")
def test_criterion_8_chicago_reproduction():
    from secar import load_graph
    from secar import io as sio

    graph = load_graph(CHICAGO_DIR / "chi.graph")
    assert graph.n_d == 77
    assert abs(graph.eigenvalues[-1] - 5.4) < 0.2
    car = CarStructure.from_graph(graph)
    assert 0.184 < car.zeta_bounds[1] < 0.186

    panel = sio.read_counts_csv(CHICAGO_DIR / "counts.csv")
    design = sio.read_covariates_csv(CHICAGO_DIR / "covariates.csv",
                                     panel.T, panel.n_d)
    design = sio.standardize_covariates(design, [design.names[1]])
    priors = PriorSpec(zeta_interval=(0.0, car.zeta_bounds[1]))

    fit = maximize_posterior(panel, design, car, priors, method="xla")
    assert fit.converged
    th = fit.params_hat
    assert abs(th.tau2 - 0.52) <= 0.03
    assert abs(th.zeta - 0.179) <= 0.03
    assert abs(th.eta - 0.50) <= 0.03
    for got, want in zip(th.beta, (-5.6, 0.18, 0.49)):
        assert abs(got - want) <= 0.2

    intervals = credible_intervals(fit, 0.95)
    table3 = {"tau2": (0.43, 0.61), "zeta": (0.176, 0.182), "eta": (0.47, 0.53),
              "beta0": (-6.3, -4.9), "beta1": (0.09, 0.27), "beta2": (0.42, 0.55)}
    for name, (lo, hi) in table3.items():
        got_lo, got_hi = intervals[name]
        assert abs(got_lo - lo) <= 0.05 and abs(got_hi - hi) <= 0.05, name

    # local-mode check at the reported optimum
    from secar.inference import LaplaceObjective
    obj = LaplaceObjective(panel, design, car, priors, method="xla")
    at_hat = obj.evaluate(th)
    for factor in (0.9, 1.1):
        perturbed = ModelParams(eta=th.eta, zeta=th.zeta, tau2=th.tau2 * factor,
                                beta=th.beta)
        assert obj.evaluate(perturbed) < at_hat

    fit_la1 = maximize_posterior(panel, design, car, priors, method="la1")
    assert abs(fit_la1.params_hat.tau2 - 0.38) <= 0.05
