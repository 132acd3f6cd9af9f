"""Spatial correlation, PIT residuals, effective parameters, bias harness."""

import numpy as np
import pytest
from scipy.stats import kstest

from helpers import (assert_diagonals_of_inverse_blocks, count_find_mode, single_node_car,
                     spy_inverse_diagonal, torus_problem)
from secar import (BiasStudyConfig, CarStructure, CountPanel, CovariateDesign,
                   ModelParams, PriorSpec, SpatialGraph, bias_study, build_torus_lattice,
                   effective_parameters, pit_residuals, spatial_correlation)
from secar import diagnostics
from secar.diagnostics import BiasStudyReport, _theta_draws_from
from secar.mode import ModeError


@pytest.fixture(scope="module")
def torus10():
    return CarStructure.from_graph(build_torus_lattice(10, 10))


class TestSpatialCorrelation:
    def test_zero_coupling_gives_zero(self, torus10):
        p = ModelParams(eta=0.3, zeta=0.0, tau2=0.5, beta=np.array([0.2]))
        assert spatial_correlation(p, torus10, 0, 1) == 0.0

    def test_same_location_is_variance_ratio(self, torus10):
        p = ModelParams(eta=0.1, zeta=0.2, tau2=0.4, beta=np.array([0.0]))
        r = spatial_correlation(p, torus10, 3, 3)
        assert 0.0 < r <= 1.0

    def test_symmetry_on_torus(self, torus10):
        p = ModelParams(eta=0.2, zeta=0.22, tau2=0.6, beta=np.array([0.1]))
        for i, j in ((0, 1), (5, 17), (40, 43)):
            assert abs(spatial_correlation(p, torus10, i, j)
                       - spatial_correlation(p, torus10, j, i)) < 1e-12

    def test_decreasing_in_ring_distance(self, torus10):
        p = ModelParams(eta=0.1, zeta=0.24, tau2=0.5, beta=np.array([0.0]))
        # torus rings around node 0 (row 0, col 0) on the 10x10 lattice
        def ring(d):
            out = []
            for r in range(10):
                for c in range(10):
                    dist = min(r, 10 - r) + min(c, 10 - c)
                    if dist == d:
                        out.append(r * 10 + c)
            return out

        means = [np.mean([spatial_correlation(p, torus10, 0, j) for j in ring(d)])
                 for d in (1, 2, 3)]
        assert means[0] > means[1] > means[2] > 0.0

    def test_spectral_covariance_matches_dense_inverse(self):
        # irregular graph: unequal degrees and an isolated node
        rng = np.random.default_rng(4)
        a = np.triu(rng.uniform(size=(12, 12)) < 0.3, 1).astype(float)
        a[:, 11] = a[11, :] = 0.0
        car = CarStructure.from_graph(SpatialGraph(a + a.T))
        p = ModelParams(eta=0.3, zeta=0.8 * car.zeta_bounds[1], tau2=0.7,
                        beta=np.array([0.4]))
        sigma = p.tau2 * np.linalg.inv(np.eye(12) - p.zeta * car.graph.dense_adjacency)
        m = np.exp(p.beta[0] + 0.5 * np.diag(sigma))
        var_z = (m / (1 - p.eta) + m ** 2 * (np.exp(np.diag(sigma)) - 1)) / (1 - p.eta ** 2)
        locations = np.arange(12)
        np.testing.assert_allclose(
            diagnostics._latent_covariance(p, car, locations, locations),
            np.diag(sigma), rtol=1e-12)
        for i, j in ((0, 1), (2, 9), (5, 5), (3, 11)):
            cov_z = m[i] * m[j] * (np.exp(sigma[i, j]) - 1) / (1 - p.eta ** 2)
            assert abs(spatial_correlation(p, car, i, j)
                       - cov_z / np.sqrt(var_z[i] * var_z[j])) < 1e-12

    def test_inadmissible_parameters_rejected(self, torus10):
        with pytest.raises(Exception):
            spatial_correlation(ModelParams(eta=0.1, zeta=0.3, tau2=0.5),
                                torus10, 0, 1)
        p = ModelParams(eta=0.1, zeta=0.1, tau2=0.5)
        with pytest.raises(ValueError, match="indices"):
            spatial_correlation(p, torus10, 0, 250)


class TestPitResiduals:
    def test_values_strictly_inside_unit_interval(self, small_problem):
        draws = [small_problem["truth"]] * 50
        res = pit_residuals(small_problem["panel"], small_problem["design"],
                            small_problem["car"], draws, seed=1)
        assert np.all(res.u > 0.0) and np.all(res.u < 1.0)
        assert res.u.shape == (40, 25)
        assert res.by_location().shape == (25,)

    def test_deterministic_under_seed(self, small_problem):
        draws = [small_problem["truth"]] * 50
        a = pit_residuals(small_problem["panel"], small_problem["design"],
                          small_problem["car"], draws, seed=9)
        b = pit_residuals(small_problem["panel"], small_problem["design"],
                          small_problem["car"], draws, seed=9)
        np.testing.assert_array_equal(a.u, b.u)
        c = pit_residuals(small_problem["panel"], small_problem["design"],
                          small_problem["car"], draws, seed=10)
        assert not np.array_equal(a.u, c.u)

    def test_insufficient_draws_rejected(self, small_problem):
        with pytest.raises(ValueError, match="at least 50"):
            pit_residuals(small_problem["panel"], small_problem["design"],
                          small_problem["car"], [small_problem["truth"]] * 10)

    def test_degenerate_cells_give_uniform_residuals(self):
        # lambda ~ 0 and z = 0: F(-1) = 0, F(0) ~ 1, so u ~ Unif(0,1)
        car = single_node_car()
        T = 600
        panel = CountPanel(np.zeros((T, 1), dtype=int), np.zeros(1, dtype=int))
        design = CovariateDesign.intercept_only(T, 1)
        params = ModelParams(eta=0.0, zeta=0.0, tau2=1e-6, beta=np.array([-12.0]))
        res = pit_residuals(panel, design, car, [params] * 50, seed=3)
        stat, pvalue = kstest(res.u.ravel(), "uniform")
        assert pvalue > 0.01

    def test_uniform_under_true_model(self, small_problem):
        draws = [small_problem["truth"]] * 60
        res = pit_residuals(small_problem["panel"], small_problem["design"],
                            small_problem["car"], draws, seed=21)
        _, pvalue = res.ks_uniform()
        assert pvalue > 0.01


class TestEffectiveParameters:
    def test_degenerate_posterior_has_no_effective_parameters(self):
        car = single_node_car()
        T = 20
        counts = np.full((T, 1), 3, dtype=int)
        panel = CountPanel(counts, np.array([3]))
        design = CovariateDesign.intercept_only(T, 1)
        params = ModelParams(eta=0.0, zeta=0.0, tau2=1e-10, beta=np.array([1.0]))
        eff = effective_parameters(panel, design, car, [params] * 50,
                                   n_theta_draws=50, seed=2)
        assert abs(eff.p_d) < 0.5

    def test_free_mean_cells_count_as_parameters(self):
        # 30 cells with weak prior and large counts: pD ~ number of cells,
        # so observations-per-parameter flags saturation (ratio ~ 1)
        car = single_node_car()
        T = 30
        panel = CountPanel(np.full((T, 1), 100, dtype=int), np.array([100]))
        design = CovariateDesign.intercept_only(T, 1)
        params = ModelParams(eta=0.0, zeta=0.0, tau2=25.0, beta=np.array([np.log(100.0)]))
        eff = effective_parameters(panel, design, car, [params] * 60,
                                   n_theta_draws=60, n_y_draws=10, seed=4)
        assert abs(eff.p_d - 30.0) < 3.0
        assert eff.obs_per_param < 1.3

    @staticmethod
    def _draws(truth, n=50, seed=6):
        rng = np.random.default_rng(seed)
        return [ModelParams(eta=truth.eta * rng.uniform(0.7, 1.3),
                            zeta=truth.zeta * rng.uniform(0.7, 1.3),
                            tau2=truth.tau2 * rng.uniform(0.7, 1.3),
                            beta=truth.beta + rng.normal(0.0, 0.05, truth.p))
                for _ in range(n)]

    def test_modes_do_not_depend_on_draw_order(self, small_problem, monkeypatch):
        # every draw's mode starts from the anchor at the first draw, so
        # reordering the other draws, which also regroups them into other
        # stacks, leaves each mode bit-identical
        real, modes = diagnostics.mode_stacks, []

        def spy(panel, thetas, design, car, anchor=None):
            stacks = list(real(panel, thetas, design, car, anchor))
            modes.extend((params.vector().tobytes(), mode.mu_star)
                         for params, mode in zip(thetas, (m for s in stacks for m in s)))
            yield from stacks

        monkeypatch.setattr(diagnostics, "mode_stacks", spy)
        draws = self._draws(small_problem["truth"])
        perm = [0] + list(1 + np.random.default_rng(2).permutation(len(draws) - 1))
        found = []
        for order in (draws, [draws[i] for i in perm]):
            modes.clear()
            effective_parameters(small_problem["panel"], small_problem["design"],
                                 small_problem["car"], order, n_theta_draws=50, seed=1)
            found.append(dict(modes))
        assert len(found[0]) == len(draws) and found[0].keys() == found[1].keys()
        for key, mu in found[0].items():
            np.testing.assert_array_equal(found[1][key], mu)

    def test_variances_are_the_inverse_block_diagonals(self, small_problem, monkeypatch):
        calls = spy_inverse_diagonal(monkeypatch, diagnostics)
        effective_parameters(small_problem["panel"], small_problem["design"],
                             small_problem["car"], self._draws(small_problem["truth"]),
                             n_theta_draws=50, n_y_draws=1, seed=1)
        assert len(calls) == 50
        assert_diagonals_of_inverse_blocks(calls)

    def test_failed_mode_raises(self, small_problem, monkeypatch):
        count_find_mode(monkeypatch, max_iter=1)
        with pytest.raises(ModeError):
            effective_parameters(small_problem["panel"], small_problem["design"],
                                 small_problem["car"], self._draws(small_problem["truth"]),
                                 n_theta_draws=50, seed=1)

    def test_finite_when_intensity_underflows(self):
        # zero counts and a zero offset: exp(y) underflows to 0, so a naive
        # 0 * log(0) would turn the deviance into nan
        car = CarStructure.from_graph(build_torus_lattice(3, 3))
        T = 2
        panel = CountPanel(np.zeros((T, 9), dtype=int), np.zeros(9, dtype=int))
        design = CovariateDesign.intercept_only(T, 9)
        params = ModelParams(eta=0.0, zeta=0.1, tau2=0.5, beta=np.array([-800.0]))
        eff = effective_parameters(panel, design, car, [params] * 50,
                                   n_theta_draws=50, seed=1)
        assert eff.p_d == 0.0
        assert eff.deviance_mean == 0.0


class TestThetaDrawSources:
    def test_chain_samples_source(self, small_problem):
        from secar import ChainSamples
        rng = np.random.default_rng(0)
        theta = np.empty((2, 100, 4))
        theta[:, :, 0] = rng.uniform(0.3, 0.7, (2, 100))   # tau2
        theta[:, :, 1] = rng.uniform(0.0, 0.2, (2, 100))   # zeta
        theta[:, :, 2] = rng.uniform(0.1, 0.5, (2, 100))   # eta
        theta[:, :, 3] = rng.normal(0.2, 0.1, (2, 100))    # beta0
        samples = ChainSamples(names=["tau2", "zeta", "eta", "beta0"],
                               theta=theta, log_joint=np.zeros((2, 100)))
        draws = _theta_draws_from(samples, 80, seed=0)
        assert len(draws) == 80
        res = pit_residuals(small_problem["panel"], small_problem["design"],
                            small_problem["car"], samples, n_theta_draws=80, seed=5)
        assert np.all((res.u > 0) & (res.u < 1))


class TestBiasStudy:
    def test_smoke_single_cell(self):
        config = BiasStudyConfig(cells=[(0.2, 0.5)], n_reps=1, rows=5, cols=5,
                                 T=25, zeta=0.2, burn_in=20)
        report = bias_study(config, methods=("la1",), seed=3)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.method == "la1"
        assert row.converged
        assert np.isfinite(row.rel_bias["tau2"])
        assert np.isfinite(row.seconds)
        mrb = report.mean_rel_bias(0.2, 0.5, "la1")
        assert np.isfinite(mrb)
        assert report.preferred_method(0.2, 0.5) in ("la1", "mcmc")
        text = report.summary_text()
        assert "eta=0.2" in text and "preferred=" in text

    def test_eta_zero_relative_bias_is_nan(self):
        config = BiasStudyConfig(cells=[(0.0, 0.5)], n_reps=1, rows=4, cols=4,
                                 T=15, zeta=0.1, burn_in=10)
        report = bias_study(config, methods=("la1",), seed=8)
        assert np.isnan(report.rows[0].rel_bias["eta"])
        assert np.isfinite(report.rows[0].rel_bias["tau2"])

    def test_mcmc_rows_are_filled(self):
        config = BiasStudyConfig(cells=[(0.1, 0.4)], n_reps=1, rows=3, cols=3, T=10,
                                 mcmc_iter=100, mcmc_chains=2)
        report = bias_study(config, methods=("mcmc",), seed=4)
        row = report.rows[0]
        assert row.method == "mcmc"
        assert all(np.isfinite(row.estimates[nm]) for nm in ("tau2", "zeta", "eta", "beta0"))
        assert np.isfinite(row.seconds)

    def test_failed_fit_warns_and_keeps_nan_row(self, monkeypatch):
        def failing_fit(method, *args):
            raise FloatingPointError("no mode")

        monkeypatch.setattr(diagnostics, "_fit_one", failing_fit)
        config = BiasStudyConfig(cells=[(0.1, 0.4)], n_reps=1, rows=3, cols=3, T=5,
                                 burn_in=5)
        with pytest.warns(UserWarning, match=r"la1 fit failed in cell \(eta=0\.1, "
                          r"tau2=0\.4\), replicate 0: FloatingPointError: no mode"):
            report = bias_study(config, methods=("la1",), seed=1)
        row = report.rows[0]
        assert row.estimates == {} and not row.converged
        assert np.isnan(row.seconds)

    def test_preferred_method_threshold_logic(self):
        config = BiasStudyConfig(cells=[(0.1, 0.4)], n_reps=1)
        report = BiasStudyReport(config=config, methods=("la1", "xla"))
        from secar.diagnostics import BiasRow
        report.rows.append(BiasRow(0.1, 0.4, 0, "la1", {}, {"tau2": -0.3}, 1.0, True))
        report.rows.append(BiasRow(0.1, 0.4, 0, "xla", {}, {"tau2": -0.05}, 1.0, True))
        assert report.preferred_method(0.1, 0.4) == "xla"
        report.rows[1] = BiasRow(0.1, 0.4, 0, "xla", {}, {"tau2": -0.2}, 1.0, True)
        assert report.preferred_method(0.1, 0.4) == "mcmc"
        report.rows[0] = BiasRow(0.1, 0.4, 0, "la1", {}, {"tau2": 0.1}, 1.0, True)
        assert report.preferred_method(0.1, 0.4) == "la1"
