"""Sampler: joint density identity, moves, diagnostics, summaries."""

import numpy as np
import pytest

from helpers import reference_mala_sweep, single_cell_problem, torus_problem
from secar import (CarStructure, ChainSamples, CountPanel, CovariateDesign,
                   ModelParams, PriorSpec, build_torus_lattice, find_mode, g_value,
                   kernels, linear_predictor, log_joint, logdet_precision,
                   maximize_posterior, posterior_summary, run_chains, simulate)
from secar import mcmc
from secar.graph import car_precision_block
from secar.inference import ParamTransform, default_start_params
from secar.mcmc import (_init_state, _total, _update_rescale, _update_theta,
                        _update_translate, effective_sample_size, rw_log_acceptance,
                        split_rhat)
from secar.mode import triangular_inverse

LOG_2PI = np.log(2.0 * np.pi)


class TestLogJoint:
    def test_identity_with_g_value_assembly(self, small_problem):
        car, panel = small_problem["car"], small_problem["panel"]
        design, priors = small_problem["design"], PriorSpec()
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(100):
            params = ModelParams(eta=rng.uniform(0, 0.9),
                                 zeta=rng.uniform(-0.25, 0.22),
                                 tau2=rng.uniform(0.1, 2.0),
                                 beta=np.array([rng.normal(0, 1)]))
            y = rng.normal(0.0, 1.0, (panel.T, panel.n_d))
            lj = log_joint(params, y, panel, design, car, priors)
            alpha = linear_predictor(design, params.beta)
            assembled = (-g_value(y, panel, params, alpha, car)
                         + 0.5 * logdet_precision(car, params.zeta, params.tau2, panel.T)
                         - 0.5 * panel.n_cells * LOG_2PI
                         + priors.log_prior(params, car))
            worst = max(worst, abs(lj - assembled))
        assert worst < 1e-10

    def test_zero_quadratic_at_prior_mean(self, torus3):
        T, n = 3, 9
        panel = CountPanel(np.ones((T, n), dtype=int), np.ones(n, dtype=int))
        design = CovariateDesign.intercept_only(T, n)
        priors = PriorSpec()
        params = ModelParams(eta=0.0, zeta=0.0, tau2=1.0, beta=np.array([0.4]))
        alpha = linear_predictor(design, params.beta)
        lj = log_joint(params, alpha, panel, design, car=torus3, priors=priors)
        lam = np.exp(alpha)
        expected = (float(np.sum(panel.counts * np.log(lam) - lam))
                    - 0.5 * T * n * LOG_2PI + priors.log_prior(params, torus3))
        assert abs(lj - expected) < 1e-12

    def test_identical_blocks_double_with_T(self, torus3):
        n = 9
        params = ModelParams(eta=0.3, zeta=0.1, tau2=0.6, beta=np.array([0.2]))
        priors = PriorSpec()
        prior_val = priors.log_prior(params, torus3)

        def lj_for(T):
            counts = np.full((T, n), 2, dtype=int)
            panel = CountPanel(counts, np.full(n, 2, dtype=int))
            design = CovariateDesign.intercept_only(T, n)
            y = np.tile(np.linspace(-0.5, 0.5, n), (T, 1))
            return log_joint(params, y, panel, design, torus3, priors)

        one, two = lj_for(4), lj_for(8)
        assert abs((two - prior_val) - 2.0 * (one - prior_val)) < 1e-9

    def test_finite_when_intensity_underflows(self, torus3):
        # zero counts and a zero offset: exp(Y) underflows to 0, so a naive
        # 0 * log(0) would turn the data term into nan
        T, n = 2, 9
        panel = CountPanel(np.zeros((T, n), dtype=int), np.zeros(n, dtype=int))
        design = CovariateDesign.intercept_only(T, n)
        priors = PriorSpec()
        params = ModelParams(eta=0.0, zeta=0.1, tau2=0.5, beta=np.array([0.0]))
        y = np.full((T, n), -800.0)
        alpha = linear_predictor(design, params.beta)
        g = g_value(y, panel, params, alpha, torus3)
        lj = log_joint(params, y, panel, design, torus3, priors)
        assert np.isfinite(g) and np.isfinite(lj)
        assembled = (-g + 0.5 * logdet_precision(torus3, params.zeta, params.tau2, T)
                     - 0.5 * panel.n_cells * LOG_2PI + priors.log_prior(params, torus3))
        assert abs(lj - assembled) < 1e-12 * abs(assembled)

    def test_empty_panel_is_the_log_prior(self, torus3):
        panel = CountPanel(np.zeros((0, 9), dtype=int), np.zeros(9, dtype=int))
        design = CovariateDesign.intercept_only(0, 9)
        params = ModelParams(eta=0.3, zeta=0.1, tau2=0.7, beta=np.array([0.4]))
        priors = PriorSpec()
        lj = log_joint(params, np.zeros((0, 9)), panel, design, torus3, priors)
        assert lj == priors.log_prior(params, torus3)

    def test_inadmissible_theta_rejected(self, small_problem):
        bad = ModelParams(eta=0.3, zeta=0.6, tau2=0.5)
        lj = log_joint(bad, small_problem["latent"], small_problem["panel"],
                       small_problem["design"], small_problem["car"], PriorSpec())
        assert lj == -np.inf


class TestKernelProperties:
    def test_detailed_balance_of_random_walk_ratio(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            la, lb = rng.normal(size=2) * 10.0
            fwd = rw_log_acceptance(la, lb)
            rev = rw_log_acceptance(lb, la)
            assert abs(fwd + rev) < 1e-12
            assert abs(np.exp(fwd) * np.exp(rev) - 1.0) < 1e-12


def _sweeps_agree(panel, design, car, params, eps_values, n_sweeps=4, seed=0,
                  z=None, start=None):
    """Run the stacked sweep and the per-block reference from the same state
    and draws; check equal accept counts and Y after every sweep. Returns
    the accept counts and the final Y."""
    alpha = linear_predictor(design, params.beta)
    mode = find_mode(panel, params, alpha, car)
    chols = mode.chol_blocks
    linv = triangular_inverse(find_mode(panel, params, alpha, car).chol_blocks)
    q = car_precision_block(car, params.zeta, params.tau2)
    z = panel.counts.astype(np.float64) if z is None else z
    c = params.eta * panel.prev_counts()
    rng = np.random.default_rng(seed)
    if start is None:
        start = mode.mu_star + 0.3 * rng.standard_normal(mode.mu_star.shape)
    y_stack, y_loop = start.copy(), start.copy()
    counts = []
    for eps in eps_values:
        for _ in range(n_sweeps):
            normals = rng.standard_normal(start.shape)
            unifs = rng.uniform(size=panel.T)
            got = kernels.mala_sweep(y_stack, alpha, q, linv, z, c, eps, normals, unifs)
            want = reference_mala_sweep(y_loop, alpha, q, chols, z, c, eps, normals, unifs)
            assert got == want, (eps, got, want)
            np.testing.assert_allclose(y_stack, y_loop, rtol=0.0, atol=1e-12)
            counts.append(got)
    return counts, y_stack


class TestStackedMalaSweep:
    truth = ModelParams(eta=0.3, zeta=0.15, tau2=0.5, beta=np.array([0.2]))

    def test_preconditioner_inverts_factors_in_place(self):
        car, design, panel, _ = torus_problem(5, 5, 20, self.truth, seed=3)
        alpha = linear_predictor(design, self.truth.beta)
        mode = find_mode(panel, self.truth, alpha, car)
        chols = mode.chol_blocks.copy()
        linv = triangular_inverse(mode.chol_blocks)
        assert linv is mode.chol_blocks
        err = np.abs(np.matmul(linv, chols) - np.eye(panel.n_d)).max()
        assert err < 1e-12
        assert np.all(np.triu(linv, 1) == 0.0)

    def test_matches_loop_on_panel(self):
        car, design, panel, _ = torus_problem(5, 5, 20, self.truth, seed=3)
        small, medium, large = (_sweeps_agree(panel, design, car, self.truth, [eps])[0]
                                for eps in (0.3, 0.8, 1.5))
        assert min(small) > 15  # nearly every block accepted
        assert 0 < sum(medium) < 4 * panel.T  # mixed decisions
        assert max(large) < 5  # nearly every block rejected

    def test_overflowing_proposal_rejected(self):
        car, design, panel, _ = torus_problem(5, 5, 20, self.truth, seed=3)
        alpha = linear_predictor(design, self.truth.beta)
        start = find_mode(panel, self.truth, alpha, car).mu_star
        z = panel.counts.astype(np.float64)
        z[7] = 1e6  # the gradient throws block 7 beyond exp's range
        linv = triangular_inverse(find_mode(panel, self.truth, alpha, car).chol_blocks)
        q = car_precision_block(car, self.truth.zeta, self.truth.tau2)
        c = self.truth.eta * panel.prev_counts()
        xi = np.random.default_rng(0).standard_normal(start.shape)[7]
        a = -linv[7] @ kernels.block_grad(start[7], alpha[7], q, z[7], c[7])
        assert (start[7] + 0.3 * linv[7].T @ (xi + 0.15 * a)).max() > 710.0
        counts, y = _sweeps_agree(panel, design, car, self.truth, [0.3], n_sweeps=1,
                                  z=z, start=start)
        assert 0 < counts[0] < panel.T
        np.testing.assert_array_equal(y[7], start[7])

    def test_all_zero_block(self):
        car, design, panel, _ = torus_problem(5, 5, 20, self.truth, seed=3)
        counts = panel.counts.copy()
        counts[5] = 0
        panel = CountPanel(counts, panel.initial_counts)
        _sweeps_agree(panel, design, car, self.truth, [0.3, 0.8])

    def test_single_time_block(self):
        car, design, panel, _ = torus_problem(3, 3, 1, self.truth, seed=4)
        _sweeps_agree(panel, design, car, self.truth, [0.3, 0.8, 1.5])

    def test_single_cell(self):
        panel, design, car, params = single_cell_problem(3, 2, 0.4, 0.7, a=0.1)
        _sweeps_agree(panel, design, car, params, [0.3, 0.8, 1.5], n_sweeps=8)


class TestDiagnosticsMath:
    def test_split_rhat_near_one_for_iid(self):
        rng = np.random.default_rng(3)
        chains = rng.normal(size=(4, 2000))
        assert abs(split_rhat(chains) - 1.0) < 0.02

    # w is exactly 0 at 0.5, and ~1e-33 from rounding at 0.3
    @pytest.mark.parametrize("values", [(0.5, 0.5), (0.3, 0.3), (0.3, 0.7)])
    def test_split_rhat_infinite_for_chains_that_never_moved(self, values):
        chains = np.repeat(np.array(values)[:, None], 40, axis=1)
        assert split_rhat(chains) == np.inf

    def test_split_rhat_large_for_shifted_chains(self):
        rng = np.random.default_rng(3)
        chains = rng.normal(size=(2, 500))
        chains[1] += 5.0
        assert split_rhat(chains) > 2.0

    def test_ess_close_to_n_for_iid(self):
        rng = np.random.default_rng(4)
        chains = rng.normal(size=(4, 1500))
        ess = effective_sample_size(chains)
        assert 0.5 * 6000 < ess < 1.5 * 6000

    def test_ess_small_for_sticky_chain(self):
        rng = np.random.default_rng(5)
        x = np.zeros((2, 2000))
        for c in range(2):
            for t in range(1, 2000):
                x[c, t] = 0.995 * x[c, t - 1] + 0.1 * rng.normal()
        assert effective_sample_size(x) < 300


class TestPosteriorSummary:
    def test_constant_chain_collapses(self):
        theta = np.full((2, 50, 1), 3.3)
        samples = ChainSamples(names=["tau2"], theta=theta, phi=theta.copy(),
                               log_joint=np.zeros((2, 50)))
        summ = posterior_summary(samples)["tau2"]
        assert summ["sd"] == 0.0
        assert summ["q025"] == summ["q975"] == 3.3

    def test_gaussian_samples_recovered(self):
        rng = np.random.default_rng(11)
        theta = rng.normal(2.0, 0.5, size=(3, 4000, 1))
        samples = ChainSamples(names=["x"], theta=theta, phi=theta.copy(),
                               log_joint=np.zeros((3, 4000)))
        summ = posterior_summary(samples)["x"]
        assert abs(summ["mean"] - 2.0) < 0.02
        assert abs(summ["sd"] - 0.5) < 0.02
        assert abs(summ["q025"] - (2.0 - 1.96 * 0.5)) < 0.05


class TestRunChains:
    def test_deterministic_under_seed(self, torus3):
        params = ModelParams(eta=0.2, zeta=0.1, tau2=0.5, beta=np.array([0.0]))
        design = CovariateDesign.intercept_only(10, 9)
        panel, _ = simulate(torus3, params, design, 10, seed=3)
        priors = PriorSpec()
        s1, d1 = run_chains(panel, design, torus3, priors, n_chains=2, n_iter=200,
                            seed=77)
        s2, d2 = run_chains(panel, design, torus3, priors, n_chains=2, n_iter=200,
                            seed=77)
        np.testing.assert_array_equal(s1.theta, s2.theta)
        assert d1.rhat == d2.rhat
        s3, _ = run_chains(panel, design, torus3, priors, n_chains=2, n_iter=200,
                           seed=78)
        assert not np.array_equal(s1.theta, s3.theta)

    def test_finds_latent_mode_twice_per_chain(self, torus3, monkeypatch):
        # once at the chain start (start Y and first preconditioner), once
        # halfway through warm-up
        params = ModelParams(eta=0.2, zeta=0.1, tau2=0.5, beta=np.array([0.0]))
        design = CovariateDesign.intercept_only(10, 9)
        panel, _ = simulate(torus3, params, design, 10, seed=3)
        calls = []

        def counting_find_mode(*args, **kwargs):
            calls.append(args[1])
            return find_mode(*args, **kwargs)

        monkeypatch.setattr(mcmc, "find_mode", counting_find_mode)
        run_chains(panel, design, torus3, PriorSpec(), n_chains=2, n_iter=40, seed=1)
        assert len(calls) == 4

    def test_moves_keep_cached_terms_exact(self, torus3):
        # after every theta move the cached data, s0, s1 and prior terms must
        # add up to the joint density recomputed from scratch
        params = ModelParams(eta=0.2, zeta=0.1, tau2=0.5, beta=np.array([0.0]))
        design = CovariateDesign.intercept_only(10, 9)
        panel, _ = simulate(torus3, params, design, 10, seed=3)
        priors = PriorSpec()
        tr = ParamTransform.for_problem(torus3, priors, design.p)
        phi0 = tr.to_phi(default_start_params(panel, design, torus3, priors))
        rng = np.random.default_rng(4)
        adjacency = torus3.graph.adjacency
        state, _ = _init_state(panel, design, torus3, priors, tr, phi0, rng, adjacency)
        moves = (lambda: _update_theta(state, panel, design, torus3, priors, tr, rng,
                                       adjacency),
                 lambda: _update_rescale(state, panel, torus3, priors, tr, rng),
                 lambda: _update_translate(state, panel, design, torus3, priors, tr, rng))
        accepted = [0, 0, 0]
        for _ in range(40):
            for k, move in enumerate(moves):
                accepted[k] += move()
                want = (log_joint(state.params, state.Y, panel, design, torus3, priors)
                        + tr.log_jacobian(state.phi))
                assert abs(_total(state, torus3, panel) - want) <= 1e-9 * abs(want)
        assert min(accepted) > 0, accepted

    def test_prior_only_run_recovers_uniform_eta(self):
        car = CarStructure.from_graph(build_torus_lattice(3, 3))
        panel = CountPanel(np.zeros((0, 9), dtype=int), np.zeros(9, dtype=int))
        design = CovariateDesign.intercept_only(0, 9)
        samples, diag = run_chains(panel, design, car, PriorSpec(),
                                   n_chains=3, n_iter=6000, seed=5)
        eta = samples.flat("eta")
        for q in (0.25, 0.5, 0.75):
            assert abs(np.quantile(eta, q) - q) < 0.06
        assert diag.rhat["eta"] < 1.1

    def test_reversed_zeta_support_rejected(self, small_problem):
        with pytest.raises(ValueError, match="zeta prior support"):
            run_chains(small_problem["panel"], small_problem["design"],
                       small_problem["car"], PriorSpec(zeta_interval=(0.1, -0.1)),
                       n_chains=2, n_iter=40)

    def test_requires_two_chains(self, small_problem):
        with pytest.raises(ValueError, match="n_chains"):
            run_chains(small_problem["panel"], small_problem["design"],
                       small_problem["car"], PriorSpec(), n_chains=1, n_iter=100)

    def test_agrees_with_xla_mode_on_small_instance(self):
        truth = ModelParams(eta=0.25, zeta=0.1, tau2=0.5, beta=np.array([0.3]))
        car, design, panel, _ = torus_problem(4, 4, 25, truth, seed=29)
        priors = PriorSpec()
        samples, diag = run_chains(panel, design, car, priors, n_chains=2,
                                   n_iter=2500, seed=13)
        summ = posterior_summary(samples)
        fit = maximize_posterior(panel, design, car, priors, method="xla")
        for name, value in (("tau2", fit.params_hat.tau2),
                            ("eta", fit.params_hat.eta),
                            ("beta0", float(fit.params_hat.beta[0]))):
            gap = abs(summ[name]["mean"] - value)
            assert gap < 4.0 * summ[name]["sd"], (name, gap, summ[name]["sd"])
