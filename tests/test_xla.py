"""Extended Laplace corrections: derivative fields, inverse blocks, and the
corrected log-marginal against quadrature oracles."""

import time

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import dblquad

from helpers import (exact_single_cell_logmarginal, hessian_blocks, single_cell_problem,
                     torus_problem)
from secar import (CarStructure, CountPanel, CovariateDesign, ModelParams,
                   SpatialGraph, find_mode, g_derivatives, invert_hessian_blocks,
                   la1_log_posterior, linear_predictor, xla_log_posterior)
from secar import kernels
from secar.xla import correction_terms

mp.mp.dps = 30


def converged_mode(problem):
    alpha = np.full((problem["panel"].T, problem["panel"].n_d), 0.2)
    return find_mode(problem["panel"], problem["truth"], alpha, problem["car"])


class TestDerivativeFields:
    def test_degenerate_offset_equals_exp_mode(self, small_problem):
        # eta = 0 kills the self-excitation offset everywhere
        params = ModelParams(eta=0.0, zeta=0.15, tau2=0.5, beta=np.array([0.2]))
        alpha = np.full((40, 25), 0.2)
        mode = find_mode(small_problem["panel"], params, alpha, small_problem["car"])
        derivs = g_derivatives(mode, small_problem["panel"], params)
        for field in derivs:
            np.testing.assert_allclose(field, np.exp(mode.mu_star), rtol=1e-12)

    def test_zero_count_cells_equal_exp_mode(self, small_problem):
        mode = converged_mode(small_problem)
        g3, _, g6 = g_derivatives(mode, small_problem["panel"], small_problem["truth"])
        zero = small_problem["panel"].counts == 0
        assert zero.sum() > 10
        np.testing.assert_allclose(g3[zero], np.exp(mode.mu_star)[zero],
                                   rtol=1e-12)
        np.testing.assert_allclose(g6[zero], np.exp(mode.mu_star)[zero],
                                   rtol=1e-12)

    def test_random_cell_against_high_order_differences(self):
        mu_star, z, z_prev, eta = 0.3, 4, 2, 0.4
        c = eta * z_prev
        panel = CountPanel(np.array([[z]]), np.array([z_prev]))
        car = CarStructure.from_graph(SpatialGraph(np.zeros((1, 1))))
        params = ModelParams(eta=eta, zeta=0.0, tau2=1.0, beta=np.array([0.0]))
        mode = find_mode(panel, params, np.zeros((1, 1)), car,
                         start=np.array([[mu_star]]), max_iter=0)
        # max_iter=0 keeps the requested expansion point
        mode.mu_star[:] = mu_star
        derivs = g_derivatives(mode, panel, params)

        def holo(y):
            return c + mp.e ** y - z * mp.log(mp.e ** y + c)

        for got, order in zip(derivs, (3, 4, 6)):
            ref = float(mp.diff(holo, mu_star, order))
            assert abs(got[0, 0] - ref) < 1e-4 * (1.0 + abs(ref))


class TestInverseBlocks:
    def test_diagonal_block_inverse_is_reciprocal(self):
        car = CarStructure.from_graph(SpatialGraph(np.zeros((3, 3))))
        panel = CountPanel(np.array([[1, 2, 0]]), np.array([0, 0, 0]))
        params = ModelParams(eta=0.0, zeta=0.0, tau2=0.5, beta=np.array([0.0]))
        mode = find_mode(panel, params, np.zeros((1, 3)), car)
        inv = invert_hessian_blocks(mode)
        expected = 1.0 / (np.exp(mode.mu_star[0]) + 2.0)
        expected = expected[mode.band_order]  # the order of the inverse blocks
        np.testing.assert_allclose(np.diagonal(inv[0]), expected, rtol=1e-12)
        np.testing.assert_allclose(inv[0], np.diag(expected), atol=1e-15)

    def test_product_with_hessian_is_identity(self, small_problem):
        mode = converged_mode(small_problem)
        inv = invert_hessian_blocks(mode)
        order = mode.band_order
        for t in (0, 20):
            prod = hessian_blocks(mode)[t][np.ix_(order, order)] @ inv[t]
            assert np.max(np.abs(prod - np.eye(25))) < 1e-10

    def test_blocks_exactly_symmetric_across_block_sizes(self, small_problem):
        params = ModelParams(eta=0.0, zeta=0.2, tau2=0.5, beta=np.array([0.0]))
        modes = [converged_mode(small_problem)]
        for n in (1, 2, 3):  # one time block of a complete graph
            car = CarStructure.from_graph(SpatialGraph(np.ones((n, n)) - np.eye(n)))
            panel = CountPanel(np.arange(1, n + 1)[None, :], np.zeros(n, dtype=int))
            modes.append(find_mode(panel, params, np.zeros((1, n)), car))
        truth = ModelParams(eta=0.1, zeta=0.2, tau2=0.5, beta=np.array([0.0]))
        for rows in (5, 10):  # one time block of a 25- and a 100-node torus
            car, design, panel, _ = torus_problem(rows, rows, 1, truth, seed=2)
            modes.append(find_mode(panel, truth, linear_predictor(design, truth.beta), car))
        for mode in modes:
            blocks = invert_hessian_blocks(mode)
            np.testing.assert_array_equal(blocks, np.swapaxes(blocks, 1, 2))

    def test_equals_dense_inverse(self, small_problem):
        # in the band order p of the mode's factors: block t is H_t^-1[p][:, p]
        mode = converged_mode(small_problem)
        order = mode.band_order
        np.testing.assert_allclose(invert_hessian_blocks(mode),
                                   np.linalg.inv(hessian_blocks(mode))[:, order][:, :, order],
                                   rtol=0.0, atol=1e-12)

    def test_leaves_the_mode_factors_alone(self, small_problem):
        mode = converged_mode(small_problem)
        factor = mode.band_factor.copy()
        invert_hessian_blocks(mode)
        np.testing.assert_array_equal(mode.band_factor, factor)

    def test_inversion_speed_at_100_nodes(self):
        truth = ModelParams(eta=0.1, zeta=0.2, tau2=0.5, beta=np.array([0.0]))
        car, design, panel, _ = torus_problem(10, 10, 1, truth, seed=2)
        mode = find_mode(panel, truth, linear_predictor(design, truth.beta), car)
        invert_hessian_blocks(mode)  # warm the path once
        t0 = time.perf_counter()
        invert_hessian_blocks(mode)
        assert time.perf_counter() - t0 < 0.1


class TestCorrectionAssembly:
    def test_zero_derivative_fields_give_la1(self, small_problem, monkeypatch):
        mode = converged_mode(small_problem)
        zeros = np.zeros((1,) + mode.mu_star.shape)
        monkeypatch.setattr(kernels, "g_derivs", lambda mu, z, c: (zeros, zeros, zeros))
        correction, = correction_terms([mode], small_problem["panel"], [small_problem["truth"]])
        assert correction == 0.0

    def test_sixth_order_additivity(self, small_problem):
        car, panel = small_problem["car"], small_problem["panel"]
        truth, design = small_problem["truth"], small_problem["design"]
        x6 = xla_log_posterior(panel, truth, design, car, include_sixth=True)
        x4 = xla_log_posterior(panel, truth, design, car, include_sixth=False)
        mode = find_mode(panel, truth, linear_predictor(design, truth.beta), car)
        _, _, g6 = g_derivatives(mode, panel, truth)
        g6 = g6[:, mode.band_order]  # the order of the inverse blocks
        gii = np.diagonal(invert_hessian_blocks(mode), axis1=1, axis2=2)
        expected = -float(np.sum(g6 * gii ** 3)) / 48.0
        assert abs((x6 - x4) - expected) < 1e-10 * max(1.0, abs(expected))

    def test_corrections_scale_linearly_in_identical_blocks(self):
        car = CarStructure.from_graph(SpatialGraph(
            np.array([[0.0, 1.0], [1.0, 0.0]])))
        params = ModelParams(eta=0.4, zeta=0.2, tau2=0.6, beta=np.array([0.1]))

        def correction_total(T):
            counts = np.tile(np.array([[3, 1]]), (T, 1))
            panel = CountPanel(counts, np.array([3, 1]))  # identical blocks
            design = CovariateDesign.intercept_only(T, 2)
            mode = find_mode(panel, params, linear_predictor(design, params.beta), car)
            correction, = correction_terms([mode], panel, [params])
            return correction

        one = correction_total(4)
        two = correction_total(8)
        assert abs(two - 2.0 * one) < 1e-9 * max(1.0, abs(one))


class TestAgainstQuadrature:
    def test_single_cell_beats_la1_and_stays_close(self):
        # spec example instance: z=1, eta=.5, z_prev=2, standard normal prior
        panel, design, car, params = single_cell_problem(1, 2, 0.5, 1.0)
        exact = exact_single_cell_logmarginal(1, 1.0, 1.0)
        la1 = la1_log_posterior(panel, params, design, car)
        x6 = xla_log_posterior(panel, params, design, car)
        x4 = xla_log_posterior(panel, params, design, car, include_sixth=False)
        # measured truncation errors: la1 +1.48e-2, xla(6th) -5.7e-3, xla4 -2.4e-3
        assert abs(x6 - exact) < abs(la1 - exact)
        assert abs(x4 - exact) < abs(la1 - exact)
        assert abs(x6 - exact) < 8e-3
        assert abs(exact - (-1.4453303924)) < 1e-8

    def test_error_shrinks_with_prior_variance(self):
        # the correction's residual is O(h^4): tighter priors must shrink it fast
        errors = []
        for tau2 in (1.0, 0.25, 0.0625):
            panel, design, car, params = single_cell_problem(0, 0, 0.0, tau2)
            exact = exact_single_cell_logmarginal(0, 0.0, tau2)
            x6 = xla_log_posterior(panel, params, design, car)
            errors.append(abs(x6 - exact))
        assert errors[0] > 10 * errors[1] > 10 * errors[2]
        assert errors[2] < 1e-5

    def test_gauss_hermite_grid_eta_zero(self):
        # independent-cell sanity over counts x prior variances; the paper's
        # correction subset has an O(h^4) floor, so tolerances are regime-based
        nodes, weights = np.polynomial.hermite.hermgauss(50)
        for tau2, tol in ((0.05, 2e-5), (0.1, 2e-4), (1.0, 2e-2)):
            for z in (0, 1, 2, 5, 10, 20):
                panel, design, car, params = single_cell_problem(z, 0, 0.0, tau2)
                sd = np.sqrt(2.0 * tau2)
                vals = np.exp(np.array([
                    -np.exp(sd * x) + z * (sd * x) for x in nodes]))
                exact = np.log(np.sum(weights * vals) / np.sqrt(np.pi))
                exact += 0.5 * np.log(1.0 / tau2) - 0.5 * np.log(2 * np.pi) \
                    + 0.5 * np.log(2 * np.pi * tau2)
                x6 = xla_log_posterior(panel, params, design, car)
                assert abs(x6 - exact) < tol, (tau2, z, x6 - exact)

    def test_two_cell_pair_term_against_dblquad(self):
        # correlated pair validates the ordered-pair summation convention
        adj = np.array([[0.0, 1.0], [1.0, 0.0]])
        car = CarStructure.from_graph(SpatialGraph(adj))
        zeta, tau2 = 0.35, 0.5
        z = np.array([3, 1])
        z_prev = np.array([2, 4])
        eta = 0.4
        beta = np.array([0.2])
        panel = CountPanel(z[None, :], z_prev)
        design = CovariateDesign.intercept_only(1, 2)
        params = ModelParams(eta=eta, zeta=zeta, tau2=tau2, beta=beta)

        q = (np.eye(2) - zeta * adj) / tau2
        c = eta * z_prev.astype(float)
        a = np.full(2, beta[0])

        def g2d(y1, y2):
            y = np.array([y1, y2])
            d = y - a
            lam = np.exp(y) + c
            return 0.5 * d @ q @ d + np.sum(c + np.exp(y) - z * np.log(lam))

        mode = find_mode(panel, params, linear_predictor(design, beta), car)
        g0 = mode.g_at_mode
        m1, m2 = mode.mu_star[0]
        val, _ = dblquad(lambda s2, s1: np.exp(-(g2d(m1 + s1, m2 + s2) - g0)),
                         -12, 12, -12, 12, epsabs=1e-12, epsrel=1e-11)
        _, logdet_q = np.linalg.slogdet(q)
        exact = 0.5 * logdet_q - np.log(2 * np.pi) + np.log(val) - g0
        x6 = xla_log_posterior(panel, params, design, car)
        la1 = la1_log_posterior(panel, params, design, car)
        assert abs(x6 - exact) < 1e-3
        assert abs(x6 - exact) < abs(la1 - exact)

    def test_relabeling_invariance(self, small_problem):
        car, panel = small_problem["car"], small_problem["panel"]
        truth, design = small_problem["truth"], small_problem["design"]
        base = xla_log_posterior(panel, truth, design, car)
        rng = np.random.default_rng(7)
        perm = rng.permutation(panel.n_d)
        a = car.graph.adjacency.toarray()[np.ix_(perm, perm)]
        car_p = CarStructure.from_graph(SpatialGraph(a))
        panel_p = CountPanel(panel.counts[:, perm], panel.initial_counts[perm])
        relabeled = xla_log_posterior(panel_p, truth, design, car_p)
        assert abs(base - relabeled) < 1e-9 * max(1.0, abs(base))
