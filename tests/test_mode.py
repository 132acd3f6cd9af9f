"""Mode finder: Taylor coefficients, the stacked Newton engine against its
per-block reference, the latent-mode contract of ``mode_at``, first-order
Laplace assembly."""

import time

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg import lapack
from hypothesis import given, settings, strategies as st

from helpers import (cell_data_logdensity, count_find_mode,
                     exact_single_cell_logmarginal, flip_data_gradient, hessian_blocks,
                     reference_find_mode, single_cell_problem, single_node_car,
                     split_graph, spy_lapack, torus_problem)
from secar import (CarStructure, CountPanel, CovariateDesign, ModelParams,
                   build_torus_lattice, find_mode, g_gradient, kernels,
                   la1_log_posterior, linear_predictor)
from secar.graph import car_precision_block
from secar.inference import _fd_steps
from secar import mode as mode_module
from secar.mode import ModeError, default_start, la1_from_mode, mode_at, mode_tangent


def grad_max(mode, panel, params, car):
    """max |grad g| over every cell of ``mode``'s blocks."""
    return float(np.max(np.abs(g_gradient(mode.mu_star, panel, params, mode.alpha, car))))


class TestTaylorCoeffs:
    def test_pure_poisson_closed_form(self):
        for mu in (-1.0, 0.0, 2.3):
            for z in (0, 1, 7):
                f, k = kernels.fk_values(mu, z, 0.0)
                assert abs(k - np.exp(mu)) < 1e-14
                assert abs(f - (z - np.exp(mu) + mu * np.exp(mu))) < 1e-12

    def test_zero_count_any_history(self):
        for z_prev in (0, 3, 50):
            _, k = kernels.fk_values(0.7, 0, 0.6 * z_prev)
            assert abs(k - np.exp(0.7)) < 1e-14

    def test_k_matches_numeric_second_derivative(self):
        import mpmath as mp
        mu, z, z_prev, eta = 0.0, 3, 2, 0.5
        c = eta * z_prev
        num = -float(mp.diff(lambda y: -c - mp.e ** y + z * mp.log(mp.e ** y + c),
                             mu, 2))
        _, k = kernels.fk_values(mu, z, c)
        assert abs(k - num) < 1e-8 * (1 + abs(num))

    def test_array_broadcasting(self):
        mu = np.array([[0.0, 1.0], [-1.0, 0.5]])
        f, k = kernels.fk_values(mu, 2, 0.3)
        assert f.shape == k.shape == (2, 2)

    def test_large_mu_stays_finite(self):
        f, k = kernels.fk_values(35.0, 5, 1.5)
        assert np.isfinite(f) and np.isfinite(k)


class TestFindMode:
    def test_scalar_root_against_bisection(self):
        car = single_node_car()
        panel = CountPanel(np.array([[0]]), np.array([0]))
        design = CovariateDesign.intercept_only(1, 1)
        params = ModelParams(eta=0.0, zeta=0.0, tau2=1.0, beta=np.array([0.0]))
        mode = find_mode(panel, params, linear_predictor(design, params.beta), car)
        # independent oracle: bisection on the stationarity condition y + e^y = 0
        lo, hi = -2.0, 0.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if mid + np.exp(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert mode.converged
        assert abs(mode.mu_star[0, 0] - 0.5 * (lo + hi)) < 1e-9
        assert abs(mode.mu_star[0, 0] - (-0.5671432904097838)) < 1e-9

    def test_large_intensity_mode_near_alpha(self):
        car = CarStructure.from_graph(build_torus_lattice(4, 4))
        alpha0, tau2 = 2.0, 0.05
        z = int(round(np.exp(alpha0)))
        panel = CountPanel(np.full((3, 16), z), np.zeros(16, dtype=int))
        design = CovariateDesign.intercept_only(3, 16)
        params = ModelParams(eta=0.0, zeta=0.0, tau2=tau2, beta=np.array([alpha0]))
        mode = find_mode(panel, params, linear_predictor(design, params.beta), car)
        assert mode.converged
        assert np.max(np.abs(mode.mu_star - alpha0)) < 2.0 * tau2

    def test_fast_convergence_from_truth(self):
        truth = ModelParams(eta=0.3, zeta=0.2, tau2=0.5, beta=np.array([0.0]))
        car, design, panel, latent = torus_problem(10, 10, 100, truth, seed=5)
        mode = find_mode(panel, truth, linear_predictor(design, truth.beta), car,
                         start=latent)
        assert mode.converged
        assert mode.block_iterations.max() <= 10

    def test_gradient_below_tolerance_at_mode(self, small_problem):
        mode = find_mode(small_problem["panel"], small_problem["truth"],
                         np.full((40, 25), 0.2), small_problem["car"])
        assert mode.converged
        grad = g_gradient(mode.mu_star, small_problem["panel"], small_problem["truth"],
                          mode.alpha, small_problem["car"])
        assert np.max(np.abs(grad)) < 1e-6

    def test_hessian_blocks_positive_definite(self, small_problem):
        mode = find_mode(small_problem["panel"], small_problem["truth"],
                         np.full((40, 25), 0.2), small_problem["car"])
        for t in (0, 17, 39):
            np.linalg.cholesky(hessian_blocks(mode)[t])

    def test_logdet_matches_dense_full_hessian(self):
        truth = ModelParams(eta=0.2, zeta=0.15, tau2=0.6, beta=np.array([0.1]))
        car, design, panel, _ = torus_problem(4, 4, 25, truth, seed=9)  # n*T = 400
        mode = find_mode(panel, truth, linear_predictor(design, truth.beta), car)
        dense = sla.block_diag(*hessian_blocks(mode))
        _, expected = np.linalg.slogdet(dense)
        assert abs(mode.logdet_hessian - expected) < 1e-8 * max(1.0, abs(expected))

    def test_nonconvergence_reported_not_raised(self, small_problem):
        mode = find_mode(small_problem["panel"], small_problem["truth"],
                         np.full((40, 25), 0.2), small_problem["car"],
                         start=np.full((40, 25), 30.0), max_iter=2)
        assert not mode.converged

    def test_convergence_from_extreme_starts_on_zero_counts(self, torus3):
        # all-zero counts make g convex: the solver must converge from anywhere
        panel = CountPanel(np.zeros((2, 9), dtype=int), np.zeros(9, dtype=int))
        design = CovariateDesign.intercept_only(2, 9)
        params = ModelParams(eta=0.0, zeta=0.2, tau2=1.0, beta=np.array([0.0]))
        alpha = linear_predictor(design, params.beta)
        for start_val in (-25.0, 25.0):
            mode = find_mode(panel, params, alpha, torus3,
                             start=np.full((2, 9), start_val))
            assert mode.converged
            assert grad_max(mode, panel, params, torus3) < 1e-6

    def test_extreme_self_excitation_cell_regression(self):
        # non-convex single cell that once froze the damped iteration
        car = single_node_car()
        panel = CountPanel(np.array([[321]]), np.array([481]))
        design = CovariateDesign.intercept_only(1, 1)
        params = ModelParams(eta=0.2, zeta=0.0, tau2=0.5, beta=np.array([2.285]))
        mode = find_mode(panel, params, linear_predictor(design, params.beta), car)
        assert mode.converged
        assert grad_max(mode, panel, params, car) < 1e-6
        _, k = kernels.fk_values(float(mode.mu_star[0, 0]), 321, 0.2 * 481)
        assert k + 1.0 / 0.5 > 0.0

    def test_extreme_counts_take_the_ridge_they_need(self, torus3):
        # 20000 counts after 1000: at the default start Q + diag(k) needs a
        # ridge beyond 1e10 x ridge_base, which once failed both blocks at
        # their first iteration
        panel = CountPanel(np.full((2, 9), 20000), np.full(9, 1000))
        design = CovariateDesign.intercept_only(2, 9)
        params = ModelParams(eta=0.2, zeta=0.1, tau2=0.5, beta=np.array([0.0]))
        mode = find_mode(panel, params, linear_predictor(design, params.beta), torus3)
        assert mode.converged
        assert grad_max(mode, panel, params, torus3) <= 1e-6
        assert np.isfinite(la1_log_posterior(panel, params, design, torus3))

    def test_block_with_infinite_g_at_alpha_fails(self, torus3):
        # e^2000 overflows, so g is infinite at the start and at alpha alike
        panel = CountPanel(np.array([[5] * 9, [3] * 9]), np.full(9, 4))
        params = ModelParams(eta=0.2, zeta=0.1, tau2=0.5, beta=np.array([2000.0]))
        alpha = linear_predictor(CovariateDesign.intercept_only(2, 9), params.beta)
        with np.errstate(all="ignore"):
            mode = find_mode(panel, params, alpha, torus3)
        assert mode.failed_blocks == (0, 1)
        np.testing.assert_array_equal(mode.block_iterations, [1, 1])

    def test_nonfinite_hessian_diagonal_is_never_factored(self, torus3, monkeypatch):
        # block 0 has k = nan at the start and at alpha = 2000 (e^y overflows
        # with c > 0). OpenBLAS factors a nan pivot with info 0; reference
        # LAPACK, which the spy imitates, reports info > 0, and a ridge loop
        # on the block would then never end
        spy = spy_lapack(monkeypatch, budget=1000)
        panel = CountPanel(np.array([[5] * 9, [3] * 9]), np.full(9, 4))
        params = ModelParams(eta=0.2, zeta=0.1, tau2=0.5, beta=np.array([0.0]))
        alpha = np.array([[2000.0] * 9, [1.0] * 9])
        with np.errstate(all="ignore"):
            mode = find_mode(panel, params, alpha, torus3)
        assert spy.nonfinite == 0
        assert mode.failed_blocks == (0,)
        assert mode.block_iterations[0] == 1
        # the block without a factor holds the identity, so that no stacked
        # factorization or solve sees a non-finite entry
        width = mode.band_factor.shape[-1]
        np.testing.assert_array_equal(mode.band_factor[0], np.tile(np.eye(1, width), (9, 1)))
        assert np.all(np.isfinite(mode.band_factor[1]))
        assert np.isnan(mode.logdet_hessian)

    def test_one_lapack_call_per_block_iteration(self, small_problem, monkeypatch):
        # unridged, every stacked Newton iteration is one dpbtrf on the band
        # of the blocks still iterating and one dpbtrs for their steps, and
        # the factors at the mode are one more dpbtrf
        spy = spy_lapack(monkeypatch)
        truth = small_problem["truth"]
        mode = find_mode(small_problem["panel"], truth,
                         linear_predictor(small_problem["design"], truth.beta),
                         small_problem["car"])
        assert mode.converged
        iterations = int(mode.block_iterations.max())
        assert dict(spy.calls) == {"dpbtrf": iterations + 1, "dpbtrs": iterations}

    def test_one_dpbtrf_per_resume_after_a_ridged_block(self, torus3, monkeypatch):
        # the panel of TestStackedEngine.test_ridge_path: block 0 of 3 is
        # ridged at its first iteration, so the stacked dpbtrf stops there,
        # the ridge tries factor block 0 alone and one more dpbtrf resumes on
        # blocks 1-2
        spy = spy_lapack(monkeypatch, budget=1000)
        stacks, resumes, tries = [], [], []
        real_stack, real_ridge = mode_module._factor_stack, mode_module._ridged_factor

        def factor_stack(band, *args):
            ridged = real_stack(band, *args)
            stacks.append(len(band))
            resumes.append(int(np.count_nonzero(ridged[:-1])))
            return ridged

        def ridged_factor(*args):
            before = spy.calls["dpbtrf"]
            real_ridge(*args)
            tries.append(spy.calls["dpbtrf"] - before)

        monkeypatch.setattr(mode_module, "_factor_stack", factor_stack)
        monkeypatch.setattr(mode_module, "_ridged_factor", ridged_factor)
        panel = CountPanel(np.array([[321] * 9, [2] * 9, [40] * 9]), np.full(9, 481))
        params = ModelParams(eta=0.2, zeta=0.1, tau2=0.5, beta=np.array([2.285]))
        alpha = linear_predictor(CovariateDesign.intercept_only(3, 9), params.beta)
        mode = find_mode(panel, params, alpha, torus3)
        assert mode.converged and stacks[0] == 3 and resumes[0] == 1
        iterations = int(mode.block_iterations.max())
        assert len(stacks) == iterations + 1
        assert dict(spy.calls) == {"dpbtrf": len(stacks) + sum(resumes) + sum(tries),
                                   "dpbtrs": iterations}


def assert_matches_reference(panel, params, alpha, car, start=None):
    mode = find_mode(panel, params, alpha, car, start=start)
    ref = reference_find_mode(panel, params, alpha, car, start=start)
    np.testing.assert_array_equal(mode.block_iterations, ref["block_iterations"])
    assert mode.failed_blocks == ref["failed_blocks"]
    assert mode.converged == ref["converged"]
    np.testing.assert_allclose(mode.mu_star, ref["mu_star"], rtol=0.0, atol=1e-10)
    for key in ("logdet_hessian", "g_at_mode"):
        assert abs(getattr(mode, key) - ref[key]) <= 1e-12 * max(1.0, abs(ref[key]))
    return mode


class TestStackedEngine:
    """The stacked Newton loop makes every block's decisions as the per-block
    reference in ``helpers`` does."""

    # the 10x10 torus has bandwidth 19 in its band order, far below n_d = 100
    @pytest.mark.parametrize("side, T", [(5, 20), (10, 4)])
    def test_torus_panel(self, side, T):
        truth = ModelParams(eta=0.3, zeta=0.15, tau2=0.5, beta=np.array([0.2]))
        car, design, panel, _ = torus_problem(side, side, T, truth, seed=3)
        mode = assert_matches_reference(panel, truth, linear_predictor(design, truth.beta),
                                        car)
        assert mode.converged and len(set(mode.block_iterations)) > 1

    def test_all_zero_block(self):
        truth = ModelParams(eta=0.3, zeta=0.15, tau2=0.5, beta=np.array([0.2]))
        car, design, panel, _ = torus_problem(5, 5, 20, truth, seed=4)
        counts = panel.counts.copy()
        counts[7] = 0
        panel = CountPanel(counts, panel.initial_counts)
        assert_matches_reference(panel, truth, linear_predictor(design, truth.beta), car)

    def test_strong_self_excitation(self):
        truth = ModelParams(eta=0.95, zeta=0.15, tau2=0.5, beta=np.array([0.2]))
        car, design, panel, _ = torus_problem(5, 5, 20, truth, seed=5)
        assert_matches_reference(panel, truth, linear_predictor(design, truth.beta), car)

    def test_ridge_path(self, torus3):
        # block 0: 321 counts after 481 at eta .2 makes Q + diag(k) indefinite
        # at the default start, so the first Newton step is ridged
        counts = np.array([[321] * 9, [2] * 9, [40] * 9])
        panel = CountPanel(counts, np.full(9, 481))
        params = ModelParams(eta=0.2, zeta=0.1, tau2=0.5, beta=np.array([2.285]))
        alpha = linear_predictor(CovariateDesign.intercept_only(3, 9), params.beta)
        start = default_start(panel, alpha)
        _, k = kernels.fk_values(start[0], counts[0].astype(float),
                                 params.eta * panel.prev_counts()[0])
        q = car_precision_block(torus3, params.zeta, params.tau2)
        assert np.linalg.eigvalsh(q + np.diag(k)).min() < 0.0
        assert_matches_reference(panel, params, alpha, torus3)

    def test_single_block(self, torus3):
        params = ModelParams(eta=0.4, zeta=0.2, tau2=0.8, beta=np.array([0.5]))
        panel = CountPanel(np.array([[0, 3, 1, 7, 2, 0, 5, 1, 2]]), np.arange(9))
        alpha = linear_predictor(CovariateDesign.intercept_only(1, 9), params.beta)
        assert_matches_reference(panel, params, alpha, torus3)

    def test_disconnected_graph(self):
        car = CarStructure.from_graph(split_graph())
        params = ModelParams(eta=0.4, zeta=0.3, tau2=0.8, beta=np.array([0.5]))
        panel = CountPanel(np.array([[0, 3, 1, 7, 2, 0, 5, 1], [4, 0, 0, 2, 9, 1, 0, 3]]),
                           np.arange(8))
        alpha = linear_predictor(CovariateDesign.intercept_only(2, 8), params.beta)
        assert assert_matches_reference(panel, params, alpha, car).converged

    def test_single_node(self):
        params = ModelParams(eta=0.5, zeta=0.0, tau2=1.5, beta=np.array([0.3]))
        panel = CountPanel(np.array([[4], [0], [9], [1], [30]]), np.array([2]))
        alpha = linear_predictor(CovariateDesign.intercept_only(5, 1), params.beta)
        assert_matches_reference(panel, params, alpha, single_node_car())

    def test_capped_step_keeps_a_descent_direction(self, torus3):
        # a Newton step clipped cell by cell turned into an ascent direction on
        # this block: step-halving then accepted only at scale 2.3e-10 and the
        # gradient stayed at 64.6 for all MAX_ITER iterations
        panel = CountPanel(np.array([[198, 0, 1209, 668, 0, 24, 6, 0, 3]]),
                           np.array([170, 0, 93, 370, 0, 1, 0, 0, 0]))
        params = ModelParams(eta=0.5, zeta=-0.375, tau2=0.24144182212566392,
                             beta=np.array([0.09375]))
        alpha = linear_predictor(CovariateDesign.intercept_only(1, 9), params.beta)
        mode = assert_matches_reference(panel, params, alpha, torus3)
        assert mode.converged and mode.block_iterations[0] <= 20
        assert grad_max(mode, panel, params, torus3) <= 1e-8 * (1.0 + panel.counts.max())

    def test_halved_newton_step_is_not_convergence(self, torus3, monkeypatch):
        # g is infinite at every candidate farther than 1e-9 from the current
        # iterate, so step-halving accepts only moves below DEFAULT_TOL while
        # the Newton step stays large; that once counted as convergence
        terms = kernels.block_terms
        current = {}

        def near_only(y, alpha, q, z, c):
            g, grad, k = terms(y, alpha, q, z, c)
            near = np.max(np.abs(y - current.setdefault("y", y.copy())), axis=-1) <= 1e-9
            current["y"][near] = y[near]
            return np.where(near, g, np.inf), grad, k

        monkeypatch.setattr(kernels, "block_terms", near_only)
        # the block of test_single_block, whose Newton steps are unridged
        params = ModelParams(eta=0.4, zeta=0.2, tau2=0.8, beta=np.array([0.5]))
        panel = CountPanel(np.array([[0, 3, 1, 7, 2, 0, 5, 1, 2]]), np.arange(9))
        alpha = linear_predictor(CovariateDesign.intercept_only(1, 9), params.beta)
        mode = find_mode(panel, params, alpha, torus3, max_iter=20)
        assert not mode.converged and mode.failed_blocks == (0,)
        np.testing.assert_array_equal(mode.block_iterations, [20])
        moved = np.max(np.abs(mode.mu_star - default_start(panel, alpha)))
        assert 0.0 < moved <= 20 * 1e-9
        monkeypatch.undo()  # the true gradient there
        assert grad_max(mode, panel, params, torus3) > 1.0

    # 3x3-torus panels with T = 2 from a seeded sweep over extreme parameters
    # (counts, history, eta, zeta, tau2, beta0); with the step clipped cell by
    # cell, block 0 of (a) stalled at iteration 1 at a gradient of 1.71, block
    # 1 of (b) failed at a gradient of 160 and block 0 of (c) used all MAX_ITER
    # iterations and ended at a gradient of 10.7
    SWEEP_PANELS = {
        "a": ([[0, 0, 29, 0, 9, 41, 30, 0, 17], [54, 4, 27, 0, 0, 43, 0, 52, 0]],
              [36, 9, 26, 58, 37, 52, 41, 9, 57],
              0.8470087889641469, -0.09902918022726104, 4.384546772736124,
              -2.190931710076138),
        "b": ([[0, 148, 279, 268, 0, 264, 325, 199, 0],
               [264, 0, 171, 123, 198, 0, 306, 0, 212]],
              [359, 268, 155, 80, 313, 244, 267, 58, 251],
              0.5599524322227518, -0.4428936372453925, 0.2660923144925244,
              1.9074339056694845),
        "c": ([[356, 999, 875, 809, 889, 202, 0, 0, 0],
               [1173, 832, 1194, 513, 126, 0, 946, 0, 1285]],
              [225, 772, 258, 1057, 1229, 561, 857, 1271, 882],
              0.48734608801223833, -0.36635127655937444, 0.36136959385891715,
              0.7476386613642401),
    }

    @pytest.mark.parametrize("name", sorted(SWEEP_PANELS))
    def test_extreme_sweep_panel_converges(self, torus3, name):
        counts, history, eta, zeta, tau2, beta0 = self.SWEEP_PANELS[name]
        panel = CountPanel(np.array(counts), np.array(history))
        params = ModelParams(eta=eta, zeta=zeta, tau2=tau2, beta=np.array([beta0]))
        alpha = linear_predictor(CovariateDesign.intercept_only(2, 9), params.beta)
        with np.errstate(all="ignore"):
            mode = assert_matches_reference(panel, params, alpha, torus3)
        assert mode.converged
        assert grad_max(mode, panel, params, torus3) <= 1e-8 * (1.0 + panel.counts.max())

    def test_stalled_line_search_is_not_converged(self, monkeypatch):
        # a gradient with the wrong sign makes every step an ascent direction,
        # so step-halving underflows on the first iteration
        flip_data_gradient(monkeypatch)
        params = ModelParams(eta=0.0, zeta=0.0, tau2=1.0, beta=np.array([0.0]))
        panel = CountPanel(np.array([[3], [5]]), np.array([1]))
        alpha = np.zeros((2, 1))
        start = np.full((2, 1), 3.0)
        mode = assert_matches_reference(panel, params, alpha, single_node_car(),
                                        start=start)
        assert not mode.converged
        assert mode.failed_blocks == (0, 1)
        np.testing.assert_array_equal(mode.block_iterations, [1, 1])
        np.testing.assert_array_equal(mode.mu_star, start)

    def test_indefinite_final_iterate_gets_the_newton_ridge(self, torus3, monkeypatch):
        # the block of test_ridge_path stalls at its default start, where
        # Q + diag(k) is indefinite; its final factor takes the Newton steps'
        # ridge, ridge_base x (1 + 10 + ... + 10^(m-1)), on the diagonal
        flip_data_gradient(monkeypatch)
        panel = CountPanel(np.array([[321] * 9]), np.full(9, 481))
        params = ModelParams(eta=0.2, zeta=0.1, tau2=0.5, beta=np.array([2.285]))
        alpha = linear_predictor(CovariateDesign.intercept_only(1, 9), params.beta)
        mode = assert_matches_reference(panel, params, alpha, torus3)
        assert mode.failed_blocks == (0,)
        np.testing.assert_array_equal(mode.mu_star, default_start(panel, alpha))
        q = car_precision_block(torus3, params.zeta, params.tau2)
        _, k = kernels.fk_values(mode.mu_star[0], panel.counts[0].astype(float),
                                 params.eta * panel.prev_counts()[0])
        h = q + np.diag(k)
        assert np.linalg.eigvalsh(h).min() < 0.0
        added = hessian_blocks(mode)[0] - h
        ridge = np.diag(added)
        np.testing.assert_allclose(added - np.diag(ridge), 0.0, atol=1e-12)
        ridge_base = 1e-8 * (1.0 + q.diagonal().max())
        m = np.log10(9.0 * ridge / ridge_base + 1.0)
        assert m[0] >= 1.0
        np.testing.assert_allclose(m, np.round(m[0]), rtol=0.0, atol=1e-6)
        assert np.linalg.eigvalsh(hessian_blocks(mode)[0]).min() > 0.0


class TestModeStack:
    """K thetas in one stacked find_mode call get, bit for bit, the modes of K
    calls of their own."""

    # the panel of TestStackedEngine.test_ridge_path; the first theta ridges
    # block 0 at its first iteration, beta0 = 2000 overflows g in every block,
    # and the last theta repeats the first
    PANEL = CountPanel(np.array([[321] * 9, [2] * 9, [40] * 9]), np.full(9, 481))
    THETAS = [ModelParams(eta=0.2, zeta=0.1, tau2=0.5, beta=np.array([2.285])),
              ModelParams(eta=0.5, zeta=-0.2, tau2=1.3, beta=np.array([0.5])),
              ModelParams(eta=0.2, zeta=0.1, tau2=0.5, beta=np.array([2000.0])),
              ModelParams(eta=0.9, zeta=0.2, tau2=0.05, beta=np.array([-1.0])),
              ModelParams(eta=0.2, zeta=0.1, tau2=0.5, beta=np.array([2.285]))]

    @pytest.mark.parametrize("warm, max_iter", [(False, mode_module.MAX_ITER), (True, 3)])
    def test_stack_equals_single_calls(self, torus3, monkeypatch, warm, max_iter):
        design = CovariateDesign.intercept_only(3, 9)
        alpha = np.stack([linear_predictor(design, p.beta) for p in self.THETAS])
        start = alpha + 0.5 if warm else None
        real_ridge, ridges = mode_module._ridged_factor, []
        monkeypatch.setattr(mode_module, "_ridged_factor",
                            lambda *args: ridges.append(1) or real_ridge(*args))
        with np.errstate(all="ignore"):
            stack = find_mode(self.PANEL, self.THETAS, alpha, torus3, start=start,
                              max_iter=max_iter)
            assert ridges  # the stack took the ridge path
            singles = [find_mode(self.PANEL, p, alpha[j], torus3, max_iter=max_iter,
                                 start=None if start is None else start[j])
                       for j, p in enumerate(self.THETAS)]
        assert len(stack) == len(singles)
        for mode, single in zip(stack, singles):
            # nan equals nan here, as where g overflows
            for key in ("mu_star", "band_factor", "block_iterations", "alpha",
                        "logdet_hessian", "g_at_mode"):
                np.testing.assert_array_equal(getattr(mode, key), getattr(single, key))
            assert (mode.failed_blocks, mode.converged) == (single.failed_blocks,
                                                             single.converged)
        assert stack[2].failed_blocks == (0, 1, 2) and stack[0].converged != warm
        # the stack's own record covers all K T blocks
        assert stack.T == 15 and not stack.converged
        np.testing.assert_array_equal(stack.block_iterations,
                                      np.concatenate([m.block_iterations for m in singles]))
        assert stack.failed_blocks == tuple(3 * j + t for j, m in enumerate(singles)
                                            for t in m.failed_blocks)


@st.composite
def extreme_torus3_panels(draw):
    """A 3x3-torus panel with T = 2 and its parameters, over wide ranges:
    counts up to 2e4, eta up to 0.95, tau2 from 1e-2 to 10, zeta anywhere
    inside its bounds, beta0 from -3 to 10."""
    car = CarStructure.from_graph(build_torus_lattice(3, 3))
    lo, hi = car.zeta_bounds
    cells = st.integers(0, int(10 ** draw(st.floats(0.0, 4.3))))
    counts = draw(st.lists(cells, min_size=18, max_size=18))
    history = draw(st.lists(cells, min_size=9, max_size=9))
    params = ModelParams(eta=draw(st.floats(0.0, 0.95)),
                         zeta=draw(st.floats(lo + 1e-6, hi - 1e-6)),
                         tau2=10 ** draw(st.floats(-2.0, 1.0)),
                         beta=np.array([draw(st.floats(-3.0, 10.0))]))
    return car, CountPanel(np.reshape(counts, (2, 9)), np.array(history)), params


TORI = {side: CarStructure.from_graph(build_torus_lattice(side, side))
        for side in (3, 5, 10, 20)}
# the Hessian diagonal of one block of a band stack: positive definite, not
# (a ridge is needed), or with a non-finite entry (no factor at all)
BLOCK_KINDS = ("pd", "ridged", "nonfinite")


@st.composite
def band_stacks(draw, sides):
    """A torus, its band of Q at drawn (zeta, tau2), and band-ordered Hessian
    diagonals for 1-6 blocks, each of a drawn kind."""
    car = TORI[draw(st.sampled_from(sides))]
    lo, hi = car.zeta_bounds
    zeta, tau2 = draw(st.floats(lo + 1e-3, hi - 1e-3)), 10 ** draw(st.floats(-1.0, 1.0))
    adj = car.graph.band_adjacency
    q_band = (np.eye(1, adj.shape[1]) - zeta * adj) * (1.0 / tau2)
    kinds = draw(st.lists(st.sampled_from(BLOCK_KINDS), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    hdiag = np.empty((len(kinds), car.n_d))
    for t, kind in enumerate(kinds):
        # at least Q's own diagonal keeps Q + diag(k) positive definite; a
        # diagonal drawn across 0 is not
        hdiag[t] = (1.0 + rng.exponential(size=car.n_d) if kind == "pd"
                    else rng.uniform(-1.0, 1.0, car.n_d)) / tau2
        if kind == "nonfinite":
            hdiag[t, rng.integers(car.n_d)] = draw(st.sampled_from([np.nan, np.inf]))
    return q_band, hdiag, 1e-8 * (1.0 + 1.0 / tau2)


def per_block_band_factors(q_band, hdiag, ridge_base):
    """Each block's band factored by its own ``dpbtrf``, with the Newton
    steps' ridge sequence where it is not positive definite and the identity
    where its diagonal is not finite; returns (factors, ridged)."""
    factors = np.empty((len(hdiag),) + q_band.shape)
    ridged = np.zeros(len(hdiag), dtype=bool)
    for t, h in enumerate(hdiag):
        factors[t] = np.eye(1, q_band.shape[1])
        ridge = ridge_base
        while np.all(np.isfinite(h)):
            ab = q_band.copy()
            ab[:, 0] = h
            c, info = lapack.dpbtrf(ab.T, lower=1)
            if not info:
                factors[t] = c.T
                break
            ridged[t] = True
            h = h + ridge
            ridge *= 10.0
    return factors, ridged


def factor_stack_within_budget(band, q_band, hdiag, ridge_base):
    """``mode._factor_stack`` under a :class:`helpers.LapackSpy`: a band with a
    non-finite entry or a ridge loop that does not end fails the test."""
    with pytest.MonkeyPatch.context() as patch:
        spy = spy_lapack(patch, budget=200)
        # one theta: every block takes its band precision and ridge
        ridged = mode_module._factor_stack(band, q_band[None], np.zeros(len(band), dtype=int),
                                           hdiag, np.array([ridge_base]))
    assert spy.nonfinite == 0
    return ridged


@st.composite
def moderate_torus_panels(draw):
    """A 3x3 or 5x5 torus panel with T = 1-4 and moderate parameters, whose
    Hessians at the mode are well conditioned."""
    car = TORI[draw(st.sampled_from((3, 5)))]
    lo, hi = car.zeta_bounds
    T = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    params = ModelParams(eta=draw(st.floats(0.0, 0.9)),
                         zeta=draw(st.floats(0.9 * lo, 0.9 * hi)),
                         tau2=10 ** draw(st.floats(-1.0, 0.5)),
                         beta=np.array([draw(st.floats(-1.0, 2.0))]))
    panel = CountPanel(rng.poisson(draw(st.floats(0.1, 20.0)), (T, car.n_d)),
                       rng.poisson(3.0, car.n_d))
    return car, panel, CovariateDesign.intercept_only(T, car.n_d), params


class TestModeProperties:
    """Property net over extreme panels: the stacked engine makes the
    per-block reference's decisions, and a converged mode is stationary."""

    @settings(max_examples=500, deadline=None)
    @given(extreme_torus3_panels())
    def test_matches_reference_and_converged_is_stationary(self, problem):
        car, panel, params = problem
        alpha = linear_predictor(CovariateDesign.intercept_only(2, 9), params.beta)
        with np.errstate(all="ignore"):
            mode = find_mode(panel, params, alpha, car)
            ref = reference_find_mode(panel, params, alpha, car)
        np.testing.assert_array_equal(mode.block_iterations, ref["block_iterations"])
        assert mode.failed_blocks == ref["failed_blocks"]
        np.testing.assert_allclose(mode.mu_star, ref["mu_star"], rtol=0.0, atol=1e-10)
        if mode.converged:
            assert grad_max(mode, panel, params, car) <= 1e-8 * (1.0 + panel.counts.max())



    # below kd = 32 LAPACK factors a band column by column (dpbtf2), and a
    # block then sees only zeros of its neighbours: bit for bit
    @settings(max_examples=200, deadline=None)
    @given(band_stacks(sides=(5, 10)))
    def test_stacked_factor_is_the_per_block_factor(self, stack):
        q_band, hdiag, ridge_base = stack
        band = np.empty((len(hdiag),) + q_band.shape)
        ridged = factor_stack_within_budget(band, q_band, hdiag, ridge_base)
        factors, ref_ridged = per_block_band_factors(q_band, hdiag, ridge_base)
        np.testing.assert_array_equal(ridged, ref_ridged)
        np.testing.assert_array_equal(band, factors)
        n = band.shape[1]
        for r in range(1, band.shape[2]):  # nothing couples two blocks
            np.testing.assert_array_equal(band[:, n - r:, r], 0.0)

    # kd = 39 on the 20x20 torus: LAPACK's blocked path, whose panels do not
    # align with the blocks
    @settings(max_examples=50, deadline=None)
    @given(band_stacks(sides=(20,)))
    def test_stacked_blocked_factor_agrees_with_the_per_block_factor(self, stack):
        q_band, hdiag, ridge_base = stack
        band = np.empty((len(hdiag),) + q_band.shape)
        ridged = factor_stack_within_budget(band, q_band, hdiag, ridge_base)
        factors, ref_ridged = per_block_band_factors(q_band, hdiag, ridge_base)
        np.testing.assert_array_equal(ridged, ref_ridged)
        assert np.max(np.abs(band - factors)) <= 1e-14 * np.max(np.abs(factors))

    @settings(max_examples=100, deadline=None)
    @given(moderate_torus_panels())
    def test_tangent_is_the_dense_solve(self, problem):
        car, panel, design, params = problem
        mode = mode_at(panel, params, design, car)
        jac = mode_tangent(mode, panel, params, design, car)
        q = car_precision_block(car, params.zeta, params.tau2)
        z, z_prev = panel.counts.astype(float), panel.prev_counts()
        _, k = kernels.fk_values(mode.mu_star, z, params.eta * z_prev)
        d, ey = mode.mu_star - mode.alpha, np.exp(mode.mu_star)
        with np.errstate(invalid="ignore"):
            eta_col = -z * ey * z_prev / (ey + params.eta * z_prev) ** 2
        rhs = np.stack([d @ q / params.tau2, d @ car.graph.dense_adjacency / params.tau2,
                        np.where(z * z_prev == 0, 0.0, eta_col),
                        np.broadcast_to(q @ design.values[0, :, 0], d.shape)], axis=-1)
        want = np.linalg.solve(q + k[:, None, :] * np.eye(car.n_d), rhs)
        assert np.max(np.abs(jac - want)) <= 1e-10 * np.max(np.abs(want))


class TestModeAt:
    """The one theta-to-mode policy: a failed warm start is retried cold once,
    a failed cold start raises at once."""

    def test_failed_cold_start_solves_once(self, small_problem, monkeypatch):
        calls = count_find_mode(monkeypatch, max_iter=1)
        with pytest.raises(ModeError, match="in 40 of 40 time blocks"):
            mode_at(small_problem["panel"], small_problem["truth"],
                    small_problem["design"], small_problem["car"])
        assert calls == ["cold"]

    @pytest.fixture()
    def zero_anchor(self, small_problem):
        """An anchor (theta_c, mu_c, J_c) at the truth that predicts mu = 0
        everywhere."""
        return (small_problem["truth"].vector(), np.zeros((40, 25)),
                np.zeros((40, 25, 4)))

    def test_failed_warm_start_retries_cold_once(self, small_problem, monkeypatch,
                                                 zero_anchor):
        calls = count_find_mode(monkeypatch, max_iter=1)
        with pytest.raises(ModeError):
            mode_at(small_problem["panel"], small_problem["truth"],
                    small_problem["design"], small_problem["car"], zero_anchor)
        assert calls == ["warm", "cold"]

    def test_converged_warm_start_solves_once(self, small_problem, monkeypatch,
                                              zero_anchor):
        calls = count_find_mode(monkeypatch, max_iter=100)
        mode = mode_at(small_problem["panel"], small_problem["truth"],
                       small_problem["design"], small_problem["car"], zero_anchor)
        assert mode.converged and calls == ["warm"]

    def test_objective_gives_minus_inf_after_one_cold_solve(self, small_problem,
                                                            monkeypatch):
        from secar import PriorSpec
        from secar.inference import LaplaceObjective
        calls = count_find_mode(monkeypatch, max_iter=1)
        obj = LaplaceObjective(small_problem["panel"], small_problem["design"],
                               small_problem["car"], PriorSpec(), method="la1")
        truth = small_problem["truth"]
        assert obj.evaluate(truth) == -np.inf
        assert calls == ["cold"]


class TestModeTangent:
    """dmu/dtheta from the implicit function theorem, and the anchored start
    it gives every finite-difference stencil point."""

    @pytest.fixture(scope="class")
    def anchored(self, small_problem):
        from secar import PriorSpec
        from secar.inference import LaplaceObjective
        obj = LaplaceObjective(small_problem["panel"], small_problem["design"],
                               small_problem["car"], PriorSpec())
        phi = obj.transform.to_phi(small_problem["truth"])
        obj.anchor_at(phi)
        return obj, phi

    def _mode(self, small_problem, params, start=None):
        return find_mode(small_problem["panel"], params,
                         linear_predictor(small_problem["design"], params.beta),
                         small_problem["car"], start=start)

    def test_matches_central_differences_of_converged_modes(self, small_problem,
                                                            anchored):
        obj, _ = anchored
        theta, _, jac = obj.anchor
        h = 1e-4
        for i in range(theta.shape[0]):
            e = np.zeros_like(theta)
            e[i] = h
            up = self._mode(small_problem, ModelParams.from_vector(theta + e))
            dn = self._mode(small_problem, ModelParams.from_vector(theta - e))
            assert up.converged and dn.converged
            fd = (up.mu_star - dn.mu_star) / (2.0 * h)
            assert np.max(np.abs(jac[..., i] - fd)) < 1e-5 * np.max(np.abs(fd))

    def test_anchored_stencil_modes_take_one_newton_iteration(self, small_problem,
                                                              anchored):
        obj, phi = anchored
        theta_c, mu_c, jac = obj.anchor
        h = _fd_steps(phi)
        for i in range(phi.shape[0]):
            for sign in (1.0, -1.0):
                e = np.zeros_like(phi)
                e[i] = sign * h[i]
                params = obj.transform.to_params(phi + e)
                mode = self._mode(small_problem, params,
                                  start=mu_c + jac @ (params.vector() - theta_c))
                assert mode.converged
                np.testing.assert_array_equal(mode.block_iterations, 1)


    def test_finite_where_the_intensity_underflows(self, torus3):
        # zero counts and history: e^mu underflows at the mode, which capped
        # steps reach 400 below the default start, and the eta column must
        # not be 0/0
        panel = CountPanel(np.zeros((2, 9), dtype=int), np.zeros(9, dtype=int))
        design = CovariateDesign.intercept_only(2, 9)
        params = ModelParams(eta=0.0, zeta=0.1, tau2=0.5, beta=np.array([-800.0]))
        mode = mode_at(panel, params, design, torus3)
        jac = mode_tangent(mode, panel, params, design, torus3)
        assert np.all(np.isfinite(jac))
        np.testing.assert_array_equal(jac[..., 2], 0.0)


class TestLa1:
    def test_exact_for_gaussian_integrand(self):
        # quadratic g: Laplace is exact; cross-check the assembly against
        # a closed-form Gaussian integral
        prec_prior, prec_data, m = 2.0, 3.0, 0.7
        h = prec_prior + prec_data
        mu_hat = prec_data * m / h
        g_hat = 0.5 * prec_prior * mu_hat ** 2 + 0.5 * prec_data * (mu_hat - m) ** 2
        la1 = 0.5 * np.log(prec_prior) - g_hat - 0.5 * np.log(h)
        from scipy.integrate import quad
        val, _ = quad(lambda y: np.exp(-(0.5 * prec_prior * y ** 2
                                         + 0.5 * prec_data * (y - m) ** 2)), -30, 30)
        exact = 0.5 * np.log(prec_prior) - 0.5 * np.log(2 * np.pi) + np.log(val)
        assert abs(la1 - exact) < 1e-10

    def test_single_cell_against_quadrature(self):
        panel, design, car, params = single_cell_problem(1, 0, 0.0, 1.0)
        exact = exact_single_cell_logmarginal(1, 0.0, 1.0)
        la1 = la1_log_posterior(panel, params, design, car)
        # measured truncation error of LA(1) here is ~+4.9e-3
        assert abs(la1 - exact) < 8e-3
        assert la1 > exact  # LA(1) overshoots on this instance

    def test_permutation_invariance(self, small_problem):
        car, panel = small_problem["car"], small_problem["panel"]
        truth, design = small_problem["truth"], small_problem["design"]
        base = la1_log_posterior(panel, truth, design, car)

        rng = np.random.default_rng(123)
        perm = rng.permutation(panel.n_d)
        a = car.graph.adjacency.toarray()[np.ix_(perm, perm)]
        car_p = CarStructure.from_graph(
            type(car.graph)(a))
        panel_p = CountPanel(panel.counts[:, perm], panel.initial_counts[perm])
        relabeled = la1_log_posterior(panel_p, truth, design, car_p)
        assert abs(base - relabeled) < 1e-9 * max(1.0, abs(base))

    def test_cost_scales_gently_with_T(self):
        truth = ModelParams(eta=0.2, zeta=0.1, tau2=0.5, beta=np.array([0.0]))
        car, design1, panel1, _ = torus_problem(6, 6, 30, truth, seed=31)
        _, design2, panel2, _ = torus_problem(6, 6, 60, truth, seed=31)

        def best_time(panel, design):
            best = np.inf
            for _ in range(3):
                t0 = time.perf_counter()
                la1_log_posterior(panel, truth, design, car)
                best = min(best, time.perf_counter() - t0)
            return best

        t1 = best_time(panel1, design1)
        t2 = best_time(panel2, design2)
        assert t2 < 3.0 * t1 + 0.05

    def test_priors_added_when_given(self, small_problem):
        from secar import PriorSpec
        car, panel = small_problem["car"], small_problem["panel"]
        truth, design = small_problem["truth"], small_problem["design"]
        priors = PriorSpec()
        without = la1_log_posterior(panel, truth, design, car)
        with_p = la1_log_posterior(panel, truth, design, car, priors=priors)
        assert abs((with_p - without) - priors.log_prior(truth, car)) < 1e-10

    def test_empty_panel_is_the_log_prior(self, torus3):
        from secar import PriorSpec
        panel = CountPanel(np.zeros((0, 9), dtype=int), np.zeros(9, dtype=int))
        design = CovariateDesign.intercept_only(0, 9)
        params = ModelParams(eta=0.3, zeta=0.1, tau2=0.7, beta=np.array([0.4]))
        priors = PriorSpec()
        lp = la1_log_posterior(panel, params, design, torus3, priors=priors)
        assert lp == priors.log_prior(params, torus3)
