"""Mode finder: Taylor coefficients, the stacked Newton engine against its
per-block reference, the latent-mode contract of ``mode_at``, first-order
Laplace assembly."""

import time

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from helpers import (cell_data_logdensity, count_find_mode,
                     exact_single_cell_logmarginal, reference_find_mode,
                     single_cell_problem, single_node_car, spy_lapack, torus_problem)
from secar import (CarStructure, CountPanel, CovariateDesign, ModelParams,
                   build_torus_lattice, find_mode, g_gradient, kernels,
                   la1_log_posterior, linear_predictor)
from secar.graph import car_precision_block
from secar.inference import _fd_steps
from secar.mode import ModeError, default_start, la1_from_mode, mode_at, mode_tangent


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
        assert mode.grad_max < 1e-6
        grad = g_gradient(mode.mu_star, small_problem["panel"], small_problem["truth"],
                          mode.alpha, small_problem["car"])
        assert np.max(np.abs(grad)) < 1e-6

    def test_hessian_blocks_positive_definite(self, small_problem):
        mode = find_mode(small_problem["panel"], small_problem["truth"],
                         np.full((40, 25), 0.2), small_problem["car"])
        for t in (0, 17, 39):
            np.linalg.cholesky(mode.hessian_blocks[t])

    def test_logdet_matches_dense_full_hessian(self):
        truth = ModelParams(eta=0.2, zeta=0.15, tau2=0.6, beta=np.array([0.1]))
        car, design, panel, _ = torus_problem(4, 4, 25, truth, seed=9)  # n*T = 400
        mode = find_mode(panel, truth, linear_predictor(design, truth.beta), car)
        dense = sla.block_diag(*mode.hessian_blocks)
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
            assert mode.grad_max < 1e-6

    def test_extreme_self_excitation_cell_regression(self):
        # non-convex single cell that once froze the damped iteration
        car = single_node_car()
        panel = CountPanel(np.array([[321]]), np.array([481]))
        design = CovariateDesign.intercept_only(1, 1)
        params = ModelParams(eta=0.2, zeta=0.0, tau2=0.5, beta=np.array([2.285]))
        mode = find_mode(panel, params, linear_predictor(design, params.beta), car)
        assert mode.converged
        assert mode.grad_max < 1e-6
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
        assert mode.grad_max <= 1e-6
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
        assert np.all(np.isnan(mode.chol_blocks[0]))
        assert np.all(np.isfinite(mode.chol_blocks[1]))

    def test_one_lapack_call_per_block_iteration(self, small_problem, monkeypatch):
        # unridged, every Newton iteration of a block is one dposv (factor and
        # step together) and the final factors are one dpotrf per block
        spy = spy_lapack(monkeypatch)
        truth = small_problem["truth"]
        mode = find_mode(small_problem["panel"], truth,
                         linear_predictor(small_problem["design"], truth.beta),
                         small_problem["car"])
        assert mode.converged
        assert dict(spy.calls) == {"dposv": int(np.sum(mode.block_iterations)),
                                   "dpotrf": mode.T}


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

    def test_torus_panel(self):
        truth = ModelParams(eta=0.3, zeta=0.15, tau2=0.5, beta=np.array([0.2]))
        car, design, panel, _ = torus_problem(5, 5, 20, truth, seed=3)
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

    def test_single_node(self):
        params = ModelParams(eta=0.5, zeta=0.0, tau2=1.5, beta=np.array([0.3]))
        panel = CountPanel(np.array([[4], [0], [9], [1], [30]]), np.array([2]))
        alpha = linear_predictor(CovariateDesign.intercept_only(5, 1), params.beta)
        assert_matches_reference(panel, params, alpha, single_node_car())

    def test_halved_newton_step_is_not_convergence(self, torus3):
        # the per-cell clamp turns this block's Newton step into an ascent
        # direction, which step-halving shrinks below DEFAULT_TOL far from the
        # mode; that once counted as convergence at a gradient of 65
        panel = CountPanel(np.array([[198, 0, 1209, 668, 0, 24, 6, 0, 3]]),
                           np.array([170, 0, 93, 370, 0, 1, 0, 0, 0]))
        params = ModelParams(eta=0.5, zeta=-0.375, tau2=0.24144182212566392,
                             beta=np.array([0.09375]))
        alpha = linear_predictor(CovariateDesign.intercept_only(1, 9), params.beta)
        mode = assert_matches_reference(panel, params, alpha, torus3)
        assert mode.grad_max > 1.0
        assert not mode.converged

    def test_stalled_line_search_is_not_converged(self, monkeypatch):
        # a gradient with the wrong sign makes every step an ascent direction,
        # so step-halving underflows on the first iteration
        grad = kernels.data_nll_grad
        monkeypatch.setattr(kernels, "data_nll_grad", lambda y, z, c: -grad(y, z, c))
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
        grad = kernels.data_nll_grad
        monkeypatch.setattr(kernels, "data_nll_grad", lambda y, z, c: -grad(y, z, c))
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
        added = mode.hessian_blocks[0] - h
        ridge = np.diag(added)
        np.testing.assert_allclose(added - np.diag(ridge), 0.0, atol=1e-12)
        ridge_base = 1e-8 * (1.0 + q.diagonal().max())
        m = np.log10(9.0 * ridge / ridge_base + 1.0)
        assert m[0] >= 1.0
        np.testing.assert_allclose(m, np.round(m[0]), rtol=0.0, atol=1e-6)
        assert np.linalg.eigvalsh(mode.hessian_blocks[0]).min() > 0.0


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
            assert mode.grad_max <= 1e-8 * (1.0 + panel.counts.max())


class TestModeAt:
    """The one theta-to-mode policy: a failed warm start is retried cold once,
    a failed cold start raises at once."""

    def test_failed_cold_start_solves_once(self, small_problem, monkeypatch):
        calls = count_find_mode(monkeypatch, max_iter=1)
        with pytest.raises(ModeError, match="in 40 of 40 time blocks"):
            mode_at(small_problem["panel"], small_problem["truth"],
                    small_problem["design"], small_problem["car"])
        assert calls == ["cold"]

    # an anchor (x_c, mu_c, J_c) that predicts mu = 0 everywhere
    ZERO_ANCHOR = (np.zeros(1), np.zeros((40, 25)), np.zeros((40, 25, 1)))

    def test_failed_warm_start_retries_cold_once(self, small_problem, monkeypatch):
        calls = count_find_mode(monkeypatch, max_iter=1)
        with pytest.raises(ModeError):
            mode_at(small_problem["panel"], small_problem["truth"],
                    small_problem["design"], small_problem["car"],
                    self.ZERO_ANCHOR, np.ones(1))
        assert calls == ["warm", "cold"]

    def test_converged_warm_start_solves_once(self, small_problem, monkeypatch):
        calls = count_find_mode(monkeypatch, max_iter=100)
        mode = mode_at(small_problem["panel"], small_problem["truth"],
                       small_problem["design"], small_problem["car"],
                       self.ZERO_ANCHOR, np.ones(1))
        assert mode.converged and calls == ["warm"]

    def test_objective_gives_minus_inf_after_one_cold_solve(self, small_problem,
                                                            monkeypatch):
        from secar import PriorSpec
        from secar.inference import LaplaceObjective
        calls = count_find_mode(monkeypatch, max_iter=1)
        obj = LaplaceObjective(small_problem["panel"], small_problem["design"],
                               small_problem["car"], PriorSpec(), method="la1")
        assert obj.evaluate(small_problem["truth"]) == -np.inf
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
        obj, phi = anchored
        _, _, jac = obj.anchor
        h = 1e-4
        for i in range(phi.shape[0]):
            e = np.zeros_like(phi)
            e[i] = h
            up = self._mode(small_problem, obj.transform.to_params(phi + e))
            dn = self._mode(small_problem, obj.transform.to_params(phi - e))
            assert up.converged and dn.converged
            fd = (up.mu_star - dn.mu_star) / (2.0 * h)
            assert np.max(np.abs(jac[..., i] - fd)) < 1e-5 * np.max(np.abs(fd))

    def test_anchored_stencil_modes_take_one_newton_iteration(self, small_problem,
                                                              anchored):
        obj, phi = anchored
        _, mu_c, jac = obj.anchor
        h = _fd_steps(phi)
        for i in range(phi.shape[0]):
            for sign in (1.0, -1.0):
                e = np.zeros_like(phi)
                e[i] = sign * h[i]
                mode = self._mode(small_problem, obj.transform.to_params(phi + e),
                                  start=mu_c + jac @ e)
                assert mode.converged
                np.testing.assert_array_equal(mode.block_iterations, 1)


    def test_finite_where_the_intensity_underflows(self, torus3):
        # zero counts and history: e^mu underflows at the mode, 400 clamped
        # steps below the default start, and the eta column must not be 0/0
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
