"""Posterior maximization, transforms, intervals, grid exploration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import digamma
from scipy.stats import norm

from helpers import (assert_diagonals_of_inverse_blocks, count_find_mode,
                     quadrature_posterior_mean, single_cell_problem, spy_inverse_diagonal,
                     torus_problem)
from secar import (CarStructure, CountPanel, CovariateDesign, GridSpec,
                   ModelParams, PriorSpec, SpatialGraph, build_torus_lattice,
                   credible_intervals, explore_grid, latent_marginal,
                   maximize_posterior, sample_theta, simulate)
from secar import inference
from secar import mode as mode_module
from secar.inference import (FitError, GridPoint, LaplaceObjective, ParamTransform,
                             _explore, _fd_steps, fd_gradient, fd_hessian)
from secar.mode import ModeError


def rowwise(f):
    """A function of one point as one of a stack of points, as the finite
    differences and the grid call their objective."""
    return lambda points: np.array([f(x) for x in points])


@pytest.fixture(scope="module")
def tiny_fit():
    truth = ModelParams(eta=0.2, zeta=0.1, tau2=0.5, beta=np.array([0.3]))
    car, design, panel, _ = torus_problem(4, 4, 25, truth, seed=19)
    priors = PriorSpec()
    fit = maximize_posterior(panel, design, car, priors, method="xla")
    return {"car": car, "design": design, "panel": panel, "priors": priors,
            "truth": truth, "fit": fit}


class TestPriorSpec:
    def test_finite_inside_support(self, torus3):
        priors = PriorSpec()
        p = ModelParams(eta=0.5, zeta=0.1, tau2=0.7, beta=np.array([1.0]))
        assert np.isfinite(priors.log_prior(p, torus3))

    def test_minus_inf_outside_zeta_interval(self, torus3):
        priors = PriorSpec(zeta_interval=(0.0, 0.185))
        inside = ModelParams(eta=0.5, zeta=0.1, tau2=0.7)
        outside = ModelParams(eta=0.5, zeta=-0.1, tau2=0.7)
        assert np.isfinite(priors.log_prior(inside, torus3))
        assert priors.log_prior(outside, torus3) == -np.inf

    def test_half_cauchy_density_on_tau2_axis(self, torus3):
        # the whole default prior: half-Cauchy on tau carried to tau2, uniform
        # zeta on the admissible interval, uniform eta, Gaussian beta
        priors = PriorSpec(tau_scale=5.0)
        tau2 = 0.49
        tau = np.sqrt(tau2)
        lo, hi = torus3.zeta_bounds
        p = ModelParams(eta=0.2, zeta=0.1, tau2=tau2, beta=np.array([1.5]))
        expected = np.log(2.0 / (np.pi * 5.0 * (1.0 + (tau / 5.0) ** 2))) \
            - np.log(2.0 * tau) - np.log(hi - lo) \
            + norm.logpdf(1.5, scale=np.sqrt(priors.beta_var))
        assert abs(priors.log_prior(p, torus3) - expected) < 1e-12

    @pytest.mark.parametrize("beta_var", [1000.0, 2.5])
    @pytest.mark.parametrize("p", [1, 3])
    def test_gaussian_beta_term_equals_scipy_bitwise(self, p, beta_var):
        rng = np.random.default_rng(p)
        for scale in (0.1, 1.0, 30.0, 1e4):
            beta = scale * rng.standard_normal(p)
            assert inference._gaussian_logpdf(beta, beta_var) == float(
                np.sum(norm.logpdf(beta, scale=np.sqrt(beta_var))))


class TestParamTransform:
    @pytest.mark.parametrize("interval", [(0.3, 0.1), (0.1, 0.1), (-5.0, 5.0),
                                          (-0.6, 0.2), (0.0, 0.26), (np.nan, 0.2)])
    def test_zeta_support_outside_the_admissible_interval_rejected(self, torus3, interval):
        # the 3x3 torus admits zeta in (-0.5, 0.25)
        with pytest.raises(ValueError, match="zeta prior support"):
            ParamTransform.for_problem(torus3, PriorSpec(zeta_interval=interval), p=1)

    # None is the admissible interval itself: equality with its bounds is allowed
    @pytest.mark.parametrize("interval", [None, (0.0, 0.185), (-0.1, 0.0)])
    def test_zeta_support_inside_the_admissible_interval_accepted(self, torus3, interval):
        tr = ParamTransform.for_problem(torus3, PriorSpec(zeta_interval=interval), p=1)
        assert (tr.zeta_lo, tr.zeta_hi) == (interval or torus3.zeta_bounds)

    def test_reversed_zeta_support_stops_the_fit_and_the_grid(self, tiny_fit):
        priors = PriorSpec(zeta_interval=(0.3, 0.1))
        args = (tiny_fit["panel"], tiny_fit["design"], tiny_fit["car"], priors)
        with pytest.raises(ValueError, match="zeta prior support"):
            maximize_posterior(*args, method="la1")
        with pytest.raises(ValueError, match="zeta prior support"):
            explore_grid(tiny_fit["fit"], *args)

    # beta up to 1e3: every coordinate but log tau2 passes the map unclipped
    @settings(deadline=None)
    @given(eta=st.floats(1e-9, 1.0 - 1e-9), zeta_frac=st.floats(1e-9, 1.0 - 1e-9),
           log10_tau2=st.floats(-3.0, 3.0),
           beta=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3))
    def test_roundtrip(self, torus3, eta, zeta_frac, log10_tau2, beta):
        lo, hi = torus3.zeta_bounds
        p = ModelParams(eta=eta, zeta=lo + zeta_frac * (hi - lo), tau2=10.0 ** log10_tau2,
                        beta=np.array(beta))
        tr = ParamTransform.for_problem(torus3, PriorSpec(), p=p.p)
        back = tr.to_params(tr.to_phi(p))
        # eta and zeta are relative to their unit-sized intervals
        assert abs(back.eta - p.eta) <= 1e-12
        assert abs(back.zeta - p.zeta) <= 1e-12
        assert abs(back.tau2 - p.tau2) <= 1e-12 * p.tau2
        np.testing.assert_allclose(back.beta, p.beta, rtol=1e-12, atol=0.0)

    def test_coordinatewise_backtransform_matches(self, torus3):
        tr = ParamTransform.for_problem(torus3, PriorSpec(), p=1)
        phi = np.array([-0.3, 0.8, -1.1, 2.0])
        params = tr.to_params(phi)
        natural = tr.to_natural(phi)
        assert abs(natural[0] - params.tau2) < 1e-12
        assert abs(natural[1] - params.zeta) < 1e-12
        assert abs(natural[2] - params.eta) < 1e-12
        assert natural[3] == phi[3]

    @pytest.mark.parametrize("x", [-np.inf, -36.0, -35.0, 0.0, 35.0, 36.0, np.inf, np.nan])
    def test_log_tau2_clip_matches_np_clip_bitwise(self, torus3, x):
        tr = ParamTransform.for_problem(torus3, PriorSpec(), p=1)
        got = tr.to_natural(np.array([x, 0.0, 0.0, 0.0]))[0]
        want = np.exp(np.clip(x, -35.0, 35.0))
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_log_jacobian_matches_numeric(self, torus3):
        tr = ParamTransform.for_problem(torus3, PriorSpec(), p=1)
        phi = np.array([0.4, -0.7, 1.2, 0.0])
        h = 1e-6
        total = 0.0
        for k in range(3):
            e = np.zeros(4)
            e[k] = h
            up = tr.to_natural(phi + e)[k]
            dn = tr.to_natural(phi - e)[k]
            total += np.log((up - dn) / (2 * h))
        assert abs(tr.log_jacobian(phi) - total) < 1e-6


class TestFiniteDifferences:
    def test_gradient_and_hessian_on_quadratic(self):
        a = np.array([[2.0, 0.3], [0.3, 1.0]])
        b = np.array([0.5, -1.0])

        def f(x):
            return -0.5 * x @ a @ x + b @ x

        x0 = np.array([0.2, 0.7])
        g, h = fd_hessian(rowwise(f), x0, f(x0))
        np.testing.assert_allclose(g, b - a @ x0, atol=1e-6)
        np.testing.assert_allclose(h, -a, atol=1e-4)
        np.testing.assert_array_equal(fd_gradient(rowwise(f), x0, f0=f(x0))[0], g)

    def test_nonfinite_neighbors_floored(self):
        def f(x):
            return -np.inf if x[0] > 1.0 else -0.5 * float(x @ x)

        x0 = np.array([0.99999, 0.0])
        g, _ = fd_hessian(rowwise(f), x0, f(x0))
        assert np.all(np.isfinite(g))
        assert g[0] < -100.0  # pushes away from the infeasible side
        np.testing.assert_array_equal(fd_gradient(rowwise(f), x0, f0=f(x0))[0], g)

    def test_hessian_reuses_the_gradient_axis_values(self):
        calls = []

        def f(x):
            calls.append(x)
            return float(np.sin(x[0]) * np.exp(x[1]) - x[2] ** 2 * x[0])

        x0 = np.array([0.3, -1.7, 2.4])
        f0 = f(x0)
        _, axis = fd_gradient(rowwise(f), x0, f0)
        del calls[:]
        reused = fd_hessian(rowwise(f), x0, f0, axis)
        n_reused = len(calls)
        full = fd_hessian(rowwise(f), x0, f0)
        assert n_reused == 4 * 3 and len(calls) - n_reused == 2 * 3 + 4 * 3
        for a, b in zip(reused, full):
            np.testing.assert_array_equal(a, b)


@pytest.fixture(scope="module")
def readme_quickstart():
    """The README quick-start panel (10x10 torus, T = 100, seed 1) and its xla
    fit, shared by the slow tests that read it."""
    truth = ModelParams(eta=0.1, zeta=0.245, tau2=0.4, beta=np.array([0.0]))
    car, design, panel, _ = torus_problem(10, 10, 100, truth, seed=1)
    xla = maximize_posterior(panel, design, car, PriorSpec(), method="xla")
    return {"truth": truth, "car": car, "design": design, "panel": panel, "xla": xla}


class TestMaximizePosterior:
    @pytest.mark.slow
    def test_readme_quickstart_xla_fit_covers_the_truth(self, readme_quickstart):
        truth, fit = readme_quickstart["truth"], readme_quickstart["xla"]
        assert fit.converged and fit.hessian_nd
        assert fit.n_evals <= 300  # quasi-Newton steps take one FD gradient each
        lo, hi = credible_intervals(fit, 0.95)["tau2"]
        assert lo < truth.tau2 < hi

    @pytest.mark.slow
    def test_readme_quickstart_la1_interval_misses_the_truth_that_xla_covers(
            self, readme_quickstart):
        # the paper's headline: the first-order Laplace approximation biases
        # tau2 low, and the extended one corrects it
        q = readme_quickstart
        la1 = maximize_posterior(q["panel"], q["design"], q["car"], PriorSpec(),
                                 method="la1")
        assert la1.converged and la1.hessian_nd
        assert la1.n_evals <= 300
        tau2 = q["truth"].tau2
        lo, hi = credible_intervals(la1, 0.95)["tau2"]
        assert not lo < tau2 < hi
        lo, hi = credible_intervals(q["xla"], 0.95)["tau2"]
        assert lo < tau2 < hi

    def test_large_coefficient_is_fitted_on_its_own_scale(self):
        # a covariate in (0, 0.05) with coefficient 40: the fit once stopped at
        # beta1 = 35, where every phi coordinate was clipped, and reported
        # convergence with a Hessian that was not negative definite
        car = CarStructure.from_graph(build_torus_lattice(5, 5))
        T = 40
        x = np.random.default_rng(11).uniform(0.0, 0.05, size=(T, car.n_d))
        design = CovariateDesign(np.stack([np.ones((T, car.n_d)), x], axis=2),
                                 names=["intercept", "x"])
        truth = ModelParams(eta=0.3, zeta=0.15, tau2=0.3, beta=np.array([0.0, 40.0]))
        panel, _ = simulate(car, truth, design, T, seed=4)
        fit = maximize_posterior(panel, design, car, PriorSpec(), method="la1")
        assert fit.converged and fit.hessian_nd
        lo, hi = credible_intervals(fit, 0.95)["beta1"]
        assert lo < 40.0 < hi

    def test_recovers_null_model(self):
        truth = ModelParams(eta=0.0, zeta=0.0, tau2=0.4, beta=np.array([0.5]))
        car, design, panel, _ = torus_problem(5, 5, 30, truth, seed=23)
        fit = maximize_posterior(panel, design, car, PriorSpec(), method="xla")
        assert fit.converged
        assert fit.params_hat.eta < 0.05  # boundary case
        sd_beta = np.sqrt(fit.cov[3, 3])
        assert abs(fit.params_hat.beta[0] - 0.5) < 2.5 * sd_beta

    def test_start_point_invariance(self, tiny_fit):
        car, design, panel = tiny_fit["car"], tiny_fit["design"], tiny_fit["panel"]
        priors = tiny_fit["priors"]
        rng = np.random.default_rng(4)
        modes = []
        for _ in range(5):
            start = ModelParams(eta=rng.uniform(0.05, 0.6),
                                zeta=rng.uniform(-0.15, 0.2),
                                tau2=rng.uniform(0.2, 1.5),
                                beta=np.array([rng.normal(0.0, 0.7)]))
            fit = maximize_posterior(panel, design, car, priors, method="la1",
                                     start=start)
            assert fit.converged
            modes.append(fit.phi_hat)
        spread = np.max(np.ptp(np.array(modes), axis=0))
        assert spread < 1e-4

    def test_no_point_is_evaluated_twice(self, tiny_fit, monkeypatch):
        # the gradient reuses the Hessian stencil's +-h e_i values, and a value
        # depends on theta and the anchor only, so no (theta, anchor) pair recurs
        real, seen = LaplaceObjective.evaluate, []

        def spy(obj, params, mode=None):
            anchor = None if obj.anchor is None else obj.anchor[0].tobytes()
            seen.append((params.vector().tobytes(), anchor))
            return real(obj, params, mode)

        monkeypatch.setattr(LaplaceObjective, "evaluate", spy)
        fit = maximize_posterior(tiny_fit["panel"], tiny_fit["design"], tiny_fit["car"],
                                 tiny_fit["priors"], method="la1")
        assert fit.converged and fit.newton_steps > 1
        assert len(seen) == fit.n_evals
        repeated = len(seen) - len(set(seen))
        assert repeated == 0

    def test_fit_hessian_is_the_stencil_at_phi_hat(self, tiny_fit):
        fit = tiny_fit["fit"]
        obj = LaplaceObjective(tiny_fit["panel"], tiny_fit["design"], tiny_fit["car"],
                               tiny_fit["priors"], method="xla")
        obj.anchor = fit.anchor
        grad, hess = fd_hessian(obj.values, fit.phi_hat, fit.log_posterior)
        assert fit.converged
        np.testing.assert_array_equal(hess, fit.hessian)
        assert np.max(np.abs(grad)) < inference.GRAD_TOL

    @staticmethod
    def _spy_derivatives(monkeypatch):
        calls = {"fd_gradient": [], "fd_hessian": []}
        for name in calls:
            def spy(fun, phi, f0, *axis, _real=getattr(inference, name), _name=name):
                out = _real(fun, phi, f0, *axis)
                calls[_name].append((phi.copy(), out))
                return out
            monkeypatch.setattr(inference, name, spy)
        return calls

    def test_one_stencil_at_the_start_and_one_at_the_optimum(self, tiny_fit, monkeypatch):
        calls = self._spy_derivatives(monkeypatch)
        fit = maximize_posterior(tiny_fit["panel"], tiny_fit["design"], tiny_fit["car"],
                                 tiny_fit["priors"], method="xla")
        assert fit.converged and fit.newton_steps > 1
        assert len(calls["fd_hessian"]) == 2
        # every step but the one into the final stencil takes a gradient only
        assert len(calls["fd_gradient"]) == fit.newton_steps - 1
        phi, (_, hess) = calls["fd_hessian"][-1]
        np.testing.assert_array_equal(phi, fit.phi_hat)
        assert hess is fit.hessian

    @pytest.mark.parametrize("exit_kind", ["stall", "out_of_steps"])
    def test_early_exit_reports_the_hessian_at_its_own_phi_hat(self, tiny_fit, monkeypatch,
                                                               exit_kind):
        calls = self._spy_derivatives(monkeypatch)
        real, spy_hessian = LaplaceObjective.evaluate, inference.fd_hessian
        in_stencil = []

        def failing_line_search(obj, params, mode=None):
            # every line-search value after the second gradient is -inf
            if len(calls["fd_gradient"]) >= 2 and not in_stencil:
                return -np.inf
            return real(obj, params, mode)

        def stencil(fun, phi, f0, *axis):
            in_stencil.append(True)
            try:
                return spy_hessian(fun, phi, f0, *axis)
            finally:
                in_stencil.pop()

        if exit_kind == "stall":
            monkeypatch.setattr(LaplaceObjective, "evaluate", failing_line_search)
            monkeypatch.setattr(inference, "fd_hessian", stencil)
        fit = maximize_posterior(tiny_fit["panel"], tiny_fit["design"], tiny_fit["car"],
                                 tiny_fit["priors"], method="la1", max_steps=3)
        assert not fit.converged
        expected = {"stall": "line search stalled",
                    "out_of_steps": "no convergence in 3 Newton steps"}[exit_kind]
        assert fit.message == expected and fit.newton_steps == 3
        assert len(calls["fd_gradient"]) == 2 and len(calls["fd_hessian"]) == 2
        phi, (_, hess) = calls["fd_hessian"][-1]
        np.testing.assert_array_equal(phi, fit.phi_hat)
        # the start, one entry per step, and a stall repeats its last point
        assert len(fit.trace) == 4
        np.testing.assert_array_equal(fit.trace[-1][0], fit.phi_hat)
        assert hess is fit.hessian

    def test_stalled_fit_stencil_reuses_the_gradient_axis_values(self, tiny_fit, monkeypatch):
        # the line search stalls after the second gradient; the final stencil
        # at that gradient's phi evaluates only its 4 C(d, 2) cross points
        gradients, in_stencil, stencil_evals = [], [], []
        real_eval, real_gradient, real_hessian = (LaplaceObjective.evaluate,
                                                  inference.fd_gradient, inference.fd_hessian)

        def gradient(fun, phi, f0):
            out = real_gradient(fun, phi, f0)
            gradients.append(phi)
            return out

        def hessian(fun, phi, f0, *axis):
            in_stencil.append(True)
            before = fun.__self__.n_evals
            try:
                return real_hessian(fun, phi, f0, *axis)
            finally:
                in_stencil.pop()
                stencil_evals.append(fun.__self__.n_evals - before)

        def failing_line_search(obj, params, mode=None):
            if len(gradients) >= 2 and not in_stencil:
                return -np.inf
            return real_eval(obj, params, mode)

        monkeypatch.setattr(LaplaceObjective, "evaluate", failing_line_search)
        monkeypatch.setattr(inference, "fd_gradient", gradient)
        monkeypatch.setattr(inference, "fd_hessian", hessian)
        args = (tiny_fit["panel"], tiny_fit["design"], tiny_fit["car"], tiny_fit["priors"])
        fit = maximize_posterior(*args, method="la1", max_steps=3)
        assert fit.message == "line search stalled"
        monkeypatch.undo()
        obj = LaplaceObjective(*args, method="la1")
        obj.anchor = fit.anchor
        _, hess = fd_hessian(obj.values, fit.phi_hat, fit.log_posterior)
        d = fit.phi_hat.shape[0]
        assert stencil_evals == [obj.n_evals, obj.n_evals - 2 * d]
        np.testing.assert_array_equal(hess, fit.hessian)

    def test_method_validation(self, tiny_fit):
        with pytest.raises(ValueError, match="unknown method"):
            maximize_posterior(tiny_fit["panel"], tiny_fit["design"],
                               tiny_fit["car"], tiny_fit["priors"], method="nuts")

    def test_likelihood_view_flag(self, tiny_fit):
        obj_with = LaplaceObjective(tiny_fit["panel"], tiny_fit["design"],
                                    tiny_fit["car"], tiny_fit["priors"],
                                    method="la1", include_priors=True)
        obj_without = LaplaceObjective(tiny_fit["panel"], tiny_fit["design"],
                                       tiny_fit["car"], tiny_fit["priors"],
                                       method="la1", include_priors=False)
        p = tiny_fit["truth"]
        gap = obj_with.evaluate(p) - obj_without.evaluate(p)
        assert abs(gap - tiny_fit["priors"].log_prior(p, tiny_fit["car"])) < 1e-9


class TestAnchor:
    """Every objective value depends on phi and the anchor only."""

    def _stencil(self, phi):
        h = _fd_steps(phi)
        steps = [sign * h[i] * e for i, e in enumerate(np.eye(phi.shape[0]))
                 for sign in (1.0, -1.0)]
        steps += [si * h[i] * ei + sj * h[j] * ej
                  for i, ei in enumerate(np.eye(phi.shape[0]))
                  for j, ej in enumerate(np.eye(phi.shape[0])) if i < j
                  for si in (1.0, -1.0) for sj in (1.0, -1.0)]
        return [phi + s for s in steps]

    def test_stencil_values_do_not_depend_on_evaluation_order(self, tiny_fit):
        fit = tiny_fit["fit"]
        points = self._stencil(fit.phi_hat)
        values = []
        for order in (points, points[::-1]):
            obj = LaplaceObjective(tiny_fit["panel"], tiny_fit["design"],
                                   tiny_fit["car"], tiny_fit["priors"], method="xla")
            obj.anchor_at(fit.phi_hat)
            values.append({tuple(phi): obj(phi) for phi in order})
        assert all(np.isfinite(v) for v in values[0].values())
        assert values[0] == values[1]

    def test_anchored_fit_matches_cold_fit(self, tiny_fit, monkeypatch):
        monkeypatch.setattr(LaplaceObjective, "anchor_at", lambda self, phi, mode=None: None)
        cold = maximize_posterior(tiny_fit["panel"], tiny_fit["design"], tiny_fit["car"],
                                  tiny_fit["priors"], method="xla")
        fit = tiny_fit["fit"]
        assert cold.converged and fit.converged
        theta, theta_cold = fit.params_hat.vector(), cold.params_hat.vector()
        np.testing.assert_allclose(theta, theta_cold, rtol=1e-6, atol=0.0)
        assert abs(fit.log_posterior - cold.log_posterior) <= 1e-8 * abs(cold.log_posterior)


class TestEvaluateMany:
    """Values of a batch equal one evaluate call per theta, bit for bit,
    wherever the stacks of latent modes break."""

    PRIORS = PriorSpec(zeta_interval=(-0.2, 0.2))  # 4x4 torus: zeta admissible in (-.25, .25)

    def _objective(self, tiny_fit):
        obj = LaplaceObjective(tiny_fit["panel"], tiny_fit["design"], tiny_fit["car"],
                               self.PRIORS, method="xla")
        obj.anchor = tiny_fit["fit"].anchor
        return obj

    @staticmethod
    def _near(tiny_fit, *offsets):
        fit = tiny_fit["fit"]
        return [fit.transform.to_params(fit.phi_hat + np.array(d)) for d in offsets]

    def test_mixed_batch_equals_single_calls(self, tiny_fit, monkeypatch):
        from dataclasses import replace
        # warm starts get one Newton iteration, which only the anchor's own
        # theta converges in; cold starts get all of them
        real, calls = mode_module.find_mode, []

        def capped(panel, params, alpha, car, start=None):
            kind = "cold" if start is None else "warm"
            calls.append((kind, 1 if isinstance(params, ModelParams) else len(params)))
            return real(panel, params, alpha, car, start=start,
                        max_iter=1 if start is not None else mode_module.MAX_ITER)

        monkeypatch.setattr(mode_module, "find_mode", capped)
        at_anchor, near, far = self._near(tiny_fit, [0.0] * 4, [0.1, -0.2, 0.05, 0.1],
                                          [-0.3, 0.2, 0.1, -0.2])
        thetas = [near, replace(near, eta=1.5), at_anchor, replace(near, zeta=0.22),
                  replace(near, beta=np.array([2000.0])), far, near]
        batch_obj, single_obj = self._objective(tiny_fit), self._objective(tiny_fit)
        with np.errstate(all="ignore"):
            batch = batch_obj.evaluate_many(thetas)
            batch_calls = calls[:]
            singles = [single_obj.evaluate(p) for p in thetas]
        np.testing.assert_array_equal(batch, singles)
        assert np.isfinite(batch).tolist() == [True, False, True, False, False, True, True]
        assert batch_obj.n_evals == single_obj.n_evals == len(thetas)
        # one warm stack of the six admissible thetas, then the five whose warm
        # start failed (all but the anchor's own) retried cold together
        assert batch_calls == [("warm", 6), ("cold", 5)]

    def test_stack_boundaries_do_not_change_values(self, tiny_fit, monkeypatch):
        rng = np.random.default_rng(3)
        thetas = self._near(tiny_fit, *(0.3 * rng.standard_normal((7, 4))))
        values = []
        for blocks in (1, 2 * tiny_fit["panel"].T, 3 * tiny_fit["panel"].T, 10 ** 6):
            monkeypatch.setattr(mode_module, "_STACK_BLOCKS", blocks)
            values.append(self._objective(tiny_fit).evaluate_many(thetas))
        assert np.all(np.isfinite(values[0]))
        for other in values[1:]:
            np.testing.assert_array_equal(other, values[0])


class TestCredibleIntervals:
    def test_respect_parameter_bounds(self, tiny_fit):
        fit = tiny_fit["fit"]
        # inflate the covariance: endpoints must still respect the bounds
        wide = fit.scale * 20.0
        from dataclasses import replace
        intervals = credible_intervals(replace(fit, scale=wide), 0.95)
        lo, hi = intervals["eta"]
        assert 0.0 <= lo < hi <= 1.0
        zlo, zhi = intervals["zeta"]
        blo, bhi = fit.transform.zeta_lo, fit.transform.zeta_hi
        assert blo <= zlo < zhi <= bhi
        assert intervals["tau2"][0] > 0.0

    @pytest.mark.parametrize("phi_hat,half_width", [
        ([0.3, -0.4, 0.5, 1.2], 0.8),
        ([0.0, 0.0, 0.0, 0.0], 50.0),  # every endpoint beyond +-35
    ])
    def test_endpoints_are_coordinate_maps(self, tiny_fit, phi_hat, half_width):
        # log tau2 endpoints are clipped at +-35; zeta, eta and beta ones are not
        from dataclasses import replace
        from scipy.special import expit
        phi_hat = np.array(phi_hat)
        sd = half_width / norm.ppf(0.975)
        fit = replace(tiny_fit["fit"], phi_hat=phi_hat, scale=np.eye(4) * sd)
        intervals = credible_intervals(fit, 0.95)
        zlo, zhi = fit.transform.zeta_lo, fit.transform.zeta_hi
        half = norm.ppf(0.975) * np.sqrt(np.diag(fit.cov))
        for end, phi in enumerate((phi_hat - half, phi_hat + half)):
            want = [np.exp(np.clip(phi[0], -35.0, 35.0)),
                    zlo + (zhi - zlo) * expit(phi[1]), expit(phi[2]), phi[3]]
            got = [intervals[name][end] for name in fit.names]
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-17)
        if half_width > 35.0:
            assert intervals["tau2"] == (np.exp(-35.0), np.exp(35.0))
            assert intervals["zeta"][0] == zlo and intervals["eta"] == (0.0, 1.0)
            assert intervals["beta0"] == (-half[3], half[3])

    def test_nesting_across_levels(self, tiny_fit):
        i50 = credible_intervals(tiny_fit["fit"], 0.5)
        i95 = credible_intervals(tiny_fit["fit"], 0.95)
        for name in i50:
            assert i95[name][0] <= i50[name][0] <= i50[name][1] <= i95[name][1]

    def test_degenerate_covariance_collapses(self, tiny_fit):
        from dataclasses import replace
        tiny = replace(tiny_fit["fit"], scale=np.eye(4) * 1e-9)
        intervals = credible_intervals(tiny, 0.95)
        theta = tiny_fit["fit"].params_hat
        assert abs(intervals["tau2"][0] - theta.tau2) < 1e-6
        assert abs(intervals["tau2"][1] - theta.tau2) < 1e-6

    def test_level_validation_and_nd_check(self, tiny_fit):
        from dataclasses import replace
        with pytest.raises(ValueError, match="level"):
            credible_intervals(tiny_fit["fit"], 1.5)
        broken = replace(tiny_fit["fit"], hessian_nd=False)
        with pytest.raises(FitError, match="negative definite"):
            credible_intervals(broken, 0.95)


class TestExploreGrid:
    def test_quadratic_surrogate_weights_match_gaussian(self):
        a = np.diag([4.0, 1.0])
        phi_hat = np.array([1.0, -2.0])

        def objective(phi):
            d = phi - phi_hat
            return -0.5 * float(d @ a @ d)

        pts = _explore(rowwise(objective), phi_hat, 0.0, np.diag([0.5, 1.0]), GridSpec())
        weights = np.array([w for _, _, w in pts])
        dens = np.array([np.exp(f) for _, f, _ in pts])
        dens /= dens.sum()
        np.testing.assert_allclose(weights, dens, atol=1e-8)
        drops = np.array([-f for _, f, _ in pts])
        assert drops.max() <= 6.0 + 1e-9
        assert any(np.allclose(phi, phi_hat) for phi, _, _ in pts)

    def test_one_parameter_marginal_mean_matches_quadrature(self):
        # log-gamma shaped surface: exact mean of phi is digamma(50)
        def objective(phi):
            return 50.0 * float(phi[0]) - float(np.exp(phi[0]))

        phi_hat = np.array([np.log(50.0)])
        scale = np.array([[1.0 / np.sqrt(50.0)]])
        pts = _explore(rowwise(objective), phi_hat, objective(phi_hat), scale,
                       GridSpec(spacing=0.5, cutoff=8.0))
        mean = sum(w * phi[0] for phi, _, w in pts)
        exact = digamma(50.0)
        num, _ = quad(lambda x: x * np.exp(50.0 * x - np.exp(x) - 50.0 * phi_hat[0]
                                           + 50.0), 0.0, 8.0, limit=200)
        den, _ = quad(lambda x: np.exp(50.0 * x - np.exp(x) - 50.0 * phi_hat[0]
                                       + 50.0), 0.0, 8.0, limit=200)
        assert abs(num / den - exact) < 1e-6  # quadrature agrees with closed form
        assert abs(mean - exact) < 1e-3

    def test_cap_stops_at_max_points_with_one_warning(self):
        calls = []

        def objective(phi):
            calls.append(phi)
            return -0.5 * float(phi @ phi)

        phi_hat, scale = np.zeros(3), np.eye(3)
        with pytest.warns(UserWarning, match="capped at 20 points") as record:
            pts = _explore(rowwise(objective), phi_hat, 0.0, scale,
                           GridSpec(0.75, 6.0, max_points=20))
        assert len(record) == 1
        assert len(calls) == 19  # the mode is not re-evaluated
        assert len(pts) == 20
        # the capped grid is the first 19 evaluations of the uncapped one
        calls_capped = calls[:]
        calls.clear()
        _explore(rowwise(objective), phi_hat, 0.0, scale, GridSpec(0.75, 6.0))
        np.testing.assert_array_equal(calls_capped, calls[:19])

    @pytest.mark.parametrize("kwargs,key", [
        (dict(spacing=0.0), "grid_spacing"), (dict(spacing=np.inf), "grid_spacing"),
        (dict(cutoff=-1.0), "grid_cutoff"), (dict(cutoff=np.nan), "grid_cutoff"),
        (dict(max_points=0), "grid_max_points"),
    ])
    def test_spec_rejects_settings_that_cannot_make_a_grid(self, kwargs, key):
        with pytest.raises(ValueError, match=key):
            GridSpec(**kwargs)

    def test_end_to_end_grid_on_fit(self, tiny_fit):
        spec = GridSpec(spacing=1.5, cutoff=3.0, max_points=300)
        fit = explore_grid(tiny_fit["fit"], tiny_fit["panel"], tiny_fit["design"],
                           tiny_fit["car"], tiny_fit["priors"], spec)
        assert fit.grid is not None and len(fit.grid) >= 5
        w = np.array([pt.weight for pt in fit.grid])
        assert abs(w.sum() - 1.0) < 1e-12
        best = max(fit.grid, key=lambda pt: pt.log_posterior)
        assert abs(best.log_posterior - fit.log_posterior) < 1e-9
        # one eigen-scale S: cov = S S^T = (-H)^-1, and the grid is phi_hat + S (spacing z)
        np.testing.assert_array_equal(fit.cov, fit.scale @ fit.scale.T)
        np.testing.assert_allclose(fit.cov @ -fit.hessian, np.eye(4), atol=1e-8)
        for pt in fit.grid:
            z = np.round(np.linalg.solve(fit.scale, pt.phi - fit.phi_hat) / spec.spacing)
            np.testing.assert_array_equal(pt.phi, fit.phi_hat + fit.scale @ (spec.spacing * z))


class TestFitAnchor:
    def test_fit_carries_the_anchor_at_its_mode(self, tiny_fit):
        fit = tiny_fit["fit"]
        theta_c, mu_c, jac = fit.anchor
        np.testing.assert_array_equal(theta_c, fit.params_hat.vector())
        assert mu_c.shape == (tiny_fit["panel"].T, tiny_fit["panel"].n_d)
        assert jac.shape == mu_c.shape + (3 + fit.params_hat.p,)

    @pytest.mark.filterwarnings("ignore:grid exploration capped")
    def test_grid_and_marginals_start_no_mode_cold(self, tiny_fit, monkeypatch):
        from secar.mode import MAX_ITER
        calls = count_find_mode(monkeypatch, max_iter=MAX_ITER)
        fit = explore_grid(tiny_fit["fit"], tiny_fit["panel"], tiny_fit["design"],
                           tiny_fit["car"], tiny_fit["priors"],
                           GridSpec(spacing=1.5, cutoff=3.0, max_points=60))
        latent_marginal(fit, tiny_fit["panel"], tiny_fit["design"], tiny_fit["car"])
        assert calls and set(calls) == {"warm"}

    @pytest.mark.filterwarnings("ignore:grid exploration capped")
    def test_fit_without_an_anchor_starts_the_grid_cold(self, tiny_fit, monkeypatch):
        from dataclasses import replace
        from secar.mode import MAX_ITER
        calls = count_find_mode(monkeypatch, max_iter=MAX_ITER)
        fit = explore_grid(replace(tiny_fit["fit"], anchor=None), tiny_fit["panel"],
                           tiny_fit["design"], tiny_fit["car"], tiny_fit["priors"],
                           GridSpec(spacing=1.5, cutoff=3.0, max_points=20))
        assert len(fit.grid) >= 2 and set(calls) == {"cold"}


class TestLatentMarginal:
    def test_single_point_equals_mode_moments(self, tiny_fit):
        from secar import find_mode, linear_predictor
        from secar.xla import invert_hessian_blocks
        fit, panel = tiny_fit["fit"], tiny_fit["panel"]
        mean, var = latent_marginal(fit, panel, tiny_fit["design"], tiny_fit["car"])
        alpha = linear_predictor(tiny_fit["design"], fit.params_hat.beta)
        mode = find_mode(panel, fit.params_hat, alpha, tiny_fit["car"])
        gii = np.empty_like(mode.mu_star)
        gii[:, mode.band_order] = np.diagonal(invert_hessian_blocks(mode), axis1=1, axis2=2)
        np.testing.assert_allclose(mean, mode.mu_star, atol=1e-12)
        np.testing.assert_allclose(var, gii, atol=1e-10)

    def test_symmetric_two_point_mixture_mean_is_midpoint(self, tiny_fit):
        from dataclasses import replace
        fit, panel = tiny_fit["fit"], tiny_fit["panel"]
        delta = np.zeros(4)
        delta[3] = 0.15  # shift the intercept
        tr = fit.transform
        pts = [GridPoint(phi=fit.phi_hat + s * delta,
                         params=tr.to_params(fit.phi_hat + s * delta),
                         log_posterior=0.0, weight=0.5) for s in (-1.0, 1.0)]
        mean_mix, _ = latent_marginal(replace(fit, grid=pts), panel,
                                      tiny_fit["design"], tiny_fit["car"])
        singles = []
        for pt in pts:
            one = [replace(pt, weight=1.0)]
            m, _ = latent_marginal(replace(fit, grid=one), panel,
                                   tiny_fit["design"], tiny_fit["car"])
            singles.append(m)
        np.testing.assert_allclose(mean_mix, 0.5 * (singles[0] + singles[1]),
                                   atol=1e-10)

    def test_moments_do_not_depend_on_grid_order(self, tiny_fit):
        from dataclasses import replace
        fit = explore_grid(tiny_fit["fit"], tiny_fit["panel"], tiny_fit["design"],
                           tiny_fit["car"], tiny_fit["priors"],
                           GridSpec(spacing=1.5, cutoff=3.0, max_points=300))
        perm = np.random.default_rng(8).permutation(len(fit.grid))
        shuffled = replace(fit, grid=[fit.grid[i] for i in perm])
        moments = [latent_marginal(f, tiny_fit["panel"], tiny_fit["design"], tiny_fit["car"])
                   for f in (fit, shuffled)]
        for a, b in zip(*moments):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)

    def test_failed_mode_raises(self, tiny_fit, monkeypatch):
        # at phi_hat the anchored start is the mode itself and converges in one
        # iteration, so the failing point sits off the centre
        from dataclasses import replace
        fit = tiny_fit["fit"]
        phi = fit.phi_hat + np.array([0.0, 0.0, 0.0, 0.3])
        pt = GridPoint(phi=phi, params=fit.transform.to_params(phi), log_posterior=0.0,
                       weight=1.0)
        calls = count_find_mode(monkeypatch, max_iter=1)
        with pytest.raises(ModeError):
            latent_marginal(replace(fit, grid=[pt]), tiny_fit["panel"], tiny_fit["design"],
                            tiny_fit["car"])
        assert calls == ["warm", "cold"]

    def test_variances_are_the_inverse_block_diagonals(self, tiny_fit, monkeypatch):
        from dataclasses import replace
        fit = tiny_fit["fit"]
        pts = [GridPoint(phi=phi, params=fit.transform.to_params(phi), log_posterior=0.0,
                         weight=0.5)
               for phi in (fit.phi_hat, fit.phi_hat + np.array([0.2, -0.3, 0.1, 0.05]))]
        calls = spy_inverse_diagonal(monkeypatch, inference)
        latent_marginal(replace(fit, grid=pts), tiny_fit["panel"], tiny_fit["design"],
                        tiny_fit["car"])
        assert len(calls) == 2
        assert_diagonals_of_inverse_blocks(calls)

    def test_scalar_cell_mean_close_to_quadrature(self):
        panel, design, car, params = single_cell_problem(3, 0, 0.0, 0.1)
        priors = PriorSpec()
        tr = ParamTransform.for_problem(car, priors, p=1)
        fit_like = maximize_posterior(panel, design, car, priors, method="la1",
                                      start=params, max_steps=0)
        from dataclasses import replace
        pt = GridPoint(phi=tr.to_phi(params), params=params,
                       log_posterior=0.0, weight=1.0)
        mean, _ = latent_marginal(replace(fit_like, grid=[pt]), panel, design, car)
        oracle = quadrature_posterior_mean(3, 0.0, 0.1)
        assert abs(mean[0, 0] - oracle) < 1e-2


class TestSampleTheta:
    def test_deterministic_and_admissible(self, tiny_fit):
        draws1 = sample_theta(tiny_fit["fit"], 60, seed=5)
        draws2 = sample_theta(tiny_fit["fit"], 60, seed=5)
        assert len(draws1) == 60
        for a, b in zip(draws1, draws2):
            assert a.tau2 == b.tau2 and a.eta == b.eta
        for p in draws1:
            p.validate(tiny_fit["car"])

    def test_draw_covariance_matches_the_fit(self, tiny_fit):
        fit = tiny_fit["fit"]
        draws = sample_theta(fit, 20_000, seed=8)
        phi = np.array([fit.transform.to_phi(p) for p in draws])
        sd = np.sqrt(np.diag(fit.cov))
        assert np.all(np.abs(np.cov(phi.T) - fit.cov) <= 0.05 * np.outer(sd, sd))

    def test_refuses_a_hessian_that_is_not_negative_definite(self, tiny_fit):
        from dataclasses import replace
        with pytest.raises(FitError, match="not negative definite"):
            sample_theta(replace(tiny_fit["fit"], hessian_nd=False), 60, seed=5)
