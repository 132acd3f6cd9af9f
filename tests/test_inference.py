"""Posterior maximization, transforms, intervals, grid exploration."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import digamma
from scipy.stats import norm

from helpers import (assert_diagonals_of_inverse_blocks, count_find_mode,
                     quadrature_posterior_mean, single_cell_problem, spy_inverse_diagonal,
                     torus_problem)
from secar import (CarStructure, CountPanel, CovariateDesign, GridSpec,
                   ModelParams, PriorSpec, SpatialGraph, build_torus_lattice,
                   credible_intervals, explore_grid, latent_marginal,
                   maximize_posterior, sample_theta)
from secar import inference
from secar.inference import (FitError, GridPoint, LaplaceObjective, ParamTransform,
                             _explore, _fd_steps, fd_gradient, fd_hessian)
from secar.mode import ModeError


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

    def test_roundtrip(self, torus3):
        tr = ParamTransform.for_problem(torus3, PriorSpec(), p=2)
        p = ModelParams(eta=0.37, zeta=0.11, tau2=0.83, beta=np.array([1.5, -2.0]))
        back = tr.to_params(tr.to_phi(p))
        assert abs(back.eta - p.eta) < 1e-12
        assert abs(back.zeta - p.zeta) < 1e-12
        assert abs(back.tau2 - p.tau2) < 1e-12
        np.testing.assert_allclose(back.beta, p.beta, atol=1e-12)

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

    def test_natural_jacobian_matches_numeric(self, torus3):
        tr = ParamTransform.for_problem(torus3, PriorSpec(), p=2)
        phi = np.array([0.4, -0.7, 1.2, 0.3, -2.0])
        h = 1e-6
        numeric = [(tr.to_natural(phi + h * e)[k] - tr.to_natural(phi - h * e)[k]) / (2 * h)
                   for k, e in enumerate(np.eye(5))]
        np.testing.assert_allclose(tr.natural_jacobian(phi), numeric, rtol=1e-8)

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
        g, h = fd_hessian(f, x0, f(x0))
        np.testing.assert_allclose(g, b - a @ x0, atol=1e-6)
        np.testing.assert_allclose(h, -a, atol=1e-4)
        np.testing.assert_array_equal(fd_gradient(f, x0, f0=f(x0)), g)

    def test_nonfinite_neighbors_floored(self):
        def f(x):
            return -np.inf if x[0] > 1.0 else -0.5 * float(x @ x)

        x0 = np.array([0.99999, 0.0])
        g, _ = fd_hessian(f, x0, f(x0))
        assert np.all(np.isfinite(g))
        assert g[0] < -100.0  # pushes away from the infeasible side
        np.testing.assert_array_equal(fd_gradient(f, x0, f0=f(x0)), g)


class TestMaximizePosterior:
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
        # depends on phi and the anchor only, so no (phi, anchor) pair recurs
        real, seen = LaplaceObjective.evaluate, []

        def spy(obj, params, phi=None):
            anchor = None if obj.anchor is None else obj.anchor[0].tobytes()
            seen.append((np.asarray(phi).tobytes(), anchor))
            return real(obj, params, phi)

        monkeypatch.setattr(LaplaceObjective, "evaluate", spy)
        fit = maximize_posterior(tiny_fit["panel"], tiny_fit["design"], tiny_fit["car"],
                                 tiny_fit["priors"], method="la1")
        assert fit.converged and fit.newton_steps > 1
        assert len(seen) == fit.n_evals
        repeated = len(seen) - len(set(seen))
        assert repeated == 0

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


class TestCredibleIntervals:
    def test_respect_parameter_bounds(self, tiny_fit):
        fit = tiny_fit["fit"]
        # inflate the covariance: endpoints must still respect the bounds
        wide = fit.cov * 400.0
        from dataclasses import replace
        intervals = credible_intervals(replace(fit, cov=wide), 0.95)
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
        fit = replace(tiny_fit["fit"], phi_hat=phi_hat, cov=np.eye(4) * sd ** 2)
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
        tiny = replace(tiny_fit["fit"], cov=np.eye(4) * 1e-18)
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

        pts = _explore(objective, phi_hat, 0.0, -a, GridSpec())
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
        hess = np.array([[-50.0]])
        pts = _explore(objective, phi_hat, objective(phi_hat), hess,
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

        phi_hat, hess = np.zeros(3), -np.eye(3)
        with pytest.warns(UserWarning, match="capped at 20 points") as record:
            pts = _explore(objective, phi_hat, 0.0, hess, GridSpec(0.75, 6.0, max_points=20))
        assert len(record) == 1
        assert len(calls) == 19  # the mode is not re-evaluated
        assert len(pts) == 20
        # the capped grid is the first 19 evaluations of the uncapped one
        calls_capped = calls[:]
        calls.clear()
        _explore(objective, phi_hat, 0.0, hess, GridSpec(0.75, 6.0))
        np.testing.assert_array_equal(calls_capped, calls[:19])

    def test_end_to_end_grid_on_fit(self, tiny_fit):
        fit = explore_grid(tiny_fit["fit"], tiny_fit["panel"], tiny_fit["design"],
                           tiny_fit["car"], tiny_fit["priors"],
                           GridSpec(spacing=1.5, cutoff=3.0, max_points=300))
        assert fit.grid is not None and len(fit.grid) >= 5
        w = np.array([pt.weight for pt in fit.grid])
        assert abs(w.sum() - 1.0) < 1e-12
        best = max(fit.grid, key=lambda pt: pt.log_posterior)
        assert abs(best.log_posterior - fit.log_posterior) < 1e-9


class TestFitAnchor:
    def test_fit_carries_the_anchor_at_its_mode(self, tiny_fit):
        fit = tiny_fit["fit"]
        phi_c, mu_c, jac = fit.anchor
        np.testing.assert_array_equal(phi_c, fit.phi_hat)
        assert mu_c.shape == (tiny_fit["panel"].T, tiny_fit["panel"].n_d)
        assert jac.shape == mu_c.shape + (fit.phi_hat.size,)

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
        gii = np.diagonal(invert_hessian_blocks(mode), axis1=1, axis2=2)
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

    def test_refuses_a_hessian_that_is_not_negative_definite(self, tiny_fit):
        from dataclasses import replace
        with pytest.raises(FitError, match="not negative definite"):
            sample_theta(replace(tiny_fit["fit"], hessian_nd=False), 60, seed=5)
