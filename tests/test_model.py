"""Parameters, panel, linear predictor, intensity, g kernel and simulator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import cell_g, single_node_car, torus_problem
from secar import (CarStructure, CountPanel, CovariateDesign, ModelParams,
                   ParamError, SpatialGraph, build_torus_lattice, g_gradient,
                   g_value, intensity, linear_predictor, simulate)


class TestModelParams:
    def test_admissible(self, torus3):
        ModelParams(eta=0.0, zeta=0.1, tau2=0.5).validate(torus3)
        ModelParams(eta=0.99, zeta=-0.2, tau2=10.0).validate(torus3)

    @pytest.mark.parametrize("kwargs,fragment", [
        (dict(eta=-0.1, zeta=0.0, tau2=1.0), "eta"),
        (dict(eta=1.0, zeta=0.0, tau2=1.0), "eta"),
        (dict(eta=0.2, zeta=0.0, tau2=0.0), "tau2"),
        (dict(eta=0.2, zeta=0.5, tau2=1.0), "zeta"),
    ])
    def test_inadmissible(self, torus3, kwargs, fragment):
        with pytest.raises(ParamError, match=fragment):
            ModelParams(**kwargs).validate(torus3)

    def test_beta_is_frozen(self):
        p = ModelParams(eta=0.1, zeta=0.0, tau2=1.0, beta=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            p.beta[0] = 5.0
        assert p.p == 2

    @pytest.mark.parametrize("beta", [[0.3], [0.3, -1.2, 2.5]])
    def test_vector_roundtrip_with_names(self, beta):
        p = ModelParams(eta=0.2, zeta=-0.1, tau2=0.7, beta=np.array(beta))
        v = p.vector()
        names = ModelParams.names(p.p)
        assert names == ["tau2", "zeta", "eta"] + [f"beta{k}" for k in range(len(beta))]
        assert dict(zip(names, v)) == {"tau2": 0.7, "zeta": -0.1, "eta": 0.2,
                                       **{f"beta{k}": b for k, b in enumerate(beta)}}
        back = ModelParams.from_vector(v)
        assert (back.tau2, back.zeta, back.eta) == (p.tau2, p.zeta, p.eta)
        np.testing.assert_array_equal(back.beta, p.beta)
        np.testing.assert_array_equal(back.vector(), v)


class TestPanelAndDesign:
    def test_prev_counts_alignment(self):
        panel = CountPanel(np.array([[1, 2], [3, 4], [5, 6]]), np.array([9, 8]))
        np.testing.assert_array_equal(panel.prev_counts(),
                                      [[9.0, 8.0], [1.0, 2.0], [3.0, 4.0]])

    def test_prev_counts_built_once_and_read_only(self):
        z, z0 = np.array([[1, 2], [3, 4], [5, 6]]), np.array([9, 8])
        panel = CountPanel(z, z0)
        prev = panel.prev_counts()
        np.testing.assert_array_equal(prev, np.vstack([z0[None, :], z[:-1]]).astype(np.float64))
        assert prev.dtype == np.float64
        assert panel.prev_counts() is prev
        for arr in (prev, panel.counts, panel.initial_counts):
            with pytest.raises(ValueError):
                arr[0] = 1
        empty = CountPanel(np.zeros((0, 3), dtype=np.int64), np.zeros(3, dtype=np.int64))
        assert empty.prev_counts().shape == (0, 3)

    def test_rejects_negative_and_fractional(self):
        with pytest.raises(ValueError, match="nonnegative"):
            CountPanel(np.array([[-1]]), np.array([0]))
        with pytest.raises(ValueError, match="nonnegative"):
            CountPanel(np.array([[1]]), np.array([0.5]))

    def test_design_shape_checks(self):
        with pytest.raises(ValueError, match="T, n_d, p"):
            CovariateDesign(np.ones((3, 4)))
        d = CovariateDesign.intercept_only(3, 4)
        assert d.shape == (3, 4, 1) and d.names == ["intercept"]


class TestLinearPredictor:
    def test_zero_intercept(self):
        d = CovariateDesign.intercept_only(4, 6)
        np.testing.assert_array_equal(linear_predictor(d, np.array([0.0])),
                                      np.zeros((4, 6)))

    def test_affine_evaluation(self):
        values = np.ones((2, 3, 2))
        values[:, :, 1] = 0.5
        d = CovariateDesign(values, names=["intercept", "x1"])
        np.testing.assert_allclose(linear_predictor(d, np.array([1.0, 2.0])), 2.0)

    def test_dimension_mismatch(self):
        d = CovariateDesign.intercept_only(2, 2)
        with pytest.raises(ValueError, match="length"):
            linear_predictor(d, np.array([1.0, 2.0]))


class TestIntensity:
    def test_no_self_excitation(self):
        panel = CountPanel(np.array([[3, 0], [1, 2]]), np.array([5, 5]))
        y = np.array([[0.1, -0.2], [0.7, 0.0]])
        np.testing.assert_allclose(intensity(y, panel, 0.0), np.exp(y))

    def test_hand_value(self):
        panel = CountPanel(np.array([[7]]), np.array([4]))
        assert intensity(np.array([[0.0]]), panel, 0.5)[0, 0] == 3.0

    def test_dominates_exp_component(self, small_problem):
        lam = intensity(small_problem["latent"], small_problem["panel"], 0.4)
        assert np.all(lam >= np.exp(small_problem["latent"]) - 1e-15)

    def test_shape_mismatch(self):
        panel = CountPanel(np.array([[1]]), np.array([0]))
        with pytest.raises(ValueError, match="shape"):
            intensity(np.zeros((2, 2)), panel, 0.1)


class TestGValue:
    def test_zero_counts_at_prior_mean(self, torus3):
        T, n = 4, 9
        panel = CountPanel(np.zeros((T, n), dtype=int), np.zeros(n, dtype=int))
        design = CovariateDesign.intercept_only(T, n)
        params = ModelParams(eta=0.0, zeta=0.1, tau2=0.7, beta=np.array([0.0]))
        alpha = linear_predictor(design, params.beta)
        assert abs(g_value(alpha, panel, params, alpha, torus3) - T * n) < 1e-12

    def test_scalar_hand_evaluation(self):
        car = single_node_car()
        panel = CountPanel(np.array([[2]]), np.array([0]))
        params = ModelParams(eta=0.0, zeta=0.0, tau2=1.0, beta=np.array([0.0]))
        y = np.array([[np.log(2.0)]])
        expected = np.log(2.0) ** 2 / 2 + 2.0 - 2.0 * np.log(2.0)
        got = g_value(y, panel, params, np.zeros((1, 1)), car)
        assert abs(got - expected) < 1e-12
        assert abs(got - cell_g(np.log(2.0), 2, 0.0, 1.0)) < 1e-12

    def test_additive_over_time_blocks(self, small_problem):
        car, panel = small_problem["car"], small_problem["panel"]
        params, latent = small_problem["truth"], small_problem["latent"]
        alpha = np.full((panel.T, panel.n_d), 0.2)
        total = g_value(latent, panel, params, alpha, car)
        prev = panel.prev_counts()
        parts = 0.0
        for t in range(panel.T):
            sub = CountPanel(panel.counts[t:t + 1], prev[t].astype(int))
            parts += g_value(latent[t:t + 1], sub, params, alpha[t:t + 1], car)
        assert abs(total - parts) < 1e-9 * max(1.0, abs(total))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        car = CarStructure.from_graph(build_torus_lattice(3, 3))
        T, n = 2, 9
        panel = CountPanel(rng.integers(0, 8, (T, n)), rng.integers(0, 8, n))
        params = ModelParams(eta=rng.uniform(0, 0.7), zeta=rng.uniform(-0.2, 0.2),
                             tau2=rng.uniform(0.2, 1.5), beta=np.array([0.1]))
        alpha = np.full((T, n), 0.1)
        y = rng.normal(0.0, 1.0, (T, n))
        grad = g_gradient(y, panel, params, alpha, car)
        for _ in range(4):
            t, i = rng.integers(0, T), rng.integers(0, n)
            h = 1e-5 * (1.0 + abs(y[t, i]))
            bump = np.zeros_like(y)
            bump[t, i] = h
            fd = (g_value(y + bump, panel, params, alpha, car)
                  - g_value(y - bump, panel, params, alpha, car)) / (2 * h)
            assert abs(fd - grad[t, i]) < 1e-6 * (1.0 + abs(grad[t, i]) + abs(fd))


class TestSimulate:
    def test_degenerate_poisson_mean_one(self):
        car = CarStructure.from_graph(build_torus_lattice(5, 5))
        params = ModelParams(eta=0.0, zeta=0.0, tau2=1e-12, beta=np.array([0.0]))
        design = CovariateDesign.intercept_only(400, 25)
        panel, _ = simulate(car, params, design, 400, seed=1)
        mean = panel.counts.mean()
        se = panel.counts.std() / np.sqrt(panel.counts.size)
        assert abs(mean - 1.0) <= 3 * se

    def test_branching_mean_with_self_excitation(self):
        car = CarStructure.from_graph(build_torus_lattice(5, 5))
        params = ModelParams(eta=0.5, zeta=0.0, tau2=1e-12, beta=np.array([0.0]))
        design = CovariateDesign.intercept_only(800, 25)
        panel, _ = simulate(car, params, design, 800, seed=2)
        mean = panel.counts.mean()
        # batch-mean standard error: counts are dependent in time
        batches = panel.counts.reshape(40, 20, 25).mean(axis=(1, 2))
        se = batches.std(ddof=1) / np.sqrt(len(batches))
        assert abs(mean - 2.0) <= 3 * se

    def test_high_excitation_trace_spikes_and_decays_geometrically(self):
        car = single_node_car()
        params = ModelParams(eta=0.7, zeta=0.0, tau2=1.0, beta=np.array([0.0]))
        design = CovariateDesign.intercept_only(3000, 1)
        panel, _ = simulate(car, params, design, 3000, seed=3)
        trace = panel.counts[:, 0]
        assert trace.max() >= 8 * max(np.median(trace), 1.0)
        x = trace - trace.mean()
        lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(lag1 - 0.7) < 0.1  # decay at rate eta

    def test_bit_reproducible(self, torus3):
        params = ModelParams(eta=0.3, zeta=0.1, tau2=0.5, beta=np.array([0.1]))
        design = CovariateDesign.intercept_only(30, 9)
        p1, l1 = simulate(torus3, params, design, 30, seed=42)
        p2, l2 = simulate(torus3, params, design, 30, seed=42)
        np.testing.assert_array_equal(p1.counts, p2.counts)
        np.testing.assert_array_equal(p1.initial_counts, p2.initial_counts)
        np.testing.assert_array_equal(l1, l2)
        p3, _ = simulate(torus3, params, design, 30, seed=43)
        assert not np.array_equal(p1.counts, p3.counts)

    def test_initial_counts_override(self, torus3):
        params = ModelParams(eta=0.5, zeta=0.0, tau2=0.3, beta=np.array([0.0]))
        design = CovariateDesign.intercept_only(5, 9)
        init = np.full(9, 11)
        panel, _ = simulate(torus3, params, design, 5, seed=0, burn_in=0,
                            initial_counts=init)
        np.testing.assert_array_equal(panel.initial_counts, init)

    def test_requires_seed_and_admissible_params(self, torus3):
        design = CovariateDesign.intercept_only(5, 9)
        good = ModelParams(eta=0.1, zeta=0.0, tau2=1.0)
        with pytest.raises(ValueError, match="seed"):
            simulate(torus3, good, design, 5, seed=None)
        bad = ModelParams(eta=0.1, zeta=0.9, tau2=1.0)
        with pytest.raises(ParamError):
            simulate(torus3, bad, design, 5, seed=0)

    @pytest.mark.parametrize("T,burn_in,fragment", [(0, 50, "T must"), (5, -3, "burn_in")])
    def test_rejects_an_empty_panel_and_a_negative_burn_in(self, torus3, T, burn_in,
                                                           fragment):
        # a negative burn-in used to leave rows of the output buffer unwritten
        design = CovariateDesign.intercept_only(T, 9)
        params = ModelParams(eta=0.1, zeta=0.0, tau2=1.0)
        with pytest.raises(ValueError, match=fragment):
            simulate(torus3, params, design, T, seed=1, burn_in=burn_in)
