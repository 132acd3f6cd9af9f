"""Derivative-oracle and brute-force checks for the hot kernels."""

import mpmath as mp
import numpy as np

from secar import kernels

mp.mp.dps = 30


def random_cells(n, seed=0, eta_max=0.7):
    rng = np.random.default_rng(seed)
    mu = rng.uniform(-3.0, 3.0, n)
    z = rng.integers(0, 21, n).astype(np.float64)
    z_prev = rng.integers(0, 21, n).astype(np.float64)
    eta = rng.uniform(0.0, eta_max, n)
    c = eta * z_prev
    c[rng.uniform(size=n) < 0.3] = 0.0
    return mu, z, c


def test_pair_term_matches_bruteforce():
    rng = np.random.default_rng(11)
    T, n = 4, 7
    g3 = rng.normal(0.5, 0.3, (T, n))
    ginv = np.empty((T, n, n))
    for t in range(T):
        a = rng.normal(0.0, 0.5, (n, n))
        ginv[t] = np.linalg.inv(a @ a.T + n * np.eye(n))
    per_block = []
    for t in range(T):
        expected = 0.0
        for i in range(n):
            for j in range(n):
                gij = ginv[t, i, j]
                expected += g3[t, i] * g3[t, j] * (6.0 * gij ** 3
                                                   + 9.0 * ginv[t, i, i] * ginv[t, j, j] * gij)
        per_block.append(expected / 72.0)
        assert abs(kernels.pair_term(g3[t], ginv[t]) - per_block[-1]) < 1e-12
    assert abs(kernels.pair_term(g3, ginv) - sum(per_block)) < 1e-12


def test_data_nll_and_grad_against_direct_formula():
    mu, z, c = random_cells(200, seed=9)
    lam = np.exp(mu) + c
    expected = np.sum(c + np.exp(mu) - np.where(z > 0, z * np.log(lam), 0.0))
    assert abs(kernels.data_nll(mu, z, c) - expected) < 1e-9 * abs(expected)

    h = 1e-6
    for i in (0, 57, 143):
        up = kernels.data_nll(mu + h * (np.arange(len(mu)) == i), z, c)
        dn = kernels.data_nll(mu - h * (np.arange(len(mu)) == i), z, c)
        fd = (up - dn) / (2 * h)
        grad = kernels.data_nll_grad(mu, z, c)[i]
        assert abs(fd - grad) < 1e-5 * (1.0 + abs(grad))


def test_fk_and_derivs_against_mpmath():
    mu, z, c = random_cells(60, seed=21)
    f, k = kernels.fk_values(mu, z, c)
    g3, g4, g6 = kernels.g_derivs(mu, z, c)
    for i in range(len(mu)):
        zz, cc = float(z[i]), float(c[i])

        def holo(y):
            lam = mp.e ** y + cc
            return cc + mp.e ** y - (zz * mp.log(lam) if zz > 0 else mp.mpf(0))

        d1 = float(mp.diff(holo, mu[i], 1))
        d2 = float(mp.diff(holo, mu[i], 2))
        d3 = float(mp.diff(holo, mu[i], 3))
        d4 = float(mp.diff(holo, mu[i], 4))
        d6 = float(mp.diff(holo, mu[i], 6))
        scale = 1.0 + abs(d2)
        assert abs(k[i] - d2) < 1e-9 * scale
        # f is defined so that the tangent line satisfies f - k*mu = -d1
        assert abs((f[i] - k[i] * mu[i]) + d1) < 1e-9 * scale
        assert abs(g3[i] - d3) < 1e-9 * (1.0 + abs(d3))
        assert abs(g4[i] - d4) < 1e-9 * (1.0 + abs(d4))
        assert abs(g6[i] - d6) < 1e-7 * (1.0 + abs(d6))


def test_degenerate_offsets_give_pure_poisson_values():
    mu = np.array([-1.0, 0.3, 2.0])
    z = np.array([4.0, 0.0, 7.0])
    c = np.zeros(3)
    f, k = kernels.fk_values(mu, z, c)
    g3, g4, g6 = kernels.g_derivs(mu, z, c)
    np.testing.assert_allclose(k, np.exp(mu), rtol=1e-14)
    np.testing.assert_allclose(f, z - np.exp(mu) + mu * np.exp(mu), rtol=1e-14)
    for arr in (g3, g4, g6):
        np.testing.assert_allclose(arr, np.exp(mu), rtol=1e-14)


def test_block_value_and_slopes_equal_the_separate_kernels_bitwise():
    # the mode finder's g, gradient and k must equal block_g, block_grad and
    # fk_values' k exactly, so that its iterates do not move; the last block
    # holds z = 0, c = 0, an underflowing e^y and an overflowing e^y
    rng = np.random.default_rng(5)
    T, n = 6, 9
    mu, z, c = random_cells(T * n, seed=3)
    y, z, c = mu.reshape(T, n), z.reshape(T, n), c.reshape(T, n)
    y[-1, :4] = (-800.0, -800.0, 800.0, 800.0)
    z[-1, :4] = (0.0, 3.0, 0.0, 3.0)
    c[-1, :4] = (0.0, 0.0, 0.0, 0.4)
    z[-1, 4], c[-1, 5] = 0.0, 0.0
    alpha = rng.normal(0.0, 1.0, (T, n))
    a = rng.normal(0.0, 0.3, (n, n))
    q = a @ a.T + np.eye(n)
    with np.errstate(all="ignore"):
        for y_, alpha_, z_, c_ in ((y, alpha, z, c), (y[2], alpha[2], z[2], c[2]),
                                   (y[-1], alpha[-1], z[-1], c[-1])):
            g, dq, ey = kernels.block_value(y_, alpha_, q, z_, c_)
            grad, k = kernels.block_slopes(y_, dq, ey, z_, c_)
            np.testing.assert_array_equal(g, kernels.block_g(y_, alpha_, q, z_, c_))
            np.testing.assert_array_equal(grad, kernels.block_grad(y_, alpha_, q, z_, c_))
            np.testing.assert_array_equal(k, kernels.fk_values(y_, z_, c_)[1])
        assert not np.isfinite(kernels.block_g(y, alpha, q, z, c)[-1])
