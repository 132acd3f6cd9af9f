"""Shared oracles and builders for the test suite.

Everything here is deliberately independent of the library's own evaluation
paths: quadrature oracles integrate the cell density directly, derivative
oracles use mpmath, and simulation oracles use long-run empirical moments.
"""

import math
from collections import Counter

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.linalg import lapack

from secar import (CarStructure, CountPanel, CovariateDesign, ModelParams,
                   SpatialGraph, build_torus_lattice, simulate)
from secar import kernels
from secar.graph import car_precision_block
from secar import mode as mode_module
from secar.mode import _MIN_STEP, _STEP_CAP, DEFAULT_TOL, MAX_ITER, default_start


def cell_g(y, z, c, tau2, a=0.0):
    """Scalar negative log integrand of a single cell."""
    lam = np.exp(y) + c
    data = c + np.exp(y) - (z * np.log(lam) if z > 0 else 0.0)
    return (y - a) ** 2 / (2.0 * tau2) + data


def cell_data_logdensity(y, z, c):
    """Log Poisson kernel of one cell as a function of the latent value."""
    lam = np.exp(y) + c
    return -c - np.exp(y) + (z * np.log(lam) if z > 0 else 0.0)


def exact_single_cell_logmarginal(z, c, tau2, a=0.0):
    """Adaptive-quadrature value of 0.5*log(1/tau2) - 0.5*log(2pi)
    + log integral exp(-g); the quantity la1/xla approximate."""
    ys = np.linspace(a - 15.0, a + 15.0, 2001)
    gs = np.array([cell_g(y, z, c, tau2, a) for y in ys])
    y0 = ys[np.argmin(gs)]
    g0 = float(gs.min())
    val, _ = quad(lambda s: np.exp(-(cell_g(y0 + s, z, c, tau2, a) - g0)),
                  -30.0, 30.0, limit=500)
    return 0.5 * np.log(1.0 / tau2) - 0.5 * np.log(2.0 * np.pi) + np.log(val) - g0


def quadrature_posterior_mean(z, c, tau2, a=0.0):
    """Posterior mean of the latent value of a single cell."""
    ys = np.linspace(a - 15.0, a + 15.0, 2001)
    gs = np.array([cell_g(y, z, c, tau2, a) for y in ys])
    y0 = ys[np.argmin(gs)]
    g0 = float(gs.min())
    num, _ = quad(lambda s: (y0 + s) * np.exp(-(cell_g(y0 + s, z, c, tau2, a) - g0)),
                  -30.0, 30.0, limit=500)
    den, _ = quad(lambda s: np.exp(-(cell_g(y0 + s, z, c, tau2, a) - g0)),
                  -30.0, 30.0, limit=500)
    return num / den


def single_node_car():
    return CarStructure.from_graph(SpatialGraph(np.zeros((1, 1))))


def single_cell_problem(z, z_prev, eta, tau2, a=0.0):
    """One location, one week: the 1-D instance used by quadrature oracles."""
    car = single_node_car()
    panel = CountPanel(np.array([[z]]), np.array([z_prev]))
    design = CovariateDesign(np.ones((1, 1, 1)), names=["intercept"])
    params = ModelParams(eta=eta, zeta=0.0, tau2=tau2, beta=np.array([a]))
    return panel, design, car, params


def torus_problem(rows, cols, T, params, seed, burn_in=50):
    car = CarStructure.from_graph(build_torus_lattice(rows, cols))
    design = CovariateDesign.intercept_only(T, car.n_d)
    panel, latent = simulate(car, params, design, T, seed=seed, burn_in=burn_in)
    return car, design, panel, latent


def constant_panel(n_d, T, value, history=None):
    counts = np.full((T, n_d), value, dtype=np.int64)
    initial = np.full(n_d, value if history is None else history, dtype=np.int64)
    return CountPanel(counts, initial)


# ---------------------------------------------------------------------------
# Per-block reference for the stacked mode finder: one damped Newton loop per
# time block, each with its own dense factorization and line search. A stalled
# line search reports the block as not converged.

def _reference_block_g(mu, alpha_t, q, z, c):
    d = mu - alpha_t
    return 0.5 * float(d @ (q @ d)) + kernels.data_nll(mu, z, c)


def _reference_block_mode(q, q_alpha, alpha_t, z, c, start, tol, max_iter):
    n = alpha_t.shape[0]
    mu = start.copy()
    g_cur = _reference_block_g(mu, alpha_t, q, z, c)
    if not np.isfinite(g_cur):
        mu = alpha_t.copy()
        g_cur = _reference_block_g(mu, alpha_t, q, z, c)

    ridge_base = 1e-8 * (1.0 + float(np.max(q.diagonal())))
    for it in range(1, max_iter + 1):
        _, k = kernels.fk_values(mu, z, c)
        if not np.all(np.isfinite(k)):
            return mu, g_cur, it, False  # no factor, with or without a ridge
        grad = q @ mu - q_alpha + kernels.data_nll_grad(mu, z, c)
        h = q.toarray()
        h[np.diag_indices(n)] += k
        ridge = 0.0
        while True:
            try:
                chol = np.linalg.cholesky(h)
                break
            except np.linalg.LinAlgError:
                ridge = ridge_base if ridge == 0.0 else ridge * 10.0
                h[np.diag_indices(n)] += ridge
        step = np.clip(sla.cho_solve((chol, True), -grad), -_STEP_CAP, _STEP_CAP)

        scale = 1.0
        while True:
            cand = mu + scale * step
            g_new = _reference_block_g(cand, alpha_t, q, z, c)
            if np.isfinite(g_new) and g_new <= g_cur + 1e-12 * (1.0 + abs(g_cur)):
                break
            scale *= 0.5
            if scale < _MIN_STEP:
                return mu, g_cur, it, False
        mu, g_cur = cand, g_new
        if float(np.max(np.abs(step))) < tol and ridge == 0.0:
            return mu, g_cur, it, True
    return mu, g_cur, max_iter, False


def reference_find_mode(panel, params, alpha, car, start=None, tol=DEFAULT_TOL,
                        max_iter=MAX_ITER):
    """Block-by-block mode: the fields of :class:`secar.mode.ModeResult` that
    the stacked engine must reproduce, as a dict."""
    T, n = panel.T, panel.n_d
    q = sp.csr_matrix(car_precision_block(car, params.zeta, params.tau2))
    ridge_base = 1e-8 * (1.0 + float(np.max(q.diagonal())))
    prev = panel.prev_counts()
    start = default_start(panel, alpha) if start is None else np.asarray(start, float)
    mu_star = np.empty((T, n))
    chols = np.empty((T, n, n))
    logdet = g_total = 0.0
    block_iters = np.zeros(T, dtype=np.int64)
    failed = []
    for t in range(T):
        z = panel.counts[t].astype(np.float64)
        c = params.eta * prev[t]
        mu, g_block, it, ok = _reference_block_mode(q, q @ alpha[t], alpha[t], z, c,
                                                    start[t], tol, max_iter)
        block_iters[t] = it
        _, k = kernels.fk_values(mu, z, c)
        h = q.toarray()
        h[np.diag_indices(n)] += k
        if np.all(np.isfinite(k)):
            ridge = 0.0
            while True:
                try:
                    chol = np.linalg.cholesky(h)
                    break
                except np.linalg.LinAlgError:
                    # the Newton steps' ridge rule
                    ok = False
                    ridge = ridge_base if ridge == 0.0 else ridge * 10.0
                    h[np.diag_indices(n)] += ridge
        else:
            ok, chol = False, np.full((n, n), np.nan)  # no factor exists
        if not ok:
            failed.append(t)
        mu_star[t] = mu
        chols[t] = chol
        logdet += 2.0 * float(np.sum(np.log(np.diag(chol))))
        g_total += g_block
    return {"mu_star": mu_star, "chol_blocks": chols, "logdet_hessian": logdet,
            "g_at_mode": g_total, "block_iterations": block_iters,
            "failed_blocks": tuple(failed), "converged": not failed}


# ---------------------------------------------------------------------------
# Per-block reference for the stacked MALA sweep: the block density written
# out inline, the proposal drawn with Cholesky solves and the proposal
# densities formed from the residuals, one time block at a time.

def reference_mala_sweep(Y, alpha, q, chols, z, c, eps, normals, unifs):
    """Loop version of :func:`secar.kernels.mala_sweep` preconditioned by the
    lower Cholesky factors ``chols``; updates Y in place and returns the
    number of accepted blocks."""
    accepted = 0
    half = 0.5 * eps * eps
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(Y.shape[0]):
            y = Y[t]
            ey = np.exp(y)
            d = y - alpha[t]
            qd = q @ d
            lam = ey + c[t]
            logp = -0.5 * float(d @ qd) + float(np.sum(z[t] * np.log(lam) - lam))
            grad = -qd - (ey - z[t] * ey / lam)
            chol = chols[t]
            mean_f = y + half * sla.cho_solve((chol, True), grad)
            prop = mean_f + eps * sla.solve_triangular(chol, normals[t], lower=True,
                                                       trans="T")
            eyp = np.exp(prop)
            if not np.all(np.isfinite(eyp)):
                continue  # overflowing proposal: reject
            dp = prop - alpha[t]
            qdp = q @ dp
            lamp = eyp + c[t]
            logpp = -0.5 * float(dp @ qdp) + float(np.sum(z[t] * np.log(lamp) - lamp))
            gradp = -qdp - (eyp - z[t] * eyp / lamp)
            if not np.all(np.isfinite(gradp)):
                continue
            mean_r = prop + half * sla.cho_solve((chol, True), gradp)
            vf = chol.T @ (prop - mean_f)
            vr = chol.T @ (y - mean_r)
            log_a = (logpp - logp) - 0.5 * (float(vr @ vr) - float(vf @ vf)) / (eps * eps)
            if np.isfinite(log_a) and math.log(unifs[t]) < log_a:
                Y[t] = prop
                accepted += 1
    return accepted


class LapackSpy:
    """Stands in for ``scipy.linalg.lapack`` in :mod:`secar.mode`: counts the
    calls of every entry point and, as reference LAPACK does where OpenBLAS
    factors on, answers a factorization of a matrix with a non-finite entry
    with info > 0 (counted in ``nonfinite``). More than ``budget``
    factorizations raise, so that a ridge loop that would never end fails."""

    def __init__(self, budget):
        self.calls = Counter()
        self.nonfinite = 0
        self.budget = budget

    def __getattr__(self, name):
        entry = getattr(lapack, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return entry(*args, **kwargs)

        return counted

    def _rejects(self, name, a):
        self.calls[name] += 1
        if self.calls["dpotrf"] + self.calls["dposv"] > self.budget:
            raise AssertionError(f"more than {self.budget} factorizations")
        if np.all(np.isfinite(a)):
            return False
        self.nonfinite += 1
        return True

    def dpotrf(self, a, **kwargs):
        return (a, 1) if self._rejects("dpotrf", a) else lapack.dpotrf(a, **kwargs)

    def dposv(self, a, b, **kwargs):
        return (a, b, 1) if self._rejects("dposv", a) else lapack.dposv(a, b, **kwargs)


def spy_lapack(monkeypatch, budget=math.inf):
    """Route :mod:`secar.mode`'s LAPACK calls through a :class:`LapackSpy`."""
    spy = LapackSpy(budget)
    monkeypatch.setattr(mode_module, "lapack", spy)
    return spy


def count_find_mode(monkeypatch, max_iter):
    """Route ``secar.mode.find_mode`` through a wrapper that records, per call,
    whether it started cold, and caps the Newton iterations at ``max_iter``."""
    real, calls = mode_module.find_mode, []

    def counted(panel, params, alpha, car, start=None):
        calls.append("cold" if start is None else "warm")
        return real(panel, params, alpha, car, start=start, max_iter=max_iter)

    monkeypatch.setattr(mode_module, "find_mode", counted)
    return calls


def spy_inverse_diagonal(monkeypatch, module):
    """Route ``module.inverse_diagonal`` through a wrapper that records, per
    call, the factor stack it was given (before it is overwritten) and the
    diagonal it returned."""
    real, calls = module.inverse_diagonal, []

    def spy(chols):
        before = chols.copy()
        diag = real(chols)
        calls.append((before, diag))
        return diag

    monkeypatch.setattr(module, "inverse_diagonal", spy)
    return calls


def assert_diagonals_of_inverse_blocks(calls):
    """Each recorded diagonal equals that of :func:`invert_hessian_blocks` on
    the recorded factors, to 1e-14 relative."""
    from types import SimpleNamespace
    from secar import invert_hessian_blocks
    for chols, diag in calls:
        inv = invert_hessian_blocks(SimpleNamespace(chol_blocks=chols))
        np.testing.assert_allclose(diag, np.diagonal(inv, axis1=1, axis2=2),
                                   rtol=1e-14, atol=0.0)
