"""Model-adequacy tooling: stationary spatial correlation of the counts,
randomized PIT residuals, effective number of parameters, and the
simulation bias-study harness. Entries of the latent covariance
Sigma = tau2 (I - zeta N)^-1 come from the graph's cached adjacency spectrum,
never from a matrix inverse."""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, pdtr, xlogy

from .graph import CarStructure, build_torus_lattice
from .inference import PriorSpec, maximize_posterior, sample_theta
from .mcmc import ChainSamples, posterior_summary, run_chains
from .mode import anchor_at, inverse_diagonal, mode_at
from .model import DEFAULT_BURN_IN, CovariateDesign, ModelParams, linear_predictor, simulate

SUBSTANTIAL_BIAS = 0.15
MIN_THETA_DRAWS = 50


def _latent_covariance(params, car, rows, cols):
    """Entries Sigma[rows, cols], paired elementwise, of the latent covariance
    Sigma = tau2 (I + zeta V diag(lambda / (1 - zeta lambda)) V'): tau2 (I - zeta N)^-1
    for the spectrum N = V diag(lambda) V', and exactly tau2 I at zeta = 0."""
    v, lam = car.graph.eigenvectors, car.graph.eigenvalues
    weights = params.zeta * lam / (1.0 - params.zeta * lam)
    return params.tau2 * (np.equal(rows, cols) + (v[rows] * v[cols]) @ weights)


def spatial_correlation(params, car, i, j):
    """Stationary same-week correlation of the counts at locations i and j.

    Uses the latent covariance Sigma = tau2 (I - zeta N)^{-1} and the
    intercept beta[0]; for i == j this returns the (<= 1) ratio of the
    latent-driven variance to the total count variance.
    """
    params.validate(car)
    n = car.n_d
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"location indices must be in 0..{n - 1}")
    sigma_ij = _latent_covariance(params, car, i, j)
    sigma_diag = _latent_covariance(params, car, [i, j], [i, j])
    eta = params.eta
    m = np.exp(float(params.beta[0]) + 0.5 * sigma_diag)  # at i and at j
    cov_z = m[0] * m[1] * (np.exp(sigma_ij) - 1.0) / (1.0 - eta ** 2)
    var_z = (m / (1.0 - eta) + m ** 2 * (np.exp(sigma_diag) - 1.0)) / (1.0 - eta ** 2)
    return float(cov_z / np.sqrt(var_z[0] * var_z[1]))


@dataclass
class ResidualField:
    """Randomized uniform residuals u(s_i, t), strictly inside (0, 1)."""

    u: np.ndarray

    def by_location(self):
        return self.u.mean(axis=0)

    def ks_uniform(self):
        from scipy.stats import kstest  # scipy.stats costs most of secar's import time
        stat, pvalue = kstest(self.u.ravel(), "uniform")
        return float(stat), float(pvalue)


def _theta_draws_from(posterior, n_theta_draws, seed):
    if isinstance(posterior, (list, tuple)):
        draws = list(posterior)
    elif isinstance(posterior, ChainSamples):
        flat = posterior.theta.reshape(-1, posterior.theta.shape[2])
        idx = np.linspace(0, flat.shape[0] - 1, min(n_theta_draws, flat.shape[0])).astype(int)
        draws = [ModelParams.from_vector(row) for row in flat[idx]]
    else:
        draws = sample_theta(posterior, n_theta_draws, seed)
    if len(draws) < MIN_THETA_DRAWS:
        raise ValueError(f"need at least {MIN_THETA_DRAWS} parameter draws, "
                         f"got {len(draws)}")
    return draws


def pit_residuals(panel, design, car, posterior, n_theta_draws=200, seed=0,
                  gh_points=32):
    """Randomized PIT residuals u ~ Unif(F(z-1), F(z)) per cell.

    F is the model CDF of Z(s_i, t) given the previous week's counts,
    marginalized over the latent cell value (Gauss-Hermite over its CAR
    marginal) and over the posterior parameter draws. Deterministic under
    ``seed``.
    """
    ss = np.random.SeedSequence(seed).spawn(2)
    draws = _theta_draws_from(posterior, n_theta_draws, ss[0])
    rng = np.random.default_rng(ss[1])

    nodes, weights = np.polynomial.hermite.hermgauss(gh_points)
    weights = weights / np.sqrt(np.pi)
    prev = panel.prev_counts()
    z = panel.counts[:, :, None]

    f_hi = np.zeros(prev.shape)
    f_lo = np.zeros(prev.shape)
    locations = np.arange(car.n_d)
    for params in draws:
        sigma_diag = _latent_covariance(params, car, locations, locations)
        alpha = linear_predictor(design, params.beta)
        # y values: (T, n_d, K)
        y = alpha[:, :, None] + np.sqrt(2.0 * sigma_diag)[None, :, None] * nodes[None, None, :]
        lam = np.exp(y) + params.eta * prev[:, :, None]
        # the Poisson cdf and pmf as scipy.stats computes them
        cdf = pdtr(z, lam)
        pmf = np.exp(xlogy(z, lam) - gammaln(z + 1) - lam)
        f_hi += cdf @ weights
        f_lo += (cdf - pmf) @ weights
    f_hi /= len(draws)
    f_lo /= len(draws)

    u = f_lo + rng.uniform(size=prev.shape) * np.maximum(f_hi - f_lo, 0.0)
    tiny = 1e-12
    return ResidualField(u=np.clip(u, tiny, 1.0 - tiny))


@dataclass
class EffectiveParams:
    p_d: float
    obs_per_param: float
    deviance_mean: float
    deviance_at_mean: float


def effective_parameters(panel, design, car, posterior, n_theta_draws=100,
                         n_y_draws=5, seed=0):
    """Effective number of parameters pD = mean deviance minus deviance at
    the posterior mean intensity, plus the observations-per-parameter ratio.
    Every draw's latent mode starts from the anchor at the first draw."""
    ss = np.random.SeedSequence(seed).spawn(2)
    draws = _theta_draws_from(posterior, n_theta_draws, ss[0])
    rng = np.random.default_rng(ss[1])
    prev = panel.prev_counts()
    z = panel.counts

    def deviance(lam):
        # xlogy: a zero-count cell whose intensity underflows adds 0, not nan
        return -2.0 * float(np.sum(xlogy(z, lam) - lam))

    dev_sum = 0.0
    lam_sum = np.zeros(z.shape, dtype=np.float64)
    anchor = anchor_at(panel, design, car, draws[0].vector())
    for params in draws:
        mode = mode_at(panel, params, design, car, anchor, params.vector())
        sd = np.sqrt(inverse_diagonal(mode.chol_blocks))
        for _ in range(n_y_draws):
            y = mode.mu_star + sd * rng.standard_normal(z.shape)
            lam = np.exp(y) + params.eta * prev
            dev_sum += deviance(lam)
            lam_sum += lam
    count = len(draws) * n_y_draws
    dev_mean = dev_sum / count
    lam_mean = lam_sum / count
    dev_at_mean = deviance(lam_mean)
    p_d = dev_mean - dev_at_mean
    ratio = panel.n_cells / p_d if p_d > 0 else np.inf
    return EffectiveParams(p_d=p_d, obs_per_param=ratio, deviance_mean=dev_mean,
                           deviance_at_mean=dev_at_mean)


@dataclass
class BiasStudyConfig:
    """Grid of (eta, tau2) simulation cells fitted by each requested method."""

    cells: list
    n_reps: int = 20
    rows: int = 10
    cols: int = 10
    T: int = 100
    zeta: float = 0.245
    beta0: float = 0.0
    burn_in: int = DEFAULT_BURN_IN
    mcmc_iter: int = 3000
    mcmc_chains: int = 2


@dataclass
class BiasRow:
    eta_true: float
    tau2_true: float
    replicate: int
    method: str
    estimates: dict
    rel_bias: dict
    seconds: float
    converged: bool


@dataclass
class BiasStudyReport:
    config: BiasStudyConfig
    methods: tuple
    rows: list = field(default_factory=list)

    def cell_rows(self, eta, tau2, method):
        return [r for r in self.rows
                if r.eta_true == eta and r.tau2_true == tau2 and r.method == method]

    def mean_rel_bias(self, eta, tau2, method, name="tau2"):
        vals = [r.rel_bias[name] for r in self.cell_rows(eta, tau2, method)
                if np.isfinite(r.rel_bias.get(name, np.nan))]
        return float(np.mean(vals)) if vals else np.nan

    def preferred_method(self, eta, tau2):
        """First method in cost order whose tau2 bias stays below the
        15 percent substantial-bias threshold; MCMC is the fallback."""
        for m in ("la1", "xla-no6", "xla", "mcmc"):
            if m not in self.methods:
                continue
            mrb = self.mean_rel_bias(eta, tau2, m)
            if np.isfinite(mrb) and abs(mrb) <= SUBSTANTIAL_BIAS:
                return m
        return "mcmc"

    def summary_text(self):
        lines = ["bias study summary (mean relative bias of tau2-hat)", ""]
        for eta, tau2 in self.config.cells:
            parts = [f"eta={eta:g} tau2={tau2:g}:"]
            for m in self.methods:
                parts.append(f"{m}={self.mean_rel_bias(eta, tau2, m):+.3f}")
            parts.append(f"preferred={self.preferred_method(eta, tau2)}")
            lines.append("  ".join(parts))
        return "\n".join(lines) + "\n"


def _fit_one(method, panel, design, car, priors, seed, mcmc_iter, mcmc_chains):
    t0 = time.perf_counter()
    if method == "mcmc":
        samples, diag = run_chains(panel, design, car, priors,
                                   n_chains=mcmc_chains, n_iter=mcmc_iter, seed=seed)
        summ = posterior_summary(samples)
        est = {nm: summ[nm]["mean"] for nm in samples.names}
        converged = diag.max_rhat() < 1.2
    else:
        fit = maximize_posterior(panel, design, car, priors, method=method)
        est = dict(zip(fit.names, fit.params_hat.vector()))
        converged = fit.converged
    return est, converged, time.perf_counter() - t0


def bias_study(config, methods=("la1", "xla"), seed=0, priors=None):
    """Simulate each (eta, tau2) cell, fit with every requested method and
    tabulate relative biases and wall times. A failed fit is recorded as a nan
    row and reported with a warning, not raised."""
    graph = build_torus_lattice(config.rows, config.cols)
    car = CarStructure.from_graph(graph)
    priors = priors or PriorSpec()
    design = CovariateDesign.intercept_only(config.T, car.n_d)
    report = BiasStudyReport(config=config, methods=tuple(methods))
    truth_beta = np.array([config.beta0])

    for cell_idx, (eta, tau2) in enumerate(config.cells):
        truth = ModelParams(eta=eta, zeta=config.zeta, tau2=tau2, beta=truth_beta)
        truth_map = dict(zip(ModelParams.names(truth.p), truth.vector()))
        for rep in range(config.n_reps):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(cell_idx, rep))
            sim_seed, fit_seed = ss.spawn(2)
            panel, _ = simulate(car, truth, design, config.T,
                                seed=sim_seed, burn_in=config.burn_in)
            # run_chains takes an int seed; the Laplace methods use none
            chain_seed = int(fit_seed.generate_state(1)[0])
            for method in methods:
                try:
                    est, converged, secs = _fit_one(
                        method, panel, design, car, priors, chain_seed,
                        config.mcmc_iter, config.mcmc_chains)
                except Exception as e:  # recorded, not fatal
                    warnings.warn(f"bias study: {method} fit failed in cell "
                                  f"(eta={eta:g}, tau2={tau2:g}), replicate {rep}: "
                                  f"{type(e).__name__}: {e}", stacklevel=2)
                    report.rows.append(BiasRow(
                        eta_true=eta, tau2_true=tau2, replicate=rep, method=method,
                        estimates={}, rel_bias={}, seconds=np.nan, converged=False))
                    continue
                rel = {nm: (est[nm] - tv) / tv if tv != 0 else np.nan
                       for nm, tv in truth_map.items()}
                report.rows.append(BiasRow(
                    eta_true=eta, tau2_true=tau2, replicate=rep, method=method,
                    estimates=est, rel_bias=rel, seconds=secs, converged=converged))
    return report
