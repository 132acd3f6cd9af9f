"""Fully Bayesian sampler over (theta, Y) for small-to-moderate instances.

The latent field gets a whitened, stacked preconditioned Langevin (MALA)
sweep: one masked pass over the whole ``(T, n_d)`` stack
(:func:`secar.kernels.mala_sweep`), preconditioned by the inverse Cholesky
factors of the block Hessians at the latent mode, with an accept/reject
decision per time block; the mode is found at each chain's start and once
more halfway through warm-up. Transformed theta gets an adaptive random walk
with full proposal covariance learned during warm-up, and joint rescaling and
translation moves on (tau2, Y - alpha) and (beta, Y) break the funnels
between theta and the latent field; the three moves share one Metropolis
step and the four step sizes one Robbins-Monro rule. The Gaussian
log-density of Y takes its log-determinant from the precomputed adjacency
spectrum, so no large determinant is ever formed, and its quadratic form
from s0 = ||Y-alpha||^2 and s1 = (Y-alpha)' N (Y-alpha). The data and block
densities come from :mod:`secar.kernels`.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .graph import car_precision_block, logdet_precision
from .inference import ParamTransform, default_start_params
from .mode import find_mode, triangular_inverse
from .model import g_value, linear_predictor

LOG_2PI = float(np.log(2.0 * np.pi))
DEFAULT_N_CHAINS = 3
DEFAULT_N_ITER = 4000
DIVERGENCE_JUMP = 1e3
THETA_UPDATES = 3  # random-walk theta updates per iteration
_TARGET_Y = 0.574
_TARGET_THETA = 0.3
_TARGET_SCALE = 0.44


def log_joint(params, Y, panel, design, car, priors):
    """Joint log-density of (theta, Y, Z) up to the count factorials:
    -g_value + 0.5 logdet(Q) - 0.5 n log(2 pi) + log prior, with the
    spectral log-determinant of the latent blocks' precision. Inadmissible
    theta gives -inf.
    """
    if not params.is_admissible(car):
        return -np.inf
    lp = priors.log_prior(params, car)
    if not np.isfinite(lp):
        return -np.inf
    alpha = linear_predictor(design, params.beta)
    return -g_value(Y, panel, params, alpha, car) \
        + 0.5 * logdet_precision(car, params.zeta, params.tau2, panel.T) \
        - 0.5 * panel.n_cells * LOG_2PI + lp


def rw_log_acceptance(lp_current, lp_proposal):
    """Log acceptance ratio of a symmetric random-walk proposal (unclipped)."""
    return lp_proposal - lp_current


@dataclass
class ChainDiagnostics:
    names: list
    rhat: dict
    ess: dict
    accept_y: float
    accept_theta: float
    accept_scale: float
    divergences: int

    def max_rhat(self):
        return max(self.rhat.values())


@dataclass
class ChainSamples:
    """Post-warm-up draws; theta is natural-scale (n_chains, n_kept, dim)."""

    names: list
    theta: np.ndarray
    phi: np.ndarray
    log_joint: np.ndarray

    @property
    def n_chains(self):
        return self.theta.shape[0]

    @property
    def n_kept(self):
        return self.theta.shape[1]

    def flat(self, name):
        k = self.names.index(name)
        return self.theta[:, :, k].ravel()


@dataclass
class _ChainState:
    """Current point plus caches; quad = (s0 - zeta*s1)/tau2."""

    phi: np.ndarray
    params: object
    Y: np.ndarray
    alpha: np.ndarray
    s0: float
    s1: float
    data: float
    lp_theta: float  # prior + transform jacobian
    eps: float = 0.25
    theta_scale: float = 0.4
    rescale_step: float = 0.3
    translate_step: float = 0.3
    prop_chol: np.ndarray = None
    history: list = field(default_factory=list)


def _data(Y, panel, eta):
    """Data log-likelihood sum(z log lam - lam) of the latent field Y."""
    return -float(np.sum(kernels.data_nll(Y, panel.counts, eta * panel.prev_counts())))


def _quad(state):
    return (state.s0 - state.params.zeta * state.s1) / state.params.tau2


def _gauss_part(car, params, T, n_d, quad):
    return 0.5 * logdet_precision(car, params.zeta, params.tau2, T) \
        - 0.5 * quad - 0.5 * T * n_d * LOG_2PI


def _total(state, car, panel):
    return state.data + _gauss_part(car, state.params, panel.T, panel.n_d,
                                    _quad(state)) + state.lp_theta


def _quadratics(Y, alpha, adjacency):
    """(s0, s1) = (||Y - alpha||^2, (Y-alpha)' N (Y-alpha)) over all blocks."""
    dev = Y - alpha
    s1 = float(np.sum(dev * (adjacency @ dev.T).T)) if dev.size else 0.0
    return float(np.sum(dev * dev)), s1


def run_chains(panel, design, car, priors, n_chains=DEFAULT_N_CHAINS, n_iter=DEFAULT_N_ITER,
               seed=0):
    """Run ``n_chains`` independent chains of ``n_iter`` iterations each and
    discard the first half as warm-up (adaptation happens only there).

    A chain starts from a jittered default theta with Y at the latent mode
    there; that mode's factor stack is the first MALA preconditioner, and a
    second mode halfway through warm-up refreshes it. One iteration is a
    latent MALA sweep followed by ``THETA_UPDATES`` random-walk updates of
    theta plus the rescale and translate interweaving moves. Every
    post-warm-up iteration is kept. Returns (ChainSamples, ChainDiagnostics).
    Deterministic under ``seed``.
    """
    if n_chains < 2:
        raise ValueError("need n_chains >= 2 for split-R-hat diagnostics")
    if n_iter < 4:
        raise ValueError("n_iter too small")
    tr = ParamTransform.for_problem(car, priors, design.p)
    base = default_start_params(panel, design, car, priors)
    base.validate(car)
    phi0 = tr.to_phi(base)
    adjacency = car.graph.adjacency

    seeds = np.random.SeedSequence(seed).spawn(n_chains)
    warm = n_iter // 2
    d = tr.dim
    theta_out = np.empty((n_chains, n_iter - warm, d))
    phi_out = np.empty_like(theta_out)
    lj_out = np.empty(theta_out.shape[:2])
    acc = {"y": [], "theta": [], "scale": []}
    divergences = 0

    for c_idx in range(n_chains):
        rng = np.random.default_rng(seeds[c_idx])
        state, linv = _init_state(panel, design, car, priors, tr, phi0, rng, adjacency)
        acc_y = acc_t = acc_s = 0.0
        n_y = n_t = n_s = 0
        lj_prev = _total(state, car, panel)
        for it in range(n_iter):
            warmup = it < warm
            if warmup and panel.T and it == max(warm // 2, 1):
                linv = None  # release the old factor stack before the next is built
                linv = triangular_inverse(
                    find_mode(panel, state.params, state.alpha, car).chol_blocks)
            if panel.T:
                rate = _update_latent(state, panel, car, linv, rng)
                n_y += 1
                acc_y += rate
                state.s0, state.s1 = _quadratics(state.Y, state.alpha, adjacency)
                state.data = _data(state.Y, panel, state.params.eta)
                if warmup:
                    state.eps = _adapt(state.eps, rate, _TARGET_Y, it, 1e-4, 5.0)
            for _ in range(THETA_UPDATES):
                ok = _update_theta(state, panel, design, car, priors, tr, rng, adjacency)
                n_t += 1
                acc_t += ok
                if warmup:
                    state.theta_scale = _adapt(state.theta_scale, ok, _TARGET_THETA, it,
                                               1e-3, 20.0)
            if warmup:
                state.history.append(state.phi.copy())
                if (it + 1) % 100 == 0 and len(state.history) >= 200:
                    hist = np.array(state.history[-1500:])
                    cov = np.cov(hist.T) + 1e-9 * np.eye(d)
                    try:
                        state.prop_chol = np.linalg.cholesky(cov)
                    except np.linalg.LinAlgError:
                        pass
            if panel.T:
                ok_s = _update_rescale(state, panel, car, priors, tr, rng)
                n_s += 1
                acc_s += ok_s
                ok_b = _update_translate(state, panel, design, car, priors, tr, rng)
                if warmup:
                    state.rescale_step = _adapt(state.rescale_step, ok_s, _TARGET_SCALE, it,
                                                1e-4, 5.0)
                    state.translate_step = _adapt(state.translate_step, ok_b, _TARGET_SCALE,
                                                  it, 1e-4, 5.0)
            lj = _total(state, car, panel)
            if abs(lj - lj_prev) > DIVERGENCE_JUMP:
                divergences += 1
            lj_prev = lj
            if not warmup:
                theta_out[c_idx, it - warm] = state.params.vector()
                phi_out[c_idx, it - warm] = state.phi
                lj_out[c_idx, it - warm] = lj
        linv = None  # release this chain's factor stack before the next chain's mode
        acc["y"].append(acc_y / max(n_y, 1))
        acc["theta"].append(acc_t / max(n_t, 1))
        acc["scale"].append(acc_s / max(n_s, 1))

    samples = ChainSamples(names=tr.names, theta=theta_out, phi=phi_out, log_joint=lj_out)
    diag = ChainDiagnostics(
        names=tr.names,
        rhat={nm: split_rhat(theta_out[:, :, k]) for k, nm in enumerate(tr.names)},
        ess={nm: effective_sample_size(theta_out[:, :, k]) for k, nm in enumerate(tr.names)},
        accept_y=float(np.mean(acc["y"])) if acc["y"] else 0.0,
        accept_theta=float(np.mean(acc["theta"])),
        accept_scale=float(np.mean(acc["scale"])) if acc["scale"] else 0.0,
        divergences=divergences,
    )
    return samples, diag


def _adapt(step, hit, target, it, lo, hi):
    """Robbins-Monro warm-up update of a step size on the log scale toward
    the acceptance ``target`` (Andrieu & Thoms 2008), clipped to [lo, hi]."""
    step *= float(np.exp(0.66 * (hit - target) / np.sqrt(1.0 + it)))
    return float(np.clip(step, lo, hi))


def _accept(state, rng, log_a, **moved):
    """Metropolis decision shared by the theta moves. A non-finite ``log_a``
    rejects without a draw; otherwise one uniform decides, and an accepted
    move writes the ``moved`` fields into ``state``. Returns 1 or 0."""
    if not np.isfinite(log_a) or np.log(rng.uniform()) >= log_a:
        return 0
    for name, value in moved.items():
        setattr(state, name, value)
    return 1


def _init_state(panel, design, car, priors, tr, phi0, rng, adjacency):
    """Chain start: the first admissible of 50 jitters of ``phi0`` (else
    ``phi0``), with Y at the latent mode there. Returns the state and that
    mode's preconditioner (None when T = 0)."""
    params = None
    for _ in range(50):
        phi = phi0 + 0.5 * rng.standard_normal(tr.dim)
        cand = tr.to_params(phi)
        if cand.is_admissible(car) and np.isfinite(priors.log_prior(cand, car)):
            params = cand
            break
    if params is None:
        phi = phi0.copy()
        params = tr.to_params(phi)
    alpha = linear_predictor(design, params.beta)
    if panel.T:
        mode = find_mode(panel, params, alpha, car)
        Y, linv = mode.mu_star, triangular_inverse(mode.chol_blocks)
    else:
        Y, linv = np.zeros((0, panel.n_d)), None
    s0, s1 = _quadratics(Y, alpha, adjacency)
    state = _ChainState(phi=phi, params=params, Y=Y, alpha=alpha, s0=s0, s1=s1,
                        data=_data(Y, panel, params.eta),
                        lp_theta=priors.log_prior(params, car) + tr.log_jacobian(phi),
                        prop_chol=0.1 * np.eye(tr.dim))
    return state, linv


def _update_latent(state, panel, car, linv, rng):
    """Preconditioned MALA sweep over the latent stack; returns acceptance rate."""
    q = car_precision_block(car, state.params.zeta, state.params.tau2)
    c = state.params.eta * panel.prev_counts()
    normals = rng.standard_normal(state.Y.shape)
    unifs = rng.uniform(size=panel.T)
    accepted = kernels.mala_sweep(state.Y, state.alpha, q, linv, panel.counts, c,
                                  state.eps, normals, unifs)
    return accepted / panel.T


def _update_theta(state, panel, design, car, priors, tr, rng, adjacency):
    """Joint random walk on the transformed parameters with learned covariance."""
    step = state.theta_scale * (state.prop_chol @ rng.standard_normal(tr.dim))
    phi_prop = state.phi + step
    params_prop = tr.to_params(phi_prop)
    if not params_prop.is_admissible(car):
        return 0
    lp_prop = priors.log_prior(params_prop, car)
    if not np.isfinite(lp_prop):
        return 0
    lp_prop += tr.log_jacobian(phi_prop)
    alpha_prop = linear_predictor(design, params_prop.beta)
    s0_prop, s1_prop = _quadratics(state.Y, alpha_prop, adjacency)
    if panel.T:
        quad_prop = (s0_prop - params_prop.zeta * s1_prop) / params_prop.tau2
        data_prop = _data(state.Y, panel, params_prop.eta)
    else:
        quad_prop = data_prop = 0.0
    prop = data_prop + _gauss_part(car, params_prop, panel.T, panel.n_d,
                                   quad_prop) + lp_prop
    return _accept(state, rng, rw_log_acceptance(_total(state, car, panel), prop),
                   phi=phi_prop, params=params_prop, alpha=alpha_prop,
                   s0=s0_prop, s1=s1_prop, data=data_prop, lp_theta=lp_prop)


def _update_rescale(state, panel, car, priors, tr, rng):
    """Joint rescaling of (tau2, Y - alpha): non-centered move for tau2.

    Maps log tau2 -> log tau2 + 2*delta and Y -> alpha + e^delta (Y - alpha).
    The Gaussian prior change cancels against the map Jacobian, leaving only
    the data term, the tau2 prior and the transform Jacobian; the quadratic
    form (Y-alpha)' Q (Y-alpha) is invariant.
    """
    delta = state.rescale_step * rng.standard_normal()
    phi_prop = state.phi.copy()
    phi_prop[0] += 2.0 * delta
    params_prop = tr.to_params(phi_prop)
    if not params_prop.is_admissible(car):
        return 0
    scale = float(np.exp(delta))
    y_prop = state.alpha + scale * (state.Y - state.alpha)
    data_prop = _data(y_prop, panel, state.params.eta)
    lp_prop = priors.log_prior(params_prop, car) + tr.log_jacobian(phi_prop)
    log_a = (data_prop - state.data) + (lp_prop - state.lp_theta)
    return _accept(state, rng, log_a, Y=y_prop, phi=phi_prop, params=params_prop,
                   data=data_prop, lp_theta=lp_prop,
                   s0=state.s0 * (scale * scale), s1=state.s1 * (scale * scale))


def _update_translate(state, panel, design, car, priors, tr, rng):
    """Joint translation of (beta, Y): non-centered move for the mean.

    Maps beta -> beta + delta and Y -> Y + X(beta' - beta), keeping Y - alpha
    and hence the whole Gaussian term invariant (map Jacobian 1); only the
    data term and the beta prior enter the acceptance ratio.
    """
    p = state.params.p
    delta = state.translate_step * rng.standard_normal(p)
    beta_prop = state.params.beta + delta
    params_prop = replace(state.params, beta=beta_prop)
    alpha_prop = linear_predictor(design, beta_prop)
    y_prop = state.Y + (alpha_prop - state.alpha)
    data_prop = _data(y_prop, panel, state.params.eta)
    # the transform jacobian only involves (tau2, zeta, eta), all unchanged
    lp_prop = priors.log_prior(params_prop, car) + tr.log_jacobian(state.phi)
    log_a = (data_prop - state.data) + (lp_prop - state.lp_theta)
    phi_prop = state.phi.copy()
    phi_prop[3:] = beta_prop
    # Y - alpha is unchanged, so s0 and s1 keep their values
    return _accept(state, rng, log_a, phi=phi_prop, params=params_prop, alpha=alpha_prop,
                   Y=y_prop, data=data_prop, lp_theta=lp_prop)


def _split_chains(chains):
    """The (m, L) chains cut into 2m half-chains, with their mean
    within-sequence variance W and the pooled variance var+ = (L'-1)/L' W + B/L'
    (L' = L // 2, B/L' the variance of the half-chain means)."""
    half = chains.shape[1] // 2
    seqs = np.concatenate([chains[:, :half], chains[:, half: 2 * half]], axis=0)
    w = float(np.mean(seqs.var(axis=1, ddof=1)))
    b = half * float(np.var(seqs.mean(axis=1), ddof=1))
    return seqs, w, (half - 1) / half * w + b / half


def split_rhat(chains):
    """Gelman-Rubin statistic on split chains; chains is (m, L). Infinite when
    the within-chain variance is 0: chains that never moved have not mixed."""
    seqs, w, var_plus = _split_chains(chains)
    if w <= 0.0 or np.all(seqs == seqs[:, :1]):  # rounding can leave w at ~1e-33
        return np.inf
    return float(np.sqrt(var_plus / w))


def effective_sample_size(chains):
    """Multi-chain ESS with Geyer initial-monotone truncation."""
    m, L = chains.shape
    m2, L2 = 2 * m, L // 2
    if L2 < 4:
        return float(m2 * L2)
    seqs, w, var_plus = _split_chains(chains)
    if var_plus <= 0.0:
        return float(m2 * L2)
    centered = seqs - seqs.mean(axis=1, keepdims=True)
    n_fft = int(2 ** np.ceil(np.log2(2 * L2)))
    f = np.fft.rfft(centered, n=n_fft, axis=1)
    acov = np.fft.irfft(f * np.conj(f), n=n_fft, axis=1)[:, :L2].real / L2
    mean_acov = acov.mean(axis=0)
    rho = 1.0 - (w - mean_acov) / var_plus
    rho[0] = 1.0
    tau = 1.0
    t = 1
    prev_pair = np.inf
    while t + 1 < L2:
        pair = rho[t] + rho[t + 1]
        if pair < 0.0:
            break
        pair = min(pair, prev_pair)
        tau += 2.0 * pair
        prev_pair = pair
        t += 2
    return float(m2 * L2 / tau)


def posterior_summary(samples):
    """Means, sds and 2.5/50/97.5 percent quantiles per parameter."""
    if samples.n_kept == 0:
        raise ValueError("no post-warm-up draws to summarize")
    out = {}
    for k, name in enumerate(samples.names):
        x = samples.theta[:, :, k].ravel()
        out[name] = {
            "mean": float(np.mean(x)),
            "sd": float(np.std(x, ddof=1)) if x.size > 1 else 0.0,
            "q025": float(np.quantile(x, 0.025)),
            "q50": float(np.quantile(x, 0.5)),
            "q975": float(np.quantile(x, 0.975)),
        }
    return out
