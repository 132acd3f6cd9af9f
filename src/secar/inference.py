"""Posterior maximization over theta, uncertainty, and surface exploration.

Optimization runs in an unconstrained reparameterization (log tau2, scaled
logits for zeta and eta, raw beta) of the natural-scale log-posterior, with
gradient and Hessian from one central finite-difference stencil per Newton
step: the gradient reuses the stencil's +-h e_i values. The reported mode is
therefore the natural-scale posterior mode; no transform Jacobians enter the
objective. Every latent mode search starts from the objective's anchor: the
mode at one phi plus its implicit-function tangent, so that an objective
value depends on phi and the anchor only, never on the evaluation order. The
optimizer anchors at its start and at every accepted step, and the fit carries
its last anchor, at the fitted mode, to the grid and the latent marginals.
"""

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import ndtri

from .mode import anchor_at, inverse_diagonal, la1_from_mode, mode_at, ModeError
from .model import ModelParams
from .xla import xla_from_mode

METHODS = ("la1", "xla", "xla-no6")
FD_STEP = 1e-4
GRAD_TOL = 1e-5
MAX_NEWTON = 50
_PHI_CLIP = 35.0
_LOG_SQRT_2PI = np.log(np.sqrt(2 * np.pi))


class FitError(RuntimeError):
    """Raised when posterior maximization fails outright."""


@dataclass(frozen=True)
class PriorSpec:
    """Vague proper priors: tau ~ half-Cauchy(tau_scale) (density carried to
    the tau2 axis), zeta uniform on ``zeta_interval`` (admissible interval of
    the graph when None), eta uniform on (0, 1), beta iid Gaussian with
    variance beta_var.
    """

    tau_scale: float = 5.0
    zeta_interval: tuple = None
    beta_var: float = 1000.0

    def zeta_support(self, car):
        if self.zeta_interval is not None:
            return self.zeta_interval
        return car.zeta_bounds

    def log_prior(self, params, car):
        lo, hi = self.zeta_support(car)
        if not (lo < params.zeta < hi) or not (0.0 <= params.eta < 1.0) or params.tau2 <= 0.0:
            return -np.inf
        tau = np.sqrt(params.tau2)
        scale = self.tau_scale
        # half-Cauchy on tau, times |d tau / d tau2| = 1/(2 tau)
        lp = (np.log(2.0 / (np.pi * scale)) - np.log1p((tau / scale) ** 2)
              - np.log(2.0 * tau))
        if np.isfinite(hi - lo):
            lp += -np.log(hi - lo)
        lp += _gaussian_logpdf(params.beta, self.beta_var)
        return float(lp)


def _gaussian_logpdf(x, var):
    """sum(norm.logpdf(x, scale=sqrt(var))) in scipy's own operation order."""
    sd = np.sqrt(var)
    y = x / sd
    return float(np.sum(-y ** 2 / 2.0 - _LOG_SQRT_2PI - np.log(sd)))


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _logit(p):
    p = np.clip(p, 1e-12, 1.0 - 1e-12)  # keeps boundary cases finite
    return np.log(p) - np.log1p(-p)


@dataclass(frozen=True)
class ParamTransform:
    """Bijection between natural parameters and the unconstrained scale.

    phi = (log tau2, logit of zeta within its interval, logit eta, beta...).
    """

    zeta_lo: float
    zeta_hi: float
    p: int

    @classmethod
    def for_problem(cls, car, priors, p):
        """The transform for the prior's zeta support, which must be an interval
        lo < hi inside the graph's admissible one; raises ValueError if not."""
        lo, hi = priors.zeta_support(car)
        lo_adm, hi_adm = car.zeta_bounds
        if not (lo_adm <= lo < hi <= hi_adm):
            raise ValueError(f"zeta prior support ({lo:.6g}, {hi:.6g}) must have lo < hi "
                             f"within the admissible interval ({lo_adm:.6g}, {hi_adm:.6g})")
        if not np.isfinite(lo) or not np.isfinite(hi):
            # degenerate spectrum: fall back to a wide fixed interval
            lo = -1.0 if not np.isfinite(lo) else lo
            hi = 1.0 if not np.isfinite(hi) else hi
        return cls(zeta_lo=lo, zeta_hi=hi, p=p)

    @property
    def dim(self):
        return 3 + self.p

    @property
    def names(self):
        return ModelParams.names(self.p)

    def to_phi(self, params):
        zs = (params.zeta - self.zeta_lo) / (self.zeta_hi - self.zeta_lo)
        return np.concatenate([[np.log(params.tau2), _logit(zs), _logit(params.eta)],
                               params.beta])

    def to_natural(self, phi):
        """The natural vector (see :meth:`ModelParams.vector`) of ``phi``,
        mapped coordinate by coordinate; each map is monotone, and only log
        tau2 is clipped, at +-35."""
        # phi[0] first in max and min, so that a nan passes through as in np.clip
        return np.concatenate([[np.exp(min(max(phi[0], -_PHI_CLIP), _PHI_CLIP)),
                                self.zeta_lo + (self.zeta_hi - self.zeta_lo) * _sigmoid(phi[1]),
                                _sigmoid(phi[2])],
                               phi[3:]])

    def to_params(self, phi):
        """The parameters at ``phi`` with every coordinate clipped at +-35."""
        phi = np.clip(np.asarray(phi, dtype=np.float64), -_PHI_CLIP, _PHI_CLIP)
        return ModelParams.from_vector(self.to_natural(phi))

    def natural_jacobian(self, phi):
        """The diagonal of d theta / d phi at ``phi``, for the parameters that
        :meth:`to_params` gives (every coordinate clipped at +-35)."""
        phi = np.clip(np.asarray(phi, dtype=np.float64), -_PHI_CLIP, _PHI_CLIP)
        s_zeta, s_eta = _sigmoid(phi[1]), _sigmoid(phi[2])
        return np.concatenate([[np.exp(phi[0]),
                                (self.zeta_hi - self.zeta_lo) * s_zeta * (1.0 - s_zeta),
                                s_eta * (1.0 - s_eta)],
                               np.ones(self.p)])

    def log_jacobian(self, phi):
        """log |d theta / d phi|, needed when sampling on the phi scale."""
        phi = np.clip(np.asarray(phi, dtype=np.float64), -_PHI_CLIP, _PHI_CLIP)

        def log_sig_deriv(x):
            ax = abs(x)
            return -ax - 2.0 * np.log1p(np.exp(-ax))

        return float(phi[0]
                     + np.log(self.zeta_hi - self.zeta_lo) + log_sig_deriv(phi[1])
                     + log_sig_deriv(phi[2]))


@dataclass
class GridPoint:
    phi: np.ndarray
    params: ModelParams
    log_posterior: float
    weight: float = 0.0


@dataclass
class GridSpec:
    """Axis-aligned exploration grid in Hessian eigendirections."""

    spacing: float = 1.25
    cutoff: float = 6.0
    max_points: int = 1000


@dataclass
class PosteriorFit:
    method: str
    params_hat: ModelParams
    phi_hat: np.ndarray
    log_posterior: float
    hessian: np.ndarray
    cov: np.ndarray
    converged: bool
    n_evals: int
    newton_steps: int
    transform: ParamTransform
    priors_included: bool
    message: str = ""
    grid: list = None
    trace: list = field(default_factory=list)
    hessian_nd: bool = True
    anchor: tuple = None  # the objective's anchor (phi_hat, mu*, dmu*/dphi)

    @property
    def names(self):
        return self.transform.names


class LaplaceObjective:
    """Callable phi -> approximate log-posterior.

    Every latent mode search starts from the anchor ``(phi_c, mu_c, J_c)``
    (:func:`secar.mode.anchor_at`): the mode ``mu_c`` at ``phi_c`` and its
    tangent ``J_c = dmu/dphi`` there, which predict the mode at ``phi`` as
    ``mu_c + J_c (phi - phi_c)``. Without an anchor the search starts cold. A
    value therefore depends on phi and the anchor only; :meth:`anchor_at`
    moves the anchor, and ``last_mode`` is the mode of the latest finite
    evaluation, to anchor on without another solve.
    """

    def __init__(self, panel, design, car, priors, method="xla", include_priors=True):
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
        self.panel = panel
        self.design = design
        self.car = car
        self.priors = priors
        self.method = method
        self.include_priors = include_priors
        self.transform = ParamTransform.for_problem(car, priors, design.p)
        self.n_evals = 0
        self.anchor = None
        self.last_mode = None

    def __call__(self, phi):
        return self.evaluate(self.transform.to_params(phi), phi)

    def anchor_at(self, phi, mode=None):
        """Anchor every later mode search at ``phi``, whose latent mode is
        ``mode`` (solved cold when None)."""
        self.anchor = anchor_at(self.panel, self.design, self.car, phi, self.transform, mode)

    def evaluate(self, params, phi=None):
        """The approximate log-posterior at ``params`` (at ``phi``, which
        defaults to their transform); -inf where theta is inadmissible or its
        latent mode does not converge."""
        self.n_evals += 1
        self.last_mode = None
        if not params.is_admissible(self.car):
            return -np.inf
        if self.anchor is not None and phi is None:
            phi = self.transform.to_phi(params)
        try:
            mode = mode_at(self.panel, params, self.design, self.car, self.anchor, phi)
        except ModeError:
            return -np.inf
        lp = self.priors.log_prior(params, self.car) if self.include_priors else 0.0
        if not np.isfinite(lp):
            return -np.inf
        self.last_mode = mode
        if self.method == "la1":
            return la1_from_mode(mode, params, self.car, lp)
        return xla_from_mode(mode, self.panel, params, self.car, lp,
                             include_sixth=(self.method == "xla"))


def _fd_steps(phi):
    return FD_STEP * np.maximum(1.0, np.abs(phi))


def _floored(fun, f0):
    """``fun`` with non-finite values floored far below f0, so that a
    difference across the feasible boundary points back into the region."""
    floor = f0 - 1e6

    def safe(x):
        val = fun(x)
        return val if np.isfinite(val) else floor

    return safe


def _central(safe, phi, h):
    """The 2d axis values f(phi + h_i e_i), f(phi - h_i e_i) of ``safe`` and the
    central-difference gradient they give: (grad, f_plus, f_minus)."""
    steps = np.diag(h)
    f_plus = np.array([safe(phi + e) for e in steps])
    f_minus = np.array([safe(phi - e) for e in steps])
    return (f_plus - f_minus) / (2.0 * h), f_plus, f_minus


def fd_gradient(fun, phi, f0=0.0):
    """Central-difference gradient alone, from the 2d values f(phi +- h e_i),
    with non-finite values floored (``_floored``). The optimizer does not call
    it: :func:`fd_hessian` returns the same gradient from its own stencil."""
    return _central(_floored(fun, f0), phi, _fd_steps(phi))[0]


def fd_hessian(fun, phi, f0):
    """Central-difference gradient and Hessian ``(grad, hess)`` from one stencil
    of 2d + 4 C(d, 2) values around ``phi``, where ``f0 = fun(phi)``: the
    gradient of :func:`fd_gradient` and the Hessian diagonal share the 2d
    values f(phi +- h e_i). Non-finite values are floored (``_floored``)."""
    h = _fd_steps(phi)
    d = phi.shape[0]
    safe = _floored(fun, f0)
    grad, f_plus, f_minus = _central(safe, phi, h)
    hess = np.empty((d, d))
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h[i]
        hess[i, i] = (f_plus[i] - 2.0 * f0 + f_minus[i]) / h[i] ** 2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h[j]
            hess[i, j] = hess[j, i] = (
                safe(phi + ei + ej) - safe(phi + ei - ej)
                - safe(phi - ei + ej) + safe(phi - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return grad, hess


def default_start_params(panel, design, car, priors):
    """Heuristic admissible starting point."""
    lo, hi = priors.zeta_support(car)
    zeta0 = lo + 0.5 * (hi - lo) if np.isfinite(hi - lo) else 0.0
    mean_z = float(np.mean(panel.counts)) if panel.n_cells else 1.0
    beta = np.zeros(design.p)
    beta[0] = np.log(mean_z + 0.1)
    return ModelParams(eta=0.2, zeta=zeta0, tau2=0.5, beta=beta)


def maximize_posterior(panel, design, car, priors, method="xla", start=None,
                       include_priors=True, grad_tol=GRAD_TOL, max_steps=MAX_NEWTON):
    """Newton-Raphson on the transformed scale with finite-difference
    derivatives; falls back to steepest ascent when the Hessian is not
    negative definite. Converges on gradient max-norm < ``grad_tol``.

    Each step evaluates one :func:`fd_hessian` stencil, which gives both the
    gradient and the Hessian; the last stencil's Hessian is the fit's, and
    the stencil is evaluated once more after the loop only when the loop
    ran out of steps, since phi does not move on a stalled line search."""
    obj = LaplaceObjective(panel, design, car, priors, method=method,
                           include_priors=include_priors)
    tr = obj.transform
    if start is None:
        start = default_start_params(panel, design, car, priors)
    start.validate(car)
    phi = tr.to_phi(start)
    f0 = obj(phi)
    if not np.isfinite(f0):
        raise FitError("log-posterior not finite at the starting point")
    obj.anchor_at(phi, obj.last_mode)

    trace = [(phi.copy(), f0)]
    converged = False
    message = ""
    fallback_steps = 0
    steps = 0
    for steps in range(1, max_steps + 1):
        grad, hess = fd_hessian(obj, phi, f0)
        if float(np.max(np.abs(grad))) < grad_tol:
            converged = True
            break
        eigvals = np.linalg.eigvalsh(hess)
        if np.all(eigvals < 0.0):
            direction = np.linalg.solve(hess, -grad)
        else:
            # far from the mode the surface can be non-concave
            fallback_steps += 1
            direction = grad / max(1.0, float(np.max(np.abs(grad))))
        scale = 1.0
        improved = False
        for _ in range(40):
            cand = phi + scale * direction
            f_cand = obj(cand)
            if np.isfinite(f_cand) and f_cand > f0 - 1e-12:
                phi, f0 = cand, f_cand
                obj.anchor_at(phi, obj.last_mode)
                improved = True
                break
            scale *= 0.5
        trace.append((phi.copy(), f0))
        if not improved:
            message = "line search stalled"
            break
    else:  # out of steps: phi moved after the last stencil
        _, hess = fd_hessian(obj, phi, f0)

    vals, vecs, hessian_nd = _negated_eigh(hess)
    cov = (vecs / vals) @ vecs.T
    params_hat = tr.to_params(phi)
    if not converged and not message:
        message = f"no convergence in {max_steps} Newton steps"
    if converged and fallback_steps:
        message = f"{fallback_steps} steepest-ascent step(s) before convergence"
    return PosteriorFit(method=method, params_hat=params_hat, phi_hat=phi,
                        log_posterior=f0, hessian=hess, cov=cov, converged=converged,
                        n_evals=obj.n_evals, newton_steps=steps, transform=tr,
                        priors_included=include_priors, message=message, trace=trace,
                        hessian_nd=hessian_nd, anchor=obj.anchor)


def _negated_eigh(hess):
    """Eigenpairs of -hess with the eigenvalues clamped at 1e-12, and whether
    hess is negative definite."""
    vals, vecs = np.linalg.eigh(-hess)
    return np.maximum(vals, 1e-12), vecs, bool(np.all(vals > 0.0))


def credible_intervals(fit, level=0.95):
    """Gaussian intervals on the transformed scale, back-transformed
    endpoint-wise (monotone per coordinate)."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    if not fit.hessian_nd:
        raise FitError("posterior Hessian is not negative definite; "
                       "Gaussian intervals are unavailable")
    zq = ndtri(0.5 * (1.0 + level))
    sds = np.sqrt(np.maximum(np.diag(fit.cov), 0.0))
    lo = fit.transform.to_natural(fit.phi_hat - zq * sds)
    hi = fit.transform.to_natural(fit.phi_hat + zq * sds)
    return {name: (float(a), float(b))
            for name, a, b in zip(fit.names, np.minimum(lo, hi), np.maximum(lo, hi))}


def _explore(objective, phi_hat, f_hat, hess, spec):
    """Breadth-first enumeration of the eigen-scaled integer grid around the
    mode, pre-screened by the quadratic surrogate, pruned at ``spec.cutoff``
    nats below the mode. At most ``spec.max_points`` points, the mode
    included, are kept; one warning says when a candidate was left out."""
    vals, vecs, _ = _negated_eigh(hess)
    sd = 1.0 / np.sqrt(vals)
    d = phi_hat.shape[0]
    step = spec.spacing

    def phi_of(zvec):
        return phi_hat + vecs @ (step * sd * np.asarray(zvec, dtype=np.float64))

    def neighbours(zvec):
        for axis in range(d):
            for delta in (-1, 1):
                cand = list(zvec)
                cand[axis] += delta
                yield tuple(cand)

    origin = tuple([0] * d)
    points = {origin: (phi_hat.copy(), f_hat)}
    frontier = [origin]
    surrogate_margin = 2.0
    while frontier:
        new_frontier = []
        for cand in (c for zvec in frontier for c in neighbours(zvec)):
            if cand in points:
                continue
            pred_drop = 0.5 * step ** 2 * sum(c * c for c in cand)
            if pred_drop > spec.cutoff + surrogate_margin:
                continue
            if len(points) >= spec.max_points:
                warnings.warn(f"grid exploration capped at {spec.max_points} points",
                              stacklevel=3)
                new_frontier = []
                break
            phi = phi_of(cand)
            f = objective(phi)
            points[cand] = (phi, f)
            if np.isfinite(f) and f_hat - f <= spec.cutoff:
                new_frontier.append(cand)
        frontier = new_frontier

    kept = [(phi, f) for phi, f in points.values()
            if np.isfinite(f) and f_hat - f <= spec.cutoff]
    logw = np.array([f for _, f in kept])
    w = np.exp(logw - np.max(logw))
    w /= np.sum(w)
    return [(phi, f, wi) for (phi, f), wi in zip(kept, w)]


def explore_grid(fit, panel, design, car, priors, spec=None):
    """Evaluate the fitted objective, anchored at the fitted mode, on a pruned
    grid and attach normalized weights; returns a new fit with ``grid``
    populated."""
    spec = spec or GridSpec()
    obj = LaplaceObjective(panel, design, car, priors, method=fit.method,
                           include_priors=fit.priors_included)
    obj.anchor = fit.anchor
    raw = _explore(obj, fit.phi_hat, fit.log_posterior, fit.hessian, spec)
    grid = [GridPoint(phi=phi, params=fit.transform.to_params(phi),
                      log_posterior=f, weight=w) for phi, f, w in raw]
    return replace(fit, grid=grid)


def latent_marginal(fit, panel, design, car):
    """Mixture-of-Gaussians moments of the latent field over the grid.

    Falls back to the single Gaussian approximation at the mode when no grid
    has been attached; every point's mode starts from the fit's anchor, as the
    grid's do. Returns (T, n_d) mean and variance.
    """
    points = fit.grid
    if not points:
        points = [GridPoint(phi=fit.phi_hat, params=fit.params_hat,
                            log_posterior=fit.log_posterior, weight=1.0)]
    mean = np.zeros((panel.T, panel.n_d))
    second = np.zeros((panel.T, panel.n_d))
    for pt in points:
        mode = mode_at(panel, pt.params, design, car, fit.anchor, pt.phi)
        gii = inverse_diagonal(mode.chol_blocks)
        mean += pt.weight * mode.mu_star
        second += pt.weight * (gii + mode.mu_star ** 2)
    return mean, second - mean ** 2


def sample_theta(fit, n, seed):
    """Draw parameter vectors from the Gaussian approximation on the
    transformed scale and map them back to natural parameters. Raises
    :class:`FitError` when the fit's Hessian is not negative definite."""
    if not fit.hessian_nd:
        raise FitError("posterior Hessian is not negative definite; "
                       "the Gaussian approximation cannot be sampled")
    rng = np.random.default_rng(seed)
    draws = rng.multivariate_normal(fit.phi_hat, fit.cov, size=n,
                                    method="cholesky" if _is_pd(fit.cov) else "svd")
    return [fit.transform.to_params(phi) for phi in draws]


def _is_pd(a):
    try:
        np.linalg.cholesky(a)
        return True
    except np.linalg.LinAlgError:
        return False
