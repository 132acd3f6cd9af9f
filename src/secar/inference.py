"""Posterior maximization over theta, uncertainty, and surface exploration.

Optimization runs in an unconstrained reparameterization (log tau2, scaled
logits for zeta and eta, raw beta) of the natural-scale log-posterior, by
BFGS on central finite-difference gradients: one full gradient-and-Hessian
stencil at the start gives the first curvature, each quasi-Newton step takes
one gradient, and one more stencil at the optimum both confirms convergence
and gives the fit's Hessian. Each stencil, like each breadth-first layer of
the grid, is one batched evaluation, solved and reduced a stack of latent
modes at a time (:meth:`LaplaceObjective.evaluate_many`). The reported mode
is therefore the natural-scale posterior mode; no transform Jacobians enter
the objective. Every latent mode search starts from the objective's anchor
(:class:`LaplaceObjective`), which the optimizer sets at its start and at
every accepted step; the fit carries its last anchor, at the fitted mode, to
the grid and the latent marginals. The fit's
Hessian is eigendecomposed once, into the eigen-scale that the intervals, the
posterior draws and the grid all read.
"""

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import ndtri

from .mode import anchor_at, converged_mode, inverse_diagonal, la1_from_mode, mode_stacks
from .model import ModelParams
from .xla import correction_terms

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
    :meth:`to_natural` is the one map back; its one clip is log tau2 at +-35,
    where ``exp`` would overflow, so beta maps as it is at any size.
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
        return np.concatenate([[np.exp(_clipped_log_tau2(phi)),
                                self.zeta_lo + (self.zeta_hi - self.zeta_lo) * _sigmoid(phi[1]),
                                _sigmoid(phi[2])],
                               phi[3:]])

    def to_params(self, phi):
        """The parameters at ``phi``, by :meth:`to_natural`: log tau2 clipped
        at +-35, every other coordinate mapped as it is."""
        return ModelParams.from_vector(self.to_natural(phi))

    def log_jacobian(self, phi):
        """log |d theta / d phi| of :meth:`to_natural`, needed when sampling on
        the phi scale; it reads log tau2 clipped at +-35, as the map does."""

        def log_sig_deriv(x):
            ax = abs(x)
            return -ax - 2.0 * np.log1p(np.exp(-ax))

        return float(_clipped_log_tau2(phi)
                     + np.log(self.zeta_hi - self.zeta_lo) + log_sig_deriv(phi[1])
                     + log_sig_deriv(phi[2]))


def _clipped_log_tau2(phi):
    """phi[0] clipped at +-35, first in max and min so that a nan passes through."""
    return min(max(phi[0], -_PHI_CLIP), _PHI_CLIP)


@dataclass
class GridPoint:
    phi: np.ndarray
    params: ModelParams
    log_posterior: float
    weight: float = 0.0


@dataclass
class GridSpec:
    """Integer lattice along the fit's eigen-scale: point z sits at
    ``phi_hat + fit.scale @ (spacing * z)``. Raises ValueError unless spacing
    and cutoff are finite and positive and max_points is at least 1."""

    spacing: float = 1.25
    cutoff: float = 6.0
    max_points: int = 1000

    def __post_init__(self):
        for name in ("spacing", "cutoff"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"grid_{name} must be finite and positive, got {value}")
        if self.max_points < 1:
            raise ValueError(f"grid_max_points must be at least 1, got {self.max_points}")


@dataclass
class PosteriorFit:
    method: str
    params_hat: ModelParams
    phi_hat: np.ndarray
    log_posterior: float
    hessian: np.ndarray
    scale: np.ndarray  # eigenvectors of -hessian / sqrt(eigenvalues clamped at 1e-12)
    converged: bool
    n_evals: int
    newton_steps: int
    transform: ParamTransform
    priors_included: bool
    message: str = ""
    grid: list = None
    trace: list = field(default_factory=list)
    hessian_nd: bool = True
    anchor: tuple = None  # the objective's anchor at params_hat: (theta, mu*, dmu*/dtheta)

    @property
    def names(self):
        return self.transform.names

    @property
    def cov(self):
        """Covariance of the Gaussian approximation on the phi scale."""
        return self.scale @ self.scale.T


class LaplaceObjective:
    """Callable phi -> approximate log-posterior.

    Every latent mode search starts from the anchor ``(theta_c, mu_c, J_c)``
    (:func:`secar.mode.anchor_at`): the mode ``mu_c`` at the natural vector
    ``theta_c`` and its tangent ``J_c = dmu/dtheta`` there, which predict the
    mode at theta as ``mu_c + J_c (theta - theta_c)``. Without an anchor the
    search starts cold. A value therefore depends on theta and the anchor
    only; :meth:`anchor_at` moves the anchor, and ``last_mode`` is the mode of
    the latest finite evaluation, to anchor on without another solve.
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
        return self.evaluate(self.transform.to_params(phi))

    def values(self, phis):
        """The values at each row of the ``(m, d)`` stack ``phis``, by
        :meth:`evaluate_many`."""
        return self.evaluate_many([self.transform.to_params(phi) for phi in phis])

    def anchor_at(self, phi, mode=None):
        """Anchor every later mode search at the parameters of ``phi``, whose
        latent mode is ``mode`` (solved cold when None)."""
        self.anchor = anchor_at(self.panel, self.design, self.car,
                                self.transform.to_params(phi), mode)

    def evaluate(self, params, mode=None, correction=None):
        """The approximate log-posterior at ``params``; -inf where theta is
        inadmissible or its latent ``mode`` did not converge. xla adds the
        mode's ``correction``; both come from :meth:`_solved` when None."""
        self.n_evals += 1
        self.last_mode = None
        if not params.is_admissible(self.car):
            return -np.inf
        if mode is None:
            (mode, correction), = self._solved([params])
        if not mode.converged:
            return -np.inf
        lp = self.priors.log_prior(params, self.car) if self.include_priors else 0.0
        if not np.isfinite(lp):
            return -np.inf
        self.last_mode = mode
        return la1_from_mode(mode, params, self.car, lp) + (correction or 0.0)

    def evaluate_many(self, thetas):
        """:meth:`evaluate` at each of ``thetas``, as an array: the latent modes
        of the admissible ones are solved and reduced together, a stack at a
        time (:meth:`_solved`). Equal, value for value, to one call each."""
        admissible = [p.is_admissible(self.car) for p in thetas]
        solved = self._solved([p for p, ok in zip(thetas, admissible) if ok])
        return np.array([self.evaluate(p, *next(solved)) if ok else self.evaluate(p)
                         for p, ok in zip(thetas, admissible)], dtype=np.float64)

    def _solved(self, thetas):
        """``(mode, correction)`` at each of ``thetas``, reduced to xla corrections a
        stack (:func:`secar.mode.mode_stacks`) at a time; None for la1 or no convergence."""
        lo = 0
        for modes in mode_stacks(self.panel, thetas, self.design, self.car, self.anchor):
            stack, lo = thetas[lo:lo + len(modes)], lo + len(modes)
            ok = [k for k, mode in enumerate(modes) if mode.converged and self.method != "la1"]
            values = correction_terms([modes[k] for k in ok], self.panel, [stack[k] for k in ok],
                                      self.method == "xla") if ok else []
            corrections = dict(zip(ok, values))
            yield from ((mode, corrections.get(k)) for k, mode in enumerate(modes))


def _fd_steps(phi):
    return FD_STEP * np.maximum(1.0, np.abs(phi))


def _floored(values, f0):
    """``values`` with non-finite entries floored far below f0, so that a
    difference across the feasible boundary points back into the region."""
    return np.where(np.isfinite(values), values, f0 - 1e6)


def fd_gradient(fun, phi, f0=0.0):
    """Central-difference gradient alone, from the 2d values f(phi +- h e_i),
    with non-finite values floored (``_floored``): the same gradient that
    :func:`fd_hessian` returns from its stencil, all 2d in one call of ``fun``
    (a stack of points to their values). Returns ``(grad, axis)``, ``axis``
    the ``(2, d)`` values f(phi + h e_i), f(phi - h e_i), which a Hessian
    stencil at the same phi reuses. The optimizer takes one per step."""
    h = _fd_steps(phi)
    steps = np.diag(h)
    axis = _floored(fun(np.concatenate([phi + steps, phi - steps])), f0).reshape(2, -1)
    return (axis[0] - axis[1]) / (2.0 * h), axis


def fd_hessian(fun, phi, f0, axis=None):
    """Central-difference gradient and Hessian ``(grad, hess)`` from one stencil
    of 2d + 4 C(d, 2) values around ``phi`` in one call of ``fun``, where
    ``f0 = fun(phi)``: the gradient of :func:`fd_gradient` and the Hessian
    diagonal share the 2d values f(phi +- h e_i), or take its ``axis`` at this
    phi instead. Non-finite values are floored (``_floored``)."""
    h = _fd_steps(phi)
    d = phi.shape[0]
    i, j = np.triu_indices(d, 1)
    steps = np.diag(h)
    ei, ej = steps[i], steps[j]
    points = [phi + ei + ej, phi + ei - ej, phi - ei + ej, phi - ei - ej]
    if axis is None:
        points = [phi + steps, phi - steps] + points
    values = _floored(fun(np.concatenate(points)), f0)
    if axis is None:
        axis, values = values[:2 * d].reshape(2, d), values[2 * d:]
    pp, pm, mp, mm = values.reshape(4, -1)
    hess = np.empty((d, d))
    hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4.0 * h[i] * h[j])
    # h_i ** 2 one scalar at a time: pow, which the array square can differ from in the last bit
    hess[np.diag_indices(d)] = (axis[0] - 2.0 * f0 + axis[1]) / [hk ** 2 for hk in h]
    return (axis[0] - axis[1]) / (2.0 * h), hess


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
    """BFGS on the transformed scale with central finite-difference
    derivatives. Converges on gradient max-norm < ``grad_tol``.

    One :func:`fd_hessian` stencil at the start gives the gradient and the
    first curvature, -hess with its eigenvalues made positive. Each
    quasi-Newton step (counted in ``newton_steps`` and ``max_steps``) halves
    up to 40 times, anchors at the accepted point and takes one
    :func:`fd_gradient` there for the BFGS update. After a gradient below
    ``grad_tol``, and on the last allowed step, the next point gets a full
    stencil instead: the fit converges only when that stencil's gradient
    passes, and its Hessian is the fit's. A fit that stalls takes its Hessian
    from a stencil at its own phi_hat. ``trace`` holds the start and one
    entry per step, the last one repeated on a stall."""
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

    grad, hess = fd_hessian(obj.values, phi, f0)
    # the start is often non-concave: |eigenvalues| of -hess, floored
    lam, vecs = np.linalg.eigh(-hess)
    lam = np.maximum(np.abs(lam), 1e-6 * np.max(np.abs(lam)))
    curv = (vecs * lam) @ vecs.T  # positive definite model of -hessian
    trace = [(phi.copy(), f0)]
    message = ""
    steps = 0
    while True:
        small = float(np.max(np.abs(grad))) < grad_tol
        converged = small and hess is not None
        if converged or steps == max_steps:
            break
        steps += 1
        direction = np.linalg.solve(curv, grad)
        scale = 1.0
        for _ in range(40):
            cand = phi + scale * direction
            f_cand = obj(cand)
            if np.isfinite(f_cand) and f_cand > f0 - 1e-12:
                break
            scale *= 0.5
        else:
            trace.append((phi.copy(), f0))
            message = "line search stalled"
            break
        s, phi, f0 = cand - phi, cand, f_cand
        obj.anchor_at(phi, obj.last_mode)
        trace.append((phi.copy(), f0))
        # a small gradient, or the last step, earns the full stencil that the
        # convergence test and the fit's Hessian read
        if small or steps == max_steps:
            grad_new, hess = fd_hessian(obj.values, phi, f0)
        else:
            (grad_new, axis), hess = fd_gradient(obj.values, phi, f0), None
        y, grad = grad - grad_new, grad_new
        sy = s @ y
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):  # BFGS update
            cs = curv @ s
            curv = curv - np.outer(cs, cs) / (s @ cs) + np.outer(y, y) / sy
    if hess is None:  # stalled after a gradient-only step, whose axis values it reuses
        _, hess = fd_hessian(obj.values, phi, f0, axis)

    vals, vecs = np.linalg.eigh(-hess)
    scale = vecs / np.sqrt(np.maximum(vals, 1e-12))
    params_hat = tr.to_params(phi)
    if not converged and not message:
        message = f"no convergence in {max_steps} Newton steps"
    return PosteriorFit(method=method, params_hat=params_hat, phi_hat=phi,
                        log_posterior=f0, hessian=hess, scale=scale, converged=converged,
                        n_evals=obj.n_evals, newton_steps=steps, transform=tr,
                        priors_included=include_priors, message=message, trace=trace,
                        hessian_nd=bool(np.all(vals > 0.0)), anchor=obj.anchor)


def credible_intervals(fit, level=0.95):
    """Gaussian intervals on the transformed scale, back-transformed
    endpoint-wise (monotone per coordinate)."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    if not fit.hessian_nd:
        raise FitError("posterior Hessian is not negative definite; "
                       "Gaussian intervals are unavailable")
    zq = ndtri(0.5 * (1.0 + level))
    sds = np.linalg.norm(fit.scale, axis=1)
    lo = fit.transform.to_natural(fit.phi_hat - zq * sds)
    hi = fit.transform.to_natural(fit.phi_hat + zq * sds)
    return {name: (float(a), float(b))
            for name, a, b in zip(fit.names, np.minimum(lo, hi), np.maximum(lo, hi))}


def _explore(objective, phi_hat, f_hat, scale, spec):
    """Breadth-first enumeration of the grid phi_hat + scale @ (spacing * z),
    z integer, pre-screened by the quadratic surrogate, pruned at ``spec.cutoff``
    nats below the mode, one breadth-first layer per call of ``objective`` (a
    stack of points to their values). At most ``spec.max_points`` points, the
    mode included, are kept; one warning says when a candidate was left out."""
    d = phi_hat.shape[0]
    step = spec.spacing

    def phi_of(zvec):
        return phi_hat + scale @ (step * np.asarray(zvec, dtype=np.float64))

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
    capped = False
    while frontier and not capped:
        layer = {}
        for cand in (c for zvec in frontier for c in neighbours(zvec)):
            if cand in points or cand in layer:
                continue
            pred_drop = 0.5 * step ** 2 * sum(c * c for c in cand)
            if pred_drop > spec.cutoff + surrogate_margin:
                continue
            if len(points) + len(layer) >= spec.max_points:
                warnings.warn(f"grid exploration capped at {spec.max_points} points",
                              stacklevel=3)
                capped = True
                break
            layer[cand] = phi_of(cand)
        values = objective(np.array(list(layer.values()))) if layer else ()
        points.update(zip(layer, zip(layer.values(), values)))
        frontier = [cand for cand, f in zip(layer, values)
                    if np.isfinite(f) and f_hat - f <= spec.cutoff]

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
    raw = _explore(obj.values, fit.phi_hat, fit.log_posterior, fit.scale, spec)
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
    stacks = mode_stacks(panel, [pt.params for pt in points], design, car, fit.anchor)
    for pt, mode in zip(points, (mode for stack in stacks for mode in stack)):
        gii = inverse_diagonal(converged_mode(mode))
        mean += pt.weight * mode.mu_star
        second += pt.weight * (gii + mode.mu_star ** 2)
    return mean, second - mean ** 2


def sample_theta(fit, n, seed):
    """Draw phi_hat + scale @ z, z standard normal, from the Gaussian
    approximation on the transformed scale and map it to natural parameters.
    Raises :class:`FitError` when the fit's Hessian is not negative definite."""
    if not fit.hessian_nd:
        raise FitError("posterior Hessian is not negative definite; "
                       "the Gaussian approximation cannot be sampled")
    z = np.random.default_rng(seed).standard_normal((n, fit.phi_hat.shape[0]))
    return [fit.transform.to_params(phi) for phi in fit.phi_hat + z @ fit.scale.T]
