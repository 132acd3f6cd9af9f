"""Model parameters, data panel, covariates, joint density kernel and simulator.

Array layout is time-major throughout: latent fields, counts and the linear
predictor are (T, n_d) arrays whose rows are the independent time blocks of
the CAR prior. Week 0 of a dataset is history (it only feeds the
self-excitation term at t = 1).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from . import kernels
from .graph import car_precision_block, CarStructure

DEFAULT_BURN_IN = 50


class ParamError(ValueError):
    """Raised for inadmissible model parameters."""


@dataclass(frozen=True)
class ModelParams:
    """Inference target theta = (tau2, zeta, eta, beta).

    eta is the self-excitation weight in [0, 1) (0 degenerates to the plain
    Poisson-CAR), zeta the spatial dependence, tau2 > 0 the conditional
    variance, beta the large-scale coefficients with beta[0] the intercept.
    :meth:`vector`, :meth:`from_vector` and :meth:`names` are the one
    definition of the natural order that samples, grids and reports use.
    """

    eta: float
    zeta: float
    tau2: float
    beta: np.ndarray = field(default_factory=lambda: np.zeros(1))

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.beta, dtype=np.float64)).copy()
        b.setflags(write=False)
        object.__setattr__(self, "beta", b)

    @property
    def p(self):
        return self.beta.shape[0]

    @staticmethod
    def names(p):
        """Names of the :meth:`vector` entries for ``p`` coefficients."""
        return ["tau2", "zeta", "eta"] + [f"beta{k}" for k in range(p)]

    def vector(self):
        """theta as one array in the natural order (tau2, zeta, eta, beta...)."""
        return np.concatenate([[self.tau2, self.zeta, self.eta], self.beta])

    @classmethod
    def from_vector(cls, v):
        """Inverse of :meth:`vector`."""
        return cls(tau2=v[0], zeta=v[1], eta=v[2], beta=v[3:])

    def validate(self, car):
        problems = []
        if not 0.0 <= self.eta < 1.0:
            problems.append(f"eta={self.eta} outside [0, 1)")
        if self.tau2 <= 0.0:
            problems.append(f"tau2={self.tau2} not positive")
        if not car.contains(self.zeta):
            lo, hi = car.zeta_bounds
            problems.append(f"zeta={self.zeta} outside ({lo:.6g}, {hi:.6g})")
        if problems:
            raise ParamError("; ".join(problems))

    def is_admissible(self, car):
        try:
            self.validate(car)
        except ParamError:
            return False
        return True


class CovariateDesign:
    """Covariate values indexed (time, location, covariate); column 0 is the intercept."""

    def __init__(self, values, names=None):
        v = np.asarray(values, dtype=np.float64)
        if v.ndim != 3:
            raise ValueError(f"design values must be (T, n_d, p), got shape {v.shape}")
        self.values = v
        self.names = list(names) if names is not None else [f"x{k}" for k in range(v.shape[2])]
        if len(self.names) != v.shape[2]:
            raise ValueError("number of covariate names does not match p")

    @classmethod
    def intercept_only(cls, T, n_d):
        return cls(np.ones((T, n_d, 1)), names=["intercept"])

    @property
    def p(self):
        return self.values.shape[2]

    @property
    def shape(self):
        return self.values.shape


class CountPanel:
    """Observed counts on n_d locations x T weeks plus the week-0 history;
    the count arrays are read-only."""

    def __init__(self, counts, initial_counts):
        z = np.asarray(counts)
        z0 = np.asarray(initial_counts)
        if z.ndim != 2:
            raise ValueError(f"counts must be (T, n_d), got shape {z.shape}")
        if z0.shape != (z.shape[1],):
            raise ValueError(f"initial_counts must be ({z.shape[1]},), got {z0.shape}")
        for name, arr in (("counts", z), ("initial_counts", z0)):
            if arr.size and (np.any(arr < 0) or np.any(arr != np.floor(arr))):
                raise ValueError(f"{name} must be nonnegative integers")
        self.counts = z.astype(np.int64)
        self.initial_counts = z0.astype(np.int64)
        # the last week feeds no row; dropping it also makes T = 0 give (0, n_d)
        self._prev = np.vstack([self.initial_counts[None, :], self.counts])[:-1].astype(np.float64)
        # read-only, so the cached lagged counts cannot fall out of step
        for arr in (self.counts, self.initial_counts, self._prev):
            arr.setflags(write=False)

    @property
    def T(self):
        return self.counts.shape[0]

    @property
    def n_d(self):
        return self.counts.shape[1]

    @property
    def n_cells(self):
        return self.counts.size

    def prev_counts(self):
        """Z(s_i, t-1) aligned with counts: row t holds the week t-1 counts.

        Built once with the panel; every call returns the same read-only
        float array.
        """
        return self._prev


def linear_predictor(design, beta):
    """alpha(s_i, t) = sum_k beta_k x_k(s_i, t), returned as a (T, n_d) array."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (design.p,):
        raise ValueError(f"beta has length {beta.shape}, design expects {design.p}")
    return design.values @ beta


def intensity(Y, panel, eta):
    """Poisson intensity exp(Y) + eta * Z_{t-1}; strictly positive."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape != (panel.T, panel.n_d):
        raise ValueError(f"latent field shape {Y.shape} does not match panel "
                         f"({panel.T}, {panel.n_d})")
    return np.exp(Y) + eta * panel.prev_counts()


def g_value(Y, panel, params, alpha, car):
    """Negative log integrand of the marginal likelihood at latent field Y.

    0.5*(Y-alpha)^T Sigma^{-1} (Y-alpha) summed over time blocks, plus the
    per-cell negative Poisson log-kernels: the sum over the blocks of the g
    of :func:`secar.kernels.block_terms`.
    """
    return float(np.sum(_block_terms(Y, panel, params, alpha, car)[0]))


def g_gradient(Y, panel, params, alpha, car):
    """Gradient of :func:`g_value` in Y, shape (T, n_d)."""
    return _block_terms(Y, panel, params, alpha, car)[1]


def _block_terms(Y, panel, params, alpha, car):
    q = car_precision_block(car, params.zeta, params.tau2)
    c = params.eta * panel.prev_counts()
    return kernels.block_terms(np.asarray(Y, dtype=np.float64), alpha, q, panel.counts, c)


def simulate(car, params, design, T, seed, burn_in=DEFAULT_BURN_IN, initial_counts=None):
    """Draw (CountPanel, latent field) from the generative model.

    Each block is Y_t = alpha_t + L^{-T} xi with Q = L L^T, then
    Z_t ~ Pois(exp(Y_t) + eta Z_{t-1}). The first ``burn_in`` steps are
    discarded so the counts reach their stationary regime; the linear
    predictor of week 1 is reused during burn-in and for the seed draw
    Z_0 ~ Pois(exp(alpha_1)). Bit-reproducible for a fixed seed.
    """
    if not isinstance(car, CarStructure):
        car = CarStructure.from_graph(car)
    params.validate(car)
    if T < 1:
        raise ValueError(f"T must be at least 1, got {T}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be nonnegative, got {burn_in}")
    if design.values.shape[:2] != (T, car.n_d):
        raise ValueError(f"design shape {design.values.shape} does not cover "
                         f"T={T}, n_d={car.n_d}")
    if seed is None:
        raise ValueError("simulate requires an explicit seed")
    rng = np.random.default_rng(seed)
    alpha = linear_predictor(design, params.beta)
    chol = np.linalg.cholesky(car_precision_block(car, params.zeta, params.tau2))

    if initial_counts is not None:
        z_prev = np.asarray(initial_counts, dtype=np.int64).copy()
        if z_prev.shape != (car.n_d,):
            raise ValueError("initial_counts must have length n_d")
    else:
        z_prev = rng.poisson(np.exp(alpha[0]))

    counts = np.empty((T, car.n_d), dtype=np.int64)
    latent = np.empty((T, car.n_d))
    history = z_prev
    for step in range(burn_in + T):
        t = max(step - burn_in, 0)
        xi = rng.standard_normal(car.n_d)
        y = alpha[t] + sla.solve_triangular(chol, xi, lower=True, trans="T")
        z = rng.poisson(np.exp(y) + params.eta * z_prev)
        if step == burn_in:
            history = z_prev.copy()
        if step >= burn_in:
            counts[step - burn_in] = z
            latent[step - burn_in] = y
        z_prev = z
    return CountPanel(counts, history), latent
