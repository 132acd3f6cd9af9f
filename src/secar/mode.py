"""Gaussian approximation to pi(Y | Z, theta): Taylor coefficients, latent
mode via a damped Newton iteration, and the first-order Laplace
log-posterior.

The joint density factors over time blocks. Every block keeps its own Newton
decisions (ridge, step clip, line search, convergence), but one loop drives
the whole ``(T, n_d)`` stack with per-block masks: the kernels, gradients,
block values and step-halving run on the stack, and only the dense
n_d x n_d LAPACK factor/solve calls go block by block, for the blocks still
iterating. The factors are written into one ``(T, n_d, n_d)`` stack that is
retained for the Hessian log-determinant and for the downstream correction
terms. LAPACK is called from this module only, which also inverts the stack
for the other layers; :func:`mode_at` is the one theta-to-mode path of every
Laplace value, and :func:`mode_tangent` its derivative in theta, which
predicts the mode at a nearby theta.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from . import kernels
from .graph import car_precision_block, logdet_precision
from .model import linear_predictor

DEFAULT_TOL = 1e-8
MAX_ITER = 100
_MIN_STEP = 1e-10
_STEP_CAP = 4.0  # per-cell clamp on one Newton update (log-intensity scale)


class ModeError(RuntimeError):
    """Raised when the latent mode iteration cannot make progress."""


def taylor_coeffs(mu, z, z_prev, eta):
    """First- and second-order expansion coefficients (f, k) of the data
    log-density about mu. Accepts scalars or arrays."""
    mu_a = np.atleast_1d(np.asarray(mu, dtype=np.float64)).ravel()
    z_a = np.broadcast_to(np.asarray(z, dtype=np.float64), mu_a.shape).ravel().copy()
    zp_a = np.broadcast_to(np.asarray(z_prev, dtype=np.float64), mu_a.shape).ravel().copy()
    f, k = kernels.fk_values(mu_a, z_a, eta * zp_a)
    if np.isscalar(mu) or np.asarray(mu).ndim == 0:
        return float(f[0]), float(k[0])
    return f.reshape(np.shape(mu)), k.reshape(np.shape(mu))


@dataclass
class ModeResult:
    """Converged Gaussian approximation for all time blocks.

    ``chol_blocks[t]`` is the lower Cholesky factor of the block Hessian
    Q + diag(k_t) evaluated at the mode.
    """

    mu_star: np.ndarray
    chol_blocks: np.ndarray
    logdet_hessian: float
    g_at_mode: float
    converged: bool
    iterations: int
    grad_max: float
    alpha: np.ndarray
    block_iterations: np.ndarray = None
    failed_blocks: tuple = ()

    @property
    def hessian_blocks(self):
        return np.einsum("tij,tkj->tik", self.chol_blocks, self.chol_blocks)

    @property
    def T(self):
        return self.mu_star.shape[0]

    @property
    def n_d(self):
        return self.mu_star.shape[1]


# LAPACK reads every C-ordered block as its transpose, so the lower factors
# kept here are its upper ones: each call below passes ``block.T``, ``lower=0``.
def _potrf(a):
    """Overwrite the symmetric matrix ``a`` with its lower Cholesky factor;
    returns LAPACK's info, non-zero when ``a`` is not positive definite."""
    return lapack.dpotrf(a.T, lower=0, clean=1, overwrite_a=1)[1]


def _potrs(chol, b):
    """Solve (L L') x = b for a lower factor written by :func:`_potrf`."""
    return lapack.dpotrs(chol.T, b, lower=0)[0]


def cholesky_inverse(chols):
    """Overwrite every lower factor L of the stack with the lower triangle of
    (L L')^-1 (``dpotri``); the upper triangles keep the factors' zeros."""
    for b in chols:
        lapack.dpotri(b.T, lower=0, overwrite_c=1)
    return chols


def triangular_inverse(chols):
    """Overwrite every lower factor L of the stack with L^-1 (``dtrtri``)."""
    for b in chols:
        lapack.dtrtri(b.T, lower=0, overwrite_c=1)
    return chols


def default_start(panel, alpha):
    """log(Z + 0.5) softened halfway toward the linear predictor."""
    return 0.5 * (np.log(panel.counts + 0.5) + alpha)


def find_mode(panel, params, alpha, car, start=None, max_iter=MAX_ITER):
    """Maximize the Gaussian approximation over all time blocks at once.

    Unridged, a block's update solves (Q + diag k(mu)) mu_new = f(mu) + Q alpha;
    where its Hessian is indefinite a Levenberg ridge is added and the step is
    taken against the gradient form. The step is clamped per cell so one
    extreme cell cannot stall the block, then halved until g does not
    increase. A block converges when an unridged step moves it less than
    ``DEFAULT_TOL``; a block whose step-halving underflows, whose ridge runs
    out or that reaches ``max_iter`` is reported in ``failed_blocks``.
    ``start`` (a warm start, e.g. the previous mode) defaults to
    :func:`default_start`.

    Returns a :class:`ModeResult` whose Cholesky factors are recomputed at the
    final iterate of every block, so the log-determinant and the inverse
    blocks refer exactly to the converged Hessian.
    """
    params.validate(car)
    T, n = panel.T, panel.n_d
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (T, n):
        raise ValueError(f"alpha shape {alpha.shape} does not match panel ({T}, {n})")
    q = car_precision_block(car, params.zeta, params.tau2)
    q_diag = np.diagonal(q)
    z = panel.counts.astype(np.float64)
    c = params.eta * panel.prev_counts()
    if start is None:
        start = default_start(panel, alpha)
    mu = np.array(start, dtype=np.float64)

    g = kernels.block_g(mu, alpha, q, z, c)
    bad = ~np.isfinite(g)
    if bad.any():
        mu[bad] = alpha[bad]
        g[bad] = kernels.block_g(mu[bad], alpha[bad], q, z[bad], c[bad])

    chols = np.empty((T, n, n))
    diag = chols.reshape(T, n * n)[:, ::n + 1]  # view: the diagonal of every block
    ridge_base = 1e-8 * (1.0 + float(np.max(q_diag)))
    block_iters = np.full(T, max_iter, dtype=np.int64)
    ok = np.zeros(T, dtype=bool)
    active = np.ones(T, dtype=bool)  # blocks still iterating
    for it in range(1, max_iter + 1):
        if not active.any():
            break
        _, k = kernels.fk_values(mu, z, c)
        grad = kernels.block_grad(mu, alpha, q, z, c)
        step = np.zeros_like(mu)
        ridged = np.zeros(T, dtype=bool)
        dead = np.zeros(T, dtype=bool)  # ridge ran out
        for t in np.flatnonzero(active):
            hdiag, ridge = q_diag + k[t], 0.0
            chols[t] = q
            diag[t] = hdiag
            while _potrf(chols[t]):
                # indefinite: a Levenberg ridge growing tenfold, up to a limit
                ridged[t] = True
                ridge = ridge_base if ridge == 0.0 else ridge * 10.0
                hdiag += ridge
                if ridge > 1e10 * ridge_base:
                    dead[t] = True
                    break
                chols[t] = q
                diag[t] = hdiag
            else:
                step[t] = _potrs(chols[t], -grad[t])
        np.clip(step, -_STEP_CAP, _STEP_CAP, out=step)

        # step-halving with one scale per block until each block's g does not
        # increase
        cand, g_new = mu.copy(), g.copy()
        stalled = np.zeros(T, dtype=bool)
        scale = np.ones(T)
        pend = active & ~dead
        g_tol = g + 1e-12 * (1.0 + np.abs(g))
        while pend.any():
            x = mu + scale[:, None] * step
            gx = kernels.block_g(x, alpha, q, z, c)
            good = pend & np.isfinite(gx) & (gx <= g_tol)
            cand[good] = x[good]
            g_new[good] = gx[good]
            pend &= ~good
            scale[pend] *= 0.5
            under = pend & (scale < _MIN_STEP)
            stalled |= under
            pend &= ~under

        delta = np.max(np.abs(cand - mu), axis=1)
        mu, g = cand, g_new
        # converged only if the step came from the true (unridged) Hessian
        conv = active & (delta < DEFAULT_TOL) & ~ridged & ~stalled & ~dead
        done = active & (conv | stalled | dead)
        ok |= conv
        block_iters[done] = it
        active &= ~done

    _, k = kernels.fk_values(mu, z, c)
    chols[:] = q
    diag += k
    for t in range(T):
        hdiag, ridge = q_diag + k[t], 0.0
        while _potrf(chols[t]):
            # final iterate is not a proper local minimum; keep a damped
            # factor so downstream fields stay defined, but flag the block
            ok[t] = False
            ridge = max(2.0 * ridge, 1e-6 * (1.0 + float(np.abs(k[t]).max())))
            hdiag += ridge
            chols[t] = q
            diag[t] = hdiag

    grad = kernels.block_grad(mu, alpha, q, z, c)
    return ModeResult(mu_star=mu, chol_blocks=chols,
                      logdet_hessian=2.0 * float(np.sum(np.log(diag))),
                      g_at_mode=float(np.sum(g)), converged=bool(ok.all()),
                      iterations=int(block_iters.max()) if T else 0,
                      grad_max=float(np.max(np.abs(grad))) if grad.size else 0.0,
                      alpha=alpha, block_iterations=block_iters,
                      failed_blocks=tuple(int(t) for t in np.flatnonzero(~ok)))


def mode_at(panel, params, design, car, start=None):
    """The converged latent mode at theta, from ``start`` (cold when None).

    A warm start that fails is retried once cold; a mode that still fails
    raises :class:`ModeError` naming the blocks that did not converge.
    """
    alpha = linear_predictor(design, params.beta)
    mode = find_mode(panel, params, alpha, car, start=start)
    if not mode.converged and start is not None:
        mode = find_mode(panel, params, alpha, car)
    if not mode.converged:
        failed = list(mode.failed_blocks)
        raise ModeError(f"latent mode iteration did not converge in {len(failed)} of "
                        f"{mode.T} time blocks, first {failed[:5]}")
    return mode


def mode_tangent(mode, panel, params, design, car):
    """d mu*/d theta at a converged mode, as a ``(T, n_d, 3+p)`` stack in the
    natural order (tau2, zeta, eta, beta...).

    By the implicit function theorem the mode's stationarity condition
    grad g = 0 gives H dmu/dtheta = -d(grad g)/dtheta, with the partials
    -Q(mu-alpha)/tau2 (tau2), -N(mu-alpha)/tau2 (zeta, N the adjacency),
    z e^mu z_prev/(e^mu+c)^2 (eta) and -Q X_k (beta_k); every block is one
    solve with 3+p right-hand sides on the mode's Cholesky factors.
    """
    d = mode.mu_star - mode.alpha
    q = car_precision_block(car, params.zeta, params.tau2)
    ey = np.exp(mode.mu_star)
    z_prev = panel.prev_counts()
    rhs = np.empty((mode.T, mode.n_d, 3 + design.p))
    rhs[..., 0] = (d @ q) / params.tau2
    rhs[..., 1] = (d @ car.graph.dense_adjacency) / params.tau2
    rhs[..., 2] = -panel.counts * ey * z_prev / (ey + params.eta * z_prev) ** 2
    rhs[..., 3:] = q @ design.values
    for t in range(mode.T):
        rhs[t] = _potrs(mode.chol_blocks[t], rhs[t])
    return rhs


def la1_from_mode(mode, params, car, log_prior=0.0):
    """Assemble the first-order Laplace log-posterior from a converged mode."""
    ld_q = logdet_precision(car, params.zeta, params.tau2, mode.T) if mode.T else 0.0
    return 0.5 * ld_q - mode.g_at_mode - 0.5 * mode.logdet_hessian + log_prior


def la1_log_posterior(panel, params, design, car, priors=None):
    """First-order Laplace approximation of the log-posterior at theta.

    ``priors=None`` drops the prior terms, giving the marginal-likelihood view.
    """
    mode = mode_at(panel, params, design, car)
    lp = priors.log_prior(params, car) if priors is not None else 0.0
    return la1_from_mode(mode, params, car, lp)
