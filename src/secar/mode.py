"""Gaussian approximation to pi(Y | Z, theta): the latent mode via a damped
Newton iteration, its tangent in theta, and the first-order Laplace
log-posterior.

The joint density factors over time blocks. Every block keeps its own Newton
decisions (ridge, step clip, line search, convergence), but one loop drives
the whole ``(T, n_d)`` stack with per-block masks: the kernels, gradients,
block values and step-halving run on the stack, and only the dense
n_d x n_d LAPACK calls go block by block, for the blocks still iterating.
Each iteration writes the Hessian of each of those blocks into its slot
of one ``(T, n_d, n_d)`` stack and makes one ``dposv`` call on it, which
factors the Hessian and solves for the Newton step together. After the loop
every block's Hessian at its final iterate is factored in place by
``dpotrf``; that factor stack is retained for the Hessian log-determinant
and for the downstream layers. LAPACK is called from this module only:
``dposv``, ``dpotrf`` and ``dpotrs`` here, and ``dtrtri`` for the one
inverse the other layers read, L^-1 of every factor. From it the extended
Laplace corrections take H^-1 = L^-T L^-1, pD and the latent marginals its
diagonal (the column sums of squares of L^-1), and the MALA sampler whitens
with L^-1 itself.

Every Laplace quantity at theta (la1, xla, pD, the latent marginals) reads
its mode from :func:`mode_at`, which returns a converged mode or raises
:class:`ModeError`. It starts cold or from an anchor's prediction
``mu_c + J_c (x - x_c)``, so a mode depends on theta and the anchor only. The
MALA sampler is the one direct caller of :func:`find_mode`: its
preconditioner needs a positive definite factor stack even from a mode that
did not converge, which the Newton steps' ridge rule provides.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from . import kernels
from .graph import car_precision_block, logdet_precision
from .model import ModelParams, linear_predictor

DEFAULT_TOL = 1e-8
MAX_ITER = 200  # enough clamped steps to cross the whole log range of doubles
_MIN_STEP = 1e-10
_STEP_CAP = 4.0  # per-cell clamp on one Newton update (log-intensity scale)


class ModeError(RuntimeError):
    """Raised when the latent mode iteration cannot make progress."""


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


def _posv(a, b):
    """Overwrite the symmetric matrix ``a`` with its lower Cholesky factor and
    solve a x = b, overwriting ``b``; returns (x, info), info non-zero when
    ``a`` is not positive definite."""
    _, x, info = lapack.dposv(a.T, b, lower=0, overwrite_a=1, overwrite_b=1)
    return x, info


def triangular_inverse(chols):
    """Overwrite every lower factor L of the stack with L^-1 (``dtrtri``)."""
    for b in chols:
        lapack.dtrtri(b.T, lower=0, overwrite_c=1)
    return chols


def inverse_diagonal(chols):
    """The diagonals of the inverse Hessians (L L')^-1, ``(T, n_d)``: the
    column sums of squares of L^-1. Overwrites the stack with L^-1."""
    w = triangular_inverse(chols)
    return np.einsum("tij,tij->tj", w, w)


def _ridged_factor(chols, diag, t, q, hdiag, ridge_base):
    """Factor q + diag(hdiag), which is not positive definite, into block ``t``
    of ``chols`` (diagonals ``diag``) with a Levenberg ridge: add
    ``ridge_base``, then ten times the last ridge, until it is (Nocedal &
    Wright 2006, Algorithm 3.3). ``hdiag`` must be finite."""
    ridge = ridge_base
    while True:
        hdiag = hdiag + ridge
        chols[t] = q
        diag[t] = hdiag
        if not _potrf(chols[t]):
            return
        ridge *= 10.0


def default_start(panel, alpha):
    """log(Z + 0.5) softened halfway toward the linear predictor."""
    return 0.5 * (np.log(panel.counts + 0.5) + alpha)


def find_mode(panel, params, alpha, car, start=None, max_iter=MAX_ITER):
    """Maximize the Gaussian approximation over all time blocks at once.

    Unridged, a block's update solves (Q + diag k(mu)) mu_new = f(mu) + Q alpha;
    where its Hessian is indefinite a Levenberg ridge is added and the step is
    taken against the gradient form. The step is clamped per cell so one
    extreme cell cannot stall the block, then halved until g does not
    increase. A block converges when its unridged Newton step, before
    step-halving, is below ``DEFAULT_TOL`` in every cell; a block whose
    step-halving underflows or that reaches ``max_iter`` is reported in
    ``failed_blocks``. The ridge needs no limit: every accepted iterate has a
    finite g, hence a finite Hessian diagonal, which a large enough ridge
    makes dominant. Only the start can have a non-finite diagonal (g infinite
    even at alpha); such a block fails at its first iteration without a
    factorization, and its factor is nan. ``start`` defaults to
    :func:`default_start`.

    Returns a :class:`ModeResult` whose Cholesky factors are recomputed at the
    final iterate of every block, so the log-determinant and the inverse
    blocks refer exactly to the converged Hessian; a block that is not
    positive definite there takes the same ridge and fails.
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

    # g, d @ q and e^y at the current iterate of every block: an accepted step
    # takes them from the line-search pass that accepted it, and the gradient
    # and k follow from them without another d @ q
    g, dq, ey = kernels.block_value(mu, alpha, q, z, c)
    bad = ~np.isfinite(g)
    if bad.any():
        mu[bad] = alpha[bad]
        g[bad] = kernels.block_g(mu[bad], alpha[bad], q, z[bad], c[bad])
        _, dq, ey = kernels.block_value(mu, alpha, q, z, c)
    grad, k = kernels.block_slopes(mu, dq, ey, z, c)

    chols = np.empty((T, n, n))
    diag = chols.reshape(T, n * n)[:, ::n + 1]  # view: the diagonal of every block
    ridge_base = 1e-8 * (1.0 + float(np.max(q_diag)))
    block_iters = np.full(T, max_iter, dtype=np.int64)
    ok = np.zeros(T, dtype=bool)
    # a non-finite Hessian diagonal has no factor, with or without a ridge
    no_factor = ~np.all(np.isfinite(k), axis=1)
    block_iters[no_factor] = 1
    active = ~no_factor  # blocks still iterating
    for it in range(1, max_iter + 1):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        hdiag = q_diag + k
        rhs = -grad  # dposv may overwrite its row with the step
        step = np.zeros_like(mu)
        ridged = np.zeros(T, dtype=bool)
        for t in idx:
            # written just before its factorization, while the block is in cache
            chols[t] = q
            diag[t] = hdiag[t]
            step[t], info = _posv(chols[t], rhs[t])
            if info:
                ridged[t] = True
                _ridged_factor(chols, diag, t, q, hdiag[t], ridge_base)
                step[t] = _potrs(chols[t], -grad[t])
        np.clip(step, -_STEP_CAP, _STEP_CAP, out=step)

        # step-halving with one scale per block until each block's g does not
        # increase
        cand = mu.copy()
        stalled = np.zeros(T, dtype=bool)
        scale = np.ones(T)
        pend = active.copy()
        g_tol = g + 1e-12 * (1.0 + np.abs(g))
        while pend.any():
            x = mu + scale[:, None] * step
            gx, dq_x, ey_x = kernels.block_value(x, alpha, q, z, c)
            good = pend & np.isfinite(gx) & (gx <= g_tol)
            cand[good] = x[good]
            g[good] = gx[good]
            dq[good] = dq_x[good]
            ey[good] = ey_x[good]
            pend &= ~good
            scale[pend] *= 0.5
            under = pend & (scale < _MIN_STEP)
            stalled |= under
            pend &= ~under

        mu = cand
        grad, k = kernels.block_slopes(mu, dq, ey, z, c)
        # converged only if the Newton step itself, before step-halving, is
        # below the tolerance and came from the true (unridged) Hessian
        conv = active & (np.max(np.abs(step), axis=1) < DEFAULT_TOL) & ~ridged & ~stalled
        done = active & (conv | stalled)
        ok |= conv
        block_iters[done] = it
        active &= ~done

    hdiag = q_diag + k
    chols[no_factor] = np.nan
    for t in np.flatnonzero(~no_factor):
        chols[t] = q
        diag[t] = hdiag[t]
        if _potrf(chols[t]):
            _ridged_factor(chols, diag, t, q, hdiag[t], ridge_base)
            ok[t] = False

    return ModeResult(mu_star=mu, chol_blocks=chols,
                      logdet_hessian=2.0 * float(np.sum(np.log(diag))),
                      g_at_mode=float(np.sum(g)), converged=bool(ok.all()),
                      grad_max=float(np.max(np.abs(grad))) if grad.size else 0.0,
                      alpha=alpha, block_iterations=block_iters,
                      failed_blocks=tuple(int(t) for t in np.flatnonzero(~ok)))


def mode_at(panel, params, design, car, anchor=None, x=None):
    """The converged latent mode at theta: started cold without ``anchor``,
    else from its prediction ``mu_c + J_c (x - x_c)`` at ``x``, the point of
    theta in the anchor's coordinates (:func:`anchor_at`).

    A warm start that fails is retried once cold; a mode that still fails
    raises :class:`ModeError` naming the blocks that did not converge.
    """
    alpha = linear_predictor(design, params.beta)
    start = None
    if anchor is not None:
        x_c, mu_c, jac = anchor
        start = mu_c + jac @ (x - x_c)
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
    with np.errstate(invalid="ignore"):  # 0/0 where e^mu underflows and c = 0
        eta_rhs = -panel.counts * ey * z_prev / (ey + params.eta * z_prev) ** 2
    rhs[..., 2] = np.where(panel.counts * z_prev == 0, 0.0, eta_rhs)
    rhs[..., 3:] = q @ design.values
    for t in range(mode.T):
        rhs[t] = _potrs(mode.chol_blocks[t], rhs[t])
    return rhs


def anchor_at(panel, design, car, x, transform=None, mode=None):
    """The anchor ``(x_c, mu_c, J_c)`` at ``x``, natural theta or the point
    that ``transform`` maps to it: the latent mode ``mode`` there (solved cold
    when None) and its tangent d mu*/dx, without the mode's factors."""
    params = ModelParams.from_vector(x) if transform is None else transform.to_params(x)
    if mode is None:
        mode = mode_at(panel, params, design, car)
    jac = mode_tangent(mode, panel, params, design, car)
    if transform is not None:
        jac *= transform.natural_jacobian(x)
    return np.array(x, dtype=np.float64), mode.mu_star, jac


def la1_from_mode(mode, params, car, log_prior=0.0):
    """Assemble the first-order Laplace log-posterior from a converged mode."""
    ld_q = logdet_precision(car, params.zeta, params.tau2, mode.T)
    return 0.5 * ld_q - mode.g_at_mode - 0.5 * mode.logdet_hessian + log_prior


def la1_log_posterior(panel, params, design, car, priors=None):
    """First-order Laplace approximation of the log-posterior at theta.

    ``priors=None`` drops the prior terms, giving the marginal-likelihood view.
    """
    mode = mode_at(panel, params, design, car)
    lp = priors.log_prior(params, car) if priors is not None else 0.0
    return la1_from_mode(mode, params, car, lp)
