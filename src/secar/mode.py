"""Gaussian approximation to pi(Y | Z, theta): the latent mode via a damped
Newton iteration, its tangent in theta, and the first-order Laplace
log-posterior.

The joint density factors over time blocks. Every block keeps its own Newton
decisions (ridge, step scaling, line search, convergence), but one loop drives
the whole ``(K T, n_d)`` stack of the blocks of K thetas with per-block masks.
In the graph's band order the blocks still iterating form one band matrix
(:mod:`secar.kernels` makes every LAPACK call): each Newton iteration is one
``dpbtrf`` and one ``dpbtrs`` for all of them, and one more ``dpbtrf`` after
the loop gives the factor stack that each theta's :class:`ModeResult` keeps.
la1 reads its log-determinant off the diagonal, :func:`mode_tangent` solves
with it and the MALA sampler whitens with it; only the corrections, pD and the
latent marginals invert it densely.

Every Laplace quantity at theta (la1, xla, pD, the latent marginals) reads
its mode from :func:`modes_at`, which solves a batch of thetas stack by stack,
or from its one-theta form :func:`mode_at`, which returns a converged mode or
raises :class:`ModeError`. Each mode starts cold or from an anchor's
prediction ``mu_c + J_c (theta - theta_c)``, with theta in the natural order
of :meth:`ModelParams.vector`, so a mode depends on theta and the anchor only,
never on the stack it was solved in. The MALA sampler is the one direct
caller of :func:`find_mode`: its
preconditioner needs a positive definite factor stack even from a mode that
did not converge, which the Newton steps' ridge rule provides.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .graph import car_precision_block, logdet_precision
from .model import ModelParams, linear_predictor

DEFAULT_TOL = 1e-8
MAX_ITER = 200  # enough capped steps to cross the whole log range of doubles
_MIN_STEP = 1e-10
# largest move of any cell in one Newton update (log-intensity scale); a longer
# step is scaled down as a whole, so it keeps its direction
_STEP_CAP = 4.0
# most blocks one stacked find_mode call of modes_at holds: a taller stack
# shares more per-call overhead but holds more transient memory
_STACK_BLOCKS = 160


class ModeError(RuntimeError):
    """Raised when the latent mode iteration cannot make progress."""


@dataclass
class ModeResult:
    """Gaussian approximation for all time blocks. ``band_factor`` holds the
    lower Cholesky factors of the block Hessians H_t = Q + diag(k_t) at the
    mode as a band stack (:mod:`secar.kernels`) in the band order
    p = ``band_order``: L_t L_t' = H_t[p][:, p]. A block with no factor
    (non-finite k_t) holds the identity, and ``logdet_hessian`` is nan."""

    mu_star: np.ndarray
    band_factor: np.ndarray
    band_order: np.ndarray
    logdet_hessian: float
    g_at_mode: float
    converged: bool
    alpha: np.ndarray
    block_iterations: np.ndarray = None
    failed_blocks: tuple = ()

    @property
    def T(self):
        return self.mu_star.shape[0]


def inverse_diagonal(mode):
    """The diagonals of the inverse block Hessians, ``(T, n_d)`` in the
    natural order: the column sums of squares of L^-1."""
    w = kernels.inverse_factors(mode.band_factor)
    return np.einsum("tij,tij->tj", w, w)[:, np.argsort(mode.band_order)]


def _ridged_factor(band, q_band, hdiag, ridge_base):
    """Factor the block q + diag(hdiag), not positive definite, into ``band``
    with a Levenberg ridge: ``ridge_base``, then ten times the last, until it
    is (Nocedal & Wright 2006, Algorithm 3.3). ``hdiag`` must be finite."""
    ridge = ridge_base
    while True:
        hdiag = hdiag + ridge
        band[:] = q_band
        band[:, 0] = hdiag
        if not kernels.band_factor(band):
            return
        ridge *= 10.0


def _factor_stack(band, q_band, owner, hdiag, ridge_base):
    """Factor Q + diag(hdiag) of every block (``hdiag`` in band order) into the
    band stack, block b taking the band precision ``q_band[owner[b]]`` and the
    ridge ``ridge_base[owner[b]]`` of its theta: one ``dpbtrf``, resumed after
    each block that is not positive definite and takes :func:`_ridged_factor`
    instead. A block with a non-finite diagonal has no factor: it gets the
    identity, which neither stops the call nor spills into its neighbours.
    Returns the ridged mask."""
    np.take(q_band, owner, axis=0, out=band, mode="clip")  # "raise" would buffer ``out``
    band[..., 0] = hdiag
    band[~np.all(np.isfinite(hdiag), axis=1)] = np.eye(1, band.shape[-1])
    ridged = np.zeros(len(band), dtype=bool)
    start = 0
    while start < len(band):
        info = kernels.band_factor(band[start:])
        if not info:
            break
        t = start + (info - 1) // band.shape[1]
        ridged[t] = True
        _ridged_factor(band[t], q_band[owner[t]], hdiag[t], ridge_base[owner[t]])
        start = t + 1
    return ridged


class ModeStack(list):
    """The K modes of one stacked :func:`find_mode` call, in order; ``T``,
    ``converged``, ``block_iterations`` and ``failed_blocks`` describe the
    whole ``(K T)``-block stack."""

    T = property(lambda self: sum(m.T for m in self))
    converged = property(lambda self: all(m.converged for m in self))
    block_iterations = property(lambda self: np.concatenate([m.block_iterations for m in self]))
    failed_blocks = property(lambda self: tuple(k * m.T + t for k, m in enumerate(self)
                                                for t in m.failed_blocks))


def default_start(panel, alpha):
    """log(Z + 0.5) softened halfway toward the linear predictor."""
    return 0.5 * (np.log(panel.counts + 0.5) + alpha)


def find_mode(panel, params, alpha, car, start=None, max_iter=MAX_ITER):
    """Maximize the Gaussian approximation over all time blocks at once.

    ``params`` is one :class:`ModelParams`, with ``alpha`` and ``start`` of
    shape ``(T, n_d)``, or a sequence of K, with ``(K, T, n_d)`` stacks: the K
    thetas then share one ``(K T, n_d)`` block stack and the call returns a
    :class:`ModeStack` of their modes, each the one a call of its own gives.

    Unridged, a block's update solves (Q + diag k(mu)) mu_new = f(mu) + Q alpha;
    where its Hessian is indefinite a Levenberg ridge is added and the step is
    taken against the gradient form. A step that moves some cell by more than
    ``_STEP_CAP`` is scaled down as a whole until its largest cell moves by
    exactly the cap: a positive multiple of the (ridged) Newton step is still
    a descent direction, which a step clipped cell by cell need not be. The
    step is then halved until g does not increase. A block converges when its
    unridged Newton step, before scaling and step-halving, is below
    ``DEFAULT_TOL`` in every cell; a block whose step-halving underflows or
    that reaches ``max_iter`` is reported in ``failed_blocks``. The ridge
    needs no limit: every accepted iterate has a finite g, hence a finite
    Hessian diagonal, which a large enough ridge makes dominant. Only the
    start can have a non-finite diagonal (g infinite even at alpha); such a
    block fails at its first iteration without a factorization, and its
    factor is the identity. ``start`` defaults to :func:`default_start`.

    Returns a :class:`ModeResult` whose band factors are recomputed at the
    final iterate of every block, so the log-determinant and the inverse
    blocks refer exactly to the converged Hessian; a block that is not
    positive definite there takes the same ridge and fails.
    """
    single = isinstance(params, ModelParams)
    thetas = [params] if single else list(params)
    for theta in thetas:
        theta.validate(car)
    K, T, n = len(thetas), panel.T, panel.n_d
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != ((T, n) if single else (K, T, n)):
        raise ValueError(f"alpha shape {alpha.shape} does not match panel ({T}, {n})")
    alpha = alpha.reshape(K, T, n)
    # the block density of every theta reads its own precision and offset
    q = np.stack([car_precision_block(car, p.zeta, p.tau2) for p in thetas])
    z = panel.counts.astype(np.float64)
    c = np.array([p.eta for p in thetas])[:, None, None] * panel.prev_counts()
    if start is None:
        start = default_start(panel, alpha)
    mu = np.array(start, dtype=np.float64).reshape(K * T, n)

    def terms(y):  # g, its gradient and k of every block of the stack
        g, grad, k = kernels.block_terms(y.reshape(K, T, n), alpha, q, z, c)
        return g.reshape(K * T), grad.reshape(K * T, n), k.reshape(K * T, n)

    # g, its gradient and k at the current iterate of every block: an accepted
    # step takes them from the line-search pass that accepted it
    g, grad, k = terms(mu)
    bad = ~np.isfinite(g)
    if bad.any():
        mu[bad] = alpha.reshape(K * T, n)[bad]
        g, grad, k = terms(mu)

    perm, adj = car.graph.band_order, car.graph.band_adjacency
    q_band = np.stack([(np.eye(1, adj.shape[1]) - p.zeta * adj) * (1.0 / p.tau2)
                       for p in thetas])
    ridge_base = 1e-8 * (1.0 + np.max(q_band[..., 0], axis=1))
    owner = np.repeat(np.arange(K), T)  # the theta of every block
    # one band buffer per call: its first m blocks hold the m blocks still
    # iterating, and after the loop it becomes the modes' factor stack
    band = np.empty((K * T,) + q_band.shape[1:])
    block_iters = np.full(K * T, max_iter, dtype=np.int64)
    ok = np.zeros(K * T, dtype=bool)
    # a non-finite Hessian diagonal has no factor, with or without a ridge
    no_factor = ~np.all(np.isfinite(k), axis=1)
    block_iters[no_factor] = 1
    active = ~no_factor  # blocks still iterating
    for it in range(1, max_iter + 1):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        head = band[:idx.size]
        rows = idx[:, None]
        ridged = np.zeros(K * T, dtype=bool)
        ridged[idx] = _factor_stack(head, q_band, owner[idx],
                                    k[rows, perm] + q_band[owner[idx], :, 0], ridge_base)
        step = np.zeros((K * T, n))  # finished blocks do not move
        step[rows, perm] = kernels.band_solve(head, -grad[rows, perm])
        size = np.max(np.abs(step), axis=1)
        step *= (_STEP_CAP / np.maximum(size, _STEP_CAP))[:, None]

        # step-halving with one scale per block until each block's g does not
        # increase; every pass evaluates the whole stack
        cand = mu.copy()
        stalled = np.zeros(K * T, dtype=bool)
        scale = np.ones(K * T)
        pend = active.copy()
        g_tol = g + 1e-12 * (1.0 + np.abs(g))
        while pend.any():
            x = mu + scale[:, None] * step
            gx, grad_x, k_x = terms(x)
            good = pend & np.isfinite(gx) & (gx <= g_tol)
            cand[good] = x[good]
            g[good] = gx[good]
            grad[good] = grad_x[good]
            k[good] = k_x[good]
            pend &= ~good
            scale[pend] *= 0.5
            under = pend & (scale < _MIN_STEP)
            stalled |= under
            pend &= ~under

        mu = cand
        # converged only if the Newton step itself, before scaling and
        # step-halving, is below the tolerance and came from the true
        # (unridged) Hessian
        conv = active & (size < DEFAULT_TOL) & ~ridged & ~stalled
        done = active & (conv | stalled)
        ok |= conv
        block_iters[done] = it
        active &= ~done

    ok &= ~_factor_stack(band, q_band, owner, k[:, perm] + q_band[owner, :, 0], ridge_base)
    modes = ModeStack()
    for j, s in enumerate(slice(j * T, (j + 1) * T) for j in range(K)):
        logdet = np.nan if no_factor[s].any() else 2.0 * float(np.sum(np.log(band[s, :, 0])))
        modes.append(ModeResult(
            mu_star=mu[s], band_factor=band[s], band_order=perm, logdet_hessian=logdet,
            g_at_mode=float(np.sum(g[s])), converged=bool(ok[s].all()),
            alpha=alpha[j], block_iterations=block_iters[s],
            failed_blocks=tuple(int(t) for t in np.flatnonzero(~ok[s]))))
    return modes[0] if single else modes


def modes_at(panel, thetas, design, car, anchor=None):
    """The latent modes at each of ``thetas``, in order: started cold without
    ``anchor``, else from its prediction ``mu_c + J_c (theta - theta_c)``
    (:func:`anchor_at`). A generator: every ``_STACK_BLOCKS // T`` thetas (one
    at least) share one stacked :func:`find_mode` call, solved when the caller
    reaches them, so a batch holds one stack at a time. The warm starts that
    fail are retried cold, together; a mode that fails again comes back with
    ``converged`` False."""
    per = max(1, _STACK_BLOCKS // max(panel.T, 1))
    for lo in range(0, len(thetas), per):
        stack = thetas[lo:lo + per]
        alpha = np.stack([linear_predictor(design, p.beta) for p in stack])
        start = None
        if anchor is not None:
            theta_c, mu_c, jac = anchor
            start = np.stack([mu_c + jac @ (p.vector() - theta_c) for p in stack])
        modes = find_mode(panel, stack, alpha, car, start=start)
        retry = [j for j, m in enumerate(modes) if not m.converged and start is not None]
        if retry:
            modes_cold = find_mode(panel, [stack[j] for j in retry], alpha[retry], car)
            for j, mode in zip(retry, modes_cold):
                modes[j] = mode
        yield from modes


def converged_mode(mode):
    """``mode`` if it converged, else raises :class:`ModeError` naming the
    blocks that did not."""
    if not mode.converged:
        failed = list(mode.failed_blocks)
        raise ModeError(f"latent mode iteration did not converge in {len(failed)} of "
                        f"{mode.T} time blocks, first {failed[:5]}")
    return mode


def mode_at(panel, params, design, car, anchor=None):
    """The converged latent mode at theta (:func:`modes_at`, :func:`converged_mode`)."""
    mode, = modes_at(panel, [params], design, car, anchor)
    return converged_mode(mode)


def mode_tangent(mode, panel, params, design, car):
    """d mu*/d theta at a converged mode, as a ``(T, n_d, 3+p)`` stack in the
    natural order (tau2, zeta, eta, beta...).

    By the implicit function theorem the mode's stationarity condition
    grad g = 0 gives H dmu/dtheta = -d(grad g)/dtheta, with the partials
    -Q(mu-alpha)/tau2 (tau2), -N(mu-alpha)/tau2 (zeta, N the adjacency),
    z e^mu z_prev/(e^mu+c)^2 (eta) and -Q X_k (beta_k): one stacked solve on
    the mode's band factors, with 3+p right-hand sides, serves every block.
    """
    d = mode.mu_star - mode.alpha
    q = car_precision_block(car, params.zeta, params.tau2)
    ey = np.exp(mode.mu_star)
    z_prev = panel.prev_counts()
    rhs = np.empty(mode.mu_star.shape + (3 + design.p,))
    rhs[..., 0] = (d @ q) / params.tau2
    rhs[..., 1] = (d @ car.graph.dense_adjacency) / params.tau2
    with np.errstate(invalid="ignore"):  # 0/0 where e^mu underflows and c = 0
        eta_rhs = -panel.counts * ey * z_prev / (ey + params.eta * z_prev) ** 2
    rhs[..., 2] = np.where(panel.counts * z_prev == 0, 0.0, eta_rhs)
    rhs[..., 3:] = q @ design.values
    perm = mode.band_order
    rhs[:, perm] = kernels.band_solve(mode.band_factor, rhs[:, perm])
    return rhs


def anchor_at(panel, design, car, params, mode=None):
    """The anchor ``(theta_c, mu_c, J_c)`` at ``params``: theta in the natural
    order, the latent mode ``mode`` there (solved cold when None) and its
    tangent d mu*/d theta, without the mode's factors."""
    if mode is None:
        mode = mode_at(panel, params, design, car)
    return params.vector(), mode.mu_star, mode_tangent(mode, panel, params, design, car)


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
