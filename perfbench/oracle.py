"""Dense reference values of the la1 and xla log-posteriors.

Written independently of ``secar.mode``, ``secar.xla`` and ``secar.kernels``:
the latent mode comes from a plain damped Newton iteration per time block,
log-determinants from dense Cholesky factors (not the cached spectrum), and
the derivatives of the Poisson log-kernel from the recursion
``p_{k+1}(u) = p_k'(u) * u * (1 - u)`` rather than hand-expanded polynomials.
The benchmark compares the program's answers against these values.
"""

import numpy as np
from numpy.polynomial import polynomial as P


def _kernel_polys(max_order):
    """Coefficients of p_k(u), the k-th y-derivative of log(e^y + c) in u."""
    polys = {1: np.array([0.0, 1.0])}
    growth = np.array([0.0, 1.0, -1.0])  # u (1 - u) = du/dy
    for k in range(1, max_order):
        polys[k + 1] = P.polymul(P.polyder(polys[k]), growth)
    return polys


_POLYS = _kernel_polys(6)


def _derivative(order, y, z, c):
    """order-th y-derivative of the data term e^y + c - z log(e^y + c)."""
    ey = np.exp(y)
    u = np.where(c == 0.0, 1.0, ey / (ey + c))
    return ey - z * P.polyval(u, _POLYS[order])


def _data_term(y, z, c):
    lam = np.exp(y) + c
    return float(np.sum(lam - np.where(z > 0.0, z * np.log(lam), 0.0)))


def _block_mode(q, alpha, z, c, tol=1e-12, max_iter=200):
    """Minimize 0.5 (y-alpha)' Q (y-alpha) + data term for one block."""
    def objective(y):
        d = y - alpha
        return 0.5 * float(d @ q @ d) + _data_term(y, z, c)

    y = np.log(z + 0.5)
    f = objective(y)
    for _ in range(max_iter):
        grad = q @ (y - alpha) + _derivative(1, y, z, c)
        hess = q + np.diag(_derivative(2, y, z, c))
        ridge = 0.0
        while True:
            try:
                chol = np.linalg.cholesky(hess + ridge * np.eye(len(y)))
                break
            except np.linalg.LinAlgError:
                ridge = max(1e-8, 10.0 * ridge)
        step = -np.linalg.solve(chol.T, np.linalg.solve(chol, grad))
        scale = 1.0
        while scale > 1e-12:
            cand = y + scale * step
            f_cand = objective(cand)
            if np.isfinite(f_cand) and f_cand <= f + 1e-13 * abs(f):
                break
            scale *= 0.5
        else:
            raise ArithmeticError("reference Newton iteration stalled")
        y, f = cand, f_cand
        if ridge == 0.0 and float(np.max(np.abs(scale * step))) < tol:
            return y, f
    raise ArithmeticError("reference Newton iteration did not converge")


def laplace_values(panel, params, design, car, priors):
    """Return (la1, xla) at theta with the prior terms of ``priors``."""
    T, n = panel.counts.shape
    q = (np.eye(n) - params.zeta * car.graph.adjacency.toarray()) / params.tau2
    alpha = design.values @ np.asarray(params.beta, dtype=np.float64)
    z_all = panel.counts.astype(np.float64)
    prev = np.vstack([panel.initial_counts[None, :], panel.counts[:-1]]).astype(np.float64)
    logdet_q = 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(q)))))

    la1 = 0.5 * T * logdet_q + priors.log_prior(params, car)
    corr = 0.0
    for t in range(T):
        z, c = z_all[t], params.eta * prev[t]
        y, g = _block_mode(q, alpha[t], z, c)
        hess = q + np.diag(_derivative(2, y, z, c))
        chol = np.linalg.cholesky(hess)
        la1 -= g + float(np.sum(np.log(np.diag(chol))))
        ginv = np.linalg.inv(hess)
        gii = np.diag(ginv)
        g3, g4, g6 = (_derivative(k, y, z, c) for k in (3, 4, 6))
        pair = 6.0 * ginv ** 3 + 9.0 * np.outer(gii, gii) * ginv
        corr += (-float(g4 @ gii ** 2) / 8.0 - float(g6 @ gii ** 3) / 48.0
                 + float(g3 @ pair @ g3) / 72.0)
    return la1, la1 + corr
