"""Hot cell-wise kernels shared by the likelihood, mode finder and sampler.

Plain vectorized numpy functions. Conventions: ``y``/``mu`` is the latent
field, ``z`` the observed counts and ``c = eta * z_prev`` the self-excitation
offset, all float64 arrays of one shape: one time block ``(n_d,)``, a stack of
blocks ``(B, n_d)``, or the whole panel raveled. The per-cell intensity is
``lam = exp(y) + c`` and ``u = exp(y)/lam``.
"""

import math

import numpy as np
import scipy.linalg as sla

BACKEND_NAME = "numpy"


def _u(ey, c):
    with np.errstate(invalid="ignore"):
        u = ey / (ey + c)
    return np.where(c == 0.0, 1.0, u)


def data_nll(y, z, c):
    """Sum over the last axis of the per-cell negative Poisson log-kernels
    c + e^y - z*log(e^y + c): a float for one block, one value per block for
    a stack."""
    ey = np.exp(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        loglam = np.log(ey + c)
        terms = c + ey - np.where(z > 0.0, z * loglam, 0.0)
    total = np.sum(terms, axis=-1)
    return float(total) if total.ndim == 0 else total


def data_nll_grad(y, z, c):
    """Elementwise d/dy of the negative Poisson log-kernel: e^y - z*u."""
    ey = np.exp(y)
    return ey - z * _u(ey, c)


def fk_values(mu, z, c):
    """First/second-order expansion coefficients (f, k) of the data term at mu."""
    ey = np.exp(mu)
    u = _u(ey, c)
    k = ey - z * (u - u * u)
    f = z * u - ey + mu * k
    return f, k


def g_derivs(mu, z, c):
    """Pure 3rd/4th/6th per-cell derivatives of the negative log-density at mu."""
    ey = np.exp(mu)
    u = _u(ey, c)
    g3 = ey - z * (u * (1.0 + u * (-3.0 + 2.0 * u)))
    g4 = ey - z * (u * (1.0 + u * (-7.0 + u * (12.0 - 6.0 * u))))
    g6 = ey - z * (u * (1.0 + u * (-31.0 + u * (180.0 + u * (-390.0 + u * (360.0 - 120.0 * u))))))
    return g3, g4, g6


def pair_term(g3, ginv):
    """Third-derivative pair correction, summed over a stack of time blocks.

    For each block, the full double sum over ordered pairs (i, j):
        sum_ij g3_i g3_j (6 G_ij^3 + 9 G_ii G_jj G_ij) / 72
    with G the inverse Hessian of the block. ``g3`` is ``(n,)`` or
    ``(B, n)`` and ``ginv`` is ``(n, n)`` or ``(B, n, n)``. The second part is
    w'Gw with w = g3 * diag(G), so only the cube needs a stack temporary.
    """
    w = g3 * np.diagonal(ginv, axis1=-2, axis2=-1)
    cube = ginv * ginv
    cube *= ginv
    six = np.sum(g3 * np.matmul(cube, g3[..., None])[..., 0])
    nine = np.sum(w * np.matmul(ginv, w[..., None])[..., 0])
    return float(6.0 * six + 9.0 * nine) / 72.0


def mala_sweep(Y, EY, alpha, q, chols, z, c, eps, normals, unifs):
    """One preconditioned MALA pass over all time blocks, in place.

    Uses the fixed per-block Cholesky factors ``chols`` as preconditioner and
    consumes pre-drawn standard normals (T, n_d) and uniforms (T,). Updates
    Y and EY = exp(Y) for accepted blocks; returns the number of accepted
    blocks.
    """
    T = Y.shape[0]
    accepted = 0
    half = 0.5 * eps * eps
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T):
            y = Y[t]
            ey = EY[t]
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
                EY[t] = eyp
                accepted += 1
    return accepted
