"""Numeric kernels shared by the likelihood, mode finder, corrections and
sampler: the one place the model's density is written down.

Plain vectorized numpy functions of two kinds. The cell-wise kernels
(``data_nll``, ``data_nll_grad``, ``fk_values``, ``g_derivs``) act on arrays of
any shape: one time block ``(n_d,)``, a stack of blocks ``(B, n_d)`` or the
whole ``(T, n_d)`` panel. The block-wise kernels (``block_g``, ``block_grad``,
``block_value``, ``pair_term``, ``mala_sweep``) also take the dense block
precision ``q`` or a ``(B, n_d, n_d)`` stack of matrices and reduce or sweep
per block. The mode finder reads g from ``block_value`` on every line-search
pass and completes the gradient and the Hessian diagonal's data part k of
the accepted iterate with ``block_slopes``, from the same ``d @ q`` and e^y.
Conventions: ``y``/``mu`` is the latent field, ``alpha`` the linear predictor,
``z`` the observed counts and ``c = eta * z_prev`` the self-excitation
offset. The per-cell intensity is ``lam = exp(y) + c`` and ``u = exp(y)/lam``;
the per-block negative log-density is
g(y) = 0.5 (y - alpha)' Q (y - alpha) + sum(lam - z log lam).
"""

import numpy as np

BACKEND_NAME = "numpy"


def _u(ey, c):
    with np.errstate(invalid="ignore"):
        u = ey / (ey + c)
    return np.where(c == 0.0, 1.0, u)


def _nll(ey, z, c):
    with np.errstate(divide="ignore", invalid="ignore"):
        loglam = np.log(ey + c)
        terms = c + ey - np.where(z > 0.0, z * loglam, 0.0)
    return np.sum(terms, axis=-1)


def _curvature(ey, u, z):
    return ey - z * (u - u * u)


def data_nll(y, z, c):
    """Sum over the last axis of the per-cell negative Poisson log-kernels
    c + e^y - z*log(e^y + c): a float for one block, one value per block for
    a stack."""
    total = _nll(np.exp(y), z, c)
    return float(total) if total.ndim == 0 else total


def data_nll_grad(y, z, c):
    """Elementwise d/dy of the negative Poisson log-kernel: e^y - z*u."""
    ey = np.exp(y)
    return ey - z * _u(ey, c)


def fk_values(mu, z, c):
    """First/second-order expansion coefficients (f, k) of the data term at mu,
    the fixed-point form (Q + diag k) mu_new = f + Q alpha of a Newton step.
    The mode finder takes the same k from :func:`block_slopes`."""
    ey = np.exp(mu)
    u = _u(ey, c)
    k = _curvature(ey, u, z)
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


def block_g(y, alpha, q, z, c):
    """Block negative log-density g = 0.5 d'Qd + data term with d = y - alpha:
    one value per block for a ``(B, n_d)`` stack, a float for one block.
    ``q`` is the dense n_d x n_d block precision."""
    return block_value(y, alpha, q, z, c)[0]


def block_grad(y, alpha, q, z, c):
    """Gradient of :func:`block_g` in ``y``, the shape of ``y``."""
    return (y - alpha) @ q + data_nll_grad(y, z, c)


def block_value(y, alpha, q, z, c):
    """:func:`block_g` at ``y`` with the by-products ``(d @ q, e^y)`` from
    which :func:`block_slopes` completes the gradient and k there: returns
    (g, d @ q, e^y)."""
    d = y - alpha
    dq = d @ q
    ey = np.exp(y)
    return 0.5 * np.sum(d * dq, axis=-1) + _nll(ey, z, c), dq, ey


def block_slopes(y, dq, ey, z, c):
    """(grad g, k) at ``y`` from the ``d @ q`` and ``e^y`` that
    :func:`block_value` gave there: :func:`block_grad` and the k of
    :func:`fk_values`, bit for bit. The data gradient comes from
    :func:`data_nll_grad`."""
    return dq + data_nll_grad(y, z, c), _curvature(ey, _u(ey, c), z)


def _whiten(linv, v):
    """L^-1 v for every block of the stack ``v``."""
    return np.matmul(linv, v[..., None])[..., 0]


def mala_sweep(Y, alpha, q, linv, z, c, eps, normals, unifs):
    """One preconditioned MALA pass over the whole ``(T, n_d)`` stack, in place.

    ``linv`` holds the inverse lower Cholesky factors of the fixed per-block
    preconditioner H = L L'. With the whitened gradient a = L^-1 grad log p,
    the proposal is Y + eps L^-T (xi + eps a / 2) and the reverse move's
    residual is xi + eps (a + a') / 2, with a' taken at the proposal. Consumes
    the pre-drawn standard normals xi ``(T, n_d)`` and uniforms ``(T,)``;
    every block is accepted or rejected on its own, and a non-finite
    acceptance ratio rejects. Returns the number of accepted blocks.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a = -_whiten(linv, block_grad(Y, alpha, q, z, c))
        shift = normals + 0.5 * eps * a
        prop = Y + eps * np.matmul(shift[:, None, :], linv)[:, 0, :]  # L^-T per block
        a -= _whiten(linv, block_grad(prop, alpha, q, z, c))  # now a + a'
        resid = normals + 0.5 * eps * a
        log_a = (block_g(Y, alpha, q, z, c) - block_g(prop, alpha, q, z, c)) \
            - 0.5 * (np.sum(resid * resid, axis=-1) - np.sum(normals * normals, axis=-1))
        accept = np.isfinite(log_a) & (np.log(unifs) < log_a)
    # a masked copy, not Y[accept] = prop[accept]: temporaries sized by the
    # accept count fragment the heap and raised the sampler's peak RSS by 6 MB
    np.copyto(Y, prop, where=accept[:, None])
    return int(np.count_nonzero(accept))
