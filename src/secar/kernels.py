"""Numeric kernels shared by the likelihood, mode finder, corrections and
sampler: the one place the model's density is written down, and the one
module that calls ``scipy.linalg.lapack``.

Plain vectorized numpy functions of two kinds. The cell-wise kernels
(``data_nll``, ``data_nll_grad``, ``fk_values``, ``g_derivs``) act on arrays of
any shape, from one time block ``(n_d,)`` to the ``(K, T, n_d)`` blocks of K
thetas. The block-wise kernels (``block_terms``, the one spelling of the block
density, ``pair_term`` and ``mala_sweep``) also take dense block matrices, or
stacks of them, and reduce or sweep per block.
Conventions: ``y``/``mu`` is the latent field, ``alpha`` the linear predictor,
``z`` the observed counts and ``c = eta * z_prev`` the self-excitation
offset. The per-cell intensity is ``lam = exp(y) + c`` and ``u = exp(y)/lam``;
the per-block negative log-density is
g(y) = 0.5 (y - alpha)' Q (y - alpha) + sum(lam - z log lam).

A band stack holds B block Hessians of bandwidth kd in the graph's band
order, or their lower Cholesky factors, as a C-ordered ``(B, n_d, kd+1)``
array, ``[t, j, r] = A_t[j+r, j]``, zero past each block's end. Read as
``(B n_d, kd+1)`` it is LAPACK's lower band storage (transposed) of the
block-diagonal matrix, whose factor is banded alike (Rue & Held 2005, 2.4): one
call serves the stack. The zero coupling keeps the blocks apart only while
every entry is finite (nan * 0 is nan).
"""

import numpy as np
from scipy.linalg import lapack

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
    :func:`block_terms` returns the same k with the block density."""
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
    with G the inverse Hessian of the block. ``g3`` is ``(..., T, n)`` and
    ``ginv`` ``(..., T, n, n)``: one flat sum over the T n cells per leading
    index, or a float. The first part takes one pass with no cube temporary (a
    stack-sized one costs page faults), the second is w'Gw with w = g3 * diag(G).
    """
    w = g3 * np.diagonal(ginv, axis1=-2, axis2=-1)
    cube_g3 = np.einsum("...ij,...ij,...ij,...j->...i", ginv, ginv, ginv, g3)
    cells = g3.shape[:-2] + (-1,)
    six = np.sum((g3 * cube_g3).reshape(cells), axis=-1)
    nine = np.sum((w * np.matmul(ginv, w[..., None])[..., 0]).reshape(cells), axis=-1)
    return (6.0 * six + 9.0 * nine) / 72.0


def block_terms(y, alpha, q, z, c):
    """The block negative log-density g = 0.5 d'Qd + data term with
    d = y - alpha, its gradient in ``y`` and the data part k of its Hessian
    diagonal: returns (g, grad, k). One ``d @ q`` serves g and the gradient
    ``d @ q`` + :func:`data_nll_grad`, and one e^y and one u serve g, the
    gradient and k. g is one value per block for a ``(B, n_d)`` stack, a float
    for one block; grad and k have the shape of ``y``, k being that of
    :func:`fk_values`. ``q`` is the dense n_d x n_d block precision, or a
    ``(K, n_d, n_d)`` stack for ``(K, T, n_d)`` blocks: one batched matmul."""
    d = y - alpha
    dq = d @ q
    ey = np.exp(y)
    u = _u(ey, c)
    g = 0.5 * np.sum(d * dq, axis=-1) + _nll(ey, z, c)
    return g, dq + (ey - z * u), _curvature(ey, u, z)


def _lapack_band(band):
    return band.reshape(-1, band.shape[-1]).T  # a view


def band_factor(band):
    """Overwrite a band block or stack with its lower Cholesky factors, one
    ``dpbtrf``; returns its info: 0, or the 1-based column where a block failed."""
    return lapack.dpbtrf(_lapack_band(band), lower=1, overwrite_ab=1)[1]


def band_solve(factor, b):
    """Solve (L L') x = b for every block of the factor stack, one ``dpbtrs``;
    ``b`` is ``(B, n_d)`` or ``(B, n_d, k)`` in band order."""
    x = lapack.dpbtrs(_lapack_band(factor), b.reshape(len(b) * b.shape[1], -1), lower=1)
    return x[0].reshape(b.shape)


def band_triangular_solve(factor, b, trans):
    """L^-1 b (``trans`` "N") or L^-T b ("T") for the factor stack and a
    ``(B, n_d)`` stack ``b`` in band order, one ``dtbtrs``; a block of ``b`` with
    a non-finite entry is solved as zeros, lest it spill into its neighbours,
    and comes back nan."""
    finite = np.isfinite(b)
    if finite.all():  # the usual case, checked flat: a per-row check costs more
        x = lapack.dtbtrs(_lapack_band(factor), b.ravel(), uplo="L", trans=trans)[0]
        return x.reshape(b.shape)
    bad = ~finite.all(axis=1)
    x = band_triangular_solve(factor, np.where(bad[:, None], 0.0, b), trans)
    x[bad] = np.nan
    return x


def band_inverse(factor):
    """The inverse blocks S = (L L')^-1 of the band factor stack, a fresh
    ``(B, n_d, n_d)`` stack, by the Takahashi recursion (Takahashi, Fagan &
    Chen 1973; Rue & Held 2005, ch. 2) for i = n_d - 1 down to 0, r = 1..kd:
    S_ij = sum_r (-L_{i+r,i}/L_ii) S_{i+r,j} (j >= i) + [i = j]/L_ii^2. A row
    is one batched matmul for the stack, mirrored: each block is exactly symmetric."""
    B, n, width = factor.shape
    inv = np.empty((B, n, n))  # every entry is written before it is read
    dinv = 1.0 / factor[..., 0]
    dinv2, neg = dinv * dinv, -dinv[..., None, None]
    # row i from the m = min(kd, n - 1 - i) rows below; low = -L_{i+r,i}/L_ii, r = 1..m
    for i in range(n - 1, -1, -1):
        low, row = factor[:, i, None, 1:n - i] * neg[:, i], inv[:, i, None, i + 1:]
        np.matmul(low, inv[:, i + 1:i + width, i + 1:], out=row)
        inv[:, i + 1:, i] = row[:, 0]
        inv[:, i, i] = dinv2[:, i] + np.matmul(low, row[:, 0, :width - 1, None])[:, 0, 0]
    return inv


def mala_sweep(Y, alpha, q, factor, order, z, c, eps, normals, unifs):
    """One preconditioned MALA pass over the whole ``(T, n_d)`` stack, in place.

    The fixed per-block preconditioner is H^-1 = W'W, W = L^-1 P', from the
    band factors L L' = H[p][:, p] in the band order p = ``order``. With
    a = W grad log p, the proposal is Y + eps W'(xi + eps a / 2) and the
    reverse move's residual xi + eps (a + a') / 2, a' at the proposal: three
    stacked triangular solves. Consumes the pre-drawn standard normals xi
    ``(T, n_d)`` and uniforms ``(T,)``; every block is accepted or rejected on
    its own, and a non-finite acceptance ratio, as from a non-finite gradient,
    rejects. Returns the number of accepted blocks.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g, grad, _ = block_terms(Y, alpha, q, z, c)
        a = band_triangular_solve(factor, -grad[:, order], "N")
        step = band_triangular_solve(factor, normals + 0.5 * eps * a, "T")
        prop = Y + eps * step[:, np.argsort(order)]
        g_prop, grad, _ = block_terms(prop, alpha, q, z, c)
        a += band_triangular_solve(factor, -grad[:, order], "N")  # now a + a'
        resid = normals + 0.5 * eps * a
        log_a = g - g_prop - 0.5 * (np.sum(resid * resid, axis=-1)
                                    - np.sum(normals * normals, axis=-1))
        accept = np.isfinite(log_a) & (np.log(unifs) < log_a)
    # a masked copy, not Y[accept] = prop[accept]: temporaries sized by the
    # accept count fragment the heap and raised the sampler's peak RSS by 6 MB
    np.copyto(Y, prop, where=accept[:, None])
    return int(np.count_nonzero(accept))
