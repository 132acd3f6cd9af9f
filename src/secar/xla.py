"""Extended Laplace approximation: high-order derivative fields at the mode,
per-block inverse Hessians, and the corrected log-marginal.

Every quantity here is a plain array read off one converged mode: the
derivative fields g3, g4, g6 are ``(T, n_d)`` and the inverse Hessian blocks
a ``(T, n_d, n_d)`` stack L^-T L^-1, from the inverses of the mode's retained
Cholesky factors.
Corrections decompose over time blocks (cross-block inverse-Hessian entries
are exactly zero), so they are reductions over that stack. The
third-derivative pair term runs over all ordered pairs within each block.
"""

import numpy as np

from . import kernels
from .mode import la1_from_mode, mode_at, triangular_inverse


def g_derivatives(mode, panel, params):
    """The 3rd/4th/6th derivative fields of g at the mode, ``(g3, g4, g6)``,
    each of shape (T, n_d)."""
    c = params.eta * panel.prev_counts()
    return kernels.g_derivs(mode.mu_star, panel.counts, c)


def invert_hessian_blocks(mode):
    """The ``(T, n_d, n_d)`` stack of inverse block Hessians L^-T L^-1, from
    the mode's retained Cholesky factors L, exactly symmetric."""
    w = triangular_inverse(mode.chol_blocks.copy())
    # a block times its own transposed view is one BLAS syrk, mirrored: symmetric
    return np.matmul(np.swapaxes(w, 1, 2), w)


def correction_terms(derivs, inv, include_sixth=True):
    """Correction triple (c4, c3_pair, c6) added to the first-order value,
    from the derivative fields ``derivs = (g3, g4, g6)`` and the inverse
    block stack ``inv``.

    c4 = -sum (1/8)  g4 (g^ii)^2
    c6 = -sum (1/48) g6 (g^ii)^3           (0.0 when include_sixth is off)
    c3 = sum over blocks of the ordered-pair reduction
         sum_ij g3_i g3_j (6 (g^ij)^3 + 9 g^ii g^jj g^ij) / 72
    """
    g3, g4, g6 = derivs
    gii = np.diagonal(inv, axis1=1, axis2=2)
    c4 = -float(np.sum(g4 * gii ** 2)) / 8.0
    c6 = -float(np.sum(g6 * gii ** 3)) / 48.0 if include_sixth else 0.0
    c3 = kernels.pair_term(g3, inv)
    return c4, c3, c6


def xla_from_mode(mode, panel, params, car, log_prior=0.0, include_sixth=True):
    """Assemble the extended Laplace log-posterior from a converged mode."""
    la1 = la1_from_mode(mode, params, car, log_prior)
    derivs = g_derivatives(mode, panel, params)
    inv = invert_hessian_blocks(mode)
    c4, c3, c6 = correction_terms(derivs, inv, include_sixth)
    return la1 + c4 + c3 + c6


def xla_log_posterior(panel, params, design, car, priors=None, include_sixth=True):
    """Extended Laplace approximation of the log-posterior at theta.

    Equals :func:`secar.mode.la1_log_posterior` plus the fourth-order,
    pair and (optionally) sixth-order corrections. ``priors=None`` drops the
    prior terms.
    """
    mode = mode_at(panel, params, design, car)
    lp = priors.log_prior(params, car) if priors is not None else 0.0
    return xla_from_mode(mode, panel, params, car, lp, include_sixth)
