"""Extended Laplace approximation: high-order derivative fields at the mode,
per-block inverse Hessians, and the corrected log-marginal.

Every quantity here is a plain array read off converged modes: the
derivative fields g3, g4, g6 are ``(T, n_d)`` and the inverse Hessian blocks
a ``(T, n_d, n_d)`` stack from the mode's band factors. Corrections decompose
over time blocks (cross-block inverse-Hessian entries are exactly zero), so
they are reductions over that stack, one pass for a whole stack of modes. No
correction depends on the order of the cells, so the derivative fields are
permuted into band order, not the inverse blocks out of it.
"""

import numpy as np

from . import kernels
from .mode import la1_from_mode, mode_at


def g_derivatives(mode, panel, params):
    """The 3rd/4th/6th derivative fields of g at the mode, ``(g3, g4, g6)``,
    each of shape (T, n_d)."""
    c = params.eta * panel.prev_counts()
    return kernels.g_derivs(mode.mu_star, panel.counts, c)


def invert_hessian_blocks(mode):
    """The ``(T, n_d, n_d)`` inverse block Hessians (:func:`kernels.band_inverse`)
    in the band order p = ``mode.band_order``: block t is H_t^-1[p][:, p]."""
    return kernels.band_inverse(mode.band_factor)


def correction_terms(modes, panel, thetas, include_sixth=True):
    """The corrections c4 + c3 + c6 to the first-order values at the K
    ``thetas``, from their converged ``modes``, as a list of K floats:

    c4 = -sum (1/8)  g4 (g^ii)^2
    c6 = -sum (1/48) g6 (g^ii)^3           (0.0 when include_sixth is off)
    c3 = sum over blocks of the ordered-pair reduction (:func:`kernels.pair_term`)

    One g_derivs and one band_inverse call serve all K, and a theta's sums
    run over its own T n_d cells in one order whatever K is."""
    c = np.array([p.eta for p in thetas])[:, None, None] * panel.prev_counts()
    derivs = kernels.g_derivs(np.stack([m.mu_star for m in modes]), panel.counts, c)
    g3, g4, g6 = (d[..., modes[0].band_order] for d in derivs)  # (K, T, n_d) each
    factors = [m.band_factor for m in modes]  # a lone stack uncopied: 1.3 MB less peak RSS
    inv = kernels.band_inverse(factors[0] if len(factors) == 1 else np.concatenate(factors))
    inv = inv.reshape(*g3.shape, panel.n_d)
    gii = np.diagonal(inv, axis1=-2, axis2=-1)
    c4 = -np.sum((g4 * gii ** 2).reshape(len(modes), -1), axis=1) / 8.0
    c6 = -np.sum((g6 * gii ** 3).reshape(len(modes), -1), axis=1) / 48.0 if include_sixth else 0.0
    return (c4 + kernels.pair_term(g3, inv) + c6).tolist()


def xla_from_mode(mode, panel, params, car, log_prior=0.0, include_sixth=True):
    """Assemble the extended Laplace log-posterior from a converged mode."""
    correction, = correction_terms([mode], panel, [params], include_sixth)
    return la1_from_mode(mode, params, car, log_prior) + correction


def xla_log_posterior(panel, params, design, car, priors=None, include_sixth=True):
    """Extended Laplace approximation of the log-posterior at theta:
    :func:`secar.mode.la1_log_posterior` plus the fourth-order, pair and
    (optionally) sixth-order corrections. ``priors=None`` drops the prior terms."""
    mode = mode_at(panel, params, design, car)
    lp = priors.log_prior(params, car) if priors is not None else 0.0
    return xla_from_mode(mode, panel, params, car, lp, include_sixth)
