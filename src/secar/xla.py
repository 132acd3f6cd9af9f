"""Extended Laplace approximation: high-order derivative fields at the mode,
per-block inverse Hessians, and the corrected log-marginal.

Corrections decompose over time blocks (cross-block inverse-Hessian entries
are exactly zero), so they are reductions over the ``(T, n_d, n_d)`` stack of
inverse blocks. The third-derivative pair term runs over all ordered pairs
within each block.
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from . import kernels
from .mode import find_mode, la1_from_mode, ModeError
from .model import linear_predictor


@dataclass
class DerivativeField:
    """Pure 3rd/4th/6th per-cell derivatives of g at the mode, shape (T, n_d)."""

    g3: np.ndarray
    g4: np.ndarray
    g6: np.ndarray


@dataclass
class HessianInverseBlocks:
    """Per-time dense inverses of the block Hessians, with diagonal accessor."""

    blocks: np.ndarray

    @property
    def gii(self):
        return np.diagonal(self.blocks, axis1=1, axis2=2)


def g_derivatives(mode, panel, params):
    """Evaluate the 3rd/4th/6th derivative fields of g at the converged mode."""
    c = params.eta * panel.prev_counts()
    return DerivativeField(*kernels.g_derivs(mode.mu_star, panel.counts, c))


@functools.lru_cache(maxsize=None)
def _upper_pairs(n):
    """Read-only ``triu_indices(n, 1)``, built once per block size."""
    pairs = np.triu_indices(n, 1)
    for a in pairs:
        a.setflags(write=False)
    return pairs


def invert_hessian_blocks(mode):
    """Dense per-block inverses from the retained Cholesky factors (LAPACK
    ``dpotri``), symmetrized."""
    blocks = mode.chol_blocks.copy()
    for b in blocks:
        # LAPACK reads the C-ordered lower factor as an upper one and writes
        # the inverse's lower triangle here
        lapack.dpotri(b.T, lower=0, overwrite_c=1)
    i, j = _upper_pairs(mode.n_d)
    blocks[:, i, j] = blocks[:, j, i]
    return HessianInverseBlocks(blocks)


def correction_terms(derivs, inv_blocks, include_sixth=True):
    """Correction triple (c4, c3_pair, c6) added to the first-order value.

    c4 = -sum (1/8)  g4 (g^ii)^2
    c6 = -sum (1/48) g6 (g^ii)^3           (0.0 when include_sixth is off)
    c3 = sum over blocks of the ordered-pair reduction
         sum_ij g3_i g3_j (6 (g^ij)^3 + 9 g^ii g^jj g^ij) / 72
    """
    gii = inv_blocks.gii
    c4 = -float(np.sum(derivs.g4 * gii ** 2)) / 8.0
    c6 = -float(np.sum(derivs.g6 * gii ** 3)) / 48.0 if include_sixth else 0.0
    c3 = kernels.pair_term(derivs.g3, inv_blocks.blocks)
    return c4, c3, c6


def xla_from_mode(mode, panel, params, car, log_prior=0.0, include_sixth=True):
    """Assemble the extended Laplace log-posterior from a converged mode."""
    la1 = la1_from_mode(mode, params, car, log_prior)
    derivs = g_derivatives(mode, panel, params)
    inv_blocks = invert_hessian_blocks(mode)
    c4, c3, c6 = correction_terms(derivs, inv_blocks, include_sixth)
    return la1 + c4 + c3 + c6


def xla_log_posterior(panel, params, design, car, priors=None, include_sixth=True):
    """Extended Laplace approximation of the log-posterior at theta.

    Equals :func:`secar.mode.la1_log_posterior` plus the fourth-order,
    pair and (optionally) sixth-order corrections. ``priors=None`` drops the
    prior terms.
    """
    alpha = linear_predictor(design, params.beta)
    mode = find_mode(panel, params, alpha, car)
    if not mode.converged:
        raise ModeError("latent mode iteration did not converge")
    lp = priors.log_prior(params, car) if priors is not None else 0.0
    return xla_from_mode(mode, panel, params, car, lp, include_sixth)
