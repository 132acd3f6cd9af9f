"""secar: inference engine for self-exciting Poisson CAR spatio-temporal
count models (simulation, first-order and extended Laplace approximations,
MCMC oracle, diagnostics and a bias-study harness)."""

__version__ = "0.1.0"

from .diagnostics import (BiasStudyConfig, BiasStudyReport, EffectiveParams,
                          ResidualField, bias_study, effective_parameters,
                          pit_residuals, spatial_correlation)
from .graph import (CarStructure, GraphFormatError, SpatialGraph, ZetaBoundsError,
                    build_torus_lattice, car_precision_block, load_graph,
                    logdet_precision)
from .inference import (GridSpec, PosteriorFit, PriorSpec, credible_intervals,
                        explore_grid, latent_marginal, maximize_posterior,
                        sample_theta)
from .mcmc import (ChainDiagnostics, ChainSamples, log_joint, posterior_summary,
                   run_chains)
from .mode import ModeResult, find_mode, la1_log_posterior
from .model import (CountPanel, CovariateDesign, ModelParams, ParamError,
                    g_gradient, g_value, intensity, linear_predictor, simulate)
from .xla import g_derivatives, invert_hessian_blocks, xla_log_posterior

__all__ = [
    "BiasStudyConfig", "BiasStudyReport", "CarStructure", "ChainDiagnostics",
    "ChainSamples", "CountPanel", "CovariateDesign", "EffectiveParams",
    "GraphFormatError", "GridSpec", "ModeResult", "ModelParams", "ParamError",
    "PosteriorFit", "PriorSpec",
    "ResidualField", "SpatialGraph", "ZetaBoundsError", "bias_study",
    "build_torus_lattice", "car_precision_block", "credible_intervals",
    "effective_parameters", "explore_grid", "find_mode", "g_derivatives",
    "g_gradient", "g_value", "intensity", "invert_hessian_blocks",
    "la1_log_posterior", "latent_marginal", "linear_predictor", "load_graph",
    "log_joint", "logdet_precision", "maximize_posterior", "pit_residuals",
    "posterior_summary", "run_chains", "sample_theta", "simulate",
    "spatial_correlation", "xla_log_posterior",
]
