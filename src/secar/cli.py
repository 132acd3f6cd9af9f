"""Command-line surface: simulate | fit | residuals | bias-study | corr.

Configuration is a plain ``key = value`` text file; any key can be overridden
on the command line with ``-o key=value``. Exit codes: 0 success, 2
usage/config error, 3 numerical failure. A manifest.json recording the
resolved configuration and seed accompanies every output directory; all
machine-readable outputs are byte-reproducible given the same config and
seed, except for wall times (the fit report's timing line and the bias
study's ``seconds`` column).
"""

import argparse
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__, io
from .diagnostics import (BiasStudyConfig, bias_study, effective_parameters,
                          pit_residuals, spatial_correlation)
from .graph import CarStructure, build_torus_lattice, load_graph
from .inference import (GRAD_TOL, MAX_NEWTON, METHODS, FitError, GridSpec, PriorSpec,
                        credible_intervals, explore_grid, maximize_posterior)
from .mcmc import DEFAULT_N_CHAINS, DEFAULT_N_ITER, posterior_summary, run_chains
from .mode import ModeError
from .model import DEFAULT_BURN_IN, CovariateDesign, ModelParams, simulate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
MAX_RHAT = 1.1

FIT_METHODS = METHODS + ("mcmc",)


class ConfigError(ValueError):
    pass


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def parse_config_file(path):
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


class Settings:
    """Config-file values overridden by -o pairs, with typed access."""

    def __init__(self, args):
        self.values = {}
        if getattr(args, "config", None):
            self.values.update(parse_config_file(args.config))
        for pair in getattr(args, "override", None) or []:
            if "=" not in pair:
                raise ConfigError(f"override {pair!r} is not key=value")
            key, value = pair.split("=", 1)
            self.values[key.strip()] = value.strip()
        self.used = set()

    def get(self, key, default=None, cast=str):
        self.used.add(key)
        if key not in self.values:
            return default
        raw = self.values[key]
        try:
            return _BOOLS[raw.lower()] if cast is bool else cast(raw)
        except (KeyError, ValueError):
            raise ConfigError(f"config key {key}={raw!r} is not a valid {cast.__name__}") from None

    def require(self, key, cast=str):
        value = self.get(key, None, cast)
        if value is None:
            raise ConfigError(f"missing required config key {key!r}")
        return value

    def warn_unused(self):
        unused = set(self.values) - self.used
        if unused:
            raise ConfigError(f"unrecognized config keys: {sorted(unused)}")


def _out_dir(settings):
    """The output path; a command creates it once its inputs passed their checks."""
    return Path(settings.get("out", "secar-out"))


def _load_car(settings):
    graph_path = settings.get("graph")
    if graph_path:
        graph = load_graph(graph_path, strict=settings.get("strict_graph", False, bool))
    else:
        rows = settings.get("rows", None, int)
        cols = settings.get("cols", None, int)
        if rows is None or cols is None:
            raise ConfigError("need either graph=<path> or rows=/cols= for a torus lattice")
        graph = build_torus_lattice(rows, cols)
    return CarStructure.from_graph(graph)


def _load_panel_design(settings, car):
    counts_path = settings.require("counts")
    panel = io.read_counts_csv(counts_path)
    if panel.n_d != car.n_d:
        raise ConfigError(f"counts file has {panel.n_d} locations, graph has {car.n_d}")
    cov_path = settings.get("covariates")
    if cov_path:
        design = io.read_covariates_csv(cov_path, panel.T, panel.n_d)
        standardize = settings.get("standardize", "")
        if standardize:
            names = [s.strip() for s in standardize.split(",") if s.strip()]
            design = io.standardize_covariates(design, names)
    else:
        design = CovariateDesign.intercept_only(panel.T, panel.n_d)
    return panel, design


def _priors(settings, car):
    zmin = settings.get("zeta_min", None, float)
    zmax = settings.get("zeta_max", None, float)
    interval = None
    if zmin is not None or zmax is not None:
        lo, hi = car.zeta_bounds
        interval = (zmin if zmin is not None else lo, zmax if zmax is not None else hi)
    return PriorSpec(tau_scale=settings.get("tau_scale", PriorSpec.tau_scale, float),
                     zeta_interval=interval,
                     beta_var=settings.get("beta_var", PriorSpec.beta_var, float))


def _params(settings):
    return ModelParams(eta=settings.get("eta", 0.0, float),
                       zeta=settings.get("zeta", 0.0, float),
                       tau2=settings.get("tau2", 0.5, float),
                       beta=np.array([settings.get("beta0", 0.0, float)]))


def _method(settings):
    method = settings.get("method", "xla")
    if method not in FIT_METHODS:
        raise ConfigError(f"unknown method {method!r}; expected one of {FIT_METHODS}")
    return method


def _manifest_payload(command, settings, seed=None):
    payload = {
        "command": command,
        "config": dict(sorted(settings.values.items())),
        "secar_version": __version__,
        "numpy_version": np.__version__,
    }
    if seed is not None:
        payload["seed"] = seed
    return payload


def cmd_simulate(settings):
    rows = settings.get("rows", 10, int)
    cols = settings.get("cols", 10, int)
    T = settings.get("T", 100, int)
    seed = settings.require("seed", int)
    params = _params(settings)
    burn_in = settings.get("burn_in", DEFAULT_BURN_IN, int)
    out = _out_dir(settings)
    settings.warn_unused()

    graph = build_torus_lattice(rows, cols)
    car = CarStructure.from_graph(graph)
    design = CovariateDesign.intercept_only(T, car.n_d)
    panel, latent = simulate(car, params, design, T, seed=seed, burn_in=burn_in)
    out.mkdir(parents=True, exist_ok=True)

    io.write_counts_csv(out / "counts.csv", panel)
    io.write_field_csv(out / "latent.csv", "y", latent)
    payload = _manifest_payload("simulate", settings, seed)
    payload["lattice"] = {"rows": rows, "cols": cols, "T": T, "burn_in": burn_in}
    payload["params"] = io.params_to_json(params)
    io.write_manifest(out / "manifest.json", payload)
    print(f"simulated {car.n_d} locations x {T} weeks -> {out}")
    return EXIT_OK


def _laplace_fit_report(fit, intervals, seconds):
    lines = [
        f"method: {fit.method}",
        f"converged: {fit.converged}" + (f" ({fit.message})" if fit.message else ""),
        f"newton_steps: {fit.newton_steps}",
        f"log_posterior_evaluations: {fit.n_evals}",
        f"log_posterior_at_mode: {fit.log_posterior:.6f}",
        "",
        "posterior mode and 95% credible intervals:",
    ]
    for name, value in zip(fit.names, fit.params_hat.vector()):
        lo, hi = intervals[name]
        lines.append(f"  {name:>6}: {value: .4f}  ({lo: .4f}, {hi: .4f})")
    lines += ["", f"wall_seconds: {seconds:.2f}"]
    return "\n".join(lines) + "\n"


def _run_mcmc(settings, panel, design, car, priors, seed):
    """``run_chains`` as the ``mcmc_iter`` and ``mcmc_chains`` keys ask, then
    the R-hat gate. Returns (samples, diagnostics, n_iter, converged), where
    converged means max R-hat < MAX_RHAT; a failed gate is reported on stderr."""
    if seed is None:
        raise ConfigError("method=mcmc requires seed=")
    n_iter = settings.get("mcmc_iter", DEFAULT_N_ITER, int)
    n_chains = settings.get("mcmc_chains", DEFAULT_N_CHAINS, int)
    settings.warn_unused()
    samples, diag = run_chains(panel, design, car, priors,
                               n_chains=n_chains, n_iter=n_iter, seed=seed)
    worst = diag.max_rhat()
    if worst >= MAX_RHAT:
        print(f"chains did not converge: max R-hat {worst:.3f} >= {MAX_RHAT}",
              file=sys.stderr)
    return samples, diag, n_iter, worst < MAX_RHAT


def cmd_fit(settings):
    method = _method(settings)
    car = _load_car(settings)
    panel, design = _load_panel_design(settings, car)
    priors = _priors(settings, car)
    out = _out_dir(settings)
    seed = settings.get("seed", None, int)
    t0 = time.perf_counter()

    if method == "mcmc":
        samples, diag, n_iter, converged = _run_mcmc(settings, panel, design, car, priors,
                                                     seed)
        summary = posterior_summary(samples)
        seconds = time.perf_counter() - t0
        out.mkdir(parents=True, exist_ok=True)
        io.write_samples_csv(out / "samples.csv", samples)
        lines = [f"method: mcmc  chains={samples.n_chains}  iterations={n_iter} "
                 f"(half warm-up, {samples.n_chains * samples.n_kept} draws)"]
        lines.append(f"acceptance: y={diag.accept_y:.2f} theta={diag.accept_theta:.2f} "
                     f"rescale={diag.accept_scale:.2f}  divergences={diag.divergences}")
        lines.append("")
        lines.append("posterior summaries (mean, sd, 2.5%, 97.5%, ESS, R-hat):")
        for name in samples.names:
            s = summary[name]
            lines.append(f"  {name:>6}: {s['mean']: .4f}  {s['sd']:.4f}  "
                         f"({s['q025']: .4f}, {s['q975']: .4f})  "
                         f"ess={diag.ess[name]:.0f}  rhat={diag.rhat[name]:.3f}")
        lines += ["", f"wall_seconds: {seconds:.2f}"]
        (out / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        io.write_manifest(out / "manifest.json", _manifest_payload("fit", settings, seed))
        print(f"mcmc fit done; max R-hat {diag.max_rhat():.3f} -> {out}")
        return EXIT_OK if converged else EXIT_NUMERIC

    include_priors = not settings.get("no_priors", False, bool)
    want_grid = settings.get("grid", True, bool)
    spacing = settings.get("grid_spacing", GridSpec.spacing, float)
    cutoff = settings.get("grid_cutoff", GridSpec.cutoff, float)
    max_points = settings.get("grid_max_points", GridSpec.max_points, int)
    max_newton = settings.get("max_newton", MAX_NEWTON, int)
    grad_tol = settings.get("grad_tol", GRAD_TOL, float)
    settings.warn_unused()
    grid_spec = GridSpec(spacing, cutoff, max_points) if want_grid else None
    out.mkdir(parents=True, exist_ok=True)
    fit = maximize_posterior(panel, design, car, priors, method=method,
                             include_priors=include_priors,
                             grad_tol=grad_tol, max_steps=max_newton)
    try:
        intervals = credible_intervals(fit, 0.95)
    except FitError:
        intervals = {name: (float("nan"), float("nan")) for name in fit.names}
    if want_grid and fit.converged:
        fit = explore_grid(fit, panel, design, car, priors, grid_spec)
        io.write_grid_csv(out / "grid.csv", fit)
    seconds = time.perf_counter() - t0
    (out / "report.txt").write_text(_laplace_fit_report(fit, intervals, seconds),
                                    encoding="utf-8")
    payload = _manifest_payload("fit", settings, seed)
    payload["fit"] = io.fit_to_json(fit, intervals)
    io.write_manifest(out / "fit.json", payload["fit"])
    io.write_manifest(out / "manifest.json", payload)
    if not fit.converged:
        print(f"fit did not converge: {fit.message}", file=sys.stderr)
        trace = [f"{i}: f={f:.8f} phi={np.array2string(phi, precision=6)}"
                 for i, (phi, f) in enumerate(fit.trace)]
        (out / "trace.txt").write_text("\n".join(trace) + "\n", encoding="utf-8")
        return EXIT_NUMERIC
    print(f"{method} fit converged in {fit.newton_steps} Newton steps -> {out}")
    return EXIT_OK


def cmd_residuals(settings):
    method = _method(settings)
    car = _load_car(settings)
    panel, design = _load_panel_design(settings, car)
    priors = _priors(settings, car)
    seed = settings.require("seed", int)
    n_draws = settings.get("n_theta_draws", 200, int)
    out = _out_dir(settings)
    if method == "mcmc":
        posterior, _, _, converged = _run_mcmc(settings, panel, design, car, priors, seed)
        if not converged:
            return EXIT_NUMERIC
    else:
        settings.warn_unused()
        posterior = maximize_posterior(panel, design, car, priors, method=method)
        if not posterior.converged:
            print(f"fit did not converge: {posterior.message}", file=sys.stderr)
            return EXIT_NUMERIC
    residuals = pit_residuals(panel, design, car, posterior,
                              n_theta_draws=n_draws, seed=seed)
    stat, pvalue = residuals.ks_uniform()
    eff = effective_parameters(panel, design, car, posterior,
                               n_theta_draws=max(50, n_draws // 2), seed=seed)
    out.mkdir(parents=True, exist_ok=True)
    io.write_field_csv(out / "residuals.csv", "u", residuals.u)
    io.write_by_location_csv(out / "residuals_by_location.csv", "mean_u",
                             residuals.by_location())
    lines = [
        f"pit residuals over {panel.n_cells} cells ({method} posterior, "
        f"{n_draws} theta draws)",
        f"ks_statistic: {stat:.5f}",
        f"ks_pvalue: {pvalue:.5f}",
        f"uniformity: {'not rejected' if pvalue > 0.01 else 'REJECTED'} at alpha=0.01",
        f"effective_parameters: {eff.p_d:.2f}",
        f"observations_per_effective_parameter: {eff.obs_per_param:.2f}",
    ]
    (out / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    io.write_manifest(out / "manifest.json", _manifest_payload("residuals", settings, seed))
    print("\n".join(lines))
    return EXIT_OK


def cmd_bias_study(settings):
    cells_raw = settings.get("cells", "0.1:0.4,0.4:0.6")
    try:
        cells = [tuple(float(v) for v in item.split(":")) for item in cells_raw.split(",")]
        if not all(len(c) == 2 for c in cells):
            raise ValueError
    except ValueError:
        raise ConfigError(f"cells must look like '0.1:0.4,0.4:0.6', got {cells_raw!r}") from None
    methods_raw = settings.get("methods", "la1,xla")
    methods = tuple(m.strip() for m in methods_raw.split(",") if m.strip())
    for m in methods:
        if m not in FIT_METHODS:
            raise ConfigError(f"unknown method {m!r} in methods=")
    # every BiasStudyConfig field but cells is a key of the same name and type
    config = BiasStudyConfig(cells=cells, **{
        f.name: settings.get(f.name, f.default, type(f.default))
        for f in fields(BiasStudyConfig) if f.name != "cells"})
    seed = settings.require("seed", int)
    out = _out_dir(settings)
    settings.warn_unused()
    out.mkdir(parents=True, exist_ok=True)
    report = bias_study(config, methods=methods, seed=seed)
    io.write_bias_csv(out / "bias_study.csv", report)
    text = report.summary_text()
    (out / "bias_summary.txt").write_text(text, encoding="utf-8")
    io.write_manifest(out / "manifest.json", _manifest_payload("bias-study", settings, seed))
    print(text, end="")
    return EXIT_OK


def cmd_corr(settings):
    car = _load_car(settings)
    params = _params(settings)
    node = settings.get("node", 0, int)
    out = _out_dir(settings)
    settings.warn_unused()
    out.mkdir(parents=True, exist_ok=True)
    rows = [(node, j, spatial_correlation(params, car, node, j))
            for j in range(car.n_d)]
    io.write_corr_csv(out / "corr.csv", rows)
    io.write_manifest(out / "manifest.json", _manifest_payload("corr", settings))
    off_diag = [c for i, j, c in rows if i != j]
    peak = f"max off-diagonal {max(off_diag):.4f}" if off_diag else "no off-diagonal pairs"
    print(f"corr table for node {node}: {peak} -> {out}")
    return EXIT_OK


COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "residuals": cmd_residuals,
    "bias-study": cmd_bias_study,
    "corr": cmd_corr,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="secar",
        description="Self-exciting Poisson CAR inference engine")
    parser.add_argument("--version", action="version", version=f"secar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", help="plain-text key = value configuration file")
        p.add_argument("-o", "--override", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        settings = Settings(args)
        return COMMANDS[args.command](settings)
    except (ConfigError, io.DataFormatError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FitError, ModeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
