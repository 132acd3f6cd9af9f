"""Dataset ingestion and deterministic report emission.

Counts CSV (long format): header ``location_id,week,count`` with 1-based
location ids and contiguous weeks from 0; week 0 is history, and at least one
week follows it. Covariates CSV: ``location_id,week,<name>...`` covering weeks
1..T, one row per cell with finite values; an intercept column is prepended
automatically. All writers emit byte-stable output for identical inputs.
"""

import csv
import json

import numpy as np

from .model import CountPanel, CovariateDesign, ModelParams


class DataFormatError(ValueError):
    """Raised for malformed dataset files."""


def _read_rows(path, required):
    try:
        fh = open(path, "r", newline="", encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot open {path}: {exc}") from None
    with fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in required if c not in header]
        if missing:
            raise DataFormatError(f"{path}: missing columns {missing}")
        return header, list(reader)


def read_counts_csv(path):
    """Load a counts panel; requires full coverage of weeks 0..T, T >= 1."""
    _, rows = _read_rows(path, ("location_id", "week", "count"))
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    cells = {}
    for r in rows:
        try:
            loc, week, count = int(r["location_id"]), int(r["week"]), int(r["count"])
        except (TypeError, ValueError):
            raise DataFormatError(f"{path}: non-integer row {r}") from None
        if count < 0:
            raise DataFormatError(f"{path}: negative count at location {loc}, week {week}")
        if (loc, week) in cells:
            raise DataFormatError(f"{path}: duplicate cell ({loc}, {week})")
        cells[(loc, week)] = count
    locs = sorted({k[0] for k in cells})
    weeks = sorted({k[1] for k in cells})
    n_d = len(locs)
    if locs != list(range(1, n_d + 1)):
        raise DataFormatError(f"{path}: location ids must be 1..{n_d}, got {locs[:5]}...")
    if weeks != list(range(weeks[-1] + 1)) or weeks[0] != 0:
        raise DataFormatError(f"{path}: weeks must be contiguous from 0")
    T = weeks[-1]
    if T == 0:
        raise DataFormatError(f"{path}: only week 0 present; need at least one week after it")
    counts = np.zeros((T, n_d), dtype=np.int64)
    initial = np.zeros(n_d, dtype=np.int64)
    for (loc, week), count in cells.items():
        if week == 0:
            initial[loc - 1] = count
        else:
            counts[week - 1, loc - 1] = count
    if len(cells) != n_d * (T + 1):
        raise DataFormatError(f"{path}: expected {n_d * (T + 1)} cells, got {len(cells)}")
    return CountPanel(counts, initial)


def read_covariates_csv(path, T, n_d):
    """Load covariates for weeks 1..T and prepend the intercept column."""
    header, rows = _read_rows(path, ("location_id", "week"))
    names = [c for c in header if c not in ("location_id", "week")]
    if not names:
        raise DataFormatError(f"{path}: no covariate columns")
    values = np.full((T, n_d, len(names)), np.nan)
    seen = set()
    for r in rows:
        try:
            loc, week = int(r["location_id"]), int(r["week"])
        except (TypeError, ValueError):
            raise DataFormatError(f"{path}: non-integer keys in row {r}") from None
        if week == 0:
            continue
        if not (1 <= loc <= n_d and 1 <= week <= T):
            raise DataFormatError(f"{path}: cell ({loc}, {week}) outside panel "
                                  f"(n_d={n_d}, T={T})")
        if (loc, week) in seen:
            raise DataFormatError(f"{path}: duplicate cell ({loc}, {week})")
        seen.add((loc, week))
        for k, name in enumerate(names):
            cell = r.get(name)
            if cell is None or cell.strip() == "":
                raise DataFormatError(f"{path}: missing {name} at location {loc}, week {week}")
            try:
                value = float(cell)
            except ValueError:
                value = np.nan
            if not np.isfinite(value):
                raise DataFormatError(f"{path}: {name}={cell!r} at ({loc}, {week}) "
                                      "is not a finite number")
            values[week - 1, loc - 1, k] = value
    if np.any(np.isnan(values)):
        t, i, k = np.argwhere(np.isnan(values))[0]
        raise DataFormatError(f"{path}: missing {names[k]} at location {i + 1}, week {t + 1}")
    full = np.concatenate([np.ones((T, n_d, 1)), values], axis=2)
    return CovariateDesign(full, names=["intercept"] + names)


def standardize_covariates(design, names):
    """Center and scale the named covariate columns in place over all cells."""
    values = design.values.copy()
    for name in names:
        if name not in design.names:
            raise DataFormatError(f"cannot standardize unknown covariate {name!r}")
        k = design.names.index(name)
        col = values[:, :, k]
        sd = col.std()
        if sd == 0:
            raise DataFormatError(f"covariate {name!r} is constant; cannot standardize")
        values[:, :, k] = (col - col.mean()) / sd
    return CovariateDesign(values, names=list(design.names))


def _fmt(x):
    return f"{float(x):.17g}"


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_counts_csv(path, panel):
    weeks = [panel.initial_counts, *panel.counts]  # week 0 is the history
    _write_csv(path, ["location_id", "week", "count"],
               ([i + 1, t, int(c)] for t, row in enumerate(weeks) for i, c in enumerate(row)))


def write_field_csv(path, header, array):
    """Write a (T, n_d) field as location_id, week, value rows."""
    T, n_d = array.shape
    _write_csv(path, ["location_id", "week", header],
               ([i + 1, t + 1, _fmt(array[t, i])] for t in range(T) for i in range(n_d)))


def write_by_location_csv(path, header, values):
    _write_csv(path, ["location_id", header],
               ([i + 1, _fmt(v)] for i, v in enumerate(values)))


def write_grid_csv(path, fit):
    points = sorted(fit.grid or [], key=lambda p: -p.log_posterior)
    _write_csv(path, fit.names + ["log_posterior", "weight"],
               ([_fmt(v) for v in (*pt.params.vector(), pt.log_posterior, pt.weight)]
                for pt in points))


def write_samples_csv(path, samples):
    _write_csv(path, ["chain", "draw"] + samples.names,
               ([c, d] + [_fmt(v) for v in samples.theta[c, d]]
                for c in range(samples.n_chains) for d in range(samples.n_kept)))


def write_bias_csv(path, report):
    """One row per study fit: every entry of theta (the study's design is
    intercept-only) and the relative bias of its non-beta entries."""
    est_names = ModelParams.names(1)
    rel_names = [k for k in est_names if not k.startswith("beta")]

    def row(r):
        est, rel = r.estimates, r.rel_bias
        return ([_fmt(r.eta_true), _fmt(r.tau2_true), r.replicate, r.method]
                + [_fmt(est.get(k, np.nan)) for k in est_names]
                + [_fmt(rel.get(k, np.nan)) for k in rel_names]
                + [_fmt(r.seconds), int(r.converged)])

    _write_csv(path, ["eta_true", "tau2_true", "replicate", "method"]
               + [f"{k}_hat" for k in est_names] + [f"rel_bias_{k}" for k in rel_names]
               + ["seconds", "converged"],
               (row(r) for r in report.rows))


def write_corr_csv(path, rows):
    _write_csv(path, ["i", "j", "corr"], ([i, j, _fmt(corr)] for i, j, corr in rows))


def write_manifest(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2, default=str))
        fh.write("\n")


def params_to_json(params):
    return {"tau2": float(params.tau2), "zeta": float(params.zeta),
            "eta": float(params.eta), "beta": [float(b) for b in params.beta]}


def fit_to_json(fit, intervals):
    return {
        "method": fit.method,
        "converged": bool(fit.converged),
        "message": fit.message,
        "log_posterior": float(fit.log_posterior),
        "n_evals": int(fit.n_evals),
        "newton_steps": int(fit.newton_steps),
        "names": fit.names,
        "theta_hat": params_to_json(fit.params_hat),
        "phi_hat": [float(v) for v in fit.phi_hat],
        "cov": [[float(v) for v in row] for row in fit.cov],
        "zeta_interval": [fit.transform.zeta_lo, fit.transform.zeta_hi],
        "priors_included": bool(fit.priors_included),
        "credible_intervals": {k: [float(a), float(b)] for k, (a, b) in intervals.items()},
    }
