"""The benchmark's workloads: inputs made from the seed, one operation each,
and the checks on every answer.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned. The library only ever sees generated
panels and parameter draws, never the seed.

* ``fit-small`` -- what ``secar fit`` does, on a 5x5 torus with T=20 and the
  truth of acceptance criterion 7. Many tiny 25-node blocks, so per-call
  overhead and the finite-difference optimizer dominate. Each operation fits a
  different simulated panel.
* ``surface-large`` -- the README quick-start panel (10x10, T=100, seed 1):
  cold la1 and xla evaluations at seeded draws near its posterior, then the
  PIT / effective-parameter stage on 50 draws. 100-node blocks make the work
  LAPACK-bound; the optimizer is not used at all.
* ``mcmc-quickstart`` -- ``run_chains`` on the same panel, 2 chains of 60
  iterations per operation; most of the time is the MALA sweep.
"""

import json
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import secar
import oracle
from secar import io as sio
from secar.inference import GridSpec, ParamTransform

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# acceptance criterion 7 truth and the README quick-start truth
CRITERION7_TRUTH = dict(eta=0.3, zeta=0.15, tau2=0.5, beta=[0.2])
QUICKSTART_TRUTH = dict(eta=0.1, zeta=0.245, tau2=0.4, beta=[0.0])
QUICKSTART_SEED = 1

# la1 posterior of the quick-start panel on the unconstrained scale
# (log tau2, zeta logit, eta logit, beta0): mode and covariance of the
# Gaussian approximation, from maximize_posterior(method="la1").
QUICKSTART_PHI = [-1.04452556, 4.69802214, -2.35375083, 0.04014747]
QUICKSTART_COV = [
    [1.48075006e-03, -2.14772675e-03, 7.78696915e-04, -3.53825121e-04],
    [-2.14772675e-03, 2.54230471e-02, 7.26508795e-04, -5.10570370e-05],
    [7.78696915e-04, 7.26508795e-04, 8.38791807e-03, -1.06831812e-03],
    [-3.53825121e-04, -5.10570370e-05, -1.06831812e-03, 2.24606314e-03],
]

# tolerances of the answer checks: relative, except that fit-small's
# theta-hat and grid mean are compared on the unconstrained scale in units of
# the recorded posterior sd. The optimizer stops at a gradient max-norm below
# 1e-5 (secar.inference.GRAD_TOL), which leaves theta-hat free to move by about
# sd * 1e-5 sd (sd < 1 here), far below THETA_SD_TOL; refitting the recorded
# panels from the true parameters moved it by 1.2e-6 sd but by up to 2.2e-5
# relative, so a relative tolerance would refuse a legitimate optimizer
# change. A grid point flipping across the cutoff moves the grid mean by
# about 1e-3 sd.
THETA_SD_TOL = 1e-3
GRID_SD_TOL = 2e-2
LOGPOST_TOL = 1e-8
FIELD_TOL = 1e-6
ACCEPT_Y_BAND = (0.2, 0.95)

# fit-small: the CLI's grid cutoff and cap; a coarser spacing than its 1.25
# keeps one operation near four seconds
GRID = GridSpec(spacing=2.0, cutoff=6.0, max_points=1000)
# surface-large: draws of the PIT / pD stage; every how many operations the
# dense oracle checks la1 and xla
RESIDUAL_DRAWS = 50
ORACLE_EVERY = 25
MCMC_CHAINS = 2


class AnswerError(Exception):
    """An operation's answer failed its check."""


def rel_dev(got, want):
    """Largest elementwise relative deviation of ``got`` from ``want``."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise AnswerError(f"answer shape {got.shape} differs from reference {want.shape}")
    if not np.all(np.isfinite(got)):
        raise AnswerError("non-finite answer")
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-12), initial=0.0))


def sd_dev(got, want, sd):
    """Largest elementwise deviation of ``got`` from ``want`` in units of ``sd``."""
    got = np.asarray(got, dtype=np.float64)
    if not np.all(np.isfinite(got)):
        raise AnswerError("non-finite answer")
    return float(np.max(np.abs(got - np.asarray(want)) / np.asarray(sd), initial=0.0))


def _within(name, dev, tol):
    if dev > tol:
        raise AnswerError(f"{name} deviates by {dev:.3g} (tolerance {tol:g})")
    return dev


def _params(spec):
    return secar.ModelParams(eta=spec["eta"], zeta=spec["zeta"], tau2=spec["tau2"],
                             beta=np.array(spec["beta"]))


def _torus(rows, T):
    car = secar.CarStructure.from_graph(secar.build_torus_lattice(rows, rows))
    return car, secar.CovariateDesign.intercept_only(T, car.n_d)


def _theta_vector(params):
    return [params.tau2, params.zeta, params.eta, *params.beta]


def load_reference(workload, seed):
    """Recorded answers of ``workload`` for ``seed``, or None."""
    if not REFERENCE_FILE.exists():
        return None
    data = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return data.get(workload, {}).get(str(seed))


class Workload:
    """Set-up, an optional stage run once per pass, and a repeated operation.

    ``op(i)`` and ``prelude()`` return (answer, stage seconds); ``check_*``
    raise :class:`AnswerError` or return the relative deviation from the
    recorded reference answers (None when the seed has none) and from the
    independent dense computation in :mod:`oracle` (None when not made).
    """

    name = ""
    describes = ""
    has_prelude = False

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.priors = secar.PriorSpec()
        self.reference = load_reference(self.name, seed)

    def check_prelude(self, answer):
        return None, None

    def _ref(self, key, i):
        if self.reference is None:
            return None
        items = self.reference.get(key, [])
        return items[i] if i < len(items) else None


class FitSmall(Workload):
    name = "fit-small"
    describes = ("one secar-fit pipeline on a fresh 5x5 T=20 panel: xla fit, "
                 "95% intervals, grid, fit.json / grid.csv / manifest.json")

    def __init__(self, seed, out_dir, rows=5, T=20, pool=16):
        super().__init__(seed, out_dir)
        self.rows, self.T, self.pool = rows, T, pool

    def setup(self):
        self.car, self.design = _torus(self.rows, self.T)
        truth = _params(CRITERION7_TRUTH)
        seeds = np.random.SeedSequence(self.seed).spawn(self.pool)
        self.panels = [secar.simulate(self.car, truth, self.design, self.T, seed=s)[0]
                       for s in seeds]

    def op(self, i):
        panel = self.panels[i % self.pool]
        t0 = perf_counter()
        fit = secar.maximize_posterior(panel, self.design, self.car, self.priors,
                                       method="xla")
        if not fit.converged:
            raise AnswerError(f"fit did not converge: {fit.message}")
        intervals = secar.credible_intervals(fit, 0.95)
        t1 = perf_counter()
        fit = secar.explore_grid(fit, panel, self.design, self.car, self.priors, GRID)
        t2 = perf_counter()
        out = Path(tempfile.mkdtemp(dir=self.out_dir))
        sio.write_grid_csv(out / "grid.csv", fit)
        record = sio.fit_to_json(fit, intervals)
        sio.write_manifest(out / "fit.json", record)
        sio.write_manifest(out / "manifest.json", {"command": "fit", "fit": record,
                                                   "seed": self.seed})
        t3 = perf_counter()
        answer = {"panel": i % self.pool, "fit": fit, "intervals": intervals, "out": out}
        return answer, {"fit_s": t1 - t0, "grid_s": t2 - t1, "io_s": t3 - t2}

    @staticmethod
    def summary(answer):
        fit = answer["fit"]
        weights = np.array([p.weight for p in fit.grid])
        phis = np.array([p.phi for p in fit.grid])
        return {"phi": fit.phi_hat.tolist(),
                "sd": np.sqrt(np.diag(fit.cov)).tolist(),
                "log_posterior": float(fit.log_posterior),
                "grid_mean_phi": (weights @ phis).tolist()}

    def check_op(self, i, answer):
        fit, intervals = answer["fit"], answer["intervals"]
        theta = _theta_vector(fit.params_hat)
        if not np.isfinite(fit.log_posterior) or not np.all(np.isfinite(theta)):
            raise AnswerError("non-finite fit")
        for name, value in zip(fit.names, theta):
            lo, hi = intervals[name]
            if not lo <= value <= hi:
                raise AnswerError(f"{name}={value} outside its interval ({lo}, {hi})")
        weights = np.array([p.weight for p in fit.grid])
        drops = fit.log_posterior - np.array([p.log_posterior for p in fit.grid])
        if abs(weights.sum() - 1.0) > 1e-9 or np.any(drops > GRID.cutoff):
            raise AnswerError("grid weights or cutoff violated")
        written = json.loads((answer["out"] / "fit.json").read_text(encoding="utf-8"))
        if written["log_posterior"] != float(fit.log_posterior):
            raise AnswerError("fit.json does not hold the fitted log-posterior")
        rows = (answer["out"] / "grid.csv").read_text(encoding="utf-8").count("\n")
        if rows != len(fit.grid) + 1:
            raise AnswerError(f"grid.csv has {rows} lines for {len(fit.grid)} points")

        panel = self.panels[answer["panel"]]
        _, xla = oracle.laplace_values(panel, fit.params_hat, self.design, self.car,
                                       self.priors)
        oracle_dev = _within("log-posterior vs dense oracle",
                             rel_dev(fit.log_posterior, xla), LOGPOST_TOL)
        ref = self._ref("ops", answer["panel"])
        if ref is None:
            return None, oracle_dev
        got = self.summary(answer)
        ref_dev = max(_within("theta-hat", sd_dev(got["phi"], ref["phi"], ref["sd"]),
                              THETA_SD_TOL),
                      _within("log-posterior", rel_dev(got["log_posterior"],
                                                       ref["log_posterior"]), LOGPOST_TOL),
                      _within("grid mean", sd_dev(got["grid_mean_phi"], ref["grid_mean_phi"],
                                                  ref["sd"]), GRID_SD_TOL))
        return ref_dev, oracle_dev


class SurfaceLarge(Workload):
    name = "surface-large"
    has_prelude = True
    describes = ("one cold la1 and one cold xla evaluation of the 10x10 T=100 "
                 "quick-start posterior at a seeded draw")

    def __init__(self, seed, out_dir, rows=10, T=100, pool=200):
        super().__init__(seed, out_dir)
        self.rows, self.T, self.pool = rows, T, pool

    def setup(self):
        self.car, self.design = _torus(self.rows, self.T)
        self.panel, _ = secar.simulate(self.car, _params(QUICKSTART_TRUTH), self.design,
                                       self.T, seed=QUICKSTART_SEED)
        transform = ParamTransform.for_problem(self.car, self.priors, self.design.p)
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        phis = rng.multivariate_normal(QUICKSTART_PHI, QUICKSTART_COV, size=self.pool)
        self.draws = [transform.to_params(phi) for phi in phis]

    def prelude(self):
        draws = self.draws[:RESIDUAL_DRAWS]
        t0 = perf_counter()
        pit = secar.pit_residuals(self.panel, self.design, self.car, draws, seed=self.seed)
        t1 = perf_counter()
        eff = secar.effective_parameters(self.panel, self.design, self.car, draws,
                                         seed=self.seed)
        t2 = perf_counter()
        return ({"u": pit.u, "p_d": eff.p_d},
                {"pit_s": t1 - t0, "pd_s": t2 - t1, "residuals_s": t2 - t0})

    @staticmethod
    def prelude_summary(answer):
        u = answer["u"].ravel()
        picks = np.linspace(0, u.size - 1, 32).astype(int)
        return {"u_mean": float(u.mean()), "u_picks": u[picks].tolist(),
                "p_d": float(answer["p_d"])}

    def check_prelude(self, answer):
        u = answer["u"]
        if u.shape != self.panel.counts.shape or not np.all((u > 0.0) & (u < 1.0)):
            raise AnswerError("PIT residuals not inside (0, 1)")
        if not (np.isfinite(answer["p_d"]) and answer["p_d"] > 0.0):
            raise AnswerError(f"effective parameters {answer['p_d']} not positive")
        ref = self.reference.get("prelude") if self.reference else None
        if ref is None:
            return None, None
        got = self.prelude_summary(answer)
        return max(_within("PIT mean", rel_dev(got["u_mean"], ref["u_mean"]), FIELD_TOL),
                   _within("PIT values", rel_dev(got["u_picks"], ref["u_picks"]), FIELD_TOL),
                   _within("pD", rel_dev(got["p_d"], ref["p_d"]), FIELD_TOL)), None

    def op(self, i):
        params = self.draws[i % self.pool]
        t0 = perf_counter()
        la1 = secar.la1_log_posterior(self.panel, params, self.design, self.car, self.priors)
        t1 = perf_counter()
        xla = secar.xla_log_posterior(self.panel, params, self.design, self.car, self.priors)
        t2 = perf_counter()
        return ({"draw": i % self.pool, "la1": la1, "xla": xla},
                {"la1_eval_s": t1 - t0, "xla_eval_s": t2 - t1})

    @staticmethod
    def summary(answer):
        return {"la1": float(answer["la1"]), "xla": float(answer["xla"])}

    def check_op(self, i, answer):
        got = [answer["la1"], answer["xla"]]
        if not np.all(np.isfinite(got)):
            raise AnswerError("non-finite log-posterior")
        oracle_dev = None
        if i % ORACLE_EVERY == 0:
            want = oracle.laplace_values(self.panel, self.draws[answer["draw"]],
                                         self.design, self.car, self.priors)
            oracle_dev = _within("la1/xla vs dense oracle", rel_dev(got, want), LOGPOST_TOL)
        ref = self._ref("ops", answer["draw"])
        if ref is None:
            return None, oracle_dev
        return _within("la1/xla", rel_dev(got, [ref["la1"], ref["xla"]]),
                       LOGPOST_TOL), oracle_dev


class McmcQuickstart(Workload):
    name = "mcmc-quickstart"
    describes = "one run_chains call on the quick-start panel: 2 chains x 60 iterations"

    def __init__(self, seed, out_dir, rows=10, T=100, n_iter=60):
        super().__init__(seed, out_dir)
        self.rows, self.T, self.n_iter = rows, T, n_iter

    def setup(self):
        self.car, self.design = _torus(self.rows, self.T)
        self.panel, _ = secar.simulate(self.car, _params(QUICKSTART_TRUTH), self.design,
                                       self.T, seed=QUICKSTART_SEED)
        self.chain_seeds = np.random.SeedSequence(self.seed).generate_state(64).tolist()

    def op(self, i):
        t0 = perf_counter()
        samples, diag = secar.run_chains(self.panel, self.design, self.car, self.priors,
                                         n_chains=MCMC_CHAINS, n_iter=self.n_iter,
                                         seed=self.chain_seeds[i % 64])
        t1 = perf_counter()
        per_iter = (t1 - t0) / (MCMC_CHAINS * self.n_iter)
        return {"samples": samples, "diag": diag}, {"mcmc_s_per_iter": per_iter}

    def check_op(self, i, answer):
        samples, diag = answer["samples"], answer["diag"]
        if not (np.all(np.isfinite(samples.theta)) and np.all(np.isfinite(samples.log_joint))):
            raise AnswerError("non-finite draws or log-joint")
        lo, hi = self.car.zeta_bounds
        tau2, zeta, eta = (samples.theta[:, :, k] for k in range(3))
        if np.any(tau2 <= 0.0) or np.any((zeta <= lo) | (zeta >= hi)) or \
                np.any((eta < 0.0) | (eta >= 1.0)):
            raise AnswerError("inadmissible draw")
        if not ACCEPT_Y_BAND[0] <= diag.accept_y <= ACCEPT_Y_BAND[1]:
            raise AnswerError(f"latent acceptance {diag.accept_y:.3f} outside {ACCEPT_Y_BAND}")
        return None, None


WORKLOADS = {cls.name: cls for cls in (FitSmall, SurfaceLarge, McmcQuickstart)}
