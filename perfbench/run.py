"""secar benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload fit-small --seed 0 --seconds 36 --trace 0

The workloads are described in ``workloads.py``. A run pins BLAS to one
thread and the kernels to the numpy path, sets the workload up several times,
then repeats the workload's operation in a closed loop for ``--seconds``
seconds and checks every answer. It prints the metrics by name with their
units, and as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Timings are corrected by a fixed calibration loop, so that a change in the
machine's speed (other tenants on shared cores) reads less as a change of the
program. Right after each timed piece of work -- the import, a set-up, an
operation, the prelude stage -- the loop runs for about ``CAL_DUTY`` of the
time that piece took, and the piece's time is multiplied by ``CAL_REF_S`` /
the median of those samples. On a shared 2-core VM the speed changes by up to
a factor of two within seconds, so a sample next to the work tracks it better
than one factor per run. Raw times are printed beside the corrected ones.

With ``--trace 0`` the JSON metrics are the end-to-end ones; with
``--trace 1`` the run measures the operations untraced for half the time,
replays the same operations with every layer function wrapped (see
``tracing.py``) and reports per-layer metrics, including the tracing
overhead. They are summed over the replayed operations' own spans and given
per operation, except ``model.simulate`` (per set-up) and the
``diagnostics`` functions (per once-per-pass stage, surface-large only).
Exit status is 0 when the run completed (the JSON says whether the answers
were correct) and 2 when it could not run at all.
"""

import os

# before numpy is imported anywhere: single-threaded BLAS, numpy kernels
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["SECAR_DISABLE_NUMBA"] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CAL_REF_S = 0.0135
CAL_DUTY = 0.1
SETUP_REPEATS = 5

END_TO_END = {"setup_s": "s", "op_ms": "ms", "peak_rss_mb": "MB"}


class Calibrator:
    """A fixed mix of small numpy calls, pure-Python work and a dense
    Cholesky factorization, about 13 ms on a 2-core Xeon VM."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20170928)
        a = rng.standard_normal((60, 60))
        self._np = np
        self._a = a @ a.T + 60.0 * np.eye(60)
        self._v = rng.standard_normal(25)

    def sample(self):
        np = self._np
        t0 = perf_counter()
        acc = 0.0
        for _ in range(320):
            acc += float(np.linalg.cholesky(self._a)[-1, -1])
            acc += float(np.exp(0.01 * self._v).sum())
            acc += sum(k * k for k in range(120))
        if not math.isfinite(acc):
            raise ArithmeticError("calibration loop produced a non-finite value")
        return perf_counter() - t0

    def scale_after(self, secs):
        """Calibrate for about ``CAL_DUTY`` of ``secs``, the time of the work
        just done; return the factor to the reference speed and the samples."""
        samples = [self.sample() for _ in range(max(1, round(CAL_DUTY * secs / CAL_REF_S)))]
        return CAL_REF_S / statistics.median(samples), samples


def high_percentile(values):
    """(p, value) of the highest whole percentile with >= 10 samples above it."""
    n = len(values)
    if n < 20:
        return None
    p = math.floor(100.0 * (n - 10) / n)
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def environment():
    import numpy
    import scipy

    import secar.kernels

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "kernels_backend": secar.kernels.BACKEND_NAME,
        "loadavg_1m": os.getloadavg()[0],
    }


class Pass:
    """One measuring pass: corrected and raw times, calibration samples and
    answers."""

    def __init__(self):
        self.op_s = []          # corrected seconds per successful operation
        self.raw_op_s = []      # the same, uncorrected
        self.stages = {}        # stage name -> corrected seconds per operation
        self.cal_s = []         # calibration samples taken between operations
        self.answers = []       # (index, answer) of successful operations
        self.prelude = None
        self.failures = []      # (index, message)
        self.attempted = 0
        self.n_ops = 0
        self.wall_s = 0.0
        self.ops_mark = None    # tracer mark after the prelude, when traced

    def run(self, call, where, cal):
        """Time one call, then calibrate; count failures."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = call()
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            self.failures.append((where, f"{type(exc).__name__}: {exc}"))
            result = None
        secs = perf_counter() - t0
        scale, samples = cal.scale_after(secs)
        self.cal_s += samples
        if result is None:
            return None
        answer, stages = result
        for k, v in stages.items():
            self.stages.setdefault(k, []).append(v * scale)
        return answer, secs, scale


def measure(wl, cal, seconds=None, n_ops=None, mark=None):
    """Run the prelude, then operations until ``seconds`` pass (at least one)
    or ``n_ops`` are done; ``mark()`` is taken between the two."""
    p = Pass()
    t_start = perf_counter()
    if wl.has_prelude:
        done = p.run(wl.prelude, "prelude", cal)
        if done is not None:
            p.prelude = done[0]
    if mark is not None:
        p.ops_mark = mark()
    i = 0
    while (i < n_ops) if n_ops is not None else \
            (i == 0 or perf_counter() - t_start < seconds):
        done = p.run(lambda: wl.op(i), i, cal)
        if done is not None:
            p.answers.append((i, done[0]))
            p.raw_op_s.append(done[1])
            p.op_s.append(done[1] * done[2])
        i += 1
    p.wall_s = perf_counter() - t_start
    p.n_ops = i
    return p


def check(wl, p):
    """Check every answer; failed checks join the pass's failures."""
    ref_devs, oracle_devs = [], []
    checks = [("prelude", p.prelude, wl.check_prelude)] if p.prelude is not None else []
    checks += [(i, ans, lambda a, i=i: wl.check_op(i, a)) for i, ans in p.answers]
    from workloads import AnswerError

    for i, ans, fn in checks:
        try:
            ref_dev, oracle_dev = fn(ans)
        except AnswerError as exc:
            p.failures.append((i, f"check: {exc}"))
            continue
        if ref_dev is not None:
            ref_devs.append(ref_dev)
        if oracle_dev is not None:
            oracle_devs.append(oracle_dev)
    return (max(ref_devs) if ref_devs else None,
            max(oracle_devs) if oracle_devs else None)


def _fmt_timing(name, values, unit, factor, raw=None):
    med = statistics.median(values) * factor
    text = f"{name}: {med:.6g} {unit} (median of n={len(values)}"
    hp = high_percentile(values)
    if hp:
        text += f"; p{hp[0]} {hp[1] * factor:.6g} {unit}"
    if raw:
        text += f"; raw median {statistics.median(raw) * factor:.6g} {unit}"
    return text + ")"


STAGE_UNITS = {  # stage key -> (printed name, unit, factor)
    "fit_s": ("fit_s", "s", 1.0), "grid_s": ("grid_s", "s", 1.0),
    "io_s": ("io_ms", "ms", 1e3), "pit_s": ("pit_s", "s", 1.0),
    "pd_s": ("pd_s", "s", 1.0), "residuals_s": ("residuals_s", "s", 1.0),
    "la1_eval_s": ("la1_eval_ms", "ms", 1e3), "xla_eval_s": ("xla_eval_ms", "ms", 1e3),
    "mcmc_s_per_iter": ("mcmc_ms_per_iter", "ms", 1e3),
}


def run(name, seed, seconds, trace, import_s=0.0, sizes=None, log=print):
    """Run one workload; return the final result dict (and log the rest)."""
    import workloads

    OUT_ROOT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=OUT_ROOT, prefix=f"{name}-")
    try:
        return _run(workloads, name, seed, seconds, trace, import_s, sizes or {},
                    out_dir, log)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _run(workloads, name, seed, seconds, trace, import_s, sizes, out_dir, log):
    env = environment()
    log(f"workload: {name}  seed: {seed}  seconds: {seconds}  trace: {trace}")
    log("env: " + json.dumps(env, sort_keys=True))
    cal = Calibrator()
    cal.sample()  # warm the calibration loop once
    import_scale = cal.scale_after(import_s)[0]

    setup_s, raw_setup_s = [], []
    for _ in range(SETUP_REPEATS):
        wl = workloads.WORKLOADS[name](seed, out_dir, **sizes)
        t0 = perf_counter()
        wl.setup()
        raw_setup_s.append(perf_counter() - t0)
        setup_s.append(raw_setup_s[-1] * cal.scale_after(raw_setup_s[-1])[0])
    log(f"operation: {wl.describes}; closed loop, one caller")

    base = measure(wl, cal, seconds=seconds / 2 if trace else seconds)
    passes = [base]
    layers = layers_info = None
    if trace:
        from tracing import Tracer

        with Tracer() as tracer:
            wl.setup()
            setup_end = tracer.mark()
            traced = measure(wl, cal, n_ops=base.n_ops, mark=tracer.mark)
        passes.append(traced)
        phases = {"setup": (0, setup_end), "prelude": (setup_end, traced.ops_mark),
                  "op": (traced.ops_mark, None)}
        layers, layers_info = _layer_metrics(tracer, phases, base, traced, log)
    devs = [check(wl, p) for p in passes]
    ref_dev = max((r for r, _ in devs if r is not None), default=None)
    oracle_dev = max((o for _, o in devs if o is not None), default=None)
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    for where, msg in failures:
        log(f"FAILED operation {where}: {msg}")

    metrics = {
        "setup_s": import_s * import_scale + statistics.median(setup_s),
        "op_ms": statistics.median(base.op_s) * 1e3 if base.op_s else math.nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    log(f"setup_s: {metrics['setup_s']:.6g} s (import + median of {SETUP_REPEATS} set-ups; "
        f"raw {import_s:.4g} s + {statistics.median(raw_setup_s):.4g} s)")
    if base.op_s:
        log(_fmt_timing("op_ms", base.op_s, "ms", 1e3, raw=base.raw_op_s))
    for key, values in base.stages.items():
        label, unit, factor = STAGE_UNITS[key]
        log(_fmt_timing(label, values, unit, factor))
    log(f"wall_s: {base.wall_s:.6g} s ({base.n_ops} operations, raw)")
    log(f"peak_rss_mb: {metrics['peak_rss_mb']:.6g} MB")
    log(f"failed_frac: {len(failures) / max(attempted, 1):.6g} "
        f"({len(failures)} of {attempted})")
    log("answer_rel_dev: " + ("n/a (no recorded answers for this seed)" if ref_dev is None
                              else f"{ref_dev:.3g} (vs answers recorded for seed {seed}; "
                              "fit-small's theta-hat and grid mean in posterior sd)"))
    if oracle_dev is not None:
        log(f"oracle_rel_dev: {oracle_dev:.3g} (vs dense reference computation)")

    if trace:
        out = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        out = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env, "end_to_end": metrics,
              "stages": {STAGE_UNITS[k][0]: statistics.median(v) * STAGE_UNITS[k][2]
                         for k, v in base.stages.items()},
              "answer_rel_dev": ref_dev, "oracle_rel_dev": oracle_dev,
              "layers": layers, "layers_info": layers_info,
              "raw_op_s": base.raw_op_s, "cal_s": base.cal_s}
    log("record: " + json.dumps(record, sort_keys=True))
    return {"correct": not failures and bool(base.op_s), "attempted": attempted,
            "failed": len(failures), "metrics": out}


RATIOS = ("mode.first_try_ratio", "inference.line_search_accept_ratio",
          "inference.grid_kept_ratio", "trace.overhead_frac")


def layer_unit(name):
    """Unit of a per-layer metric: a ratio, or an amount per operation (per
    set-up or per prelude stage for the layers in ``tracing.PHASE``)."""
    from tracing import PHASE

    if name in RATIOS:
        return "ratio"
    layer, _, part = name.rpartition(".")
    if part == "self_s":
        part = "s"
    if part in ("calls", "s"):
        return f"{part}/{PHASE.get(layer, 'op')}"
    return "bytes/op" if name == "io.bytes_written" else "count/op"


def _layer_metrics(tracer, phases, base, traced, log):
    """Layer metrics of the traced pass, and its informational counts.

    ``phases`` maps set-up, prelude and op to the span ranges they took.
    """
    from tracing import COUNTERS, INFORMATIONAL, PHASE

    n = max(traced.n_ops, 1)
    times = {phase: tracer.layer_times(lo, hi) for phase, (lo, hi) in phases.items()}
    out = {}
    for layer in tracer.names:
        phase = PHASE.get(layer, "op")
        calls, total, self_s = times[phase][layer]
        per = n if phase == "op" else 1  # one set-up and one prelude per pass
        out[f"{layer}.calls"] = calls / per
        out[f"{layer}.s"] = total / per
        out[f"{layer}.self_s"] = self_s / per
    counts = tracer.counters(*phases["op"])
    for k in COUNTERS:
        out[k] = counts[k] if k in RATIOS else counts[k] / n
    # 0 when a pass has no successful operation (the run is then not correct)
    out["trace.overhead_frac"] = (statistics.median(traced.op_s)
                                  / statistics.median(base.op_s) - 1.0
                                  if base.op_s and traced.op_s else 0.0)
    info = {k: counts[k] for k in INFORMATIONAL}
    log(f"traced operations: {traced.n_ops} (per-layer values count the operations' "
        "own spans, per operation; model.simulate is per set-up and diagnostics.* "
        "per prelude stage)")
    log(f"tracing overhead: {out['trace.overhead_frac']:+.2%} of the median "
        "operation time (traced minus untraced, scaled)")
    if tracer.absent:
        log("absent layer functions (reported as 0): " + ", ".join(tracer.absent))
    for k, v in out.items():
        log(f"layer {k}: {v:.6g} {layer_unit(k)}")
    for k, v in info.items():
        log(f"info {k}: {v:.6g} (mean over the traced calls; not a metric)")
    return out, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit-small", "surface-large", "mcmc-quickstart"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path.insert(0, str(SRC))
    importlib.import_module("numpy")  # shared by every Python program; not set-up
    t0 = perf_counter()
    try:
        secar = importlib.import_module("secar")
    except ImportError as exc:
        print(f"cannot import secar from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t0
    if not Path(secar.__file__).resolve().is_relative_to(SRC):
        print(f"secar was imported from {secar.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, import_s)
    except Exception:  # noqa: BLE001 - the run could not complete
        traceback.print_exc()
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
