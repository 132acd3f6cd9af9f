"""Per-layer tracing of secar from outside the package.

Each public layer function is replaced, in every ``secar`` module namespace
that holds it, by a wrapper that records a span (parent id, layer id, start,
end) in flat in-memory arrays; methods are patched on their class. The
wrappers of a few layer boundaries also record counts taken from the
arguments and results (converged blocks, Newton iterations, bytes written).
``Tracer.restore`` puts every original back. A function that no longer exists
is reported as absent instead of failing the run.

``Tracer.mark`` returns the number of spans so far; the reductions take a
span range ``[lo, hi)``, so that the spans of a workload's set-up, of its
once-per-pass stage and of its operations are summed apart.
"""

import functools
import importlib
import inspect
import math
import os
import sys
from array import array
from time import perf_counter

# (module, function) pairs traced, grouped by the layer that owns them.
LAYERS = {
    "kernels": ("fk_values", "data_nll", "data_nll_grad", "g_derivs", "pair_term",
                "mala_sweep"),
    "mode": ("find_mode", "la1_log_posterior"),
    "xla": ("g_derivatives", "invert_hessian_blocks", "correction_terms",
            "xla_from_mode", "xla_log_posterior"),
    "inference": ("LaplaceObjective.evaluate", "fd_gradient", "fd_hessian",
                  "maximize_posterior", "explore_grid"),
    "graph": ("car_precision_block", "logdet_precision"),
    "mcmc": ("run_chains",),
    "diagnostics": ("pit_residuals", "effective_parameters"),
    "model": ("simulate", "linear_predictor"),
    "io": ("fit_to_json", "write_manifest", "write_grid_csv"),
}

COUNTERS = (
    "mode.newton_iters", "mode.blocks", "mode.failed_blocks", "mode.cold_retries",
    "mode.first_try_ratio",
    "inference.evals", "inference.initial_evals", "inference.stencil_evals",
    "inference.line_search_evals", "inference.final_hessian_evals",
    "inference.grid_evals", "inference.newton_steps",
    "inference.line_search_accept_ratio", "inference.grid_kept_ratio",
    "mcmc.iterations", "mcmc.divergences",
    "io.bytes_written",
)
# counts printed and recorded but not benchmark metrics: MALA acceptance aims
# at a band, so neither direction is an improvement
INFORMATIONAL = ("mcmc.accept_y", "mcmc.accept_theta", "mcmc.accept_scale")

# Layers summed over the phase where they do their work instead of over the
# operations: the set-up simulates the panels, and the diagnostics run in the
# once-per-pass stage (``Workload.prelude``).
PHASE = {"model.simulate": "setup",
         "diagnostics.pit_residuals": "prelude",
         "diagnostics.effective_parameters": "prelude"}


def layer_names():
    """Qualified names ``<module>.<function>`` of every traced function."""
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def metric_names():
    """Every per-layer metric name, in the order the benchmark prints them."""
    names = [f"{layer}.{part}" for layer in layer_names()
             for part in ("calls", "s", "self_s")]
    return names + list(COUNTERS) + ["trace.overhead_frac"]


def _mode_info(bound, mode):
    return {"cold": bound.arguments.get("start") is None, "converged": bool(mode.converged),
            "blocks": int(mode.T), "newton_iters": int(sum(mode.block_iterations)),
            "failed_blocks": len(mode.failed_blocks)}


def _fit_info(bound, fit):
    stalled = fit.message == "line search stalled"
    return {"newton_steps": int(fit.newton_steps),
            "accepted_steps": len(fit.trace) - 1 - int(stalled)}


def _grid_info(bound, fit):
    return {"kept": len(fit.grid)}


def _chain_info(bound, result):
    _, diag = result
    args = bound.arguments
    return {"iterations": int(args.get("n_chains", 3)) * int(args.get("n_iter", 4000)),
            "accept_y": diag.accept_y, "accept_theta": diag.accept_theta,
            "accept_scale": diag.accept_scale, "divergences": int(diag.divergences)}


def _write_info(bound, result):
    return {"bytes": os.path.getsize(bound.arguments["path"])}


# Layers whose spans carry counts; the function binds the call's arguments.
_INFO = {
    "mode.find_mode": _mode_info,
    "inference.maximize_posterior": _fit_info,
    "inference.explore_grid": _grid_info,
    "mcmc.run_chains": _chain_info,
    "io.write_manifest": _write_info,
    "io.write_grid_csv": _write_info,
}


class Tracer:
    """Patches secar's layer functions and records one span per call."""

    def __init__(self):
        self.names = layer_names()
        self._index = {name: k for k, name in enumerate(self.names)}
        self.parent = array("q")
        self.layer = array("q")
        self.start = array("d")
        self.end = array("d")
        self.info = {}
        self.absent = []
        self._stack = []
        self._patches = []

    # -- patching ---------------------------------------------------------

    def install(self):
        """Wrap every layer function in every secar namespace holding it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "secar" or name.startswith("secar."))]
        for qualified in self.names:
            mod_name, _, attr = qualified.partition(".")
            try:
                module = importlib.import_module(f"secar.{mod_name}")
            except ImportError:
                self.absent.append(qualified)
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                original = cls.__dict__.get(meth) if cls is not None else None
                if original is None:
                    self.absent.append(qualified)
                    continue
                self._patch(cls, meth, original, self._wrap(qualified, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(qualified)
                continue
            wrapper = self._wrap(qualified, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def restore(self):
        """Undo every patch, newest first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, qualified, fn):
        layer = self._index[qualified]
        info_of = _INFO.get(qualified)
        signature = inspect.signature(fn) if info_of else None
        parent, layers, start, end, stack = (self.parent, self.layer, self.start,
                                             self.end, self._stack)
        info = self.info

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(layers)
            parent.append(stack[-1] if stack else -1)
            layers.append(layer)
            end.append(math.nan)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if info_of is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                info[sid] = info_of(bound, result)
            return result

        return traced

    # -- reduction --------------------------------------------------------

    def mark(self):
        """Number of spans so far; taken between top-level calls only."""
        if self._stack:
            raise RuntimeError("mark taken inside a traced call")
        return len(self.layer)

    def _range(self, lo, hi):
        return range(lo, len(self.layer) if hi is None else hi)

    def spans_of(self, qualified, lo=0, hi=None):
        k = self._index[qualified]
        return [sid for sid in self._range(lo, hi) if self.layer[sid] == k]

    def layer_times(self, lo=0, hi=None):
        """Per layer: (calls, total seconds, self seconds) of spans lo..hi-1."""
        spans = self._range(lo, hi)
        child = dict.fromkeys(spans, 0.0)
        for sid in spans:
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for sid in spans:
            dur = self.end[sid] - self.start[sid]
            rec = out[self.names[self.layer[sid]]]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - child[sid]
        return out

    def counters(self, lo=0, hi=None):
        """Counts recorded at the layer boundaries, totals over spans lo..hi-1,
        with the informational ones."""
        ev = self._index["inference.LaplaceObjective.evaluate"]
        fm = self._index["mode.find_mode"]
        mp = self._index["inference.maximize_posterior"]
        fh = self._index["inference.fd_hessian"]
        stencil = {self._index["inference.fd_gradient"], fh}
        grid = self._index["inference.explore_grid"]

        spans_of = functools.partial(self.spans_of, lo=lo, hi=hi)

        def infos(qualified):  # counts of the calls that returned
            return [self.info[s] for s in spans_of(qualified) if s in self.info]

        children = {}
        for sid in self._range(lo, hi):
            children.setdefault(self.parent[sid], []).append(sid)

        def ancestors(sid):
            p = self.parent[sid]
            while p >= 0:
                yield p
                p = self.parent[p]

        final_hessians = set()
        for sid in spans_of("inference.maximize_posterior"):
            hess = [c for c in children.get(sid, ()) if self.layer[c] == fh]
            if hess:
                final_hessians.add(hess[-1])

        c = dict.fromkeys(COUNTERS + INFORMATIONAL, 0)
        first_try_ok = evals_with_mode = 0
        for sid in spans_of("inference.LaplaceObjective.evaluate"):
            c["inference.evals"] += 1
            chain = list(ancestors(sid))
            if not chain:
                key = "inference.initial_evals"
            elif self.layer[chain[0]] == mp:
                # a fit's first evaluation is its start; later ones are line search
                siblings = [s for s in children[chain[0]] if self.layer[s] == ev]
                key = ("inference.initial_evals" if sid == siblings[0]
                       else "inference.line_search_evals")
            elif any(a in final_hessians for a in chain):
                key = "inference.final_hessian_evals"
            elif any(self.layer[a] in stencil for a in chain):
                key = "inference.stencil_evals"
            elif any(self.layer[a] == grid for a in chain):
                key = "inference.grid_evals"
            else:
                key = "inference.initial_evals"
            c[key] += 1
            modes = [self.info.get(s, {}) for s in children.get(sid, ())
                     if self.layer[s] == fm]
            if modes:
                evals_with_mode += 1
                first_try_ok += modes[0].get("converged", False)
                c["mode.cold_retries"] += sum(m.get("cold", False) for m in modes[1:])
        for rec in infos("mode.find_mode"):
            c["mode.newton_iters"] += rec["newton_iters"]
            c["mode.blocks"] += rec["blocks"]
            c["mode.failed_blocks"] += rec["failed_blocks"]
        c["mode.first_try_ratio"] = first_try_ok / evals_with_mode if evals_with_mode else 0.0

        accepted = 0
        for rec in infos("inference.maximize_posterior"):
            c["inference.newton_steps"] += rec["newton_steps"]
            accepted += rec["accepted_steps"]
        ls = c["inference.line_search_evals"]
        c["inference.line_search_accept_ratio"] = accepted / ls if ls else 0.0
        grids = infos("inference.explore_grid")
        # the grid's centre is the fit's own mode and costs no evaluation
        kept = sum(r["kept"] for r in grids) - len(grids)
        ge = c["inference.grid_evals"]
        c["inference.grid_kept_ratio"] = kept / ge if ge else 0.0

        chains = infos("mcmc.run_chains")
        c["mcmc.iterations"] = sum(r["iterations"] for r in chains)
        c["mcmc.divergences"] = sum(r["divergences"] for r in chains)
        for key in ("accept_y", "accept_theta", "accept_scale"):
            c[f"mcmc.{key}"] = sum(r[key] for r in chains) / len(chains) if chains else 0.0
        c["io.bytes_written"] = sum(r["bytes"] for name in ("io.write_manifest",
                                                            "io.write_grid_csv")
                                    for r in infos(name))
        return c
