"""Record the answers the benchmark compares against.

    python3 perfbench/record_reference.py

For every shipped seed this runs a fixed number of operations of the
workloads that have exact answers (fit-small and surface-large; MCMC chains
legitimately change path with rounding and are checked by invariants) and
writes ``reference.json`` next to this file. Run it only at a commit whose
answers are trusted: it replaces the file.
"""

import json
import sys
import tempfile

import run  # pins the thread environment before numpy loads

SEEDS = (0, 1)
OPS = {"fit-small": 16, "surface-large": 96}


def record(workloads, name, seed, n_ops):
    with tempfile.TemporaryDirectory(dir=run.OUT_ROOT) as out_dir:
        wl = workloads.WORKLOADS[name](seed, out_dir)
        wl.setup()
        entry = {"ops": [wl.summary(wl.op(i)[0]) for i in range(n_ops)]}
        if wl.has_prelude:
            entry["prelude"] = wl.prelude_summary(wl.prelude()[0])
    return entry


def main():
    sys.path.insert(0, str(run.SRC))
    import workloads

    run.OUT_ROOT.mkdir(exist_ok=True)
    data = {name: {str(seed): record(workloads, name, seed, n)
                   for seed in SEEDS} for name, n in OPS.items()}
    workloads.REFERENCE_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")
    print(f"wrote {workloads.REFERENCE_FILE}")


if __name__ == "__main__":
    main()
