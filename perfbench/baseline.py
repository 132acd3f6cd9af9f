"""Write one point of the speed trajectory.

    python3 perfbench/baseline.py --label baseline [--seed 0]

Runs every workload of ``BENCHMARK.json`` for its ``run_seconds``, once
untraced and once traced, each in its own process, and writes
``BENCH_<label>.json`` next to this file: for each workload and trace
setting, the run's full record (environment, end-to-end metrics, stage
timings, answer deviations, per-layer metrics) and its correctness counts.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = str(bench["run_seconds"])
    runs = {}
    for name in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", seconds,
                 "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True)
            lines = out.stdout.splitlines()
            record = next(json.loads(line[len("record: "):]) for line in lines
                          if line.startswith("record: "))
            result = json.loads(lines[-1])
            runs[f"{name}/trace{trace}"] = {"record": record, "correct": result["correct"],
                                           "attempted": result["attempted"],
                                           "failed": result["failed"]}
            print(f"{name} trace={trace}: {lines[-1]}", flush=True)
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
