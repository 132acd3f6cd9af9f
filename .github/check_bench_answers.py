"""Run every benchmark workload briefly and check its answers.

Usage: python3 .github/check_bench_answers.py

For each workload named in BENCHMARK.json, runs

    python3 perfbench/run.py --workload W --seed 0 --seconds 3 --trace 0

from the repository root. Seed 0 has recorded reference answers
(perfbench/reference.json), so every operation is checked against them as
well as against the dense oracle. Exits 1 unless every run's last JSON line
says ``correct: true`` with no failed and at least one attempted operation.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(workload):
    """A message naming what is wrong with the workload's run, or None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "3", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return f"exit {proc.returncode}, no JSON result\n{proc.stderr[-2000:]}"
    if result.get("correct") is not True or result.get("failed") != 0 \
            or result.get("attempted", 0) < 1:
        failures = [line for line in lines if line.startswith("FAILED")]
        return (f"correct={result.get('correct')} attempted={result.get('attempted')} "
                f"failed={result.get('failed')}\n" + "\n".join(failures[:10]))
    return None


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    status = 0
    for workload in (w["name"] for w in bench["workloads"]):
        problem = check(workload)
        print(f"{workload}: {'ok' if problem is None else 'FAILED ' + problem}", flush=True)
        status |= problem is not None
    return status


if __name__ == "__main__":
    sys.exit(main())
