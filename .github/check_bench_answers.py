"""Run every benchmark workload briefly and check its answers.

Usage: python3 .github/check_bench_answers.py

For each workload named in BENCHMARK.json, runs

    python3 perfbench/run.py --workload W --seed 0 --seconds 3 --trace 0

from the repository root. Seed 0 has recorded reference answers
(perfbench/reference.json), so every operation is checked against them as
well as against the dense oracle. Exits 1 unless every run's last JSON line
says ``correct: true`` with no failed and at least one attempted operation.
When ``$GITHUB_STEP_SUMMARY`` names a file, appends to it a table of each
workload's ``op_ms`` and ``attempted``: an indicative speed reading only,
since three seconds are a few operations on a shared runner.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(workload):
    """``(problem, result)``: a message naming what is wrong with the
    workload's run, or None, and its JSON result ({} when there is none)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "3", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return f"exit {proc.returncode}, no JSON result\n{proc.stderr[-2000:]}", {}
    if result.get("correct") is not True or result.get("failed") != 0 \
            or result.get("attempted", 0) < 1:
        failures = [line for line in lines if line.startswith("FAILED")]
        return (f"correct={result.get('correct')} attempted={result.get('attempted')} "
                f"failed={result.get('failed')}\n" + "\n".join(failures[:10])), result
    return None, result


def speed_table(results):
    """Markdown rows of each workload's op_ms and attempted operations."""
    rows = ["| workload | op_ms (indicative, 3 s run) | attempted |", "|---|---|---|"]
    for workload, result in results.items():
        op_ms = result.get("metrics", {}).get("op_ms", {}).get("value")
        shown = "n/a" if op_ms is None else f"{op_ms:.1f}"
        rows.append(f"| {workload} | {shown} | {result.get('attempted', 'n/a')} |")
    return "\n".join(rows) + "\n"


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    status, results = 0, {}
    for workload in (w["name"] for w in bench["workloads"]):
        problem, results[workload] = check(workload)
        print(f"{workload}: {'ok' if problem is None else 'FAILED ' + problem}", flush=True)
        status |= problem is not None
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as fh:
            fh.write(speed_table(results))
    return status


if __name__ == "__main__":
    sys.exit(main())
