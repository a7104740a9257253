"""Self-test of the benchmark at a toy scale.

    python3 perfbench/selftest.py

Runs every workload ``BENCHMARK.json`` declares, untraced and traced,
with ``--tiny``, and checks that each run passes its own output checks
and prints exactly the declared metric names and units as finite
numbers.  Then copies ``BENCHMARK.json`` and ``perfbench/`` alone into
a scratch directory and checks that the benchmark refuses to run there
(non-zero exit, no result line).  Exits non-zero on any failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int):
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def _check_result(workload: str, trace: int, done) -> list:
    problems = []
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return [f"no result line (exit {done.returncode}): {done.stderr[-500:]}"]
    if done.returncode != 0 or result.get("correct") is not True:
        problems.append(f"exit {done.returncode}, correct={result.get('correct')}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted={result.get('attempted')!r}")
    if not isinstance(result.get("failed"), int):
        problems.append(f"failed={result.get('failed')!r}")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    expected = {spec["name"]: spec["unit"] for spec in declared}
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metric names {sorted(metrics)} != {sorted(expected)}")
    for name, metric in metrics.items():
        if metric.get("unit") != expected.get(name):
            problems.append(f"{name}: unit {metric.get('unit')!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def main() -> int:
    failures = 0
    for workload in (entry["name"] for entry in SPEC["workloads"]):
        for trace in (0, 1):
            problems = _check_result(workload, trace, _run(ROOT, workload, trace))
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload:16} trace={trace}: {status}", flush=True)
            failures += bool(problems)

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(bare, SPEC["workloads"][0]["name"], 0)
    refused = done.returncode != 0 and not done.stdout.strip()
    print(f"{'bare checkout':16}        : "
          f"{'ok' if refused else f'FAIL exit {done.returncode}'}")
    failures += not refused
    shutil.rmtree(bare, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
