"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload census --seed 1 --seconds 8 --trace 0

Runs from the root of a checkout, builds nothing (the package is pure
Python and is imported from ``src/``), checks the workload's outputs and
prints a table of its figures followed, as the last line, by one JSON
object: ``correct``, ``attempted``, ``failed`` and the metrics
``BENCHMARK.json`` declares -- the end-to-end ones with ``--trace 0``,
the per-layer ones with ``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("census", "serve-ingest")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="run at a toy scale (the self-test's smoke mode)",
    )
    return parser.parse_args(argv)


def _report(run, declared) -> dict:
    """Print the figures table; return the result object."""
    from common import WORK, declared as layer_entry

    width = max(len(name) for name in run.details)
    print(f"{run.workload} seed={run.seed} trace={int(run.trace)}")
    for name in sorted(run.details):
        entry = layer_entry(name)
        moves = entry.get("moves", "")
        print(f"  {name:<{width}}  {run.details[name]:>14.6g} "
              f"{entry['unit']:<8} {moves}")
    for note in run.notes:
        print(f"  note: {note}")
    for problem in run.problems:
        print(f"  CHECK FAILED: {problem}")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{run.workload}-seed{run.seed}-trace{int(run.trace)}"
    (results / f"{stem}.json").write_text(json.dumps({
        "workload": run.workload, "seed": run.seed, "trace": run.trace,
        "details": run.details, "notes": run.notes, "problems": run.problems,
        "attempted": run.attempted, "failed": run.failed,
        "self_times_s": run.self_times,
    }, indent=1) + "\n")
    if run.trace:
        (results / f"{stem}.chrome.json").write_text(
            run.tracer.render_chrome_json()
        )

    source = run.details if run.trace else run.metrics
    metrics = {}
    for spec in declared:
        if spec["name"] not in source:
            run.problems.append(f"metric {spec['name']} was not measured")
            continue
        metrics[spec["name"]] = {"value": source[spec["name"]], "unit": spec["unit"]}
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def _summarize_trace(run) -> None:
    """Slowest layer of the program by self time (the benchmark's own
    spans excluded), and the largest stage watermark."""
    from common import self_times

    times = self_times(run.tracer.spans() + run.extra_spans)
    run.self_times = dict(sorted(times.items(), key=lambda item: -item[1]))
    name, seconds = max(
        ((n, s) for n, s in times.items() if not n.startswith(run.own_spans)),
        key=lambda item: item[1],
    )
    run.detail("layer.slowest_self_s", seconds)
    run.notes.append(f"slowest layer by self time: {name} ({seconds:.3f} s)")
    stages = [v for k, v in run.details.items() if k.startswith("rss.")]
    run.detail("rss.peak_stage_mb", max(stages))


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    from batch import census
    from common import Run
    from serving import serve_ingest

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    workload = {"census": census, "serve-ingest": serve_ingest}[args.workload]
    try:
        workload(run)
    finally:
        run.close()
    if run.trace:
        _summarize_trace(run)
    result = _report(run, declared)
    if result["correct"]:
        shutil.rmtree(run.dir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
