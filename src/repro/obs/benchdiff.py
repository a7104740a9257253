"""Regression diffing over two perfbench result files.

``perfbench/run.py`` writes one JSON result per run
(``.perfbench/results/<workload>-seed<s>-trace<t>.json``), and the
repo commits one per workload as ``perfbench/baseline/<workload>.json``.
Each holds the run's ``workload`` and a ``details`` object, figure name
-> number::

    {"workload": "census", "details": {"setup_s": 7.9,
     "experiments.fig3_s": 6.7, ...}, ...}

``cellspot bench-diff OLD NEW`` compares every figure in ``details``.
A figure's direction is its ``better`` (``lower`` / ``higher``) in
``perfbench/layers.json``, where ``<...>`` in a declared name matches
any text (``experiments.<id>_s`` covers ``experiments.fig3_s``).  A
figure regresses when it moves more than ``tolerance`` (default 10%)
in its bad direction.  A figure ``layers.json`` does not declare is
listed but never regresses.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

#: Default relative regression tolerance for ``bench-diff``.
DEFAULT_TOLERANCE = 0.10

#: The metric contract, relative to the checkout root.
LAYERS_PATH = Path("perfbench") / "layers.json"


def load_result(path: Union[str, Path]) -> Dict:
    """One perfbench result; ``ValueError`` unless it has ``details``."""
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict) or not isinstance(raw.get("details"), dict):
        raise ValueError(
            f"{path}: not a perfbench result (no 'details' object)"
        )
    for name, value in raw["details"].items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{path}: details.{name} is not a number")
    return raw


def load_directions(path: Union[str, Path] = LAYERS_PATH) -> Dict[str, str]:
    """Declared figure name -> ``better`` from ``layers.json``."""
    try:
        layers = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ValueError(
            f"{path}: not found (run bench-diff from the checkout root)"
        ) from None
    return {name: entry["better"] for name, entry in layers.items()}


def _direction(name: str, directions: Dict[str, str]) -> Optional[str]:
    """``better`` for ``name``, or None when no declaration matches."""
    if name in directions:
        return directions[name]
    for pattern, better in directions.items():
        if "<" in pattern:
            head, rest = pattern.split("<", 1)
            tail = rest.split(">", 1)[1]
            if name.startswith(head) and name.endswith(tail):
                return better
    return None


def compare_results(
    old: Dict,
    new: Dict,
    directions: Dict[str, str],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[Dict]:
    """Per-figure findings between two results of one workload.

    Each finding: ``{"metric", "old", "new", "change", "better",
    "status"}`` with status one of ``ok`` / ``improved`` /
    ``regressed`` / ``added`` / ``removed``.  ``change`` is the signed
    relative delta (None when the old value is 0 or the figure is
    missing on one side); ``better`` is None for an undeclared figure.
    """
    if old.get("workload") != new.get("workload"):
        raise ValueError(
            f"different workloads: {old.get('workload')!r} vs "
            f"{new.get('workload')!r}"
        )
    findings: List[Dict] = []
    before_all, after_all = old["details"], new["details"]
    for name in sorted(set(before_all) | set(after_all)):
        before, after = before_all.get(name), after_all.get(name)
        better = _direction(name, directions)
        change = (
            (after - before) / abs(before)
            if before and after is not None else None
        )
        if before is None:
            status = "added"
        elif after is None:
            status = "removed"
        elif change is None or better is None or abs(change) <= tolerance:
            status = "ok"
        elif (change > 0) == (better == "higher"):
            status = "improved"
        else:
            status = "regressed"
        findings.append({
            "metric": name, "old": before, "new": after,
            "change": change, "better": better, "status": status,
        })
    return findings


def render_diff(findings: List[Dict], old_name: str, new_name: str) -> str:
    """Human-readable diff table; one line per figure."""
    lines = [f"bench-diff: {old_name} -> {new_name}"]
    if not findings:
        lines.append("  (no figures on either side)")
        return "\n".join(lines)
    width = max(len(f["metric"]) for f in findings)
    glyph = {"regressed": "✖", "improved": "▲", "ok": "·",
             "added": "+", "removed": "-"}
    for finding in findings:
        change = finding["change"]
        delta = "" if change is None else f"  ({change:+.1%})"
        undeclared = "" if finding["better"] else ", undeclared"
        old_value = finding["old"]
        new_value = finding["new"]
        lines.append(
            f"  {glyph[finding['status']]} {finding['metric']:<{width}}  "
            f"{'-' if old_value is None else f'{old_value:g}'} -> "
            f"{'-' if new_value is None else f'{new_value:g}'}"
            f"{delta}  [{finding['status']}{undeclared}]"
        )
    regressions = sum(1 for f in findings if f["status"] == "regressed")
    improved = sum(1 for f in findings if f["status"] == "improved")
    lines.append(
        f"  {len(findings)} figure(s): {regressions} regressed, "
        f"{improved} improved"
    )
    return "\n".join(lines)
