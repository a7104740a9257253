"""``cellspot postmortem``: join distributed spans into one timeline.

A serving-plane run with ``--obs-dir`` leaves one observability
directory behind::

    obs/
      front/          spans-*.jsonl        front request spans
      builder/        spans-*.jsonl        builder.publish spans
      worker-<slot>/  spans-*.jsonl        per-request worker spans
                      segment-*.jsonl      the worker's metric samples
      postmortem-worker<slot>-*.json       death artifacts (front-written)

Every span carries the run ``trace_id`` (``tid``) and a
``perf_counter`` start (``mono`` -- ``CLOCK_MONOTONIC`` on Linux,
comparable across local processes), so this module can interleave
spans from all processes on one clock: :func:`build_postmortem`
collects and joins them, :func:`render_text` prints the timeline, and
:func:`to_chrome_trace` exports a ``chrome://tracing`` /Perfetto view
with one process lane per source.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.trace import read_span_log

#: Span sources recognized under an obs directory.
FRONT_DIR = "front"
BUILDER_DIR = "builder"
WORKER_PREFIX = "worker-"
ARTIFACT_PREFIX = "postmortem-"


def _span_sources(obs_dir: Path) -> List[Path]:
    sources = []
    try:
        entries = sorted(obs_dir.iterdir())
    except OSError:
        return []
    for entry in entries:
        if not entry.is_dir():
            continue
        if entry.name in (FRONT_DIR, BUILDER_DIR) or entry.name.startswith(
            WORKER_PREFIX
        ):
            sources.append(entry)
    return sources


def collect_spans(obs_dir: Union[str, Path]) -> List[Dict]:
    """All span records under an obs directory, stamped with a source."""
    spans: List[Dict] = []
    for source in _span_sources(Path(obs_dir)):
        for record in read_span_log(source):
            record.setdefault("src", source.name)
            spans.append(record)
    return spans


def collect_artifacts(obs_dir: Union[str, Path]) -> List[Dict]:
    """Every parseable ``postmortem-*.json`` death artifact, in order."""
    artifacts: List[Dict] = []
    obs_dir = Path(obs_dir)
    try:
        paths = sorted(obs_dir.glob(f"{ARTIFACT_PREFIX}*.json"))
    except OSError:
        return []
    for path in paths:
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(payload, dict):
            payload["_path"] = str(path)
            artifacts.append(payload)
    return artifacts


def build_postmortem(
    obs_dir: Union[str, Path], trace_id: Optional[str] = None
) -> Dict:
    """Join spans + death artifacts into one postmortem payload.

    Without an explicit ``trace_id`` the dominant one (most spans --
    one plane run is one trace) is chosen; ``trace_ids`` lists every
    id seen so a mixed directory is visible rather than silent.
    """
    obs_dir = Path(obs_dir)
    spans = collect_spans(obs_dir)
    counts: Dict[str, int] = {}
    for record in spans:
        counts[record["tid"]] = counts.get(record["tid"], 0) + 1
    trace_ids = sorted(counts, key=lambda tid: (-counts[tid], tid))
    if trace_id is None and trace_ids:
        trace_id = trace_ids[0]
    selected = [record for record in spans if record["tid"] == trace_id]
    selected.sort(key=lambda record: record.get("mono", 0.0))
    sources = sorted({record.get("src", "?") for record in selected})
    return {
        "obs_dir": str(obs_dir),
        "trace_id": trace_id,
        "trace_ids": trace_ids,
        "spans": selected,
        "sources": sources,
        "artifacts": collect_artifacts(obs_dir),
    }


def _fmt_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def render_text(postmortem: Dict, limit: Optional[int] = None) -> str:
    """A human-readable timeline (offsets relative to the first span)."""
    spans = postmortem["spans"]
    lines: List[str] = []
    lines.append(
        f"postmortem: trace {postmortem['trace_id'] or '-'} -- "
        f"{len(spans)} span(s) from "
        f"{', '.join(postmortem['sources']) or 'no sources'}"
    )
    extra = [
        tid for tid in postmortem["trace_ids"]
        if tid != postmortem["trace_id"]
    ]
    if extra:
        lines.append(f"  (other trace ids present: {', '.join(extra)})")
    shown = spans if limit is None else spans[:limit]
    epoch = shown[0].get("mono", 0.0) if shown else 0.0
    for record in shown:
        offset = record.get("mono", 0.0) - epoch
        rid = record.get("rid")
        attrs = record.get("attrs") or {}
        detail = " ".join(
            f"{key}={attrs[key]}" for key in sorted(attrs)
        )
        lines.append(
            f"  +{offset * 1e3:10.3f}ms  {record.get('src', '?'):>10s}  "
            f"{record['name']:<16s} {_fmt_duration(record.get('dur') or 0.0):>9s}"
            + (f"  rid={rid}" if rid else "")
            + (f"  {detail}" if detail else "")
        )
    if limit is not None and len(spans) > limit:
        lines.append(f"  ... {len(spans) - limit} more span(s)")
    for artifact in postmortem["artifacts"]:
        dying = artifact.get("dying_request") or {}
        lines.append(
            f"worker death: slot {artifact.get('slot')} "
            f"pid {artifact.get('pid')} ({artifact.get('reason', '?')}) -- "
            f"dying request rid={dying.get('rid') or '-'} "
            f"[{dying.get('outcome', '-')}] {dying.get('line', '')[:80]}"
        )
    return "\n".join(lines) + "\n"


def to_chrome_trace(postmortem: Dict) -> Dict:
    """Chrome ``trace_event`` JSON: one process lane per span source."""
    pids = {
        source: index + 1
        for index, source in enumerate(postmortem["sources"])
    }
    spans = postmortem["spans"]
    epoch = spans[0].get("mono", 0.0) if spans else 0.0
    events: List[Dict] = []
    for source, pid in pids.items():
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": source},
            }
        )
    for record in spans:
        args = {"trace_id": record["tid"], "span_id": record.get("sid")}
        if record.get("pid") is not None:
            args["parent_id"] = record["pid"]
        if record.get("rid") is not None:
            args["request_id"] = record["rid"]
        for key, value in (record.get("attrs") or {}).items():
            args[str(key)] = value
        events.append(
            {
                "name": record["name"],
                "cat": "cellspot",
                "ph": "X",
                "ts": (record.get("mono", 0.0) - epoch) * 1e6,
                "dur": (record.get("dur") or 0.0) * 1e6,
                "pid": pids.get(record.get("src", "?"), 0),
                "tid": 0,
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "trace_id": postmortem["trace_id"],
            "sources": postmortem["sources"],
            "obs_dir": postmortem["obs_dir"],
        },
    }
