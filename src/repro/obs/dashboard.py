"""``cellspot top``: a curses-free live terminal dashboard.

Renders the ``health`` payload (:meth:`CellSpotService.health`) as a
fixed-width panel layout and repaints it in place with two ANSI
control sequences (cursor-home + clear-to-end) -- no curses, no
alternate screen, degrades to plain sequential prints on dumb
terminals (``--no-ansi`` / not a TTY).

Three data sources, in preference order:

1. a running ``cellspot serve --socket`` session (the ``health`` op
   over AF_UNIX) -- live repaint mode;
2. a time-series directory (``--timeseries-dir``) -- single-shot
   reconstruction from the latest scrape;
3. a ``--metrics-out`` dump file -- single-shot, decoded by
   :func:`repro.obs.timeseries.load_metrics_dump` into the same sample
   shape as a scrape, so both render through :func:`health_from_sample`.

:func:`render_health_report` is the static twin: the same rollup as
markdown (or minimal HTML) for ``cellspot report --health``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

#: ANSI repaint prelude: home the cursor, clear to end of screen.
ANSI_HOME_CLEAR = "\x1b[H\x1b[J"
ANSI_HIDE_CURSOR = "\x1b[?25l"
ANSI_SHOW_CURSOR = "\x1b[?25h"

_BARS = " ▁▂▃▄▅▆▇█"


def sparkline(values: List[float], width: int = 24) -> str:
    """A unicode sparkline of the last ``width`` values."""
    tail = [float(v) for v in values[-width:]]
    if not tail:
        return ""
    top = max(tail)
    if top <= 0:
        return _BARS[0] * len(tail)
    return "".join(
        _BARS[min(int(value / top * (len(_BARS) - 1)), len(_BARS) - 1)]
        for value in tail
    )


def format_value(value, digits: int = 4) -> str:
    """``digits`` significant digits for floats, ``1,234`` for ints."""
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == float("inf"):
            return "inf"
        return f"{value:.{digits}g}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def format_bytes(value) -> str:
    """``123.4MiB``-style size; ``-`` for a missing or non-numeric value."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        return "-"
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024.0 or unit == "GiB":
            return (f"{value:.0f}{unit}" if unit == "B"
                    else f"{value:.1f}{unit}")
        value /= 1024.0
    return f"{value:.1f}GiB"


def _resources_from_values(values: Dict[str, float]) -> Dict:
    """The ``resources`` health block from flat metric values.

    Empty when the dump carries no :mod:`repro.obs.resources` metrics
    (a run without telemetry), so panels know to stay hidden.
    """
    mapping = {
        "rss_bytes": "process_rss_bytes",
        "rss_peak_bytes": "process_rss_peak_bytes",
        "cpu_percent": "process_cpu_percent",
        "open_fds": "process_open_fds",
        "threads": "process_threads",
    }
    return {
        key: values[name]
        for key, name in mapping.items()
        if values.get(name) is not None
    }


def _panel(title: str, rows: List[str], width: int) -> List[str]:
    inner = width - 4
    lines = [f"┌─ {title} " + "─" * max(0, width - len(title) - 5) + "┐"]
    for row in rows:
        lines.append("│ " + row[:inner].ljust(inner) + " │")
    lines.append("└" + "─" * (width - 2) + "┘")
    return lines


_STATE_GLYPHS = {"ok": "·", "pending": "▲", "firing": "✖"}


def render_dashboard(health: Dict, width: int = 78) -> str:
    """The ``cellspot top`` frame for one health payload."""
    engine = health.get("engine") or {}
    rates = health.get("rates") or {}
    drift = health.get("drift") or {}
    alerts = health.get("alerts") or []
    lines: List[str] = []
    stamp = time.strftime("%H:%M:%S", time.localtime(health.get("ts", time.time())))
    title = f"cellspot top · {stamp}"
    source = health.get("source", "")
    if source:
        title += f" · {source}"
    lines.append(title[:width])

    engine_rows = [
        f"month {engine.get('month') or '-'}   "
        f"events {format_value(engine.get('events_consumed', 0))}   "
        f"windows {format_value(engine.get('windows_advanced', 0))}",
        f"subnets {format_value(engine.get('subnets', 0))}   "
        f"window fill {format_value(engine.get('window_fill', 0))}   "
        f"index entries {format_value(health.get('index_entries', 0))}",
        f"ingest {format_value(rates.get('events_per_s'))} ev/s   "
        f"queries {format_value(rates.get('queries_per_s'))} q/s   "
        f"p99 {format_value(rates.get('query_p99_s'))} s",
    ]
    lines += _panel("engine", engine_rows, width)

    last = drift.get("last") or {}
    drift_rows = [
        f"psi {format_value(last.get('psi'))}   ks {format_value(last.get('ks'))}   "
        f"churn {format_value(last.get('churn_rate'))}   "
        f"scored {format_value(drift.get('windows_scored', 0))} windows",
        f"psi trend {sparkline(drift.get('recent_psi') or [])}",
        f"baseline: {format_value(drift.get('baseline_windows', 0))} windows, "
        f"{format_value(drift.get('baseline_subnets', 0))} subnets",
    ]
    lines += _panel("census drift", drift_rows, width)

    resources = health.get("resources") or {}
    if resources:
        resource_rows = [
            f"rss {format_bytes(resources.get('rss_bytes'))}   "
            f"peak {format_bytes(resources.get('rss_peak_bytes'))}   "
            f"cpu {format_value(resources.get('cpu_percent'))}%   "
            f"fds {format_value(resources.get('open_fds'))}   "
            f"threads {format_value(resources.get('threads'))}",
        ]
        stages = resources.get("stages") or []
        for stage_row in stages[:3]:
            resource_rows.append(
                f"stage {str(stage_row.get('stage', '?'))[:40]:40s} "
                f"peak {format_bytes(stage_row.get('rss_peak_bytes'))}"
            )
        lines += _panel("resources", resource_rows, width)

    workers = health.get("workers") or []
    if workers:
        worker_rows = []
        for row in workers:
            worker_rows.append(
                f"worker {str(row.get('worker', '?')):>3s}   "
                f"gen {format_value(row.get('generation'))}   "
                f"queries {format_value(row.get('queries'))}   "
                f"p99 {format_value(row.get('p99_s'))} s   "
                f"rss {format_bytes(row.get('rss_bytes'))}"
            )
        lines += _panel("workers", worker_rows, width)

    if alerts:
        alert_rows = []
        ordering = {"firing": 0, "pending": 1, "ok": 2}
        for state in sorted(
            alerts, key=lambda s: (ordering.get(s.get("state"), 3),
                                   s.get("rule", ""))
        ):
            glyph = _STATE_GLYPHS.get(state.get("state"), "?")
            alert_rows.append(
                f"{glyph} {state.get('state', '?'):7s} "
                f"{state.get('rule', '?'):24s} "
                f"{state.get('condition', '')}  "
                f"[{format_value(state.get('value'))}]"
            )
    else:
        alert_rows = ["(no alert rules loaded)"]
    lines += _panel("alerts", alert_rows, width)
    return "\n".join(lines)


# ---- data sources ---------------------------------------------------------


def query_socket(socket_path: Union[str, Path], op: str, timeout: float = 2.0) -> Dict:
    """One request against a running serve session's AF_UNIX socket."""
    import socket as socket_module

    connection = socket_module.socket(
        socket_module.AF_UNIX, socket_module.SOCK_STREAM
    )
    connection.settimeout(timeout)
    try:
        connection.connect(str(socket_path))
        connection.sendall(
            (json.dumps({"op": op}) + "\n").encode("utf-8")
        )
        reader = connection.makefile("r")
        line = reader.readline()
    finally:
        connection.close()
    if not line:
        raise OSError(f"no response from {socket_path}")
    return json.loads(line)


def health_from_metrics_dump(path: Union[str, Path]) -> Dict:
    """A health payload from a --metrics-out dump (JSON or Prometheus)."""
    from repro.obs.timeseries import load_metrics_dump

    return health_from_sample(load_metrics_dump(path), source=str(path))


def health_from_timeseries(directory: Union[str, Path]) -> Dict:
    """A health payload from the latest scrape in a time-series dir.

    The newest sample comes from the tail of the newest segment; the
    ingest and query rates from one pass over the stored counter
    deltas, not lifetime averages.
    """
    from repro.obs.timeseries import TimeSeriesReader, read_latest_sample

    latest = read_latest_sample(directory)
    if latest is None:
        raise OSError(f"no samples under {directory}")
    health = health_from_sample(latest, source=str(directory))
    rates = TimeSeriesReader(directory).rates(
        ("stream_events_total", "queries_total")
    )
    for name, key in (
        ("stream_events_total", "events_per_s"),
        ("queries_total", "queries_per_s"),
    ):
        if rates[name]:
            health["rates"][key] = rates[name][-1][1]
    return health


def health_from_sample(sample: Dict, source: str) -> Dict:
    """A health payload from one tagged-array scrape sample.

    Serves both a time-series scrape and a decoded ``--metrics-out``
    dump (:func:`repro.obs.timeseries.load_metrics_dump`).
    """
    from repro.obs.timeseries import split_metric_tag

    metrics = sample.get("m", {})
    values: Dict[str, float] = {}
    for name, payload in metrics.items():
        if payload[0] in ("c", "g"):
            values[name] = payload[1]
        elif payload[0] == "h":
            values[f"{name}_p99"] = payload[4] or 0.0
    health = _health_from_values(values, source, sample.get("ts"))
    # Federated per-worker series (serving plane): tagged keys like
    # scale_worker_query_latency_seconds{worker="0"} become one
    # dashboard row per worker.
    workers: Dict[str, Dict] = {}
    stages: Dict[str, float] = {}
    for name, payload in metrics.items():
        if "{" not in name:
            continue
        base, labels = split_metric_tag(name)
        if (
            base == "rss_peak_bytes"
            and labels.get("stage")
            and payload[0] == "g"
        ):
            # Stage watermarks from this process and (federated)
            # workers fold into one heaviest-stages view.
            stage = labels["stage"]
            stages[stage] = max(stages.get(stage, 0.0), payload[1])
        slot = labels.get("worker")
        if slot is None:
            continue
        row = workers.setdefault(slot, {"worker": slot})
        if base == "scale_worker_query_latency_seconds" and payload[0] == "h":
            row["queries"] = payload[1]
            row["p99_s"] = payload[4]
        elif base == "scale_worker_generation" and payload[0] == "g":
            row["generation"] = payload[1]
        elif base == "process_rss_bytes" and payload[0] == "g":
            row["rss_bytes"] = payload[1]
    if workers:
        health["workers"] = [
            workers[slot] for slot in sorted(workers, key=str)
        ]
    if stages:
        health.setdefault("resources", {})["stages"] = [
            {"stage": stage, "rss_peak_bytes": peak}
            for stage, peak in sorted(
                stages.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]
    return health


def _health_from_values(
    values: Dict[str, float], source: str, ts: Optional[float]
) -> Dict:
    return {
        "ok": True,
        "source": source,
        "ts": ts,
        "engine": {
            "month": None,
            "events_consumed": int(
                values.get("stream_events_total")
                or values.get("events_ingested_total")
                or 0
            ),
            "windows_advanced": int(
                values.get("stream_window_advances_total")
                or values.get("window_advances_total")
                or 0
            ),
            "subnets": int(
                values.get("stream_tracked_subnets")
                or values.get("tracked_subnets")
                or 0
            ),
            "window_fill": int(values.get("stream_window_lag_events") or 0),
        },
        "rates": {
            "events_per_s": values.get("ingest_events_per_s"),
            "queries_per_s": None,
            "query_p99_s": values.get("query_latency_seconds_p99"),
        },
        "drift": {
            "windows_scored": int(
                values.get("census_windows_scored_total") or 0
            ),
            "baseline_windows": None,
            "baseline_subnets": None,
            "recent_psi": [],
            "last": {
                "psi": values.get("census_ratio_psi"),
                "ks": values.get("census_ratio_ks"),
                "churn_rate": values.get("census_churn_rate"),
            },
        },
        "resources": _resources_from_values(values),
        "alerts": [],
        "index_entries": 0,
    }


# ---- the top loop ---------------------------------------------------------


def run_top(
    fetch: Callable[[], Optional[Dict]],
    out,
    interval_s: float = 1.0,
    iterations: Optional[int] = None,
    ansi: bool = True,
    width: int = 78,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Repaint loop: fetch -> render -> sleep, until exhausted.

    ``fetch`` returns a health payload or None (source gone -- stop).
    ``iterations=None`` runs until KeyboardInterrupt or fetch failure;
    returns the number of frames painted.
    """
    frames = 0
    try:
        if ansi:
            out.write(ANSI_HIDE_CURSOR)
        while iterations is None or frames < iterations:
            health = fetch()
            if health is None:
                break
            if ansi:
                out.write(ANSI_HOME_CLEAR)
            out.write(render_dashboard(health, width=width))
            out.write("\n")
            out.flush()
            frames += 1
            if iterations is not None and frames >= iterations:
                break
            sleep(interval_s)
    except KeyboardInterrupt:
        pass
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; the frames already
        # painted still count, and the cursor restore below is moot.
        return frames
    finally:
        if ansi:
            try:
                out.write(ANSI_SHOW_CURSOR)
                out.flush()
            except BrokenPipeError:
                pass
    return frames


# ---- static rollup (cellspot report --health) -----------------------------


def render_health_report(
    health: Dict,
    alert_events: Optional[List[Dict]] = None,
    fmt: str = "markdown",
) -> str:
    """The dashboard's static twin: a markdown (or HTML) rollup."""
    from repro.obs.alerts import episodes

    engine = health.get("engine") or {}
    drift = health.get("drift") or {}
    last = drift.get("last") or {}
    lines = [
        "# cellspot health rollup",
        "",
        f"source: `{health.get('source', 'live service')}`",
        "",
        "## engine",
        "",
        f"- events consumed: {format_value(engine.get('events_consumed', 0))}",
        f"- windows advanced: {format_value(engine.get('windows_advanced', 0))}",
        f"- tracked subnets: {format_value(engine.get('subnets', 0))}",
        "",
        "## census drift",
        "",
        f"- PSI (latest window vs baseline): {format_value(last.get('psi'))}",
        f"- KS distance: {format_value(last.get('ks'))}",
        f"- classification churn rate: {format_value(last.get('churn_rate'))}",
        f"- windows scored: {format_value(drift.get('windows_scored', 0))}",
    ]
    trend = sparkline(drift.get("recent_psi") or [])
    if trend:
        lines.append(f"- PSI trend: `{trend}`")
    resources = health.get("resources") or {}
    if resources:
        lines += ["", "## resources", ""]
        if resources.get("rss_bytes") is not None:
            lines.append(
                f"- RSS: {format_bytes(resources.get('rss_bytes'))} "
                f"(peak {format_bytes(resources.get('rss_peak_bytes'))})"
            )
        if resources.get("cpu_percent") is not None:
            lines.append(f"- CPU: {format_value(resources.get('cpu_percent'))}%")
        if resources.get("open_fds") is not None:
            lines.append(
                f"- open fds: {format_value(resources.get('open_fds'))}, "
                f"threads: {format_value(resources.get('threads'))}"
            )
        stages = resources.get("stages") or []
        if stages:
            lines.append("- heaviest stages by peak RSS:")
            for stage_row in stages[:5]:
                lines.append(
                    f"  - `{stage_row.get('stage')}`: "
                    f"{format_bytes(stage_row.get('rss_peak_bytes'))}"
                )
    lines += ["", "## alerts", ""]
    states = health.get("alerts") or []
    if states:
        lines.append("| rule | state | condition | value |")
        lines.append("|---|---|---|---|")
        for state in states:
            lines.append(
                f"| {state.get('rule')} | {state.get('state')} "
                f"| `{state.get('condition')}` "
                f"| {format_value(state.get('value'))} |"
            )
    else:
        lines.append("(no live alert states)")
    if alert_events:
        lines += ["", "### firing episodes", ""]
        for episode in episodes(alert_events):
            ended = (
                format_value(episode.get("ended")) if episode.get("ended") else "open"
            )
            lines.append(
                f"- `{episode['rule']}` "
                f"{'fired' if episode['fired'] else 'pending only'}: "
                f"{format_value(episode.get('started'))} → {ended}, "
                f"peak {format_value(episode.get('peak_value'))} "
                f"(trace `{episode.get('trace_id')}`)"
            )
    text = "\n".join(lines) + "\n"
    if fmt == "html":
        body = (
            text.replace("&", "&amp;")
            .replace("<", "&lt;")
            .replace(">", "&gt;")
        )
        return (
            "<!doctype html><html><head><meta charset='utf-8'>"
            "<title>cellspot health</title></head>"
            f"<body><pre>{body}</pre></body></html>\n"
        )
    return text
