"""Append-only metric time-series: scrape, ring segments, range reads.

PR 4's telemetry spine is point-in-time -- one registry snapshot at
exit or on ``SIGUSR1``.  This module adds *history*: a fixed-interval
:class:`MetricScraper` samples the process-global
:class:`~repro.obs.metrics.MetricsRegistry` into an on-disk
:class:`TimeSeriesStore`, and :class:`TimeSeriesReader` answers range
queries (values, counter deltas, per-second rates) afterwards -- the
substrate the alert engine (:mod:`repro.obs.alerts`) and the
``cellspot top`` dashboard (:mod:`repro.obs.dashboard`) evaluate over.

**File format.**  A store directory holds a bounded ring of JSONL
*segment* files (``segment-00000001.jsonl`` ...).  One line is one
scrape::

    {"ts": 1700000000.5, "m": {"stream_events_total": ["c", 8192],
                               "tracked_subnets": ["g", 311.0],
                               "query_latency_seconds":
                                   ["h", 120, 0.031, 0.00025, 0.001]}}

Metric payloads are compact tagged arrays -- ``["c", value]`` for
counters, ``["g", value]`` for gauges, ``["h", count, sum, p50, p99]``
for histograms.  :func:`decode_payload` is the one reader of that
format; every other module goes through it or :func:`payload_scalar`.
Counters are stored *raw* (cumulative); the reader is
delta/rate-aware and derives per-interval rates, treating a negative
delta as a process restart (rate from the new raw value, never a
negative rate).

**Rotation.**  The active segment rotates after
``max_segment_samples`` lines: the new segment file is created first
and the oldest ring member is unlinked only afterwards, so a reader
(or a crash) at any instant sees complete JSONL lines in a contiguous
ring -- never a torn or half-rotated view.  Appends are
write-then-flush of a single line, which POSIX appends atomically for
lines under the pipe buffer size; a truncated final line (hard kill)
is skipped by the reader rather than poisoning the whole store.

**Dumps.**  :func:`load_metrics_dump` decodes a ``--metrics-out`` file
(JSON or Prometheus text) into the same sample shape, so ``stats``,
``top`` and ``report --health`` read a dump like one scrape.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union,
)

from repro.obs.metrics import (
    MetricsRegistry,
    _bucket_quantile,
    global_registry,
    parse_prometheus_text,
)

SEGMENT_PREFIX = "segment-"
SEGMENT_SUFFIX = ".jsonl"

#: Default scrape cadence (seconds); deliberately coarse -- the store
#: is an SLO/drift substrate, not a profiler.
DEFAULT_INTERVAL_S = 1.0


def scrape_registry(
    registry: Optional[MetricsRegistry] = None,
    clock: Callable[[], float] = time.time,
) -> Dict:
    """One scrape: the registry as a compact tagged-array sample."""
    registry = registry if registry is not None else global_registry()
    return {"ts": clock(), "m": tag_snapshot(registry.as_dict())}


def tag_snapshot(snapshot: Dict) -> Dict[str, List]:
    """``{tagged key: tagged array}`` for one ``as_dict()`` snapshot.

    The live scrape and a loaded JSON ``--metrics-out`` dump both go
    through here.  A labelled gauge fans out into one
    ``name{label="value"}`` key per label; entries that are not metric
    payloads (``_uptime_s``) are skipped.
    """
    metrics: Dict[str, List] = {}
    for name, payload in snapshot.items():
        if not isinstance(payload, dict):
            continue
        kind = payload.get("type")
        if kind in ("counter", "gauge"):
            metrics[name] = [kind[0], payload.get("value", 0)]
        elif kind == "histogram":
            metrics[name] = [
                "h",
                payload.get("count", 0),
                payload.get("sum", 0.0),
                payload.get("p50"),
                payload.get("p99"),
            ]
        elif kind == "labeled_gauge":
            label = payload["label"]
            for label_value, value in payload["values"].items():
                metrics[tag_metric(name, **{label: label_value})] = (
                    ["g", value]
                )
    return metrics


def decode_payload(payload) -> Tuple[Optional[str], object]:
    """One tagged-array payload as ``(type, value)``.

    The one reader of the format :func:`tag_snapshot` writes: counters
    and gauges decode to ``("counter" | "gauge", value)``, histograms to
    ``("histogram", {"count", "sum", "p50", "p99"})``, and anything
    malformed to ``(None, None)``.  Values come back as stored, so a
    ``null`` stays ``None``.
    """
    if isinstance(payload, (list, tuple)) and len(payload) >= 2:
        if payload[0] in ("c", "g"):
            return ("counter" if payload[0] == "c" else "gauge"), payload[1]
        if payload[0] == "h" and len(payload) >= 5:
            fields = ("count", "sum", "p50", "p99")
            return "histogram", dict(zip(fields, payload[1:5]))
    return None, None


def payload_scalar(payload, q: Optional[float] = None) -> Optional[float]:
    """One payload as a float; None when it has none.

    Counters and gauges give their value.  A histogram gives its p50 or
    p99 when ``q`` is 0.5 or 0.99, else its count.  Null, non-numeric
    and malformed payloads give None.
    """
    kind, value = decode_payload(payload)
    if kind == "histogram":
        value = value["count" if q is None else "p50" if q == 0.5 else "p99"]
    try:
        return None if value is None else float(value)
    except (TypeError, ValueError):
        return None


def counter_rate(
    before: Tuple[float, float], after: Tuple[float, float]
) -> Optional[float]:
    """Per-second rate between two ``(ts, value)`` counter points.

    Restart-aware: counters are process-local and monotonic, so a
    negative delta means a restart and the rate comes from the new raw
    value alone.  None when time did not advance.
    """
    (t0, v0), (t1, v1) = before, after
    if t1 - t0 <= 0:
        return None
    delta = v1 - v0
    return (v1 if delta < 0 else delta) / (t1 - t0)


def _tag_prometheus(text: str) -> Dict[str, List]:
    """Prometheus exposition text as tagged arrays (strictly parsed).

    Histogram p50/p99 come from the cumulative ``_bucket`` series by
    the rule :meth:`Histogram.quantile` applies to live buckets; the
    zero placeholder of an empty labelled family is dropped, as the
    JSON export has no series for it either.
    """
    metrics: Dict[str, List] = {}
    for name, family in parse_prometheus_text(text).items():
        if family["type"] == "histogram":
            bounds: List[float] = []
            cumulative: List[float] = []
            totals: Dict[str, float] = {}
            for sample_name, labels, value in family["samples"]:
                le = _labels(labels).get("le")
                if sample_name != f"{name}_bucket":
                    totals[sample_name] = value
                elif le not in (None, "+Inf"):
                    bounds.append(float(le))
                    cumulative.append(value)
            count = totals.get(f"{name}_count", 0)
            per_bucket = [
                upper - lower
                for lower, upper in zip([0] + cumulative, cumulative + [count])
            ]
            metrics[name] = ["h", count, totals.get(f"{name}_sum", 0.0)] + [
                _bucket_quantile(bounds, per_bucket, count, q)
                for q in (0.5, 0.99)
            ]
            continue
        tag = "c" if family["type"] == "counter" else "g"
        for sample_name, labels, value in family["samples"]:
            parsed = _labels(labels)
            if parsed and not any(parsed.values()):
                continue
            metrics[tag_metric(sample_name, **parsed)] = [tag, value]
    return metrics


def _labels(raw: str) -> Dict[str, str]:
    """A Prometheus label string (``stage="x"``) as a dict."""
    return split_metric_tag(f"_{{{raw}}}")[1]


def _plain(value):
    """Integral floats as ints: Prometheus text cannot tell 2.0 from 2."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def load_metrics_dump(path: Union[str, Path]) -> Dict:
    """A ``--metrics-out`` dump (JSON or Prometheus text) as one sample.

    Both formats decode to the sample a live scrape produces, stamped
    with the file's mtime, plus the ``process_uptime_seconds`` gauge.
    Numbers are normalised as Prometheus text stores them, so one
    registry gives one sample in either format.  Raises ``OSError`` or
    ``ValueError`` on unreadable or malformed files.
    """
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".json":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("metrics JSON is not an object")
        metrics = tag_snapshot(raw)
        if "_uptime_s" in raw:
            metrics["process_uptime_seconds"] = ["g", raw["_uptime_s"]]
    else:
        metrics = _tag_prometheus(text)
    return {
        "ts": path.stat().st_mtime,
        "m": {
            key: [payload[0]] + [_plain(value) for value in payload[1:]]
            for key, payload in metrics.items()
        },
    }


class TimeSeriesStore:
    """Bounded ring of append-only JSONL segments under one directory.

    ``prefix`` names the ring: two rings with distinct prefixes (metric
    ``segment-`` samples and trace ``spans-`` records, say) can share
    one directory without seeing each other's files.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        max_segment_samples: int = 512,
        max_segments: int = 8,
        prefix: str = SEGMENT_PREFIX,
    ) -> None:
        if max_segment_samples < 1:
            raise ValueError("max_segment_samples must be >= 1")
        if max_segments < 2:
            raise ValueError("max_segments must be >= 2 (ring semantics)")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_segment_samples = max_segment_samples
        self.max_segments = max_segments
        self.prefix = prefix
        self._lock = threading.Lock()
        existing = _segment_indices(self.directory, prefix)
        self._active_index = existing[-1] if existing else 1
        self._active_samples = (
            _count_lines(self._segment_path(self._active_index))
            if existing
            else 0
        )

    def _segment_path(self, index: int) -> Path:
        return self.directory / f"{self.prefix}{index:08d}{SEGMENT_SUFFIX}"

    @property
    def active_segment(self) -> Path:
        return self._segment_path(self._active_index)

    def append(self, sample: Dict) -> None:
        """Append one scrape sample (thread-safe, single-line write)."""
        self.append_many((sample,))

    def append_many(self, samples) -> None:
        """Append several samples under one segment open.

        One ``open``/``flush`` for the whole batch -- this is what
        keeps per-request span trees cheap on the serving hot path.
        The batch lands in the current segment even if it overshoots
        ``max_segment_samples`` slightly: the ring bound is a trim
        target, not an exact invariant.
        """
        lines = [
            json.dumps(sample, separators=(",", ":")) for sample in samples
        ]
        if not lines:
            return
        payload = "\n".join(lines) + "\n"
        with self._lock:
            if self._active_samples >= self.max_segment_samples:
                self._rotate_locked()
            with self.active_segment.open("a") as stream:
                stream.write(payload)
                stream.flush()
            self._active_samples += len(lines)

    def _rotate_locked(self) -> None:
        """Open the next segment, then trim the ring (create-then-unlink)."""
        self._active_index += 1
        self._active_samples = 0
        # Create the new segment *first* so the ring never shrinks below
        # its floor mid-rotation, then drop members beyond the bound.
        self.active_segment.touch()
        indices = _segment_indices(self.directory, self.prefix)
        while len(indices) > self.max_segments:
            oldest = indices.pop(0)
            try:
                self._segment_path(oldest).unlink()
            except OSError:
                break

    def segment_count(self) -> int:
        return len(_segment_indices(self.directory, self.prefix))


def _segment_indices(
    directory: Path, prefix: str = SEGMENT_PREFIX
) -> List[int]:
    indices = []
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    for name in names:
        if name.startswith(prefix) and name.endswith(SEGMENT_SUFFIX):
            middle = name[len(prefix):-len(SEGMENT_SUFFIX)]
            try:
                indices.append(int(middle))
            except ValueError:
                continue
    return sorted(indices)


def _count_lines(path: Path) -> int:
    try:
        with path.open() as stream:
            return sum(1 for _ in stream)
    except OSError:
        return 0


class TimeSeriesReader:
    """Range queries over a :class:`TimeSeriesStore` directory."""

    def __init__(
        self, directory: Union[str, Path], prefix: str = SEGMENT_PREFIX
    ) -> None:
        self.directory = Path(directory)
        self.prefix = prefix

    def samples(
        self,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Iterator[Dict]:
        """Every parseable sample in ``[start, end]``, in time order.

        Unparseable lines (a torn final line after a hard kill) are
        skipped, never raised.
        """
        for index in _segment_indices(self.directory, self.prefix):
            path = self.directory / (
                f"{self.prefix}{index:08d}{SEGMENT_SUFFIX}"
            )
            try:
                text = path.read_text()
            except OSError:
                continue
            for line in text.splitlines():
                if not line.strip():
                    continue
                try:
                    sample = json.loads(line)
                except ValueError:
                    continue
                ts = sample.get("ts")
                if not isinstance(ts, (int, float)):
                    continue
                if start is not None and ts < start:
                    continue
                if end is not None and ts > end:
                    continue
                yield sample

    def series(
        self,
        name: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> List[Tuple[float, object]]:
        """``[(ts, decoded value)]`` for one metric over a range.

        Counters/gauges decode to their scalar; histograms decode to
        ``{"count", "sum", "p50", "p99"}``.
        """
        points: List[Tuple[float, object]] = []
        for sample in self.samples(start, end):
            kind, value = decode_payload(sample.get("m", {}).get(name))
            if kind is not None:
                points.append((sample["ts"], value))
        return points

    def metric_names(self) -> List[str]:
        names = set()
        for sample in self.samples():
            names.update(sample.get("m", {}))
        return sorted(names)

    def latest(self, name: str) -> Optional[Tuple[float, object]]:
        points = self.series(name)
        return points[-1] if points else None

    def rate(
        self,
        name: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> List[Tuple[float, float]]:
        """Per-second counter rates between consecutive scrapes.

        Each point is stamped with the *later* scrape's timestamp.  A
        negative delta means the process restarted (counters are
        process-local and monotonic); the rate is then derived from the
        new raw value alone, so restarts never produce negative rates.
        """
        return self.rates((name,), start, end)[name]

    def rates(
        self,
        names: Iterable[str],
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Dict[str, List[Tuple[float, float]]]:
        """:meth:`rate` for several counters in one pass over the ring."""
        rates: Dict[str, List] = {name: [] for name in names}
        previous: Dict[str, Tuple[float, float]] = {}
        for sample in self.samples(start, end):
            metrics = sample.get("m", {})
            for name, points in rates.items():
                payload = metrics.get(name)
                if decode_payload(payload)[0] != "counter":
                    continue
                value = payload_scalar(payload)
                if value is None:
                    continue  # a null counter is no data, as for alerts
                point = (sample["ts"], value)
                if name in previous:
                    rate = counter_rate(previous[name], point)
                    if rate is not None:
                        points.append((point[0], rate))
                previous[name] = point
        return rates


def read_latest_sample(
    directory: Union[str, Path], prefix: str = SEGMENT_PREFIX
) -> Optional[Dict]:
    """The newest parseable sample in a store directory, or ``None``.

    Walks segments newest-first and lines last-first, so it touches one
    (occasionally two) files -- cheap enough for a federation poll on
    every scrape tick.  Torn final lines are skipped like the reader's.
    """
    directory = Path(directory)
    for index in reversed(_segment_indices(directory, prefix)):
        path = directory / f"{prefix}{index:08d}{SEGMENT_SUFFIX}"
        try:
            text = path.read_text()
        except OSError:
            continue
        for line in reversed(text.splitlines()):
            if not line.strip():
                continue
            try:
                sample = json.loads(line)
            except ValueError:
                continue
            if isinstance(sample, dict) and isinstance(
                sample.get("ts"), (int, float)
            ):
                return sample
    return None


def tag_metric(name: str, **labels: object) -> str:
    """``name{worker="0"}``-style key for a labelled series in a sample."""
    inner = ",".join(
        f'{key}="{labels[key]}"' for key in sorted(labels)
    )
    return f"{name}{{{inner}}}" if inner else name


def split_metric_tag(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`tag_metric`: ``(base name, labels)``."""
    brace = key.find("{")
    if brace < 0 or not key.endswith("}"):
        return key, {}
    labels: Dict[str, str] = {}
    for part in key[brace + 1:-1].split(","):
        eq = part.find("=")
        if eq < 0:
            continue
        labels[part[:eq]] = part[eq + 1:].strip('"')
    return key[:brace], labels


class MetricScraper:
    """Fixed-interval background scraper feeding a store + subscribers.

    ``on_sample`` callbacks (the alert engine, the drift dashboard)
    run on the scraper thread after each append; a raising callback is
    isolated (counted, never kills the thread).  :meth:`scrape_once`
    is the deterministic entry point tests and single-shot CLI paths
    use -- the thread is optional.
    """

    def __init__(
        self,
        store: TimeSeriesStore,
        registry: Optional[MetricsRegistry] = None,
        interval_s: float = DEFAULT_INTERVAL_S,
        clock: Callable[[], float] = time.time,
        source: Optional[str] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.store = store
        self._registry = registry
        self.interval_s = interval_s
        self.clock = clock
        #: Stamped into every sample as ``src`` (e.g. ``worker-3``) so
        #: federated stores identify their emitting process.
        self.source = source
        self.samples_taken = 0
        self.callback_errors = 0
        self.enricher_errors = 0
        self.collector_errors = 0
        self._callbacks: List[Callable[[Dict], None]] = []
        self._enrichers: List[Callable[[], Dict[str, List]]] = []
        self._collectors: List[Callable[[], None]] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @property
    def registry(self) -> MetricsRegistry:
        # Late-bound: observed_command swaps the global registry per
        # run, and a scraper built before that must follow the swap.
        return (
            self._registry
            if self._registry is not None
            else global_registry()
        )

    def subscribe(self, callback: Callable[[Dict], None]) -> None:
        self._callbacks.append(callback)

    def add_enricher(
        self, enricher: Callable[[], Dict[str, List]]
    ) -> None:
        """Merge extra series into every sample *before* it is stored.

        An enricher returns ``{key: tagged-array}`` entries (e.g. the
        serving plane's per-worker federation reads); they land in the
        sample's ``m`` dict, so the alert engine and every offline
        reader see them like native metrics.  A raising enricher is
        isolated (counted), like callbacks.
        """
        self._enrichers.append(enricher)

    def add_collector(self, collector: Callable[[], None]) -> None:
        """Run a hook *before* each registry scrape.

        Collectors update the registry itself (the resource sampler
        reads ``/proc`` into its gauges here), so their values land in
        the very sample being taken rather than one scrape late the
        way an enricher's would.  A raising collector is isolated and
        counted, like enrichers.
        """
        self._collectors.append(collector)

    def scrape_once(self, ts: Optional[float] = None) -> Dict:
        for collector in self._collectors:
            try:
                collector()
            except Exception:  # noqa: BLE001 -- probes must not kill scraping
                self.collector_errors += 1
        sample = scrape_registry(self.registry, clock=self.clock)
        if ts is not None:
            sample["ts"] = ts
        if self.source is not None:
            sample["src"] = self.source
        for enricher in self._enrichers:
            try:
                sample["m"].update(enricher())
            except Exception:  # noqa: BLE001 -- federation must not kill scraping
                self.enricher_errors += 1
                self._count_enricher_error(enricher)
        self.store.append(sample)
        self.samples_taken += 1
        for callback in self._callbacks:
            try:
                callback(sample)
            except Exception:  # noqa: BLE001 -- observers must not kill scraping
                self.callback_errors += 1
        return sample

    def _count_enricher_error(self, enricher) -> None:
        """Surface an enricher failure: counter + named debug log line."""
        import logging

        from repro.runtime.logging import get_logger, log_event

        name = getattr(
            enricher, "__qualname__", getattr(enricher, "__name__", None)
        ) or repr(enricher)
        try:
            self.registry.counter(
                "scraper_enricher_errors_total",
                "sample enrichers that raised (isolated per scrape)",
                exist_ok=True,
            ).inc()
        except ValueError:
            pass  # name collision with a foreign metric type
        log_event(
            get_logger("obs.scraper"), logging.DEBUG,
            "enricher_error", enricher=name,
        )

    # ---- thread management ----------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        if self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="cellspot-metric-scraper", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.scrape_once()
            except OSError:
                # A full disk must not kill telemetry; next tick retries.
                continue

    def stop(self, final_scrape: bool = True) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if final_scrape:
            try:
                self.scrape_once()
            except OSError:
                pass
