"""Unified metrics layer: counters, gauges, fixed-bucket histograms.

Every execution layer -- batch :class:`~repro.lab.Lab` runs, the
sharded :mod:`repro.parallel` pipeline, the :mod:`repro.stream`
engine, and the :mod:`repro.serve` front end -- records into the same
small, dependency-free metric types defined here:

- :class:`Counter` -- monotonically increasing totals;
- :class:`Gauge` -- last-written values (queue depths, rates);
- :class:`Histogram` -- fixed-bucket distributions with conservative
  quantile estimates (a quantile is reported as the upper bound of
  the bucket it lands in, never an optimistic interpolation), and
  :func:`merge_histogram_dicts` to fold exported ones together;
- :class:`MetricsRegistry` -- the named collection, exported as JSON
  (the serve ``stats`` op) or Prometheus text format
  (``--metrics-out``, :func:`render_prometheus`).

**Thread safety.**  Unlike the original serve-only layer, every
mutation (``inc`` / ``set`` / ``observe``) and every registry
operation takes a small lock: the experiment guard runs runners on
worker threads, and the process-pool path's parent-side bookkeeping
(shard timings, merge metrics) may interleave with signal-handler
dumps.  Exports are **deep snapshots** -- no nested list or dict in an
exported payload aliases live metric state, pinned by a mutation test.

**Process model.**  Metrics are process-local.  Pool workers
(:mod:`repro.parallel.executor`) each see their own registry; their
work surfaces in the parent through the per-shard timings the executor
returns, which the parent records against *its* registry.

The process-global default registry (:func:`global_registry`) is what
CLI commands and the instrumented library paths share, so one
``cellspot all`` run exports a single coherent snapshot.
:func:`set_enabled` is the kill switch the overhead benchmark uses to
measure the instrumented-vs-uninstrumented delta.
"""

from __future__ import annotations

import bisect
import json
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: Default latency buckets (seconds): 10us .. 1s, then overflow.
#: All three presets are frozen tuples and validated (sorted, duplicate-
#: free) by :func:`validate_bounds` at registry time, so a preset
#: typo -- or a caller-supplied list with repeated edges, which would
#: silently create a dead bucket -- fails loudly at registration.
#: The sub-millisecond range (10us / 25us / 50us .. 750us) is fine
#: enough that a "p99 < 1ms" SLO rule reads a meaningful conservative
#: quantile instead of collapsing everything into one 1ms bucket --
#: the serving plane's per-query lookups live in the tens of
#: microseconds.
DEFAULT_LATENCY_BUCKETS = (
    0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.00075,
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)

#: Millisecond-scale buckets for batch pipeline stages (seconds):
#: 1ms .. 60s, then overflow.  Batch stages (partition, shard spot,
#: merge, AS identification) live three orders of magnitude above
#: query latencies; on the serving buckets they would all pile into
#: the overflow bucket and quantiles would degenerate to ``inf``.
BATCH_STAGE_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Event-count buckets (dimensionless): 1 .. 10M, then overflow.
#: For distributions over *how many* -- events per ingest batch, rows
#: per shard, entries per index rebuild.
COUNT_BUCKETS = (
    1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0,
    1_000_000.0, 10_000_000.0,
)


def validate_bounds(bounds: Sequence[float]) -> Tuple[float, ...]:
    """Validate histogram bucket bounds; returns them as a tuple.

    Rejects empty, unsorted, and *duplicate* bounds (a repeated edge
    creates a bucket that can never be hit, silently skewing cumulative
    Prometheus exports).  Every registration path -- direct
    :class:`Histogram` construction, :meth:`MetricsRegistry.histogram`,
    :func:`instrument` -- funnels through this check.
    """
    if not bounds:
        raise ValueError("bucket bounds must be non-empty")
    as_tuple = tuple(float(bound) for bound in bounds)
    for earlier, later in zip(as_tuple, as_tuple[1:]):
        if later <= earlier:
            kind = "duplicate" if later == earlier else "unsorted"
            raise ValueError(
                f"bucket bounds must be strictly increasing: "
                f"{kind} bound {later!r} after {earlier!r}"
            )
    return as_tuple


class Counter:
    """A monotonically increasing total (thread-safe)."""

    __slots__ = ("name", "help", "value", "_lock")

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help = help_text
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount

    def as_dict(self) -> Dict:
        return {"type": "counter", "value": self.value, "help": self.help}


class Gauge:
    """A last-written value (thread-safe)."""

    __slots__ = ("name", "help", "value", "_lock")

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help = help_text
        self.value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def as_dict(self) -> Dict:
        return {"type": "gauge", "value": self.value, "help": self.help}


class Histogram:
    """Fixed-bucket distribution (cumulative counts, like Prometheus).

    ``bounds`` are the inclusive upper edges of each bucket; values
    above the last bound land in the implicit overflow bucket.
    Observations are thread-safe; quantiles are conservative (bucket
    upper bound, never interpolated downward).
    """

    __slots__ = (
        "name", "help", "bounds", "bucket_counts", "count", "total", "_lock"
    )

    def __init__(
        self,
        name: str,
        help_text: str = "",
        bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help_text
        self.bounds: Tuple[float, ...] = validate_bounds(bounds)
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.bucket_counts[index] += 1
            self.count += 1
            self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Conservative quantile: the upper bound of the target bucket.

        Documented sentinels (not ``bisect``/loop fall-through):

        - an **empty histogram** returns ``None`` for every quantile;
        - ``q == 1.0`` returns the upper bound of the highest
          *populated* bucket directly -- ``float('inf')`` exactly when
          the overflow bucket holds observations -- so float error in
          the rank accumulation can never misplace the maximum;
        - any quantile landing in the overflow bucket reports
          ``float('inf')``.
        """
        if not 0 < q <= 1:
            raise ValueError("quantile must be in (0, 1]")
        if self.count == 0:
            return None
        if q == 1.0:
            for index in range(len(self.bucket_counts) - 1, -1, -1):
                if self.bucket_counts[index]:
                    if index < len(self.bounds):
                        return self.bounds[index]
                    return float("inf")
            return None  # unreachable: count > 0 implies a populated bucket
        return _bucket_quantile(self.bounds, self.bucket_counts, self.count, q)

    def as_dict(self) -> Dict:
        # Deep snapshot: the buckets mapping is rebuilt per call and
        # shares no references with live state (`bucket_counts` stays
        # private), so callers may mutate the export freely.
        with self._lock:
            counts = list(self.bucket_counts)
            count = self.count
            total = self.total
        return {
            "type": "histogram",
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "buckets": {
                str(bound): value
                for bound, value in zip(self.bounds, counts)
            },
            "overflow": counts[-1],
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
            "help": self.help,
        }


def merge_histogram_dicts(dicts: List[Dict]) -> Dict:
    """Merge :meth:`Histogram.as_dict` payloads (same bounds) into one.

    The serving plane folds its workers' latency histograms into one
    distribution for ``stats`` this way; quantiles stay conservative
    (bucket upper bound), exactly like the live histograms.
    """
    bounds: List[float] = []
    counts: Dict[float, int] = {}
    overflow = 0
    count = 0
    total = 0.0
    for payload in dicts:
        if not payload:
            continue
        for key, value in payload.get("buckets", {}).items():
            bound = float(key)
            if bound not in counts:
                counts[bound] = 0
                bounds.append(bound)
            counts[bound] += int(value)
        overflow += int(payload.get("overflow", 0))
        count += int(payload.get("count", 0))
        total += float(payload.get("sum", 0.0))
    bounds.sort()
    ordered = [counts[bound] for bound in bounds] + [overflow]
    return {
        "type": "histogram",
        "count": count,
        "sum": total,
        "mean": total / count if count else 0.0,
        "buckets": {str(bound): counts[bound] for bound in bounds},
        "overflow": overflow,
        "p50": _bucket_quantile(bounds, ordered, count, 0.5),
        "p99": _bucket_quantile(bounds, ordered, count, 0.99),
    }


def _bucket_quantile(
    bounds: Sequence[float], bucket_counts: Sequence[int], count: int, q: float
) -> Optional[float]:
    """Upper bound of the bucket holding rank ``q * count`` (the last,
    overflow, bucket reads ``inf``); None when ``count`` is 0."""
    if count == 0:
        return None
    rank = q * count
    cumulative = 0
    for index, bucket in enumerate(bucket_counts):
        cumulative += bucket
        if cumulative >= rank:
            if index < len(bounds):
                return bounds[index]
            return float("inf")
    return float("inf")


class LabeledGauge:
    """A gauge *family* over one label dimension (thread-safe).

    One registered name fans out into per-label samples -- e.g.
    ``rss_peak_bytes`` with label ``stage`` holds the peak-RSS
    watermark of every pipeline stage.  Renders to Prometheus as
    ordinary ``name{label="value"} v`` gauge samples (which the strict
    parser already accepts) and scrapes into the same
    ``name{label="value"}`` tagged keys the alert engine's labelled
    evaluation consumes.

    :meth:`set_max` is the watermark primitive: it only ever raises a
    label's value, so concurrent observers race benignly.
    """

    __slots__ = ("name", "help", "label", "_values", "_lock")

    def __init__(
        self, name: str, help_text: str = "", label: str = "stage"
    ) -> None:
        if not label or not label.replace("_", "").isalnum():
            raise ValueError(f"bad label name: {label!r}")
        self.name = name
        self.help = help_text
        self.label = label
        self._values: Dict[str, float] = {}
        self._lock = threading.Lock()

    def set(self, label_value: object, value: float) -> None:
        with self._lock:
            self._values[str(label_value)] = float(value)

    def set_max(self, label_value: object, value: float) -> None:
        """Raise the label's value to ``value`` if it is higher."""
        key = str(label_value)
        value = float(value)
        with self._lock:
            if value > self._values.get(key, float("-inf")):
                self._values[key] = value

    def get(self, label_value: object) -> Optional[float]:
        with self._lock:
            return self._values.get(str(label_value))

    def values(self) -> Dict[str, float]:
        """Snapshot copy of every label's value."""
        with self._lock:
            return dict(self._values)

    def as_dict(self) -> Dict:
        with self._lock:
            values = dict(self._values)
        return {
            "type": "labeled_gauge",
            "label": self.label,
            "values": values,
            "help": self.help,
        }


class NullMetric:
    """A metric that ignores everything (instrumentation kill switch).

    Stands in for any of the concrete types: ``inc``, ``set``,
    ``set_max``, and ``observe`` are all no-ops (the labelled variants
    take extra positional arguments, hence ``*_args``).  Returned by
    the cached accessors the hot paths use when :func:`set_enabled`
    turned observability off, so disabling costs the call sites
    nothing but an attribute call on this object.
    """

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, *_args: object) -> None:
        pass

    def set_max(self, *_args: object) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def get(self, *_args: object) -> None:
        return None

    def values(self) -> Dict[str, float]:
        return {}


#: Shared no-op instance (stateless, so one is enough).
NULL_METRIC = NullMetric()


class MetricsRegistry:
    """Named metrics plus a start timestamp for rate derivations."""

    def __init__(self, clock=time.monotonic) -> None:
        self._clock = clock
        self.started_at = clock()
        self._metrics: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _register(self, metric, metric_type, exist_ok: bool):
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if exist_ok and type(existing) is metric_type:
                    return existing
                raise ValueError(f"duplicate metric name: {metric.name}")
            self._metrics[metric.name] = metric
            return metric

    def counter(
        self, name: str, help_text: str = "", exist_ok: bool = False
    ) -> Counter:
        return self._register(Counter(name, help_text), Counter, exist_ok)

    def gauge(
        self, name: str, help_text: str = "", exist_ok: bool = False
    ) -> Gauge:
        return self._register(Gauge(name, help_text), Gauge, exist_ok)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        exist_ok: bool = False,
    ) -> Histogram:
        return self._register(
            Histogram(name, help_text, bounds), Histogram, exist_ok
        )

    def labeled_gauge(
        self,
        name: str,
        help_text: str = "",
        label: str = "stage",
        exist_ok: bool = False,
    ) -> LabeledGauge:
        existing = self._register(
            LabeledGauge(name, help_text, label), LabeledGauge, exist_ok
        )
        if existing.label != label:
            raise ValueError(
                f"labeled gauge {name!r} already registered with label "
                f"{existing.label!r}, not {label!r}"
            )
        return existing

    def get(self, name: str):
        with self._lock:
            return self._metrics[name]

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    @property
    def uptime_s(self) -> float:
        return self._clock() - self.started_at

    def rate(self, counter_name: str) -> float:
        """Per-second rate of a counter over the registry's lifetime."""
        uptime = self.uptime_s
        counter = self.get(counter_name)
        if uptime <= 0:
            return 0.0
        return counter.value / uptime

    def as_dict(self) -> Dict:
        """Deep snapshot of every metric (plus uptime).

        Mutating the returned payload -- including nested histogram
        bucket mappings -- never touches live metric state; each
        ``as_dict`` builds fresh containers all the way down.
        """
        with self._lock:
            metrics = sorted(self._metrics.items())
        payload = {name: metric.as_dict() for name, metric in metrics}
        payload["_uptime_s"] = self.uptime_s
        return payload

    def render_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def render_prometheus(self) -> str:
        return render_prometheus(self)


# ---- Prometheus text format ----------------------------------------------


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4).

    Counters and gauges render as single samples; histograms render as
    the conventional ``_bucket{le=...}`` cumulative series (with the
    mandatory ``+Inf`` bucket) plus ``_sum`` and ``_count``.  Every
    metric carries ``# HELP`` and ``# TYPE`` lines; names are emitted
    exactly as registered (the serving set already follows the
    ``_total`` / ``_seconds`` conventions).
    """
    lines: List[str] = []
    snapshot = registry.as_dict()
    uptime = snapshot.pop("_uptime_s")
    for name in sorted(snapshot):
        payload = snapshot[name]
        kind = payload["type"]
        help_text = payload.get("help") or name
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        if kind in ("counter", "gauge"):
            lines.append(f"{name} {_format_value(payload['value'])}")
            continue
        if kind == "labeled_gauge":
            # Rendered as plain gauge samples with one label each; the
            # HELP/TYPE pair above already declared the base name, so
            # the strict parser accepts every labelled sample.  The
            # TYPE line must say "gauge" -- rewrite it in place.
            lines[-1] = f"# TYPE {name} gauge"
            label = payload["label"]
            for label_value in sorted(payload["values"]):
                value = payload["values"][label_value]
                lines.append(
                    f'{name}{{{label}="{label_value}"}} '
                    f"{_format_value(value)}"
                )
            if not payload["values"]:
                # The strict parser rejects declared metrics with no
                # samples; an empty family renders a zero placeholder.
                lines.append(f'{name}{{{label}=""}} 0')
            continue
        # Histogram: cumulative le-buckets, +Inf, then sum and count.
        cumulative = 0
        for bound, count in payload["buckets"].items():
            cumulative += count
            lines.append(
                f'{name}_bucket{{le="{_format_value(float(bound))}"}} '
                f"{cumulative}"
            )
        lines.append(f'{name}_bucket{{le="+Inf"}} {payload["count"]}')
        lines.append(f"{name}_sum {_format_value(payload['sum'])}")
        lines.append(f"{name}_count {payload['count']}")
    lines.append("# HELP process_uptime_seconds registry lifetime")
    lines.append("# TYPE process_uptime_seconds gauge")
    lines.append(f"process_uptime_seconds {_format_value(uptime)}")
    return "\n".join(lines) + "\n"


class PrometheusFormatError(ValueError):
    """A metrics dump violates the text exposition format."""


def parse_prometheus_text(text: str) -> Dict[str, Dict]:
    """Parse (and validate) a Prometheus text-format dump.

    Returns ``{metric_name: {"type", "help", "samples": [(labels,
    value), ...]}}``.  Used by ``cellspot stats`` and the CI smoke
    check; raises :class:`PrometheusFormatError` on:

    - duplicate metric declarations (two ``# TYPE`` lines for a name);
    - samples without a preceding ``# TYPE`` / ``# HELP`` pair;
    - duplicate samples (same name and label set twice);
    - unparsable sample lines.
    """
    metrics: Dict[str, Dict] = {}
    helps: Dict[str, str] = {}
    seen_samples = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            rest = line[len("# HELP "):]
            name, _, help_text = rest.partition(" ")
            if name in helps:
                raise PrometheusFormatError(
                    f"line {line_no}: duplicate HELP for {name!r}"
                )
            helps[name] = help_text
            continue
        if line.startswith("# TYPE "):
            rest = line[len("# TYPE "):]
            parts = rest.split()
            if len(parts) != 2:
                raise PrometheusFormatError(
                    f"line {line_no}: malformed TYPE line: {raw!r}"
                )
            name, kind = parts
            if name in metrics:
                raise PrometheusFormatError(
                    f"line {line_no}: duplicate metric name {name!r}"
                )
            if name not in helps:
                raise PrometheusFormatError(
                    f"line {line_no}: TYPE for {name!r} without HELP"
                )
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "untyped"):
                raise PrometheusFormatError(
                    f"line {line_no}: unknown metric type {kind!r}"
                )
            metrics[name] = {
                "type": kind, "help": helps[name], "samples": []
            }
            continue
        if line.startswith("#"):
            continue  # arbitrary comments are legal
        # Sample line: name[{labels}] value
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise PrometheusFormatError(
                f"line {line_no}: malformed sample: {raw!r}"
            )
        labels = ""
        name = name_part
        if "{" in name_part:
            name, _, label_tail = name_part.partition("{")
            labels = label_tail.rstrip("}")
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in metrics:
                base = name[: -len(suffix)]
                break
        if base not in metrics:
            raise PrometheusFormatError(
                f"line {line_no}: sample {name!r} has no TYPE declaration"
            )
        try:
            if value_part == "+Inf":
                value = float("inf")
            elif value_part == "-Inf":
                value = float("-inf")
            else:
                value = float(value_part)
        except ValueError:
            raise PrometheusFormatError(
                f"line {line_no}: bad sample value {value_part!r}"
            ) from None
        sample_key = (name, labels)
        if sample_key in seen_samples:
            raise PrometheusFormatError(
                f"line {line_no}: duplicate sample {name}{{{labels}}}"
            )
        seen_samples.add(sample_key)
        metrics[base]["samples"].append((name, labels, value))
    for name, payload in metrics.items():
        if not payload["samples"]:
            raise PrometheusFormatError(f"metric {name!r} has no samples")
    return metrics


# ---- process-global registry ---------------------------------------------

_GLOBAL_LOCK = threading.Lock()
_GLOBAL_REGISTRY: Optional[MetricsRegistry] = None
_ENABLED = True


def global_registry() -> MetricsRegistry:
    """The process-wide registry the instrumented library paths share."""
    global _GLOBAL_REGISTRY
    with _GLOBAL_LOCK:
        if _GLOBAL_REGISTRY is None:
            _GLOBAL_REGISTRY = MetricsRegistry()
        return _GLOBAL_REGISTRY


def reset_global_registry() -> MetricsRegistry:
    """Swap in a fresh global registry (tests, repeated CLI runs)."""
    global _GLOBAL_REGISTRY
    with _GLOBAL_LOCK:
        _GLOBAL_REGISTRY = MetricsRegistry()
        return _GLOBAL_REGISTRY


def set_enabled(enabled: bool) -> None:
    """Turn library instrumentation on or off (default: on).

    Disabling makes :func:`instrument` hand out :data:`NULL_METRIC`
    no-ops; existing cached handles keep recording into whatever they
    already bound, so flip this *before* first use in benchmarks.
    """
    global _ENABLED
    _ENABLED = enabled


def metrics_enabled() -> bool:
    return _ENABLED


def instrument(kind: str, name: str, help_text: str = "", bounds=None,
               label: str = "stage"):
    """Idempotently resolve a metric on the global registry.

    The library's instrumentation points go through this single
    chokepoint: when observability is disabled it returns the shared
    no-op metric, otherwise it registers (``exist_ok``) on the global
    registry.  ``kind`` is ``"counter"`` / ``"gauge"`` /
    ``"histogram"`` / ``"labeled_gauge"`` (``label`` names the one
    label dimension of the family).
    """
    if not _ENABLED:
        return NULL_METRIC
    registry = global_registry()
    if kind == "counter":
        return registry.counter(name, help_text, exist_ok=True)
    if kind == "gauge":
        return registry.gauge(name, help_text, exist_ok=True)
    if kind == "histogram":
        return registry.histogram(
            name,
            help_text,
            bounds=bounds if bounds is not None else DEFAULT_LATENCY_BUCKETS,
            exist_ok=True,
        )
    if kind == "labeled_gauge":
        return registry.labeled_gauge(
            name, help_text, label=label, exist_ok=True
        )
    raise ValueError(f"unknown metric kind: {kind!r}")


class MeterCache:
    """Per-module cache of instrumented metric handles.

    Hot paths must not pay a registry lookup per event; they hold one
    of these and call :meth:`resolve` once per *batch*.  The cache
    invalidates itself when the global registry is reset (tests) or
    observability is toggled, so stale handles never silently swallow
    counts meant for a fresh registry.
    """

    __slots__ = ("_build", "_handles", "_registry", "_enabled")

    def __init__(self, build) -> None:
        #: ``build()`` -> tuple of metric handles (calls instrument()).
        self._build = build
        self._handles = None
        self._registry = None
        self._enabled = None

    def resolve(self):
        registry = _GLOBAL_REGISTRY
        if (
            self._handles is None
            or self._registry is not registry
            or self._enabled is not _ENABLED
        ):
            self._handles = self._build()
            self._registry = _GLOBAL_REGISTRY
            self._enabled = _ENABLED
        return self._handles
