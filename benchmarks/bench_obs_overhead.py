"""Benchmark: the observability spine costs < 5% on hot paths.

Metrics and tracing are always-on (``--metrics-out`` only decides
whether the registry gets *exported*), so their steady-state cost must
be negligible.  Three hot paths are timed with instrumentation live
(``set_enabled(True)``, fresh registry/tracer) and with metrics
disabled (``set_enabled(False)``, every ``instrument`` handle a
``NULL_METRIC``):

1. per-line JSONL ingestion through :class:`IngestPolicy` (batched
   accept counting, flushed every 1024 lines);
2. per-event stream ingestion through :class:`StreamEngine` (counts
   flushed only at window close / snapshot);
3. one serial :class:`CellSpotter` run (stage spans on the tracer).

Each arm is best-of-``ROUNDS`` wall clock; the minimum suppresses
scheduler noise, so the ratio is a stable estimate of the built-in
overhead.  The pin is intentionally looser than the observed ratio
(~1.00-1.01 on the dev box) but tight enough that a per-event lock
round-trip (the design this layer explicitly avoids) would fail it.

Profilers are *not* covered by this budget.  The stack sampler
(``--prof-sample``) has its own pin in ``bench_resource_obs.py``;
deterministic profiling (``python -m cProfile -m repro.cli ...``, no
repo code) costs 1.3-2x and is run by hand for exactly that reason.
"""

from __future__ import annotations

import io
import time

from repro.cdn.logs import BeaconHit, read_jsonl, write_jsonl
from repro.obs.metrics import (
    global_registry,
    reset_global_registry,
    set_enabled,
)
from repro.obs.trace import reset_tracer
from repro.runtime.policies import IngestPolicy
from repro.stream import StreamEngine, WindowPolicy

#: Maximum tolerated (instrumented / disabled) wall-clock ratio.
OVERHEAD_CEILING = 1.05
#: Rounds per arm; the minimum is compared.
ROUNDS = 5


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _measure(fn) -> tuple:
    """(enabled_best, disabled_best) for one workload.

    The arms are interleaved round by round -- enabled, disabled,
    enabled, ... -- so clock drift, cache warming, and CPU frequency
    changes land on both arms instead of biasing whichever ran last.
    """
    set_enabled(True)
    reset_global_registry()
    reset_tracer()
    fn()  # warm caches/imports outside the timed region
    set_enabled(False)
    fn()
    enabled = disabled = float("inf")
    try:
        for _ in range(ROUNDS):
            set_enabled(True)
            enabled = min(enabled, _timed(fn))
            set_enabled(False)
            disabled = min(disabled, _timed(fn))
    finally:
        set_enabled(True)
        reset_global_registry()
        reset_tracer()
    return enabled, disabled


def _report(name: str, enabled: float, disabled: float) -> float:
    ratio = enabled / disabled if disabled > 0 else 1.0
    print(
        f"\n{name}: instrumented {enabled * 1000:.1f} ms vs "
        f"disabled {disabled * 1000:.1f} ms ({ratio:.3f}x)"
    )
    return ratio


def test_ingest_policy_overhead(beacon_hits, bench_record):
    buffer = io.StringIO()
    write_jsonl(beacon_hits, buffer)
    text = buffer.getvalue()

    def workload():
        policy = IngestPolicy.skip()
        for _ in read_jsonl(io.StringIO(text), BeaconHit, policy=policy):
            pass

    enabled, disabled = _measure(workload)
    ratio = _report("jsonl ingest", enabled, disabled)
    bench_record("jsonl_ingest_overhead_ratio", ratio, unit="ratio",
                 higher_is_better=False, threshold=OVERHEAD_CEILING)
    assert ratio < OVERHEAD_CEILING


def test_stream_engine_overhead(beacon_hits, bench_record):
    policy = WindowPolicy(window_events=4096)

    def workload():
        StreamEngine(policy=policy).ingest_many(beacon_hits)

    enabled, disabled = _measure(workload)
    ratio = _report("stream ingest", enabled, disabled)
    bench_record("stream_ingest_overhead_ratio", ratio, unit="ratio",
                 higher_is_better=False, threshold=OVERHEAD_CEILING)
    assert ratio < OVERHEAD_CEILING


def test_serial_pipeline_overhead(lab, bench_record):
    from repro.core.pipeline import CellSpotter

    beacons, demand, as_classes = lab.beacons, lab.demand, lab.as_classes
    spotter = CellSpotter(as_filter=lab.spotter.as_filter)

    def workload():
        spotter.run(beacons, demand, as_classes)

    enabled, disabled = _measure(workload)
    ratio = _report("serial pipeline", enabled, disabled)
    bench_record("serial_pipeline_overhead_ratio", ratio, unit="ratio",
                 higher_is_better=False, threshold=OVERHEAD_CEILING)
    assert ratio < OVERHEAD_CEILING


def test_scraper_and_monitor_overhead(beacon_hits, tmp_path, bench_record):
    """The continuous telemetry plane also fits the <5% budget.

    The telemetered arm runs stream ingest with the full plane live:
    a :class:`MetricScraper` thread sampling the registry every 10 ms
    into a time-series store, an :class:`AlertEngine` subscribed to
    every sample, and a :class:`CensusDriftMonitor` sketching every
    closing window.  The plain arm runs the same ingest with metrics
    enabled but no scraper/monitor.  Their ratio bounds what ``serve
    --timeseries-dir --alert-log`` costs over plain serving.
    """
    from repro.obs.alerts import AlertEngine
    from repro.obs.health import CensusDriftMonitor
    from repro.obs.timeseries import MetricScraper, TimeSeriesStore

    # Serve-shaped windows (the serving bench uses 8192 too): the
    # monitor's per-close sketch is capped, so fewer/larger windows is
    # both the realistic configuration and the fair one.
    policy = WindowPolicy(window_events=8192)

    def plain():
        StreamEngine(policy=policy).ingest_many(beacon_hits)

    def telemetered():
        engine = StreamEngine(policy=policy)
        engine.attach_monitor(CensusDriftMonitor())
        # 50 ms is 20x more aggressive than the serve default (1 s);
        # the budget must hold even for an eager operator.
        scraper = MetricScraper(
            TimeSeriesStore(tmp_path / "ts"), interval_s=0.05
        )
        scraper.subscribe(AlertEngine().observe)
        scraper.start()
        try:
            engine.ingest_many(beacon_hits)
        finally:
            scraper.stop(final_scrape=True)

    set_enabled(True)
    reset_global_registry()
    reset_tracer()
    plain()  # warm caches/imports outside the timed region
    telemetered()
    base = tele = float("inf")
    try:
        for _ in range(ROUNDS):
            base = min(base, _timed(plain))
            tele = min(tele, _timed(telemetered))
    finally:
        reset_global_registry()
        reset_tracer()
    ratio = tele / base if base > 0 else 1.0
    print(
        f"\nscraper+monitor: telemetered {tele * 1000:.1f} ms vs "
        f"plain {base * 1000:.1f} ms ({ratio:.3f}x)"
    )
    bench_record("scraper_monitor_overhead_ratio", ratio, unit="ratio",
                 higher_is_better=False, threshold=OVERHEAD_CEILING)
    assert ratio < OVERHEAD_CEILING


def test_instrumented_run_actually_recorded(beacon_hits):
    """Guard against benchmarking a silently dead instrument path."""
    set_enabled(True)
    reset_global_registry()
    StreamEngine(policy=WindowPolicy(window_events=1000)).ingest_many(
        beacon_hits[:3000]
    )
    events = global_registry().get("stream_events_total")
    assert events is not None and events.value == 3000
    reset_global_registry()
