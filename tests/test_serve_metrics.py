"""Metrics layer: counters, gauges, conservative histograms."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.serve.service import service_metrics


class TestCounter:
    def test_monotonic(self):
        counter = Counter("requests")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_never_decrements(self):
        with pytest.raises(ValueError):
            Counter("requests").inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        gauge = Gauge("depth")
        gauge.set(3.0)
        gauge.set(1.5)
        assert gauge.value == 1.5


class TestHistogram:
    def test_bounds_must_be_sorted(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(0.5, 0.1))
        with pytest.raises(ValueError):
            Histogram("h", bounds=())

    def test_observations_land_in_buckets(self):
        hist = Histogram("h", bounds=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            hist.observe(value)
        assert hist.bucket_counts == [1, 1, 1, 1]
        assert hist.count == 4
        assert hist.mean == pytest.approx((0.005 + 0.05 + 0.5 + 5.0) / 4)

    def test_quantile_is_conservative_upper_bound(self):
        hist = Histogram("h", bounds=(0.01, 0.1, 1.0))
        for _ in range(99):
            hist.observe(0.005)
        hist.observe(0.5)
        assert hist.quantile(0.5) == 0.01  # never interpolated downward
        assert hist.quantile(0.99) == 0.01
        assert hist.quantile(1.0) == 1.0

    def test_quantile_edge_cases(self):
        hist = Histogram("h", bounds=(0.01,))
        assert hist.quantile(0.5) is None  # empty
        hist.observe(9.0)
        assert hist.quantile(0.5) == float("inf")  # overflow bucket
        with pytest.raises(ValueError):
            hist.quantile(0.0)

    def test_as_dict_shape(self):
        hist = Histogram("h", bounds=(0.1, 1.0))
        hist.observe(0.05)
        payload = hist.as_dict()
        assert payload["count"] == 1
        assert payload["buckets"] == {"0.1": 1, "1.0": 0}
        assert payload["overflow"] == 0


class TestRegistry:
    def test_duplicate_names_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="duplicate"):
            registry.gauge("x")

    def test_rate_uses_the_injected_clock(self):
        ticks = iter([100.0, 110.0, 110.0])
        registry = MetricsRegistry(clock=lambda: next(ticks))
        counter = registry.counter("events")
        counter.inc(50)
        assert registry.rate("events") == pytest.approx(5.0)
        assert registry.uptime_s == pytest.approx(10.0)

    def test_render_json_round_trips(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        registry.histogram("lat").observe(0.001)
        payload = json.loads(registry.render_json())
        assert payload["a"]["value"] == 2
        assert payload["lat"]["count"] == 1
        assert "_uptime_s" in payload


def test_service_metrics_registers_the_serving_set():
    registry = service_metrics()
    for name in (
        "events_ingested_total",
        "events_quarantined_total",
        "window_advances_total",
        "queries_total",
        "query_errors_total",
        "snapshots_written_total",
        "index_rebuilds_total",
        "tracked_subnets",
        "ingest_events_per_s",
        "query_latency_seconds",
        "ingest_batch_seconds",
    ):
        assert registry.get(name) is not None
