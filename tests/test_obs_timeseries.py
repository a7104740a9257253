"""Metric time-series: tagged samples, segment ring, reader, scraper."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry, reset_global_registry
from repro.obs.timeseries import (
    MetricScraper,
    TimeSeriesReader,
    TimeSeriesStore,
    scrape_registry,
)


@pytest.fixture()
def registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("events_total", "events")
    registry.gauge("depth", "queue depth")
    registry.histogram("latency_seconds", "latency")
    return registry


class TestScrapeRegistry:
    def test_counters_and_gauges_are_tagged_scalars(self, registry):
        registry.get("events_total").inc(7)
        registry.get("depth").set(3.5)
        sample = scrape_registry(registry, clock=lambda: 42.0)
        assert sample["ts"] == 42.0
        assert sample["m"]["events_total"] == ["c", 7]
        assert sample["m"]["depth"] == ["g", 3.5]

    def test_histograms_carry_count_sum_and_quantiles(self, registry):
        for value in (0.01, 0.02, 0.03):
            registry.get("latency_seconds").observe(value)
        sample = scrape_registry(registry, clock=lambda: 1.0)
        tag, count, total, p50, p99 = sample["m"]["latency_seconds"]
        assert tag == "h"
        assert count == 3
        assert total == pytest.approx(0.06)
        assert p50 is not None and p99 is not None

    def test_empty_histogram_has_null_quantiles(self, registry):
        sample = scrape_registry(registry, clock=lambda: 1.0)
        assert sample["m"]["latency_seconds"][1] == 0
        assert sample["m"]["latency_seconds"][3] is None


class TestStoreRotation:
    def test_single_segment_until_limit(self, tmp_path):
        store = TimeSeriesStore(tmp_path, max_segment_samples=3,
                                max_segments=4)
        for ts in range(3):
            store.append({"ts": float(ts), "m": {}})
        assert store.segment_count() == 1

    def test_rotation_opens_new_segment(self, tmp_path):
        store = TimeSeriesStore(tmp_path, max_segment_samples=2,
                                max_segments=4)
        for ts in range(5):
            store.append({"ts": float(ts), "m": {}})
        assert store.segment_count() == 3

    def test_ring_drops_oldest_segment(self, tmp_path):
        store = TimeSeriesStore(tmp_path, max_segment_samples=2,
                                max_segments=2)
        for ts in range(10):
            store.append({"ts": float(ts), "m": {}})
        assert store.segment_count() <= 2
        reader = TimeSeriesReader(tmp_path)
        timestamps = [s["ts"] for s in reader.samples()]
        # The newest samples survive; the oldest were rotated away.
        assert timestamps[-1] == 9.0
        assert timestamps[0] >= 4.0

    def test_bad_limits_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            TimeSeriesStore(tmp_path, max_segment_samples=0)
        with pytest.raises(ValueError):
            TimeSeriesStore(tmp_path, max_segments=0)


class TestReader:
    def _store(self, tmp_path, samples):
        store = TimeSeriesStore(tmp_path, max_segment_samples=2,
                                max_segments=8)
        for sample in samples:
            store.append(sample)
        return store

    def test_samples_ordered_across_segments(self, tmp_path):
        self._store(tmp_path, [
            {"ts": float(ts), "m": {"events_total": ["c", ts]}}
            for ts in range(7)
        ])
        reader = TimeSeriesReader(tmp_path)
        assert [s["ts"] for s in reader.samples()] == [
            0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0
        ]

    def test_range_query(self, tmp_path):
        self._store(tmp_path, [
            {"ts": float(ts), "m": {}} for ts in range(10)
        ])
        reader = TimeSeriesReader(tmp_path)
        got = [s["ts"] for s in reader.samples(start=3.0, end=6.0)]
        assert got == [3.0, 4.0, 5.0, 6.0]

    def test_torn_lines_are_skipped(self, tmp_path):
        store = self._store(tmp_path, [
            {"ts": 1.0, "m": {"events_total": ["c", 1]}}
        ])
        with store.active_segment.open("a") as stream:
            stream.write('{"ts": 2.0, "m": {"events_to')  # torn write
        reader = TimeSeriesReader(tmp_path)
        assert [s["ts"] for s in reader.samples()] == [1.0]

    def test_series_and_latest(self, tmp_path):
        self._store(tmp_path, [
            {"ts": 1.0, "m": {"depth": ["g", 5.0]}},
            {"ts": 2.0, "m": {"depth": ["g", 7.0]}},
        ])
        reader = TimeSeriesReader(tmp_path)
        assert reader.series("depth") == [(1.0, 5.0), (2.0, 7.0)]
        assert reader.latest("depth") == (2.0, 7.0)
        assert reader.latest("missing") is None
        assert "depth" in reader.metric_names()

    def test_rate_from_counter_deltas(self, tmp_path):
        self._store(tmp_path, [
            {"ts": 10.0, "m": {"events_total": ["c", 100]}},
            {"ts": 12.0, "m": {"events_total": ["c", 300]}},
        ])
        reader = TimeSeriesReader(tmp_path)
        assert reader.rate("events_total") == [(12.0, 100.0)]

    def test_rate_survives_counter_reset(self, tmp_path):
        """A restarted process restarts its counters; rate must not
        go negative -- the post-reset raw value is the new delta."""
        self._store(tmp_path, [
            {"ts": 10.0, "m": {"events_total": ["c", 500]}},
            {"ts": 11.0, "m": {"events_total": ["c", 40]}},
        ])
        reader = TimeSeriesReader(tmp_path)
        assert reader.rate("events_total") == [(11.0, 40.0)]

    def test_null_counter_is_no_data(self, tmp_path):
        """A null counter value is skipped, not a ``TypeError``."""
        self._store(tmp_path, [
            {"ts": 1.0, "m": {"events_total": ["c", None]}},
            {"ts": 2.0, "m": {"events_total": ["c", 10]}},
            {"ts": 4.0, "m": {"events_total": ["c", 30]}},
        ])
        reader = TimeSeriesReader(tmp_path)
        assert reader.rate("events_total") == [(4.0, 10.0)]

    def test_empty_directory_reads_empty(self, tmp_path):
        reader = TimeSeriesReader(tmp_path / "nothing")
        assert list(reader.samples()) == []
        assert reader.metric_names() == []


class TestScraper:
    def test_scrape_once_appends_and_notifies(self, tmp_path, registry):
        store = TimeSeriesStore(tmp_path)
        scraper = MetricScraper(store, registry=registry)
        seen = []
        scraper.subscribe(seen.append)
        registry.get("events_total").inc(3)
        sample = scraper.scrape_once(ts=5.0)
        assert sample["ts"] == 5.0
        assert seen == [sample]
        assert scraper.samples_taken == 1
        assert TimeSeriesReader(tmp_path).latest("events_total") == (5.0, 3)

    def test_raising_callback_is_isolated(self, tmp_path, registry):
        scraper = MetricScraper(TimeSeriesStore(tmp_path), registry=registry)

        def boom(_sample):
            raise RuntimeError("observer bug")

        seen = []
        scraper.subscribe(boom)
        scraper.subscribe(seen.append)
        scraper.scrape_once(ts=1.0)
        assert scraper.callback_errors == 1
        assert len(seen) == 1  # later subscribers still ran

    def test_thread_scrapes_periodically(self, tmp_path, registry):
        store = TimeSeriesStore(tmp_path)
        scraper = MetricScraper(store, registry=registry, interval_s=0.01)
        ticked = threading.Event()
        scraper.subscribe(lambda _s: ticked.set())
        scraper.start()
        try:
            assert scraper.running
            assert ticked.wait(timeout=5.0)
        finally:
            scraper.stop(final_scrape=False)
        assert not scraper.running
        assert scraper.samples_taken >= 1

    def test_stop_takes_a_final_scrape(self, tmp_path, registry):
        scraper = MetricScraper(TimeSeriesStore(tmp_path), registry=registry,
                                interval_s=60.0)
        scraper.start()
        scraper.stop(final_scrape=True)
        assert scraper.samples_taken >= 1

    def test_default_registry_follows_global_swap(self, tmp_path):
        scraper = MetricScraper(TimeSeriesStore(tmp_path))
        fresh = reset_global_registry()
        try:
            assert scraper.registry is fresh
        finally:
            reset_global_registry()

    def test_bad_interval_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            MetricScraper(TimeSeriesStore(tmp_path), interval_s=0)


class TestOnDiskFormat:
    def test_segments_are_plain_jsonl(self, tmp_path, registry):
        store = TimeSeriesStore(tmp_path)
        MetricScraper(store, registry=registry).scrape_once(ts=1.0)
        lines = store.active_segment.read_text().splitlines()
        parsed = json.loads(lines[0])
        assert set(parsed) == {"ts", "m"}

    def test_scrape_ts_defaults_to_clock(self, tmp_path, registry):
        scraper = MetricScraper(TimeSeriesStore(tmp_path), registry=registry,
                                clock=lambda: 99.0)
        assert scraper.scrape_once()["ts"] == 99.0

    def test_wall_clock_default(self, tmp_path, registry):
        scraper = MetricScraper(TimeSeriesStore(tmp_path), registry=registry)
        before = time.time()
        ts = scraper.scrape_once()["ts"]
        assert before - 1 <= ts <= time.time() + 1
