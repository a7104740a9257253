"""Census drift monitors: sketches, PSI/KS, churn, stream hookup."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.obs.health import (
    RATIO_BINS,
    CensusDriftMonitor,
    RatioSketch,
    classification_churn,
    ks_statistic,
    population_stability_index,
    ratio_distribution_shift,
)
from repro.obs.metrics import global_registry, reset_global_registry


@dataclass
class _Counts:
    """Stands in for the stream window's SubnetBeaconCounts."""

    api_hits: int
    cellular_hits: int


def _window(spec):
    """{subnet: (api, cellular)} -> {subnet: _Counts}."""
    return {
        subnet: _Counts(api_hits=api, cellular_hits=cell)
        for subnet, (api, cell) in spec.items()
    }


class TestRatioSketch:
    def test_add_bins_by_decile(self):
        sketch = RatioSketch()
        sketch.add(0.05)
        sketch.add(0.95)
        sketch.add(0.95)
        assert sketch.counts[0] == 1
        assert sketch.counts[RATIO_BINS - 1] == 2
        assert len(sketch) == 3

    def test_ratio_one_lands_in_last_bin(self):
        sketch = RatioSketch()
        sketch.add(1.0)
        assert sketch.counts[RATIO_BINS - 1] == 1

    def test_out_of_domain_values_clamp(self):
        sketch = RatioSketch()
        sketch.add(-0.5)
        sketch.add(1.5)
        assert sketch.counts[0] == 1
        assert sketch.counts[RATIO_BINS - 1] == 1

    def test_merge_accumulates(self):
        left = RatioSketch.from_ratios([0.1, 0.2])
        right = RatioSketch.from_ratios([0.9])
        left.merge(right)
        assert len(left) == 3
        assert left.counts[RATIO_BINS - 1] == 1

    def test_proportions_sum_to_one(self):
        sketch = RatioSketch.from_ratios([0.1, 0.5, 0.9, 0.9])
        assert sum(sketch.proportions()) == pytest.approx(1.0)

    def test_empty_proportions_are_zero(self):
        assert RatioSketch().proportions() == [0.0] * RATIO_BINS

    def test_wrong_bin_count_rejected(self):
        with pytest.raises(ValueError):
            RatioSketch(counts=[1.0, 2.0])

    def test_roundtrip_to_dict(self):
        sketch = RatioSketch.from_ratios([0.3, 0.7])
        clone = RatioSketch(counts=sketch.to_dict()["counts"])
        assert clone.counts == sketch.counts
        assert clone.total == sketch.total


class TestScores:
    def test_identical_distributions_score_zero(self):
        a = RatioSketch.from_ratios([0.1, 0.5, 0.9] * 10)
        b = RatioSketch.from_ratios([0.1, 0.5, 0.9] * 10)
        assert population_stability_index(a, b) == pytest.approx(0.0)
        assert ks_statistic(a, b) == pytest.approx(0.0)

    def test_mode_flip_scores_major_shift(self):
        fixed = RatioSketch.from_ratios([0.02] * 100)
        cellular = RatioSketch.from_ratios([0.98] * 100)
        assert population_stability_index(fixed, cellular) > 0.25
        assert ks_statistic(fixed, cellular) == pytest.approx(1.0)

    def test_empty_sketch_scores_zero_not_nan(self):
        full = RatioSketch.from_ratios([0.5] * 10)
        assert population_stability_index(RatioSketch(), full) == 0.0
        assert population_stability_index(full, RatioSketch()) == 0.0
        assert ks_statistic(RatioSketch(), full) == 0.0

    def test_psi_is_finite_when_a_bin_drains(self):
        before = RatioSketch.from_ratios([0.05] * 50 + [0.95] * 50)
        after = RatioSketch.from_ratios([0.95] * 100)
        psi = population_stability_index(before, after)
        assert psi > 0.25
        assert psi == psi and psi != float("inf")  # finite, not NaN

    def test_churn(self):
        assert classification_churn({1, 2}, {2, 3}) == pytest.approx(2 / 3)
        assert classification_churn(set(), set()) == 0.0
        assert classification_churn({1}, {1}) == 0.0
        assert classification_churn({1, 2}, {2, 3}, universe=4) == 0.5


class TestCensusDriftMonitor:
    def test_baseline_windows_score_none(self):
        monitor = CensusDriftMonitor(baseline_windows=2)
        window = _window({"a": (10, 9), "b": (10, 1)})
        assert monitor.on_window_close(0, window) is None
        assert monitor.on_window_close(1, window) is None
        assert monitor.windows_scored == 0
        assert len(monitor.baseline) == 4

    def test_stable_windows_score_low(self):
        monitor = CensusDriftMonitor()
        window = _window({f"s{i}": (10, 9) for i in range(20)})
        monitor.on_window_close(0, window)
        score = monitor.on_window_close(1, window)
        assert score is not None
        assert score.psi == pytest.approx(0.0)
        assert score.churn_rate == 0.0
        assert score.subnets == 20

    def test_ratio_shift_scores_major_psi(self):
        monitor = CensusDriftMonitor()
        cellular = _window({f"s{i}": (10, 9) for i in range(20)})
        fixed = _window({f"s{i}": (10, 0) for i in range(20)})
        monitor.on_window_close(0, cellular)
        score = monitor.on_window_close(1, fixed)
        assert score.psi > 0.25
        assert score.churn_rate == 1.0  # every subnet flipped label

    def test_min_api_hits_filters_thin_subnets(self):
        monitor = CensusDriftMonitor(min_api_hits=5)
        window = _window({"thin": (2, 2), "thick": (10, 9)})
        monitor.on_window_close(0, window)
        score = monitor.on_window_close(1, window)
        assert score.subnets == 1

    def test_subnet_cap_bounds_sketch_size(self):
        monitor = CensusDriftMonitor(max_subnets_per_window=8)
        window = _window({f"s{i}": (10, 9) for i in range(50)})
        monitor.on_window_close(0, window)
        score = monitor.on_window_close(1, window)
        assert score.subnets == 8

    def test_cap_zero_sketches_everything(self):
        monitor = CensusDriftMonitor(max_subnets_per_window=0)
        window = _window({f"s{i}": (10, 9) for i in range(50)})
        monitor.on_window_close(0, window)
        assert monitor.on_window_close(1, window).subnets == 50

    def test_history_is_bounded(self):
        monitor = CensusDriftMonitor(max_history=4)
        window = _window({"a": (10, 9)})
        for seq in range(10):
            monitor.on_window_close(seq, window)
        assert len(monitor.history) == 4
        assert monitor.history[-1].window_seq == 9

    def test_gauges_exported(self):
        reset_global_registry()
        try:
            monitor = CensusDriftMonitor()
            cellular = _window({f"s{i}": (10, 9) for i in range(20)})
            fixed = _window({f"s{i}": (10, 0) for i in range(20)})
            monitor.on_window_close(0, cellular)
            monitor.on_window_close(1, fixed)
            registry = global_registry()
            assert registry.get("census_ratio_psi").value > 0.25
            assert registry.get("census_churn_rate").value == 1.0
            assert registry.get("census_windows_scored_total").value == 1
        finally:
            reset_global_registry()

    def test_summary_payload(self):
        monitor = CensusDriftMonitor()
        window = _window({"a": (10, 9), "b": (10, 1)})
        monitor.on_window_close(0, window)
        monitor.on_window_close(1, window)
        summary = monitor.summary()
        assert summary["baseline_windows"] == 1
        assert summary["windows_scored"] == 1
        assert summary["last"]["window"] == 1
        assert summary["recent_psi"] == [0.0]

    def test_summary_before_scoring(self):
        summary = CensusDriftMonitor().summary()
        assert summary["last"] is None
        assert summary["windows_scored"] == 0


class TestStreamIntegration:
    def test_attach_monitor_scores_closed_windows(self, beacon_hits):
        from repro.stream import StreamEngine, WindowPolicy

        engine = StreamEngine(policy=WindowPolicy(window_events=2000))
        monitor = CensusDriftMonitor()
        engine.attach_monitor(monitor)
        engine.ingest_many(beacon_hits[:10000])
        assert engine.windows_advanced >= 3
        # First close fed the baseline; the rest were scored.
        assert monitor.windows_scored == engine.windows_advanced - 1
        assert monitor.last_score is not None

    def test_detach_monitor(self, beacon_hits):
        from repro.stream import StreamEngine, WindowPolicy

        engine = StreamEngine(policy=WindowPolicy(window_events=2000))
        monitor = CensusDriftMonitor()
        engine.attach_monitor(monitor)
        engine.attach_monitor(None)
        engine.ingest_many(beacon_hits[:5000])
        assert monitor.windows_scored == 0
        assert monitor._baseline_seen == 0

    def test_snapshot_resume_drops_monitor(self, beacon_hits, tmp_path):
        from repro.stream import StreamEngine, WindowPolicy

        engine = StreamEngine(policy=WindowPolicy(window_events=2000))
        engine.attach_monitor(CensusDriftMonitor())
        engine.ingest_many(beacon_hits[:3000])
        path = engine.save_snapshot(tmp_path / "snap.json")
        resumed = StreamEngine.load_snapshot(path)
        assert resumed.monitor is None
        assert resumed.state.on_advance is None

    def test_window_lag_gauge_tracks_open_fill(self, beacon_hits, tmp_path):
        from repro.stream import StreamEngine, WindowPolicy

        reset_global_registry()
        try:
            engine = StreamEngine(policy=WindowPolicy(window_events=2000))
            engine.ingest_many(beacon_hits[:3000])
            # Snapshots flush the live gauges; afterwards the lag gauge
            # reflects the open window's fill exactly.
            engine.save_snapshot(tmp_path / "snap.json")
            lag = global_registry().get("stream_window_lag_events")
            assert lag is not None
            assert lag.value == engine.state.window_fill
        finally:
            reset_global_registry()


class TestBatchTwin:
    def test_ratio_distribution_shift_on_records(self):
        @dataclass
        class _Record:
            ratio: float

        before = [_Record(0.02)] * 50 + [_Record(0.98)] * 50
        after = [_Record(0.98)] * 100
        psi, ks = ratio_distribution_shift(before, after)
        assert psi > 0.25
        assert ks == pytest.approx(0.5)

    def test_drift_score_verdicts(self):
        from repro.evolution import DriftScore

        assert DriftScore(psi=0.05, ks=0.1).verdict == "stable"
        assert DriftScore(psi=0.15, ks=0.2).verdict == "moderate"
        assert DriftScore(psi=0.30, ks=0.4).verdict == "major"
        assert DriftScore(psi=0.30, ks=0.4).to_dict()["verdict"] == "major"

    def test_monthly_census_drift_scores(self, lab):
        from repro.evolution import MonthlyCensus, snapshot_distribution_shift

        classification = lab.result.classification
        census = MonthlyCensus(
            months=[0, 1],
            classifications={0: classification, 1: classification},
            demands={0: lab.demand, 1: lab.demand},
        )
        scores = census.drift_scores()
        assert len(scores) == 1
        assert scores[0].psi == pytest.approx(0.0)
        assert scores[0].verdict == "stable"
        same = snapshot_distribution_shift(classification, classification)
        assert same.ks == pytest.approx(0.0)
