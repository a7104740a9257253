"""`cellspot top` dashboard: rendering, data sources, repaint loop."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.dashboard import (
    ANSI_HIDE_CURSOR,
    ANSI_HOME_CLEAR,
    ANSI_SHOW_CURSOR,
    health_from_metrics_dump,
    health_from_sample,
    health_from_timeseries,
    render_dashboard,
    render_health_report,
    run_top,
    sparkline,
)


def _health(**overrides):
    health = {
        "ok": True,
        "ts": 1700000000.0,
        "engine": {
            "month": "2017-01",
            "events_consumed": 32768,
            "windows_advanced": 8,
            "window_fill": 123,
            "subnets": 456,
        },
        "rates": {
            "events_per_s": 50000.0,
            "queries_per_s": 12000.0,
            "query_p99_s": 0.0001,
        },
        "drift": {
            "windows_scored": 7,
            "baseline_windows": 1,
            "baseline_subnets": 100,
            "recent_psi": [0.01, 0.02, 0.5],
            "last": {"psi": 0.5, "ks": 0.4, "churn_rate": 0.1},
        },
        "alerts": [
            {"rule": "drift", "state": "firing",
             "condition": "census_ratio_psi > 0.25", "value": 0.5},
            {"rule": "lag", "state": "ok",
             "condition": "lag > 50000", "value": 12.0},
        ],
        "index_entries": 456,
    }
    health.update(overrides)
    return health


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_all_zero_is_flat(self):
        assert sparkline([0, 0, 0]) == "   "

    def test_peak_gets_full_bar(self):
        line = sparkline([0.0, 1.0])
        assert line[-1] == "█"

    def test_width_truncates_to_tail(self):
        assert len(sparkline(list(range(100)), width=10)) == 10


class TestRenderDashboard:
    def test_panels_present(self):
        frame = render_dashboard(_health())
        assert "engine" in frame
        assert "census drift" in frame
        assert "alerts" in frame
        assert "2017-01" in frame
        assert "32,768" in frame

    def test_firing_alerts_sort_first(self):
        frame = render_dashboard(_health())
        assert frame.index("✖ firing") < frame.index("· ok")

    def test_no_rules_placeholder(self):
        frame = render_dashboard(_health(alerts=[]))
        assert "(no alert rules loaded)" in frame

    def test_width_is_respected(self):
        for line in render_dashboard(_health(), width=60).splitlines():
            assert len(line) <= 60

    def test_empty_payload_renders(self):
        frame = render_dashboard({})
        assert "engine" in frame  # degrades, never raises


class TestDataSources:
    def test_health_from_timeseries(self, tmp_path):
        from repro.obs.timeseries import TimeSeriesStore

        store = TimeSeriesStore(tmp_path)
        store.append({"ts": 10.0, "m": {
            "stream_events_total": ["c", 1000],
            "census_ratio_psi": ["g", 0.3],
        }})
        store.append({"ts": 12.0, "m": {
            "stream_events_total": ["c", 3000],
            "census_ratio_psi": ["g", 0.6],
            "stream_tracked_subnets": ["g", 42],
        }})
        health = health_from_timeseries(tmp_path)
        assert health["ts"] == 12.0
        assert health["engine"]["events_consumed"] == 3000
        assert health["engine"]["subnets"] == 42
        assert health["drift"]["last"]["psi"] == 0.6
        # Rate from the stored counter delta: 2000 events / 2 s.
        assert health["rates"]["events_per_s"] == pytest.approx(1000.0)

    def test_null_stage_watermark_is_skipped(self):
        health = health_from_sample({"ts": 1.0, "m": {
            'rss_peak_bytes{stage="a"}': ["g", None],
            'rss_peak_bytes{stage="b"}': ["g", 2048],
        }}, "test")
        assert health["resources"]["stages"] == [
            {"stage": "b", "rss_peak_bytes": 2048}
        ]

    def test_health_from_empty_timeseries_raises(self, tmp_path):
        with pytest.raises(OSError):
            health_from_timeseries(tmp_path / "nothing")

    def test_health_from_json_metrics_dump(self, tmp_path):
        dump = tmp_path / "metrics.json"
        dump.write_text(json.dumps({
            "stream_events_total": {"type": "counter", "value": 777},
            "census_ratio_psi": {"type": "gauge", "value": 0.42},
            "query_latency_seconds": {"type": "histogram", "p99": 0.002},
        }))
        health = health_from_metrics_dump(dump)
        assert health["engine"]["events_consumed"] == 777
        assert health["drift"]["last"]["psi"] == 0.42
        assert health["source"] == str(dump)

    def test_health_from_prometheus_dump(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry, render_prometheus

        registry = MetricsRegistry()
        registry.counter("stream_events_total", "events").inc(55)
        registry.gauge("census_ratio_psi", "psi").set(0.9)
        dump = tmp_path / "metrics.prom"
        dump.write_text(render_prometheus(registry))
        health = health_from_metrics_dump(dump)
        assert health["engine"]["events_consumed"] == 55
        assert health["drift"]["last"]["psi"] == 0.9


class TestRunTop:
    def test_fixed_iterations(self):
        out = io.StringIO()
        frames = run_top(lambda: _health(), out, iterations=3,
                         sleep=lambda _s: None)
        assert frames == 3
        assert out.getvalue().count("cellspot top") == 3

    def test_stops_when_fetch_returns_none(self):
        feed = [_health(), _health(), None]
        out = io.StringIO()
        frames = run_top(lambda: feed.pop(0), out, iterations=None,
                         sleep=lambda _s: None)
        assert frames == 2

    def test_ansi_mode_hides_and_restores_cursor(self):
        out = io.StringIO()
        run_top(lambda: _health(), out, iterations=1, ansi=True,
                sleep=lambda _s: None)
        text = out.getvalue()
        assert text.startswith(ANSI_HIDE_CURSOR)
        assert ANSI_HOME_CLEAR in text
        assert text.endswith(ANSI_SHOW_CURSOR)

    def test_plain_mode_has_no_escapes(self):
        out = io.StringIO()
        run_top(lambda: _health(), out, iterations=2, ansi=False,
                sleep=lambda _s: None)
        assert "\x1b[" not in out.getvalue()

    def test_keyboard_interrupt_counts_painted_frames(self):
        calls = {"n": 0}

        def fetch():
            calls["n"] += 1
            if calls["n"] > 2:
                raise KeyboardInterrupt
            return _health()

        frames = run_top(fetch, io.StringIO(), iterations=None,
                         sleep=lambda _s: None)
        assert frames == 2

    def test_broken_pipe_is_tolerated(self):
        class _Closed(io.StringIO):
            def write(self, _text):
                raise BrokenPipeError

        frames = run_top(lambda: _health(), _Closed(), iterations=5,
                         ansi=True, sleep=lambda _s: None)
        assert frames == 0


class TestHealthReport:
    def test_markdown_sections(self):
        report = render_health_report(_health())
        assert report.startswith("# cellspot health rollup")
        assert "## engine" in report
        assert "## census drift" in report
        assert "| drift | firing |" in report
        assert "PSI trend" in report

    def test_no_alerts_placeholder(self):
        report = render_health_report(_health(alerts=[]))
        assert "(no live alert states)" in report

    def test_episode_section_joins_trace(self):
        events = [
            {"ts": 1.0, "rule": "drift", "from": "ok", "to": "firing",
             "value": 0.5, "threshold": 0.25, "trace_id": "t-123"},
            {"ts": 2.0, "rule": "drift", "from": "firing", "to": "ok",
             "value": 0.1, "threshold": 0.25, "trace_id": "t-123"},
        ]
        report = render_health_report(_health(), alert_events=events)
        assert "### firing episodes" in report
        assert "`drift` fired" in report
        assert "trace `t-123`" in report

    def test_html_variant_is_escaped(self):
        report = render_health_report(_health(), fmt="html")
        assert report.startswith("<!doctype html>")
        assert "<pre>" in report
        assert "census_ratio_psi &gt; 0.25" in report
