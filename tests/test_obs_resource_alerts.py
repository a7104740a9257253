"""Resource alerting: the memory-budget and rss-growth rule kinds.

Unit coverage drives the rule machinery with synthetic samples; the
end-to-end class then proves the whole chain on a *real* leak -- a
``LeakDrill`` attached to the stream engine retains page-touched
ballast every window close, the ``ResourceSampler`` reads the climbing
RSS out of ``/proc``, the scraper feeds a live ``AlertEngine``, and
both new rules fire and resolve.  The post-mortem story (alert log
episodes + time-series reader) must agree with the live one, same as
tests/test_obs_e2e_alerting.py does for drift.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest

from repro.obs.alerts import (
    STATE_FIRING,
    STATE_OK,
    STATE_PENDING,
    AlertEngine,
    AlertRule,
    AlertRuleError,
    AlertState,
    _evaluate,
    default_rules,
    episodes,
    read_alert_log,
)
from repro.obs.metrics import reset_global_registry
from repro.obs.resources import LeakDrill, ResourceSampler, read_statm
from repro.obs.timeseries import (
    MetricScraper,
    TimeSeriesReader,
    TimeSeriesStore,
)
from repro.stream import StreamEngine, WindowPolicy

MIB = 1024 * 1024

_HAS_PROC = Path("/proc/self/statm").exists()


@pytest.fixture(autouse=True)
def _fresh_registry():
    reset_global_registry()
    yield
    reset_global_registry()


def _growth_rule(**overrides) -> AlertRule:
    kwargs = dict(
        name="growth", kind="rss_growth", metric="process_rss_bytes",
        threshold=10.0, window_s=6.0, for_s=0.0,
    )
    kwargs.update(overrides)
    return AlertRule(**kwargs)


def _sample(ts: float, **series) -> dict:
    return {"ts": ts, "m": {k: ("g", float(v)) for k, v in series.items()}}


class TestDefaultRules:
    def test_pack_includes_resource_rules(self):
        rules = default_rules()
        assert len(rules) == 11
        by_name = {rule.name: rule for rule in rules}
        assert by_name["memory-budget"].kind == "memory_budget"
        assert by_name["memory-budget"].percent == 85.0
        assert by_name["rss-growth"].kind == "rss_growth"
        assert by_name["rss-growth"].window_s == 10.0
        # Every rule renders a human condition string.
        for rule in rules:
            assert rule.metric in rule.condition()

    def test_resource_rules_watch_the_sampler_gauge(self):
        for rule in default_rules()[-2:]:
            assert rule.metric == "process_rss_bytes"


class TestMemoryBudgetRule:
    def test_percent_out_of_range_rejected(self):
        for bad in (0.0, -5.0, 101.0):
            with pytest.raises(AlertRuleError):
                AlertRule(
                    name="b", kind="memory_budget",
                    metric="process_rss_bytes", threshold=1.0, percent=bad,
                )

    def test_percent_only_on_memory_budget(self):
        with pytest.raises(AlertRuleError):
            AlertRule(
                name="b", kind="gauge", metric="x",
                threshold=1.0, percent=50.0,
            )

    def test_needs_positive_threshold_without_percent(self):
        with pytest.raises(AlertRuleError):
            AlertRule(
                name="b", kind="memory_budget", metric="x", threshold=0.0,
            )

    def test_absolute_threshold_preserved(self):
        rule = AlertRule(
            name="b", kind="memory_budget", metric="x", threshold=123.0,
        )
        assert rule.threshold == 123.0

    @pytest.mark.skipif(
        not Path("/proc/meminfo").exists(), reason="needs /proc/meminfo"
    )
    def test_percent_resolves_against_total_memory(self):
        from repro.obs.resources import total_memory_bytes

        total = total_memory_bytes()
        assert total is not None
        rule = AlertRule(
            name="b", kind="memory_budget", metric="x",
            threshold=1.0, percent=50.0,
        )
        assert rule.threshold == pytest.approx(total * 0.5)
        assert "% of mem" in rule.condition()

    def test_value_is_worst_series_across_workers(self):
        rule = AlertRule(
            name="b", kind="memory_budget", metric="process_rss_bytes",
            threshold=1.0,
        )
        sample = _sample(1.0, process_rss_bytes=100.0)
        sample["m"]['process_rss_bytes{worker="0"}'] = ("g", 50.0)
        sample["m"]['process_rss_bytes{worker="1"}'] = ("g", 900.0)
        assert _evaluate(AlertState(rule), sample, 1.0) == 900.0

    def test_no_series_is_no_data(self):
        rule = AlertRule(
            name="b", kind="memory_budget", metric="process_rss_bytes",
            threshold=1.0,
        )
        sample = _sample(1.0, other=5.0)
        assert _evaluate(AlertState(rule), sample, 1.0) is None

    def test_fires_and_resolves_through_engine(self):
        rule = AlertRule(
            name="budget", kind="memory_budget",
            metric="process_rss_bytes", threshold=100.0, for_s=2.0,
        )
        engine = AlertEngine([rule])
        for ts, value in enumerate([50, 60, 150, 160, 170, 180, 40, 30]):
            engine.observe(_sample(float(ts), process_rss_bytes=value))
        transitions = [(e["from"], e["to"]) for e in engine.events]
        assert transitions == [
            (STATE_OK, STATE_PENDING),
            (STATE_PENDING, STATE_FIRING),
            (STATE_FIRING, STATE_OK),
        ]


class TestRssGrowthRule:
    def test_window_must_be_positive(self):
        with pytest.raises(AlertRuleError):
            _growth_rule(window_s=0.0)

    def test_from_dict_roundtrip(self):
        raw = {
            "name": "growth", "kind": "rss_growth",
            "metric": "process_rss_bytes", "threshold": 1024.0,
            "window_s": 12.5, "for_s": 3.0,
        }
        rule = AlertRule.from_dict(raw)
        assert rule.window_s == 12.5
        assert rule.for_s == 3.0
        assert "slope" in rule.condition()
        with pytest.raises(AlertRuleError):
            AlertRule.from_dict({**raw, "bogus_key": 1})

    def test_steady_climb_fires(self):
        engine = AlertEngine([_growth_rule()])
        # 100 bytes/s, one sample per second: breaches once half the
        # 6s window of evidence has accumulated.
        for ts in range(10):
            engine.observe(
                _sample(float(ts), process_rss_bytes=1000 + 100 * ts)
            )
        transitions = [(e["from"], e["to"]) for e in engine.events]
        assert transitions == [(STATE_OK, STATE_FIRING)]

    def test_flat_rss_never_fires(self):
        engine = AlertEngine([_growth_rule()])
        for ts in range(12):
            engine.observe(_sample(float(ts), process_rss_bytes=5000))
        assert engine.events == []

    def test_reset_clears_history_and_resolves(self):
        engine = AlertEngine([_growth_rule()])
        ts = itertools.count()
        for _ in range(8):  # climb -> firing
            t = next(ts)
            engine.observe(_sample(float(t), process_rss_bytes=1000 + 100 * t))
        assert engine.states["growth"].state == STATE_FIRING
        # The drop itself clears the series history (reset-aware): no
        # negative slope, and no verdict until evidence re-accumulates.
        for _ in range(2):
            engine.observe(_sample(float(next(ts)), process_rss_bytes=500))
        assert engine.states["growth"].state == STATE_FIRING  # no data yet
        for _ in range(6):  # flat post-release samples rebuild the window
            engine.observe(_sample(float(next(ts)), process_rss_bytes=500))
        assert engine.states["growth"].state == STATE_OK
        transitions = [(e["from"], e["to"]) for e in engine.events]
        assert transitions == [
            (STATE_OK, STATE_FIRING),
            (STATE_FIRING, STATE_OK),
        ]

    def test_worst_series_wins_across_workers(self):
        engine = AlertEngine([_growth_rule()])
        for ts in range(10):
            sample = _sample(float(ts), process_rss_bytes=5000)
            sample["m"]['process_rss_bytes{worker="1"}'] = (
                "g", 1000.0 + 200.0 * ts
            )
            engine.observe(sample)
        assert engine.states["growth"].state == STATE_FIRING

    def test_for_s_gates_through_pending(self):
        engine = AlertEngine([_growth_rule(for_s=2.0)])
        for ts in range(10):
            engine.observe(
                _sample(float(ts), process_rss_bytes=1000 + 100 * ts)
            )
        transitions = [(e["from"], e["to"]) for e in engine.events]
        assert transitions == [
            (STATE_OK, STATE_PENDING),
            (STATE_PENDING, STATE_FIRING),
        ]


# ---------------------------------------------------------------------------
# End-to-end: a real leak through the real plane.
# ---------------------------------------------------------------------------

#: Events per stream window; small so windows (and scrapes) are cheap.
WINDOW = 200
#: Ballast retained per closed window during the leak phase.
DRILL_BYTES = 16 * MIB
#: Windows the drill leaks for before releasing everything.
DRILL_WINDOWS = 10

_SENTINEL_TRACE = "e2e-resource-trace"


@pytest.mark.skipif(not _HAS_PROC, reason="needs /proc for real RSS")
class TestEndToEndResourceAlerting:
    @pytest.fixture()
    def plane(self, tmp_path):
        """Engine + sampler + scraper + alert engine, fully wired."""
        store = TimeSeriesStore(tmp_path / "ts")
        scraper = MetricScraper(store, interval_s=60.0)  # manual scrapes
        sampler = ResourceSampler()
        sampler.attach(scraper)
        baseline = read_statm("/proc/self/statm")
        assert baseline is not None
        rules = [
            AlertRule(
                name="e2e-rss-growth", kind="rss_growth",
                metric="process_rss_bytes",
                threshold=4 * MIB,  # bytes/s; drill climbs ~16MiB/s
                window_s=6.0, for_s=2.0,
            ),
            AlertRule(
                name="e2e-memory-budget", kind="memory_budget",
                metric="process_rss_bytes",
                # Absolute budget pinned to this process: baseline plus
                # 40MiB, which the 160MiB drill blows through and the
                # release drops back under.
                threshold=float(baseline[0]) + 40 * MIB,
                for_s=2.0,
            ),
        ]
        alert_log = tmp_path / "alerts.jsonl"
        alerts = AlertEngine(
            rules, log_path=alert_log, trace_id=_SENTINEL_TRACE
        )
        scraper.subscribe(alerts.observe)
        engine = StreamEngine(policy=WindowPolicy(window_events=WINDOW))
        yield engine, scraper, alerts, sampler, tmp_path
        sampler.uninstall()

    def _run_leak(self, engine, scraper):
        """Stable -> drill leak -> release, one scrape per window close."""
        from tests.test_obs_e2e_alerting import _hit

        counter = itertools.count()
        clock = itertools.count(start=100)

        def feed(windows):
            closed = 0
            while closed < windows:
                n = next(counter)
                if engine.ingest(_hit(n % 20, n // 20, n % 3 == 0)):
                    scraper.scrape_once(ts=float(next(clock)))
                    closed += 1

        feed(8)  # stable baseline: flat RSS, both rules ok
        engine.leak_drill = LeakDrill(DRILL_BYTES, DRILL_WINDOWS)
        feed(DRILL_WINDOWS + 1)  # leak, then the release window
        feed(12)  # post-release: growth history rebuilds flat, budget clears

    def test_drill_fires_and_release_resolves(self, plane):
        engine, scraper, alerts, _sampler, tmp_path = plane
        self._run_leak(engine, scraper)

        assert engine.leak_drill.released

        by_rule = {}
        for event in alerts.events:
            by_rule.setdefault(event["rule"], []).append(
                (event["from"], event["to"])
            )
        assert by_rule["e2e-rss-growth"] == [
            (STATE_OK, STATE_PENDING),
            (STATE_PENDING, STATE_FIRING),
            (STATE_FIRING, STATE_OK),
        ]
        assert by_rule["e2e-memory-budget"] == [
            (STATE_OK, STATE_PENDING),
            (STATE_PENDING, STATE_FIRING),
            (STATE_FIRING, STATE_OK),
        ]
        assert all(e["trace_id"] == _SENTINEL_TRACE for e in alerts.events)

    def test_post_mortem_matches_live_engine(self, plane):
        engine, scraper, alerts, _sampler, tmp_path = plane
        self._run_leak(engine, scraper)

        events = read_alert_log(tmp_path / "alerts.jsonl")
        assert [
            (e["rule"], e["from"], e["to"]) for e in events
        ] == [
            (e["rule"], e["from"], e["to"]) for e in alerts.events
        ]
        eps = episodes(events)
        resolved = {
            ep["rule"] for ep in eps
            if ep["fired"] and ep["ended"] is not None
        }
        assert resolved == {"e2e-rss-growth", "e2e-memory-budget"}
        assert all(ep["trace_id"] == _SENTINEL_TRACE for ep in eps)

    def test_timeseries_records_the_leak_shape(self, plane):
        engine, scraper, alerts, _sampler, tmp_path = plane
        self._run_leak(engine, scraper)

        reader = TimeSeriesReader(tmp_path / "ts")
        points = reader.series("process_rss_bytes")
        assert len(points) >= 20
        values = [v for _, v in points]
        baseline = values[0]
        peak = max(values)
        final = values[-1]
        # The drill retained ~160MiB; demand the series saw most of it
        # climb and most of it come back.
        assert peak - baseline > 100 * MIB
        assert peak - final > 100 * MIB
