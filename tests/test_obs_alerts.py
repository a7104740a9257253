"""Alert rules engine: parsing, debouncing, transitions, episodes."""

from __future__ import annotations

import json
import sys

import pytest

from repro.obs.alerts import (
    STATE_FIRING,
    STATE_OK,
    STATE_PENDING,
    AlertEngine,
    AlertRule,
    AlertRuleError,
    default_rules,
    episodes,
    load_rules,
    read_alert_log,
)


def _sample(ts, **metrics):
    return {"ts": float(ts), "m": metrics}


class TestAlertRule:
    def test_defaults(self):
        rule = AlertRule(name="r", metric="depth", threshold=5)
        assert rule.kind == "gauge" and rule.op == ">"

    @pytest.mark.parametrize("op,value,breaches", [
        (">", 6, True), (">", 5, False),
        (">=", 5, True), ("<", 4, True), ("<=", 5, True), ("<", 5, False),
    ])
    def test_breaches(self, op, value, breaches):
        rule = AlertRule(name="r", metric="m", op=op, threshold=5)
        assert rule.breaches(value) is breaches

    def test_unknown_kind_rejected(self):
        with pytest.raises(AlertRuleError, match="unknown kind"):
            AlertRule(name="r", metric="m", kind="derivative")

    def test_unknown_op_rejected(self):
        with pytest.raises(AlertRuleError, match="unknown op"):
            AlertRule(name="r", metric="m", op="!=")

    def test_ratio_needs_denominator(self):
        with pytest.raises(AlertRuleError, match="denominator"):
            AlertRule(name="r", metric="m", kind="ratio")

    def test_quantile_must_be_scraped(self):
        with pytest.raises(AlertRuleError, match="0.5 and 0.99"):
            AlertRule(name="r", metric="m", kind="quantile", q=0.95)

    def test_negative_for_s_rejected(self):
        with pytest.raises(AlertRuleError, match="for_s"):
            AlertRule(name="r", metric="m", for_s=-1)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(AlertRuleError, match="unknown keys"):
            AlertRule.from_dict({"name": "r", "metric": "m", "window": 5})

    def test_from_dict_requires_metric(self):
        with pytest.raises(AlertRuleError, match="metric"):
            AlertRule.from_dict({"name": "r"})

    def test_condition_strings(self):
        assert AlertRule(
            name="r", metric="m", kind="counter_rate", threshold=10
        ).condition() == "rate(m) > 10"
        assert AlertRule(
            name="r", metric="a", kind="ratio", denominator="b",
            threshold=0.1, for_s=2,
        ).condition() == "a/b > 0.1 for 2s"
        assert AlertRule(
            name="r", metric="m", kind="quantile", q=0.5, threshold=1
        ).condition() == "p50(m) > 1"


class TestLoadRules:
    def test_json_rules(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": [
            {"name": "depth", "metric": "queue_depth", "threshold": 10},
        ]}))
        rules = load_rules(path)
        assert len(rules) == 1 and rules[0].name == "depth"

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="tomllib needs python >= 3.11")
    def test_toml_rules(self, tmp_path):
        path = tmp_path / "rules.toml"
        path.write_text(
            '[[rules]]\n'
            'name = "rejects"\n'
            'kind = "ratio"\n'
            'metric = "ingest_rejected_total"\n'
            'denominator = "ingest_lines_total"\n'
            'threshold = 0.1\n'
            'for_s = 2.0\n'
        )
        rules = load_rules(path)
        assert rules[0].kind == "ratio" and rules[0].for_s == 2.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(AlertRuleError, match="cannot read"):
            load_rules(tmp_path / "absent.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text("{nope")
        with pytest.raises(AlertRuleError, match="bad JSON"):
            load_rules(path)

    def test_missing_rules_array(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text('{"alerts": []}')
        with pytest.raises(AlertRuleError, match="'rules' array"):
            load_rules(path)

    def test_empty_rules_rejected(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text('{"rules": []}')
        with pytest.raises(AlertRuleError, match="empty"):
            load_rules(path)

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": [
            {"name": "x", "metric": "a"},
            {"name": "x", "metric": "b"},
        ]}))
        with pytest.raises(AlertRuleError, match="duplicate"):
            load_rules(path)

    def test_default_rules_are_valid_and_named_uniquely(self):
        rules = default_rules()
        names = [rule.name for rule in rules]
        assert len(names) == len(set(names))
        assert "census-ratio-drift" in names
        assert "ingest-reject-budget" in names


class TestEngineTransitions:
    def test_gauge_rule_fires_immediately_without_for_s(self):
        engine = AlertEngine([AlertRule(name="depth", metric="d",
                                        threshold=10)])
        events = engine.observe(_sample(1, d=["g", 50]))
        assert [(e["from"], e["to"]) for e in events] == [("ok", "firing")]
        assert engine.firing()[0]["rule"] == "depth"

    def test_for_s_debounces_through_pending(self):
        rule = AlertRule(name="depth", metric="d", threshold=10, for_s=5)
        engine = AlertEngine([rule])
        assert [e["to"] for e in engine.observe(_sample(0, d=["g", 50]))] \
            == ["pending"]
        assert engine.observe(_sample(3, d=["g", 50])) == []  # still pending
        assert [e["to"] for e in engine.observe(_sample(6, d=["g", 50]))] \
            == ["firing"]

    def test_breach_clearing_during_pending_returns_to_ok(self):
        rule = AlertRule(name="depth", metric="d", threshold=10, for_s=5)
        engine = AlertEngine([rule])
        engine.observe(_sample(0, d=["g", 50]))
        events = engine.observe(_sample(2, d=["g", 1]))
        assert [(e["from"], e["to"]) for e in events] == [("pending", "ok")]

    def test_firing_resolves_when_breach_clears(self):
        engine = AlertEngine([AlertRule(name="depth", metric="d",
                                        threshold=10)])
        engine.observe(_sample(1, d=["g", 50]))
        events = engine.observe(_sample(2, d=["g", 0]))
        assert [(e["from"], e["to"]) for e in events] == [("firing", "ok")]

    def test_missing_metric_keeps_state(self):
        engine = AlertEngine([AlertRule(name="depth", metric="d",
                                        threshold=10)])
        engine.observe(_sample(1, d=["g", 50]))
        assert engine.observe(_sample(2)) == []  # no data: stay firing
        assert engine.firing()

    def test_ratio_rule(self):
        rule = AlertRule(name="rej", kind="ratio", metric="bad",
                         denominator="all", threshold=0.10)
        engine = AlertEngine([rule])
        assert engine.observe(
            _sample(1, bad=["c", 5], all=["c", 100])
        ) == []
        events = engine.observe(_sample(2, bad=["c", 30], all=["c", 200]))
        assert events and events[0]["to"] == "firing"
        assert events[0]["value"] == pytest.approx(0.15)

    def test_zero_denominator_reads_zero(self):
        rule = AlertRule(name="rej", kind="ratio", metric="bad",
                         denominator="all", threshold=0.10)
        engine = AlertEngine([rule])
        assert engine.observe(_sample(1, bad=["c", 5], all=["c", 0])) == []

    def test_counter_rate_rule_uses_consecutive_samples(self):
        rule = AlertRule(name="rate", kind="counter_rate",
                         metric="events_total", threshold=100)
        engine = AlertEngine([rule])
        assert engine.observe(_sample(10, events_total=["c", 0])) == []
        events = engine.observe(_sample(11, events_total=["c", 500]))
        assert events and events[0]["value"] == pytest.approx(500.0)

    def test_quantile_rule_reads_scraped_p99(self):
        rule = AlertRule(name="p99", kind="quantile",
                         metric="latency_seconds", q=0.99, threshold=0.001)
        engine = AlertEngine([rule])
        histogram = ["h", 10, 0.5, 0.0005, 0.25]
        events = engine.observe(_sample(1, latency_seconds=histogram))
        assert events and events[0]["to"] == "firing"

    def test_counts_summarize_states(self):
        engine = AlertEngine([
            AlertRule(name="a", metric="x", threshold=1),
            AlertRule(name="b", metric="y", threshold=1),
        ])
        engine.observe(_sample(1, x=["g", 5], y=["g", 0]))
        counts = engine.counts()
        assert counts[STATE_FIRING] == 1
        assert counts[STATE_OK] == 1
        assert counts[STATE_PENDING] == 0


    def test_counter_rate_gap_clears_the_baseline(self):
        # A sample without the series leaves no baseline behind: the
        # next sample rates nothing, the one after rates against it.
        rule = AlertRule(name="rate", kind="counter_rate",
                         metric="events_total", threshold=1e9)
        engine = AlertEngine([rule])
        engine.observe(_sample(10, events_total=["c", 0]))
        engine.observe(_sample(11, other=["c", 1]))
        engine.observe(_sample(12, events_total=["c", 500]))
        assert engine.states["rate"].last_value is None
        engine.observe(_sample(14, events_total=["c", 700]))
        assert engine.states["rate"].last_value == 100.0


# ---- kind x payload matrix --------------------------------------------------

#: Payload factories: step ``i`` of a series scaled by ``m``.
_PAYLOADS = {
    "counter": lambda i, m: ["c", 10 * (i + 1) * m],
    "gauge": lambda i, m: ["g", 2.5 * (i + 1) * m],
    "histogram": lambda i, m: [
        "h", 4 * (i + 1) * m, 2.0 * (i + 1) * m,
        0.125 * (i + 1) * m, 0.5 * (i + 1) * m,
    ],
    "null": lambda i, m: ["g", None],
    "null_histogram": lambda i, m: ["h", 3 * m, 1.0, None, None],
    "empty": lambda i, m: [],
    "text": lambda i, m: "x",
}

_KIND_RULES = {
    "gauge": {},
    "counter": {},
    "counter_rate": {},
    "ratio": {"denominator": "den"},
    "quantile": {"q": 0.99},
    "skew": {"q": 0.5},
    "memory_budget": {"threshold": 1.0},
    "rss_growth": {"window_s": 2.0},
}

#: The value each kind records for samples 0..3 (None = no data).  Each
#: sample carries the payload under ``x`` (scale 1) and under
#: ``x{worker="0|1|2"}`` (scales 1, 2, 6), plus a ``den`` counter.
#: ``# was`` marks the cells the per-kind evaluators answered
#: differently: null and malformed payloads raised out of the plain
#: kinds, ``quantile`` ignored counters and gauges, and
#: ``memory_budget`` / ``rss_growth`` ignored histograms.
_MATRIX = {
    ("gauge", "counter"): (10.0, 20.0, 30.0, 40.0),
    ("gauge", "gauge"): (2.5, 5.0, 7.5, 10.0),
    ("gauge", "histogram"): (4.0, 8.0, 12.0, 16.0),
    ("gauge", "null"): (None,) * 4,  # was: TypeError
    ("gauge", "null_histogram"): (3.0, 3.0, 3.0, 3.0),
    ("gauge", "empty"): (None,) * 4,  # was: IndexError
    ("gauge", "text"): (None,) * 4,  # was: IndexError
    ("counter", "counter"): (10.0, 20.0, 30.0, 40.0),
    ("counter", "gauge"): (2.5, 5.0, 7.5, 10.0),
    ("counter", "histogram"): (4.0, 8.0, 12.0, 16.0),
    ("counter", "null"): (None,) * 4,  # was: TypeError
    ("counter", "null_histogram"): (3.0, 3.0, 3.0, 3.0),
    ("counter", "empty"): (None,) * 4,  # was: IndexError
    ("counter", "text"): (None,) * 4,  # was: IndexError
    ("counter_rate", "counter"): (None, 10.0, 10.0, 10.0),
    ("counter_rate", "gauge"): (None, 2.5, 2.5, 2.5),
    ("counter_rate", "histogram"): (None, 4.0, 4.0, 4.0),
    ("counter_rate", "null"): (None,) * 4,  # was: None, TypeError
    ("counter_rate", "null_histogram"): (None, 0.0, 0.0, 0.0),
    ("counter_rate", "empty"): (None,) * 4,  # was: None, IndexError
    ("counter_rate", "text"): (None,) * 4,  # was: None, IndexError
    ("ratio", "counter"): (1.25, 1.25, 1.25, 1.25),
    ("ratio", "gauge"): (0.3125, 0.3125, 0.3125, 0.3125),
    ("ratio", "histogram"): (0.5, 0.5, 0.5, 0.5),
    ("ratio", "null"): (None,) * 4,  # was: TypeError
    ("ratio", "null_histogram"): (0.375, 0.1875, 0.125, 0.09375),
    ("ratio", "empty"): (None,) * 4,  # was: IndexError
    ("ratio", "text"): (None,) * 4,  # was: IndexError
    ("quantile", "counter"): (10.0, 20.0, 30.0, 40.0),  # was: None x4
    ("quantile", "gauge"): (2.5, 5.0, 7.5, 10.0),  # was: None x4
    ("quantile", "histogram"): (0.5, 1.0, 1.5, 2.0),
    ("quantile", "null"): (None,) * 4,
    ("quantile", "null_histogram"): (None,) * 4,
    ("quantile", "empty"): (None,) * 4,  # was: IndexError
    ("quantile", "text"): (None,) * 4,
    ("skew", "counter"): (4.0, 4.0, 4.0, 4.0),
    ("skew", "gauge"): (4.0, 4.0, 4.0, 4.0),
    ("skew", "histogram"): (4.0, 4.0, 4.0, 4.0),
    ("skew", "null"): (None,) * 4,
    ("skew", "null_histogram"): (None,) * 4,
    ("skew", "empty"): (None,) * 4,
    ("skew", "text"): (None,) * 4,
    ("memory_budget", "counter"): (60.0, 120.0, 180.0, 240.0),
    ("memory_budget", "gauge"): (15.0, 30.0, 45.0, 60.0),
    ("memory_budget", "histogram"): (24.0, 48.0, 72.0, 96.0),  # was: None x4
    ("memory_budget", "null"): (None,) * 4,
    ("memory_budget", "null_histogram"): (18.0,) * 4,  # was: None x4
    ("memory_budget", "empty"): (None,) * 4,
    ("memory_budget", "text"): (None,) * 4,
    ("rss_growth", "counter"): (None, None, 60.0, 60.0),
    ("rss_growth", "gauge"): (None, None, 15.0, 15.0),
    ("rss_growth", "histogram"): (None, None, 24.0, 24.0),  # was: None x4
    ("rss_growth", "null"): (None,) * 4,
    ("rss_growth", "null_histogram"): (None, None, 0.0, 0.0),  # was: None x4
    ("rss_growth", "empty"): (None,) * 4,
    ("rss_growth", "text"): (None,) * 4,
}


class TestKindPayloadMatrix:
    @pytest.mark.parametrize("kind", sorted(_KIND_RULES))
    def test_recorded_values(self, kind, monkeypatch):
        for payload, make in _PAYLOADS.items():
            rule = AlertRule(name="r", kind=kind, metric="x",
                             **_KIND_RULES[kind])
            engine = AlertEngine([rule])
            recorded = []
            advance = engine._advance

            def spy(state, value, ts):
                recorded.append(value)
                return advance(state, value, ts)

            monkeypatch.setattr(engine, "_advance", spy)
            for i in range(4):
                engine.observe(_sample(
                    i, x=make(i, 1), den=["c", 8 * (i + 1)],
                    **{f'x{{worker="{slot}"}}': make(i, scale)
                       for slot, scale in enumerate((1, 2, 6))},
                ))
            assert tuple(recorded) == _MATRIX[kind, payload], payload


class TestAlertLog:
    def test_transitions_logged_with_trace_id(self, tmp_path):
        log = tmp_path / "alerts.jsonl"
        engine = AlertEngine(
            [AlertRule(name="depth", metric="d", threshold=10)],
            log_path=log, trace_id="abc123",
        )
        engine.observe(_sample(1, d=["g", 50]))
        engine.observe(_sample(2, d=["g", 0]))
        events = read_alert_log(log)
        assert [(e["from"], e["to"]) for e in events] == [
            ("ok", "firing"), ("firing", "ok"),
        ]
        assert all(e["trace_id"] == "abc123" for e in events)
        assert all("condition" in e for e in events)

    def test_read_skips_junk_lines(self, tmp_path):
        log = tmp_path / "alerts.jsonl"
        log.write_text('{"ts": 1, "rule": "r", "from": "ok", "to": '
                       '"firing", "value": 1, "threshold": 0}\n'
                       "not json\n"
                       "[1, 2]\n")
        events = read_alert_log(log)
        assert len(events) == 1

    def test_read_missing_log_is_empty(self, tmp_path):
        assert read_alert_log(tmp_path / "absent.jsonl") == []

    def test_episodes_group_fire_resolve_cycles(self):
        events = [
            {"ts": 1.0, "rule": "r", "from": "ok", "to": "pending",
             "value": 5, "threshold": 1, "trace_id": "t"},
            {"ts": 2.0, "rule": "r", "from": "pending", "to": "firing",
             "value": 7, "threshold": 1, "trace_id": "t"},
            {"ts": 3.0, "rule": "r", "from": "firing", "to": "ok",
             "value": 0, "threshold": 1, "trace_id": "t"},
            {"ts": 4.0, "rule": "other", "from": "ok", "to": "firing",
             "value": 9, "threshold": 1, "trace_id": "t"},
        ]
        all_episodes = episodes(events)
        assert len(all_episodes) == 2
        first = episodes(events, "r")[0]
        assert first["fired"] is True
        assert first["started"] == 1.0 and first["ended"] == 3.0
        assert first["peak_value"] == 7
        assert first["trace_id"] == "t"

    def test_unresolved_episode_has_open_end(self):
        events = [
            {"ts": 1.0, "rule": "r", "from": "ok", "to": "firing",
             "value": 5, "threshold": 1, "trace_id": "t"},
        ]
        episode = episodes(events)[0]
        assert episode["fired"] and episode["ended"] is None
