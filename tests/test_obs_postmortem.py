"""Distributed observability: span logs, federation, skew, postmortem."""

from __future__ import annotations

import json

import pytest

from repro.obs.alerts import AlertEngine, AlertRule, default_rules
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.postmortem import (
    build_postmortem,
    collect_spans,
    render_text,
    to_chrome_trace,
)
from repro.obs.timeseries import (
    MetricScraper,
    TimeSeriesStore,
    read_latest_sample,
    split_metric_tag,
    tag_metric,
)
from repro.obs.trace import SpanLog, read_span_log


class TestSpanLog:
    def test_record_roundtrip(self, tmp_path):
        log = SpanLog(tmp_path / "front", source="front")
        record = log.record(
            "front.request",
            "trace-1",
            started=10.0,
            duration=0.25,
            request_id="req-000000000001",
            outcome="ok",
        )
        assert record["src"] == "front"
        (read,) = read_span_log(tmp_path / "front")
        assert read["name"] == "front.request"
        assert read["tid"] == "trace-1"
        assert read["rid"] == "req-000000000001"
        assert read["mono"] == 10.0
        assert read["dur"] == 0.25
        assert read["attrs"] == {"outcome": "ok"}

    def test_parent_child_ids(self, tmp_path):
        log = SpanLog(tmp_path, source="worker-0")
        parent = log.record("worker.request", "t", started=0.0, duration=1.0)
        log.record(
            "worker.lpm",
            "t",
            started=0.1,
            duration=0.5,
            parent_id=parent["sid"],
        )
        records = {r["name"]: r for r in read_span_log(tmp_path)}
        assert records["worker.lpm"]["pid"] == records["worker.request"]["sid"]

    def test_span_ring_shares_directory_with_metric_ring(self, tmp_path):
        # spans-* and segment-* rings must not see each other's files.
        log = SpanLog(tmp_path, source="worker-0")
        log.record("a", "t", started=0.0, duration=0.1)
        store = TimeSeriesStore(tmp_path)
        store.append({"ts": 1.0, "m": {"x": ["c", 1]}})
        assert len(read_span_log(tmp_path)) == 1
        sample = read_latest_sample(tmp_path)
        assert sample["m"]["x"] == ["c", 1]


class TestFederationPrimitives:
    def test_read_latest_sample_skips_torn_tail(self, tmp_path):
        store = TimeSeriesStore(tmp_path)
        store.append({"ts": 1.0, "m": {"x": ["c", 1]}})
        store.append({"ts": 2.0, "m": {"x": ["c", 2]}})
        with store.active_segment.open("a") as stream:
            stream.write('{"ts": 3.0, "m": {"x"')  # torn final line
        sample = read_latest_sample(tmp_path)
        assert sample["ts"] == 2.0

    def test_read_latest_sample_empty_dir(self, tmp_path):
        assert read_latest_sample(tmp_path) is None

    def test_tag_metric_roundtrip(self):
        key = tag_metric("lat_seconds", worker="3")
        assert key == 'lat_seconds{worker="3"}'
        assert split_metric_tag(key) == ("lat_seconds", {"worker": "3"})
        assert split_metric_tag("plain") == ("plain", {})

    def test_scraper_source_and_enricher_merge(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("local_total", "local").inc(5)
        scraper = MetricScraper(
            TimeSeriesStore(tmp_path), registry=registry, source="front"
        )
        scraper.add_enricher(
            lambda: {tag_metric("remote_total", worker="0"): ["c", 9]}
        )
        sample = scraper.scrape_once(ts=50.0)
        assert sample["src"] == "front"
        assert sample["m"]["local_total"] == ["c", 5]
        assert sample["m"]['remote_total{worker="0"}'] == ["c", 9]
        # The stored copy carries the enriched keys too.
        stored = read_latest_sample(tmp_path)
        assert stored["m"]['remote_total{worker="0"}'] == ["c", 9]

    def test_raising_enricher_is_isolated(self, tmp_path):
        scraper = MetricScraper(
            TimeSeriesStore(tmp_path), registry=MetricsRegistry()
        )

        def boom():
            raise RuntimeError("federation down")

        scraper.add_enricher(boom)
        scraper.scrape_once(ts=1.0)
        assert scraper.enricher_errors == 1
        assert scraper.samples_taken == 1


class TestWorkerLatencySkew:
    def _engine(self, for_s: float = 0.0) -> AlertEngine:
        rule = AlertRule(
            name="skew",
            kind="skew",
            metric="lat_seconds",
            q=0.99,
            op=">",
            threshold=4.0,
            for_s=for_s,
        )
        return AlertEngine([rule])

    @staticmethod
    def _sample(ts: float, p99s) -> dict:
        return {
            "ts": ts,
            "m": {
                tag_metric("lat_seconds", worker=str(slot)): [
                    "h", 100, 1.0, p99 / 2, p99
                ]
                for slot, p99 in enumerate(p99s)
            },
        }

    def test_fires_on_divergent_worker_and_resolves(self):
        engine = self._engine()
        engine.observe(self._sample(1.0, [0.001, 0.001, 0.1]))
        (state,) = engine.snapshot()
        assert state["state"] == "firing"
        assert state["value"] == pytest.approx(100.0)
        engine.observe(self._sample(2.0, [0.001, 0.001, 0.001]))
        (state,) = engine.snapshot()
        assert state["state"] == "ok"

    def test_single_worker_is_no_data(self):
        engine = self._engine()
        engine.observe(self._sample(1.0, [0.1]))
        (state,) = engine.snapshot()
        assert state["state"] == "ok"
        assert state["value"] is None

    def test_for_s_holds_before_firing(self):
        engine = self._engine(for_s=1.0)
        engine.observe(self._sample(1.0, [0.001, 0.1]))
        assert engine.snapshot()[0]["state"] == "pending"
        engine.observe(self._sample(2.5, [0.001, 0.1]))
        assert engine.snapshot()[0]["state"] == "firing"

    def test_baseline_excludes_the_worst(self):
        # Two workers: the ratio is slow/fast, not capped by a median
        # that includes the outlier itself.
        engine = self._engine()
        engine.observe(self._sample(1.0, [0.01, 0.02]))
        assert engine.snapshot()[0]["value"] == pytest.approx(2.0)

    def test_default_rules_include_worker_latency_skew(self):
        rules = {rule.name: rule for rule in default_rules()}
        skew = rules["worker-latency-skew"]
        assert skew.kind == "skew"
        assert skew.metric == "scale_worker_query_latency_seconds"
        assert skew.for_s > 0

    def test_default_rule_ignores_a_fresh_replicas_tail(self):
        # A replica respawned a moment ago has ~200 lookups, so two
        # stalled ones set its p99; its median is the fleet's.  A sick
        # (drilled 5 ms/lookup) replica moves the median.
        (rule,) = [r for r in default_rules() if r.name == "worker-latency-skew"]
        engine = AlertEngine([rule])
        key = "scale_worker_query_latency_seconds"

        def sample(ts, fresh):
            return {"ts": ts, "m": {
                tag_metric(key, worker="0"): fresh,
                tag_metric(key, worker="1"): ["h", 1400, 0.04, 2.5e-5, 2.5e-4],
            }}

        sick = ["h", 32, 0.2, 0.005, 0.025]
        engine.observe(sample(1.0, sick))
        engine.observe(sample(2.5, sick))
        assert engine.snapshot()[0]["state"] == "firing"
        fresh = ["h", 160, 0.01, 2.5e-5, 0.0025]
        engine.observe(sample(3.0, fresh))
        (state,) = engine.snapshot()
        assert state["state"] == "ok"
        assert state["value"] == pytest.approx(1.0)


@pytest.fixture()
def obs_dir(tmp_path):
    """A synthetic obs directory: front + worker spans, ring, artifact."""
    obs = tmp_path / "obs"
    front = SpanLog(obs / "front", source="front")
    parent = front.record(
        "front.request",
        "trace-A",
        started=100.0,
        duration=0.5,
        request_id="req-000000000001",
    )
    worker = SpanLog(obs / "worker-0", source="worker-0")
    worker.record(
        "worker.request",
        "trace-A",
        started=100.1,
        duration=0.3,
        parent_id=parent["sid"],
        request_id="req-000000000001",
        slot=0,
    )
    builder = SpanLog(obs / "builder", source="builder")
    builder.record(
        "builder.publish", "trace-A", started=99.0, duration=0.2, generation=4
    )
    # A second, minority trace: must not hijack the dominant join.
    worker.record("worker.request", "trace-B", started=50.0, duration=0.1)
    recorder = FlightRecorder(obs / "worker-0.fr", slots=4)
    recorder.begin(b'{"op":"query","q":"10.0.0.9"}', "req-000000000001", 4)
    recorder.close()
    (obs / "postmortem-worker0-0001.json").write_text(
        json.dumps(
            {
                "kind": "worker-death",
                "slot": 0,
                "pid": 4242,
                "reason": "process exited (exit -9)",
                "dying_request": {
                    "rid": "req-000000000001",
                    "outcome": "inflight",
                    "line": '{"op":"query","q":"10.0.0.9"}',
                },
            }
        )
    )
    return obs


class TestBuildPostmortem:
    def test_joins_dominant_trace_across_sources(self, obs_dir):
        postmortem = build_postmortem(obs_dir)
        assert postmortem["trace_id"] == "trace-A"
        assert postmortem["trace_ids"] == ["trace-A", "trace-B"]
        assert postmortem["sources"] == ["builder", "front", "worker-0"]
        assert [s["name"] for s in postmortem["spans"]] == [
            "builder.publish", "front.request", "worker.request"
        ]  # sorted by monotonic start
        assert len(postmortem["artifacts"]) == 1
        assert "worker-0" in postmortem["rings"]

    def test_explicit_trace_id(self, obs_dir):
        postmortem = build_postmortem(obs_dir, trace_id="trace-B")
        assert [s["tid"] for s in postmortem["spans"]] == ["trace-B"]

    def test_collect_spans_stamps_source(self, obs_dir):
        sources = {span["src"] for span in collect_spans(obs_dir)}
        assert sources == {"builder", "front", "worker-0"}

    def test_empty_directory(self, tmp_path):
        postmortem = build_postmortem(tmp_path)
        assert postmortem["spans"] == []
        assert postmortem["trace_id"] is None

    def test_render_text_names_dying_request(self, obs_dir):
        text = render_text(build_postmortem(obs_dir))
        assert "postmortem: trace trace-A -- 3 span(s)" in text
        assert "builder, front, worker-0" in text
        assert "rid=req-000000000001" in text
        assert "dying request rid=req-000000000001" in text
        assert "flight ring worker-0: 1 record(s), 1 in flight" in text

    def test_render_text_limit(self, obs_dir):
        text = render_text(build_postmortem(obs_dir), limit=1)
        assert "... 2 more span(s)" in text

    def test_chrome_trace_one_lane_per_source(self, obs_dir):
        payload = to_chrome_trace(build_postmortem(obs_dir))
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert {e["args"]["name"] for e in meta} == {
            "builder", "front", "worker-0"
        }
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 3
        assert all(e["ts"] >= 0 for e in spans)  # relative to first span
        assert {e["pid"] for e in spans} <= {e["pid"] for e in meta}


class TestPostmortemCli:
    def test_cli_joins_and_exports_chrome(self, obs_dir, tmp_path, capsys):
        from repro.cli import main

        chrome = tmp_path / "pm-trace.json"
        code = main(
            ["postmortem", str(obs_dir), "--chrome-out", str(chrome)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "postmortem: trace trace-A" in out
        payload = json.loads(chrome.read_text())
        assert payload["otherData"]["trace_id"] == "trace-A"

    def test_cli_descends_into_obs_subdirectory(self, obs_dir, capsys):
        from repro.cli import main

        assert main(["postmortem", str(obs_dir.parent)]) == 0
        assert "trace-A" in capsys.readouterr().out

    def test_cli_empty_dir_fails(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["postmortem", str(tmp_path)]) == 1
        assert "no spans" in capsys.readouterr().err
