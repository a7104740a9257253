"""CLI observability: --metrics-out/--trace-out and `stats`."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.metrics import parse_prometheus_text

ARGS = ["--scale", "0.002", "--seed", "21"]


class TestTelemetryFlags:
    def test_run_writes_prometheus_metrics(self, tmp_path, capsys):
        out = tmp_path / "metrics.prom"
        assert main(["run", "--metrics-out", str(out)] + ARGS) == 0
        parsed = parse_prometheus_text(out.read_text())
        assert "pipeline_runs_total" not in parsed  # no phantom metrics
        assert "process_uptime_seconds" in parsed
        # The serial pipeline itself records nothing; the executor and
        # ingest metrics appear only on instrumented paths.
        for payload in parsed.values():
            assert payload["type"] in {"counter", "gauge", "histogram"}

    def test_run_with_shards_emits_shard_metrics(self, tmp_path, capsys):
        out = tmp_path / "metrics.prom"
        code = main(
            ["run", "--workers", "2", "--shards", "2",
             "--metrics-out", str(out)] + ARGS
        )
        assert code == 0
        parsed = parse_prometheus_text(out.read_text())
        samples = {
            name: value
            for name, _labels, value
            in parsed["shards_executed_total"]["samples"]
        }
        assert samples["shards_executed_total"] == 2

    def test_run_writes_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(
            ["run", "--workers", "2", "--shards", "2",
             "--trace-out", str(out)] + ARGS
        )
        assert code == 0
        trace = json.loads(out.read_text())
        names = {event["name"] for event in trace["traceEvents"]}
        assert "cellspot.run" in names
        assert "stage.spot_shards" in names
        assert "shard.spot_shard" in names
        trace_ids = {
            event["args"]["trace_id"] for event in trace["traceEvents"]
        }
        assert trace_ids == {trace["otherData"]["trace_id"]}

    def test_metrics_json_extension_switches_format(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        assert main(["run", "--metrics-out", str(out)] + ARGS) == 0
        payload = json.loads(out.read_text())
        assert "_uptime_s" in payload


class TestStatsCommand:
    def _write_metrics(self, tmp_path):
        out = tmp_path / "m.prom"
        assert main(
            ["run", "--workers", "1", "--shards", "2",
             "--metrics-out", str(out)] + ARGS
        ) == 0
        return out

    def _write_trace(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["run", "--trace-out", str(out)] + ARGS) == 0
        return out

    def test_requires_at_least_one_input(self, capsys):
        assert main(["stats"]) == 2
        assert "metrics" in capsys.readouterr().err

    def test_renders_prometheus_metrics(self, tmp_path, capsys):
        out = self._write_metrics(tmp_path)
        capsys.readouterr()
        assert main(["stats", "--metrics", str(out)]) == 0
        text = capsys.readouterr().out
        assert "shards_executed_total" in text
        assert "process_uptime_seconds" in text

    def test_renders_json_metrics(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["run", "--metrics-out", str(out)] + ARGS) == 0
        capsys.readouterr()
        assert main(["stats", "--metrics", str(out)]) == 0
        assert "process_uptime_seconds" in capsys.readouterr().out

    def test_renders_trace_summary(self, tmp_path, capsys):
        out = self._write_trace(tmp_path)
        capsys.readouterr()
        assert main(["stats", "--trace", str(out)]) == 0
        text = capsys.readouterr().out
        assert "cellspot.run" in text
        assert "spans" in text

    def test_unreadable_metrics_file_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "m.prom"
        bad.write_text("mystery_total 1\n")
        assert main(["stats", "--metrics", str(bad)]) == 2
        assert capsys.readouterr().err

    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        assert main(["stats", "--metrics", str(tmp_path / "nope.prom")]) == 2

    def test_trace_without_events_list_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "t.json"
        bad.write_text(json.dumps({"notTrace": True}))
        assert main(["stats", "--trace", str(bad)]) == 2


class TestValidateHasObsFlags:
    def test_validate_accepts_metrics_out(self, tmp_path, capsys):
        assert main(["datasets", "--out", str(tmp_path)] + ARGS) == 0
        out = tmp_path / "m.prom"
        code = main(
            ["validate", str(tmp_path / "beacon.jsonl"),
             str(tmp_path / "demand.jsonl"), "--metrics-out", str(out)]
        )
        assert code == 0
        parsed = parse_prometheus_text(out.read_text())
        # Strict-ingesting both files lands on the ingest counters.
        samples = {
            name: value
            for name, _labels, value
            in parsed["ingest_lines_total"]["samples"]
        }
        assert samples["ingest_lines_total"] > 0
