"""CLI telemetry surface: top, alerts, bench-diff, report --health,
and the serve command's continuous-telemetry flags."""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.timeseries import TimeSeriesStore

REPO = Path(__file__).resolve().parents[1]
BASELINE = REPO / "perfbench" / "baseline"


@pytest.fixture()
def timeseries_dir(tmp_path):
    store = TimeSeriesStore(tmp_path / "ts")
    store.append({"ts": 10.0, "m": {
        "stream_events_total": ["c", 1000],
        "census_ratio_psi": ["g", 0.1],
    }})
    store.append({"ts": 12.0, "m": {
        "stream_events_total": ["c", 5000],
        "census_ratio_psi": ["g", 0.4],
        "stream_tracked_subnets": ["g", 77],
    }})
    return tmp_path / "ts"


@pytest.fixture()
def alert_log(tmp_path):
    log = tmp_path / "alerts.jsonl"
    engine = AlertEngine(
        [AlertRule(name="drift", metric="census_ratio_psi",
                   threshold=0.25)],
        log_path=log, trace_id="trace-1",
    )
    engine.observe({"ts": 1.0, "m": {"census_ratio_psi": ["g", 0.5]}})
    engine.observe({"ts": 2.0, "m": {"census_ratio_psi": ["g", 0.1]}})
    return log


@pytest.fixture()
def rules_file(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"rules": [
        {"name": "depth", "metric": "queue_depth", "threshold": 10,
         "for_s": 2.0},
    ]}))
    return path


class TestTopCommand:
    def test_requires_a_source(self, capsys):
        assert main(["top"]) == 2
        assert "--socket" in capsys.readouterr().err

    def test_renders_from_timeseries_dir(self, capsys, timeseries_dir):
        code = main(["top", "--timeseries-dir", str(timeseries_dir),
                     "--once"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cellspot top" in out
        assert "5,000" in out  # events from the latest scrape
        assert "\x1b[" not in out  # --once never clears the screen

    def test_renders_from_metrics_dump(self, capsys, tmp_path):
        dump = tmp_path / "metrics.json"
        dump.write_text(json.dumps({
            "stream_events_total": {"type": "counter", "value": 42},
        }))
        assert main(["top", "--metrics", str(dump), "--once"]) == 0
        assert "42" in capsys.readouterr().out

    def test_static_source_defaults_to_one_frame(self, capsys, tmp_path):
        dump = tmp_path / "metrics.json"
        dump.write_text(json.dumps({}))
        # No --once / --iterations: a static file must not spin forever.
        assert main(["top", "--metrics", str(dump)]) == 0
        assert capsys.readouterr().out.count("cellspot top") == 1

    def test_empty_source_exits_one(self, capsys, tmp_path):
        code = main(["top", "--timeseries-dir", str(tmp_path / "nope"),
                     "--once"])
        assert code == 1
        assert "no health data" in capsys.readouterr().err

    def test_dead_socket_exits_one(self, capsys, tmp_path):
        code = main(["top", "--socket", str(tmp_path / "absent.sock"),
                     "--once"])
        assert code == 1


class TestAlertsCommand:
    def test_requires_a_mode(self, capsys):
        assert main(["alerts"]) == 2
        assert "--log" in capsys.readouterr().err

    def test_validates_rule_file(self, capsys, rules_file):
        assert main(["alerts", "--rules", str(rules_file)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            f"{rules_file}: 1 valid rule(s)",
            "  depth: queue_depth > 10 for 2s",
        ]

    def test_invalid_rule_file_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rules": [{"name": "x"}]}')
        assert main(["alerts", "--rules", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_log_pretty_print(self, capsys, alert_log):
        assert main(["alerts", "--log", str(alert_log)]) == 0
        out = capsys.readouterr().out
        assert "drift: ok -> firing" in out
        assert "trace trace-1" in out
        assert "2 transition(s), 1 firing episode(s)" in out

    def test_log_json_emits_episodes(self, capsys, alert_log):
        assert main(["alerts", "--log", str(alert_log), "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        episode = json.loads(lines[0])
        assert episode["rule"] == "drift"
        assert episode["fired"] is True
        assert episode["trace_id"] == "trace-1"

    def test_rule_filter_drops_other_rules(self, capsys, alert_log):
        assert main(["alerts", "--log", str(alert_log),
                     "--rule", "other"]) == 0
        out = capsys.readouterr().out
        assert "0 transition(s)" in out


class TestBenchDiffCommand:
    """bench-diff over perfbench results, run from the checkout root
    (where it reads ``perfbench/layers.json``)."""

    @pytest.fixture(autouse=True)
    def _at_checkout_root(self, monkeypatch):
        monkeypatch.chdir(REPO)

    def _scaled(self, tmp_path, workload, figure, factor):
        result = json.loads((BASELINE / f"{workload}.json").read_text())
        result["details"][figure] *= factor
        path = tmp_path / f"{workload}-{figure}-x{factor}.json"
        path.write_text(json.dumps(result))
        return str(path)

    def test_no_regression_exits_zero(self, capsys):
        census = str(BASELINE / "census.json")
        assert main(["bench-diff", census, census]) == 0
        assert "0 regressed, 0 improved" in capsys.readouterr().out

    def test_regression_exits_one(self, capsys, tmp_path):
        slower = self._scaled(tmp_path, "census", "setup_s", 1.5)
        assert main(["bench-diff", str(BASELINE / "census.json"),
                     slower]) == 1
        captured = capsys.readouterr()
        assert "✖ setup_s" in captured.out
        assert "regressed beyond 10%" in captured.err

    def test_read_qps_direction(self, capsys, tmp_path):
        baseline = str(BASELINE / "serve-ingest.json")
        halved = self._scaled(tmp_path, "serve-ingest", "read_qps", 0.5)
        assert main(["bench-diff", baseline, halved]) == 1
        assert "✖ read_qps" in capsys.readouterr().out
        faster = self._scaled(tmp_path, "serve-ingest", "read_qps", 1.5)
        assert main(["bench-diff", baseline, faster]) == 0
        out = capsys.readouterr().out
        assert "▲ read_qps" in out and "[improved]" in out

    def test_tolerance_flag(self, tmp_path, capsys):
        slower = self._scaled(tmp_path, "census", "setup_s", 1.5)
        assert main(["bench-diff", str(BASELINE / "census.json"), slower,
                     "--tolerance", "0.6"]) == 0
        capsys.readouterr()

    def test_missing_report_exits_two(self, capsys, tmp_path):
        assert main(["bench-diff", str(BASELINE / "census.json"),
                     str(tmp_path / "absent.json")]) == 2

    def test_non_report_json_exits_two(self, capsys, tmp_path):
        other = tmp_path / "other.json"
        other.write_text("[1, 2, 3]")
        assert main(["bench-diff", str(BASELINE / "census.json"),
                     str(other)]) == 2
        assert "not a perfbench result" in capsys.readouterr().err

    def test_mixed_workloads_exit_two(self, capsys):
        assert main(["bench-diff", str(BASELINE / "census.json"),
                     str(BASELINE / "serve-ingest.json")]) == 2
        assert "different workloads" in capsys.readouterr().err

    def test_outside_the_checkout_exits_two(
        self, capsys, monkeypatch, tmp_path
    ):
        census = str(BASELINE / "census.json")
        monkeypatch.chdir(tmp_path)
        assert main(["bench-diff", census, census]) == 2
        assert "layers.json" in capsys.readouterr().err


class TestReportHealth:
    def test_rollup_from_timeseries(self, capsys, monkeypatch, tmp_path,
                                    timeseries_dir, alert_log):
        monkeypatch.chdir(tmp_path)
        code = main(["report", "--health",
                     "--timeseries-dir", str(timeseries_dir),
                     "--alert-log", str(alert_log)])
        assert code == 0
        text = (tmp_path / "HEALTH.md").read_text()
        assert text.startswith("# cellspot health rollup")
        assert "### firing episodes" in text
        assert "trace `trace-1`" in text
        assert "wrote HEALTH.md" in capsys.readouterr().out

    def test_html_by_extension(self, capsys, tmp_path, timeseries_dir):
        out = tmp_path / "health.html"
        code = main(["report", "--health",
                     "--timeseries-dir", str(timeseries_dir),
                     "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("<!doctype html>")

    def test_health_requires_a_source(self, capsys):
        assert main(["report", "--health"]) == 2
        assert "--health needs" in capsys.readouterr().err

    def test_empty_source_exits_one(self, capsys, tmp_path):
        code = main(["report", "--health",
                     "--timeseries-dir", str(tmp_path / "nope")])
        assert code == 1


class TestServeTelemetry:
    def test_serve_session_with_telemetry_plane(
        self, monkeypatch, capsys, tmp_path, beacon_hits
    ):
        hits = tmp_path / "hits.jsonl"
        with hits.open("w") as stream:
            for hit in beacon_hits[:8000]:
                stream.write(hit.to_json() + "\n")
        requests = "\n".join([
            json.dumps({"op": "health"}),
            json.dumps({"op": "alerts"}),
            json.dumps({"op": "shutdown"}),
        ]) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(requests))
        ts_dir = tmp_path / "ts"
        log = tmp_path / "alerts.jsonl"
        code = main([
            "serve", "--events", str(hits),
            "--window-events", "2048",
            "--timeseries-dir", str(ts_dir),
            "--alert-log", str(log),
            "--scrape-interval", "0.05",
        ])
        captured = capsys.readouterr()
        assert code == 0
        lines = [json.loads(line)
                 for line in captured.out.strip().splitlines()]
        health, alerts = lines[0], lines[1]
        assert health["ok"] is True
        assert health["engine"]["events_consumed"] == 8000
        # The drift monitor rode the window-close boundary.
        assert health["drift"]["baseline_windows"] >= 1
        # The default SLO rules are live.
        assert len(health["alerts"]) == 11
        assert "alert_counts" in health
        assert alerts["ok"] is True and len(alerts["rules"]) == 11
        assert alerts["trace_id"]
        # Shutdown summary names the alerting state.
        assert "alerting:" in captured.err
        # The scraper persisted samples the reader can replay.
        from repro.obs.timeseries import TimeSeriesReader

        reader = TimeSeriesReader(ts_dir)
        # Stream counters flush at window close (batched), so the last
        # scrape holds the events folded through the final full window:
        # floor(8000 / 2048) * 2048.
        assert reader.latest("stream_events_total")[1] == 6144

    def test_bad_rule_file_fails_fast(self, capsys, tmp_path):
        bad = tmp_path / "rules.json"
        bad.write_text('{"rules": []}')
        code = main(["serve", "--generate",
                     "--alert-rules", str(bad)])
        assert code == 2
        assert "'rules' array is empty" in capsys.readouterr().err
