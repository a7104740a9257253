"""One reader for ``--metrics-out`` dumps: a registry dumped as JSON and
as Prometheus text renders identically through every reader command."""

from __future__ import annotations

import re

import pytest

from repro.cli import main
from repro.obs import dump_metrics
from repro.obs.metrics import MetricsRegistry


class _PinnedClock:
    """Registry clock: 0.0 at construction, 12.5 on every later read,
    so both dumps carry the same uptime."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self) -> float:
        self.calls += 1
        return 0.0 if self.calls == 1 else 12.5


def _registry() -> MetricsRegistry:
    registry = MetricsRegistry(clock=_PinnedClock())
    registry.counter("stream_events_total", "events").inc(4096)
    registry.gauge("stream_tracked_subnets", "subnets").set(311)
    registry.gauge("census_ratio_psi", "psi").set(0.125)
    latency = registry.histogram("query_latency_seconds", "latency")
    for value in (0.0003, 0.004, 0.02, 0.02):
        latency.observe(value)
    registry.histogram("idle_seconds", "never observed")
    stages = registry.labeled_gauge("rss_peak_bytes", "peak", label="stage")
    stages.set_max("experiment.run", 2e8)
    stages.set_max("pipeline.classify", 150_000_000)
    registry.gauge("process_rss_bytes", "rss").set(123_456_789)
    registry.gauge("process_rss_peak_bytes", "peak").set(2e8)
    registry.gauge("process_cpu_percent", "cpu").set(37.5)
    registry.gauge("process_open_fds", "fds").set(9)
    registry.gauge("process_threads", "threads").set(3)
    generations = registry.labeled_gauge(
        "process_gc_collections", "gc", label="gen"
    )
    for gen, count in (("0", 120), ("1", 11), ("2", 1)):
        generations.set(gen, count)
    return registry


@pytest.fixture()
def dumps(tmp_path, monkeypatch):
    """The same registry dumped as ``m.json`` and ``m.prom`` (relative
    paths, so the rendered source names have equal length)."""
    monkeypatch.chdir(tmp_path)
    registry = _registry()
    dump_metrics("m.json", registry)
    dump_metrics("m.prom", registry)
    return "m.json", "m.prom"


def _normalise(text: str, dump: str) -> str:
    text = text.replace(dump, "<dump>")
    return re.sub(r"\d\d:\d\d:\d\d", "<clock>", text)


def _render(capsys, argv, dump):
    assert main(argv) == 0
    return _normalise(capsys.readouterr().out, dump)


COMMANDS = {
    "stats": lambda dump: ["stats", "--metrics", dump],
    "stats --resources": lambda dump: [
        "stats", "--metrics", dump, "--resources"],
    "top": lambda dump: [
        "top", "--once", "--no-ansi", "--metrics", dump],
}


class TestFormatParity:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_command_renders_both_dumps_identically(
        self, capsys, dumps, command
    ):
        json_dump, prom_dump = dumps
        build = COMMANDS[command]
        assert _render(capsys, build(json_dump), json_dump) == _render(
            capsys, build(prom_dump), prom_dump
        )

    def test_report_health_renders_both_dumps_identically(
        self, capsys, dumps
    ):
        reports = []
        for dump in dumps:
            assert main(["report", "--health", "--metrics", dump,
                         "--out", f"{dump}.md"]) == 0
            capsys.readouterr()
            with open(f"{dump}.md") as stream:
                reports.append(_normalise(stream.read(), dump))
        assert reports[0] == reports[1]
        assert "experiment.run" in reports[0]

    def test_stats_rows_for_the_former_divergences(self, capsys, dumps):
        for dump in dumps:
            text = _render(capsys, ["stats", "--metrics", dump], dump)
            assert re.search(
                r'rss_peak_bytes\{stage="experiment\.run"\} +\| gauge +\| '
                r"+200,000,000", text), text
            assert re.search(
                r"process_rss_bytes +\| gauge +\| +123,456,789", text), text
            assert "p50=0.005 p99=0.025" in text
            assert "labeled_gauge" not in text

    def test_health_p99_from_both_dumps(self, dumps):
        from repro.obs.dashboard import health_from_metrics_dump

        for dump in dumps:
            health = health_from_metrics_dump(dump)
            assert health["rates"]["query_p99_s"] == 0.025
            assert health["engine"]["events_consumed"] == 4096


class TestLoadMetricsDump:
    def test_both_formats_decode_to_one_sample(self, dumps):
        from repro.obs.timeseries import load_metrics_dump

        json_sample, prom_sample = (load_metrics_dump(d) for d in dumps)
        assert json_sample["m"] == prom_sample["m"]
        metrics = json_sample["m"]
        assert metrics["stream_events_total"] == ["c", 4096]
        assert metrics["process_rss_bytes"] == ["g", 123_456_789]
        assert metrics['rss_peak_bytes{stage="experiment.run"}'] == [
            "g", 200_000_000]
        assert metrics["query_latency_seconds"][0] == "h"
        assert metrics["query_latency_seconds"][1] == 4
        assert metrics["query_latency_seconds"][3:] == [0.005, 0.025]
        assert metrics["idle_seconds"] == ["h", 0, 0, None, None]
        assert metrics["process_uptime_seconds"] == ["g", 12.5]

    def test_empty_labelled_family_decodes_to_no_series(self, tmp_path):
        from repro.obs.timeseries import load_metrics_dump

        registry = MetricsRegistry()
        registry.labeled_gauge("rss_peak_bytes", "peak", label="stage")
        registry.counter("runs_total", "runs").inc()
        for name in ("e.json", "e.prom"):
            dump_metrics(tmp_path / name, registry)
            metrics = load_metrics_dump(tmp_path / name)["m"]
            assert not any(k.startswith("rss_peak_bytes") for k in metrics)
            assert metrics["runs_total"] == ["c", 1]

    def test_non_object_json_is_rejected(self, tmp_path):
        from repro.obs.timeseries import load_metrics_dump

        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_metrics_dump(bad)


class TestTimeseriesHealth:
    """``top``/``report --health`` over a time-series ring: the newest
    sample from the ring's tail, both rates from one pass."""

    @staticmethod
    def _ring(directory):
        from repro.obs.timeseries import TimeSeriesStore

        store = TimeSeriesStore(
            directory, max_segment_samples=2, max_segments=4
        )
        for index, events in enumerate((100, 600, 50, 900)):  # 50: restart
            store.append({"ts": 10.0 + index, "m": {
                "stream_events_total": ["c", events],
                "queries_total": ["c", 3 * events],
                "census_ratio_psi": ["g", 0.25 * index],
            }})
        with open(store.active_segment, "a") as stream:
            stream.write('{"ts": 99.0, "m": {"stream_events_total": ["c", 9')
        return directory

    def test_torn_final_line_keeps_the_last_good_sample(self, tmp_path):
        from repro.obs.dashboard import health_from_timeseries

        health = health_from_timeseries(self._ring(tmp_path))
        assert health["ts"] == 13.0
        assert health["engine"]["events_consumed"] == 900
        assert health["drift"]["last"]["psi"] == 0.75
        assert health["rates"]["events_per_s"] == 850.0
        assert health["rates"]["queries_per_s"] == 2550.0

    def test_one_pass_over_the_ring_per_frame(self, tmp_path, monkeypatch):
        from repro.obs.dashboard import health_from_timeseries
        from repro.obs.timeseries import TimeSeriesReader

        directory = self._ring(tmp_path)
        passes = []
        scan = TimeSeriesReader.samples

        def counting_scan(reader, *args, **kwargs):
            passes.append(reader.directory)
            return scan(reader, *args, **kwargs)

        monkeypatch.setattr(TimeSeriesReader, "samples", counting_scan)
        health_from_timeseries(directory)
        assert len(passes) == 1

    def test_rates_equal_per_counter_rate(self, tmp_path):
        from repro.obs.timeseries import TimeSeriesReader

        reader = TimeSeriesReader(self._ring(tmp_path))
        both = reader.rates(("stream_events_total", "queries_total"))
        for name in ("stream_events_total", "queries_total"):
            assert both[name] == reader.rate(name)
        assert both["stream_events_total"] == [
            (11.0, 500.0), (12.0, 50.0), (13.0, 850.0)]
