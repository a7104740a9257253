"""End-to-end alerting proof: a synthetic stream with a mid-run
cellular-ratio shift drives PSI over the alert threshold; the
pending -> firing -> resolved episode is then reconstructed offline
from the time-series store and the alert log, joined on trace_id.

This is the differential test the telemetry plane exists for: the
*live* path (stream engine -> drift monitor -> gauges -> scraper ->
alert engine) and the *post-mortem* path (TimeSeriesReader + alert
log) must tell the same story.  :class:`TestRejectBudgetDrill` runs the
same loop on an exported hit stream with a corruption burst, then a
live ``cellspot serve`` session and the dashboards it feeds.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cdn.logs import BeaconHit, read_jsonl
from repro.cdn.netinfo import ConnectionType
from repro.net.prefix import Prefix
from repro.obs.alerts import (
    STATE_FIRING,
    STATE_OK,
    STATE_PENDING,
    AlertEngine,
    AlertRule,
    episodes,
    read_alert_log,
)
from repro.obs.health import CensusDriftMonitor
from repro.obs.metrics import reset_global_registry
from repro.obs.timeseries import MetricScraper, TimeSeriesStore, TimeSeriesReader
from repro.runtime.policies import IngestPolicy
from repro.stream import StreamEngine, WindowPolicy
from repro.world.population import Browser

#: Events per stream window; small so the test closes many windows.
WINDOW = 400
#: Distinct /24 subnets in the synthetic population.
SUBNETS = 40

_SENTINEL_TRACE = "e2e-drift-trace"

REPO = Path(__file__).resolve().parent.parent


def _hit(subnet_index: int, host: int, cellular: bool) -> BeaconHit:
    base = 0x0A000000 + subnet_index * 256
    return BeaconHit(
        month="2017-01",
        family=4,
        address=base + (host % 200) + 1,
        subnet=Prefix.make(4, base, 24),
        asn=64500 + subnet_index % 4,
        country="de",
        browser=Browser.CHROME_MOBILE,
        api_enabled=True,
        connection_type=(
            ConnectionType.CELLULAR if cellular else ConnectionType.WIFI
        ),
    )


def _phase(events: int, counter, cellular_fraction: float):
    """``events`` hits spread round-robin over the subnet population.

    The first ``cellular_fraction`` of subnets report cellular labels,
    the rest Wi-Fi -- so the per-subnet ratio distribution is bimodal
    and the *fraction* is what shifts between phases.
    """
    cellular_cut = int(SUBNETS * cellular_fraction)
    for _ in range(events):
        n = next(counter)
        subnet_index = n % SUBNETS
        yield _hit(subnet_index, n // SUBNETS, subnet_index < cellular_cut)


@pytest.fixture()
def telemetry(tmp_path):
    """One wired plane: engine + monitor + scraper + alert engine."""
    reset_global_registry()
    store = TimeSeriesStore(tmp_path / "ts")
    scraper = MetricScraper(store, interval_s=60.0)  # manual scrapes only
    rule = AlertRule(
        name="census-psi", metric="census_ratio_psi",
        threshold=0.25, for_s=2.0,
    )
    alert_log = tmp_path / "alerts.jsonl"
    alerts = AlertEngine(
        [rule], log_path=alert_log, trace_id=_SENTINEL_TRACE
    )
    scraper.subscribe(alerts.observe)
    engine = StreamEngine(policy=WindowPolicy(window_events=WINDOW))
    engine.attach_monitor(CensusDriftMonitor(baseline_windows=1))
    yield engine, scraper, alerts, tmp_path
    reset_global_registry()


def _run_shifted_stream(engine, scraper):
    """Stable -> shifted -> recovered, one scrape per second of 'time'.

    Returns the synthetic clock value after the run.
    """
    counter = itertools.count()
    clock = itertools.count(start=100)

    def feed(events, cellular_fraction):
        for hit in _phase(events, counter, cellular_fraction):
            if engine.ingest(hit):
                scraper.scrape_once(ts=float(next(clock)))

    feed(WINDOW * 6, 0.5)    # baseline + stable windows
    feed(WINDOW * 6, 0.95)   # mid-run shift: most subnets flip cellular
    feed(WINDOW * 6, 0.5)    # recovery
    return scraper


class TestEndToEndDriftAlerting:
    def test_shift_fires_and_recovery_resolves(self, telemetry):
        engine, scraper, alerts, _tmp = telemetry
        _run_shifted_stream(engine, scraper)

        transitions = [(e["from"], e["to"]) for e in alerts.events]
        # Debounced path: the PSI breach holds >= for_s before firing,
        # and the recovery phase resolves it.
        assert (STATE_OK, STATE_PENDING) in transitions
        assert (STATE_PENDING, STATE_FIRING) in transitions
        assert (STATE_FIRING, STATE_OK) in transitions
        # The engine ends the run resolved (no stuck alert).
        assert alerts.counts()[STATE_FIRING] == 0

    def test_post_mortem_reconstruction_matches_live(self, telemetry):
        engine, scraper, alerts, tmp_path = telemetry
        _run_shifted_stream(engine, scraper)

        # -- alert log replay --------------------------------------------
        logged = read_alert_log(tmp_path / "alerts.jsonl")
        assert [(e["from"], e["to"]) for e in logged] == [
            (e["from"], e["to"]) for e in alerts.events
        ]
        assert all(e["trace_id"] == _SENTINEL_TRACE for e in logged)

        fired = [e for e in episodes(logged) if e["fired"]]
        assert len(fired) == 1
        episode = fired[0]
        assert episode["rule"] == "census-psi"
        assert episode["trace_id"] == _SENTINEL_TRACE
        assert episode["ended"] is not None
        assert episode["peak_value"] > 0.25

        # -- time-series replay ------------------------------------------
        reader = TimeSeriesReader(tmp_path / "ts")
        psi_series = reader.series("census_ratio_psi")
        assert psi_series, "scrapes must persist the drift gauge"

        # The stored gauge crosses the threshold exactly while the
        # episode is open and stays under it after it resolves.
        during = [
            v for ts, v in psi_series
            if episode["started"] <= ts <= episode["ended"]
        ]
        after = [v for ts, v in psi_series if ts > episode["ended"]]
        assert max(during) > 0.25
        assert max(during) == pytest.approx(episode["peak_value"])
        assert after and all(v <= 0.25 for v in after)

        # The breach onset in the time-series agrees with the log's
        # episode start: no stored sample before it breaches.
        before = [v for ts, v in psi_series if ts < episode["started"]]
        assert all(v <= 0.25 for v in before)

    def test_windows_actually_closed_through_all_phases(self, telemetry):
        engine, scraper, alerts, _tmp = telemetry
        _run_shifted_stream(engine, scraper)
        assert engine.windows_advanced == 18  # 3 phases x 6 windows
        assert scraper.samples_taken == engine.windows_advanced
        # The monitor scored every window past the baseline.
        assert engine.monitor.windows_scored == 17


def _cellspot(args, cwd, **kwargs) -> subprocess.CompletedProcess:
    """Run ``python -m repro.cli ARGS`` in ``cwd``; output captured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.cli"] + args, cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300, **kwargs,
    )


@pytest.fixture(scope="module")
def hit_stream(tmp_path_factory):
    """An exported per-hit stream, split into a faulty burst and a tail.

    ``burst.jsonl`` is the first quarter of the stream with one bad
    line per twelve good ones appended -- enough to blow the 10% reject
    budget while the burst is the bulk of traffic.  ``tail.jsonl`` is
    the clean remainder that dilutes the lifetime reject ratio back
    under budget.
    """
    root = tmp_path_factory.mktemp("reject-drill")
    export = _cellspot(
        ["datasets", "--out", "data", "--hits", "--hit-volume", "20000",
         "--scale", "0.002", "--seed", "3"], root,
    )
    assert export.returncode == 0, export.stderr[-2000:]
    lines = (root / "data" / "hits.jsonl").read_text().splitlines()
    first = lines[: len(lines) // 4]
    garbage = ['{"definitely": "not a beacon hit"'] * (len(lines) // 12)
    (root / "burst.jsonl").write_text("\n".join(first + garbage) + "\n")
    (root / "tail.jsonl").write_text(
        "\n".join(lines[len(lines) // 4:]) + "\n"
    )
    return root


class TestRejectBudgetDrill:
    """The ingest reject-budget rule over a faulty stream, then a live
    serve session with the telemetry flags and the dashboards."""

    def test_burst_fires_and_tail_resolves(self, hit_stream):
        # Deterministic loop (manual scrapes, no timers): ingest the
        # faulty burst -> scrape -> the ratio rule fires; ingest the
        # clean tail -> scrape -> it resolves.
        reset_global_registry()
        try:
            scraper = MetricScraper(
                TimeSeriesStore(hit_stream / "ts"), interval_s=60.0
            )
            rule = AlertRule(
                name="ingest-reject-budget", kind="ratio",
                metric="ingest_rejected_total",
                denominator="ingest_lines_total", threshold=0.10,
            )
            alerts = AlertEngine(
                [rule], log_path=hit_stream / "alerts.jsonl",
                trace_id="ci-smoke",
            )
            scraper.subscribe(alerts.observe)
            for name, ts in (("burst.jsonl", 1.0), ("tail.jsonl", 2.0)):
                with open(hit_stream / name) as stream:
                    for _hit in read_jsonl(
                        stream, BeaconHit, policy=IngestPolicy.skip()
                    ):
                        pass
                scraper.scrape_once(ts=ts)
        finally:
            reset_global_registry()

        moves = [(e["from"], e["to"]) for e in alerts.events]
        assert moves == [(STATE_OK, STATE_FIRING), (STATE_FIRING, STATE_OK)]
        assert all(e["trace_id"] == "ci-smoke" for e in alerts.events)

        # The time series round-trips through the reader and agrees
        # with the alert log.
        reader = TimeSeriesReader(hit_stream / "ts")
        assert [s["ts"] for s in reader.samples()] == [1.0, 2.0]
        lines = reader.series("ingest_lines_total")
        rejected = reader.series("ingest_rejected_total")
        assert lines[-1][1] > lines[0][1]  # the tail was counted
        assert rejected[0][1] == rejected[-1][1]  # no rejects in the tail
        ratio_then = rejected[0][1] / lines[0][1]
        ratio_now = rejected[-1][1] / lines[-1][1]
        assert ratio_then > 0.10 > ratio_now, (ratio_then, ratio_now)
        (episode,) = episodes(read_alert_log(hit_stream / "alerts.jsonl"))
        assert episode["fired"] and episode["ended"] == 2.0
        assert episode["trace_id"] == "ci-smoke"

    def test_live_serve_session_and_dashboards(self, hit_stream):
        # serve with the scraper and the default rules live, the
        # health/alerts ops over the protocol, then the socket-less
        # dashboards read the artifacts the session left behind.
        requests = [json.dumps({"op": op})
                    for op in ("health", "alerts", "shutdown")]
        serve = _cellspot(
            ["serve", "--events", "data/hits.jsonl",
             "--window-events", "5000",
             "--timeseries-dir", "serve-ts",
             "--alert-log", "serve-alerts.jsonl",
             "--scrape-interval", "0.1"],
            hit_stream, input="\n".join(requests) + "\n",
        )
        assert serve.returncode == 0, serve.stderr[-2000:]
        health, alerts, shutdown = map(json.loads, serve.stdout.splitlines())
        assert health["ok"]
        assert shutdown["shutdown"] is True
        assert len(health["alerts"]) == 11  # the default SLO rules
        assert "alert_counts" in health
        assert alerts["trace_id"]
        assert "alerting:" in serve.stderr

        top = _cellspot(
            ["top", "--timeseries-dir", "serve-ts", "--once", "--no-ansi"],
            hit_stream,
        )
        assert top.returncode == 0, top.stderr[-2000:]
        report = _cellspot(
            ["report", "--health", "--timeseries-dir", "serve-ts",
             "--alert-log", "serve-alerts.jsonl"],
            hit_stream,
        )
        assert report.returncode == 0, report.stderr[-2000:]
        rollup = (hit_stream / "HEALTH.md").read_text()
        assert rollup
        assert "cellspot health rollup" in rollup
