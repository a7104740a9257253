"""The serving front end: protocol, freshness, snapshots, sockets."""

from __future__ import annotations

import io
import json
import os
import socket
import threading

import pytest

from repro.net.addr import format_ip
from repro.serve.service import (
    CellSpotService,
    ServiceConfig,
    install_sigusr1_registry,
)
from repro.stream import StreamEngine, WindowPolicy

POLICY = WindowPolicy(window_events=4096, decay=1.0)


def _service(beacon_hits, tmp_path=None, drain=True, **config_kwargs):
    engine = StreamEngine(policy=POLICY)
    service = CellSpotService(
        engine=engine,
        config=ServiceConfig(**config_kwargs),
        snapshot_path=None if tmp_path is None else tmp_path / "snap.json",
    )
    if drain:
        service.drain(iter(beacon_hits))
    return service


def _known_address(beacon_hits) -> str:
    hit = beacon_hits[0]
    return format_ip(hit.family, hit.address)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"snapshot_every_events": 0},
            {"ingest_batch": 0},
        ],
    )
    def test_rejects_nonpositive_knobs(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)


class TestProtocol:
    def test_single_query(self, beacon_hits):
        service = _service(beacon_hits)
        response = json.loads(service.handle_line(
            json.dumps({"op": "query", "q": _known_address(beacon_hits)})
        ))
        assert response["ok"]
        assert response["result"]["matched"]
        assert "confidence" in response["result"]

    def test_batch_query_keeps_order(self, beacon_hits):
        service = _service(beacon_hits)
        response = service.handle_request(
            {"op": "query", "qs": [_known_address(beacon_hits), "junk"]}
        )
        assert response["ok"]
        assert [r["ok"] for r in response["results"]] == [True, False]

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("", "empty"),
            ("{bad", "bad JSON"),
            ("[1,2]", "JSON object"),
            ('{"op": "frobnicate"}', "unknown op"),
            ('{"op": "query"}', "'q' or 'qs'"),
            ('{"op": "query", "qs": "x"}', "must be a list"),
        ],
    )
    def test_malformed_requests_answered_not_raised(
        self, beacon_hits, line, fragment
    ):
        service = _service(beacon_hits[:100])
        response = json.loads(service.handle_line(line))
        assert response["ok"] is False
        assert fragment in response["error"]
        assert service.metrics.get("query_errors_total").value == 1

    def test_stats_reports_engine_and_metrics(self, beacon_hits):
        service = _service(beacon_hits)
        stats = service.handle_request({"op": "stats"})
        assert stats["ok"]
        assert stats["engine"]["events_consumed"] == len(beacon_hits)
        assert stats["engine"]["policy"]["window_events"] == 4096
        assert stats["metrics"]["events_ingested_total"]["value"] == len(
            beacon_hits
        )

    def test_refresh_forces_rebuild(self, beacon_hits):
        service = _service(beacon_hits[:100])
        service.index()
        rebuilds = service.metrics.get("index_rebuilds_total").value
        response = service.handle_request({"op": "refresh"})
        assert response["ok"] and response["index_entries"] == len(
            service.index()
        )
        assert service.metrics.get("index_rebuilds_total").value == rebuilds + 1

    def test_snapshot_op_without_path_is_a_clean_error(self, beacon_hits):
        service = _service(beacon_hits[:100])
        response = service.handle_request({"op": "snapshot"})
        assert response == {"ok": False, "error": "no snapshot path configured"}

    def test_snapshot_op_writes_file(self, beacon_hits, tmp_path):
        service = _service(beacon_hits[:100], tmp_path)
        response = service.handle_request({"op": "snapshot"})
        assert response["ok"]
        assert (tmp_path / "snap.json").exists()

    def test_shutdown_sets_flag_and_snapshots(self, beacon_hits, tmp_path):
        service = _service(beacon_hits[:100], tmp_path)
        response = service.handle_request({"op": "shutdown"})
        assert response["ok"] and response["shutdown"]
        assert service.shutdown_requested
        assert (tmp_path / "snap.json").exists()


class TestFreshness:
    def test_index_not_rebuilt_per_query(self, beacon_hits):
        service = _service(beacon_hits)
        address = _known_address(beacon_hits)
        for _ in range(5):
            service.handle_request({"op": "query", "q": address})
        assert service.metrics.get("index_rebuilds_total").value == 1

    def test_new_window_triggers_rebuild_on_next_query(self, beacon_hits):
        service = _service(beacon_hits[:100], drain=False, ingest_batch=100)
        service.ingest_from(iter(beacon_hits[:100]))
        address = _known_address(beacon_hits)
        service.handle_request({"op": "query", "q": address})
        assert service.metrics.get("index_rebuilds_total").value == 1
        # Push a full window through: the next query must see fresh state.
        service.ingest_from(iter(beacon_hits), max_events=POLICY.window_events)
        service.handle_request({"op": "query", "q": address})
        assert service.metrics.get("index_rebuilds_total").value == 2


class TestIngestLoop:
    def test_periodic_snapshots_every_n_events(self, beacon_hits, tmp_path):
        service = _service(
            beacon_hits, tmp_path, drain=False,
            snapshot_every_events=5000, ingest_batch=1000,
        )
        service.drain(iter(beacon_hits[:12_000]))
        assert service.metrics.get("snapshots_written_total").value == 2

    def test_ingest_metrics_updated(self, beacon_hits):
        service = _service(beacon_hits[:6000])
        metrics = service.metrics
        assert metrics.get("events_ingested_total").value == 6000
        assert metrics.get("tracked_subnets").value > 0
        assert metrics.get("ingest_batch_seconds").count >= 1
        assert metrics.get("window_advances_total").value == 6000 // 4096


class TestServeLines:
    def test_requests_answered_in_order(self, beacon_hits):
        service = _service(beacon_hits)
        address = _known_address(beacon_hits)
        requests = io.StringIO(
            json.dumps({"op": "query", "q": address}) + "\n"
            + "{oops\n"
            + json.dumps({"op": "stats"}) + "\n"
        )
        responses = io.StringIO()
        answered = service.serve_lines(requests, responses)
        assert answered == 3
        lines = [json.loads(l) for l in responses.getvalue().splitlines()]
        assert [l["ok"] for l in lines] == [True, False, True]

    def test_eof_drains_source_and_snapshots(self, beacon_hits, tmp_path):
        service = _service(beacon_hits, tmp_path, drain=False)
        answered = service.serve_lines(
            io.StringIO(""), io.StringIO(), events=iter(beacon_hits)
        )
        assert answered == 0
        assert service.engine.events_consumed == len(beacon_hits)
        assert (tmp_path / "snap.json").exists()

    def test_shutdown_op_stops_the_loop(self, beacon_hits):
        service = _service(beacon_hits[:100])
        requests = io.StringIO(
            '{"op": "shutdown"}\n{"op": "stats"}\n'
        )
        responses = io.StringIO()
        answered = service.serve_lines(requests, responses)
        assert answered == 1  # the stats line was never reached

    def test_ingest_interleaves_with_requests(self, beacon_hits):
        service = _service(beacon_hits, drain=False, ingest_batch=2000)
        requests = io.StringIO('{"op": "stats"}\n{"op": "stats"}\n')
        service.serve_lines(
            requests, io.StringIO(), events=iter(beacon_hits)
        )
        # startup batch + one per request, then EOF drain finishes it.
        assert service.engine.events_consumed == len(beacon_hits)


class TestServeSocket:
    def test_round_trip_over_unix_socket(self, beacon_hits, tmp_path):
        service = _service(beacon_hits)
        socket_path = tmp_path / "svc.sock"
        worker = threading.Thread(
            target=service.serve_socket,
            args=(socket_path,),
            kwargs={"max_connections": 1},
            daemon=True,
        )
        worker.start()
        for _ in range(200):
            if socket_path.exists():
                break
            threading.Event().wait(0.01)
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        client.connect(str(socket_path))
        stream = client.makefile("rw")
        stream.write(
            json.dumps({"op": "query", "q": _known_address(beacon_hits)})
            + "\n"
        )
        stream.flush()
        response = json.loads(stream.readline())
        stream.close()
        client.close()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert response["ok"] and response["result"]["matched"]
        assert not socket_path.exists()  # cleaned up on exit


class TestSigusr1:
    def test_dump_writes_metrics_json(self, beacon_hits):
        import signal

        service = _service(beacon_hits[:100])
        sink = io.StringIO()
        assert install_sigusr1_registry(service.metrics, stream=sink)
        try:
            os.kill(os.getpid(), signal.SIGUSR1)
            payload = json.loads(sink.getvalue())
            assert "events_ingested_total" in payload
        finally:
            signal.signal(signal.SIGUSR1, signal.SIG_DFL)
