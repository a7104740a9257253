"""Serve-path hardening: admission, deadlines, breaker, degraded mode."""

from __future__ import annotations

import asyncio
import io
import json
import socket
import threading

import pytest

from repro.net.addr import format_ip
from repro.obs.metrics import MetricsRegistry
from repro.scale.plane import PlaneConfig, ServingPlane
from repro.serve.service import (
    CellSpotService,
    CircuitBreaker,
    ServiceConfig,
)
from repro.runtime.faults import FaultPlan, FaultSpec, chaos
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


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_pending": 0},
            {"deadline_s": 0},
            {"deadline_s": -1.0},
            {"breaker_failures": 0},
            {"breaker_reset_s": -1.0},
        ],
    )
    def test_rejects_bad_resilience_knobs(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        clock = [0.0]
        breaker = CircuitBreaker(failures=2, reset_s=10.0,
                                 clock=lambda: clock[0])
        assert breaker.allow()
        breaker.record_failure()
        assert not breaker.is_open and breaker.allow()
        breaker.record_failure()
        assert breaker.is_open and not breaker.allow()

    def test_probe_after_reset_window(self):
        clock = [0.0]
        breaker = CircuitBreaker(failures=1, reset_s=10.0,
                                 clock=lambda: clock[0])
        breaker.record_failure()
        assert not breaker.allow()
        clock[0] = 10.0
        assert breaker.allow()  # single probe admitted

    def test_success_closes_and_resets_count(self):
        breaker = CircuitBreaker(failures=2, reset_s=0.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()  # streak restarted: still closed
        assert not breaker.is_open

    def test_interleaved_success_never_opens(self):
        breaker = CircuitBreaker(failures=3, reset_s=0.0)
        for _ in range(10):
            breaker.record_failure()
            breaker.record_failure()
            breaker.record_success()
        assert not breaker.is_open


class TestDeadlines:
    def test_expired_deadline_sheds_batch_items(self, beacon_hits):
        service = _service(beacon_hits, deadline_s=1e-9)
        service.index()  # pre-build so shedding is purely deadline-driven
        address = _known_address(beacon_hits)
        response = service.handle_request(
            {"op": "query", "qs": [address, address, address]}
        )
        assert response["ok"]
        shed = [r for r in response["results"] if r.get("overloaded")]
        assert shed, "an expired deadline must shed trailing batch items"
        for item in shed:
            assert not item["ok"] and item["error"] == "overloaded"
        assert service.metrics.get("requests_shed_total").value >= len(shed)

    def test_generous_deadline_sheds_nothing(self, beacon_hits):
        service = _service(beacon_hits, deadline_s=60.0)
        response = service.handle_request(
            {"op": "query", "qs": [_known_address(beacon_hits)]}
        )
        assert response["results"][0]["ok"]


class TestAdmissionControl:
    def test_overflow_is_shed_in_order_with_explicit_refusal(
        self, beacon_hits
    ):
        """A stalled handler + bounded queue: extras refused, not queued."""
        service = _service(beacon_hits, max_pending=1)
        service.index()
        plan = FaultPlan(name="t", faults=[
            FaultSpec(name="stall", site="serve.request", kind="stall",
                      at=0, times=1, delay_s=0.3),
        ])
        address = _known_address(beacon_hits)
        lines = "".join(
            json.dumps({"op": "query", "q": address, "id": i}) + "\n"
            for i in range(8)
        )
        responses = io.StringIO()
        with chaos(plan):
            answered = service.serve_lines(io.StringIO(lines), responses)
        parsed = [json.loads(l) for l in responses.getvalue().splitlines()]
        assert len(parsed) == 8
        served = [r for r in parsed if r["ok"]]
        shed = [r for r in parsed if r.get("overloaded")]
        assert served and shed
        assert answered == 8  # refusals are answered, not dropped
        assert len(served) + len(shed) == 8
        for refusal in shed:
            assert refusal["error"] == "overloaded"
        assert service.metrics.get("requests_shed_total").value == len(shed)

    def test_socket_overflow_is_shed_in_order(self, beacon_hits, tmp_path):
        """``max_pending`` bounds a socket connection the way it bounds
        stdin: a pipelined burst behind a stalled request is refused."""
        service = _service(beacon_hits, max_pending=1)
        service.index()
        plan = FaultPlan(name="t", faults=[
            FaultSpec(name="stall", site="serve.request", kind="stall",
                      at=0, times=1, delay_s=0.3),
        ])
        texts = [f"203.0.113.{i}" for i in range(8)]
        burst = b"".join(
            json.dumps({"op": "query", "q": text}).encode() + b"\n"
            for text in texts
        )
        socket_path = tmp_path / "svc.sock"
        with chaos(plan):
            server = threading.Thread(
                target=service.serve_socket,
                args=(socket_path,),
                kwargs={"max_connections": 1},
                daemon=True,
            )
            server.start()
            client = _connect_when_ready(socket_path)
            client.sendall(burst)
            reader = client.makefile("r")
            parsed = [json.loads(reader.readline()) for _ in texts]
            reader.close()
            client.close()
            server.join(timeout=10)
        assert not server.is_alive()
        served = [r["result"]["query"] for r in parsed if r["ok"]]
        shed = [r for r in parsed if r.get("overloaded")]
        assert served[0] == texts[0]  # the stalled request is answered
        assert shed and len(served) + len(shed) == len(texts)
        assert served == texts[:len(served)]  # refusals keep request order
        assert all(not r["ok"] for r in parsed[len(served):])
        assert service.metrics.get("requests_shed_total").value == len(shed)

    def test_unbounded_service_answers_everything(self, beacon_hits):
        service = _service(beacon_hits)
        address = _known_address(beacon_hits)
        lines = "".join(
            json.dumps({"op": "query", "q": address}) + "\n"
            for _ in range(8)
        )
        responses = io.StringIO()
        answered = service.serve_lines(io.StringIO(lines), responses)
        assert answered == 8


class TestDegradedMode:
    def _failing_rebuild_plan(self, times=10) -> FaultPlan:
        return FaultPlan(name="t", faults=[
            FaultSpec(name="fail-refresh", site="serve.refresh",
                      kind="error", times=times),
        ])

    def test_rebuild_failure_serves_stale_from_last_good_index(
        self, beacon_hits
    ):
        service = _service(beacon_hits, breaker_failures=2,
                           breaker_reset_s=60.0)
        service.index()  # last good index
        address = _known_address(beacon_hits)
        with chaos(self._failing_rebuild_plan()):
            for _ in range(2):  # trip the breaker
                response = service.handle_request({"op": "refresh"})
                assert response["ok"]  # degraded, not dead
            assert service.degraded
            answer = service.handle_request({"op": "query", "q": address})
        assert answer["ok"] and answer["result"]["matched"]
        assert answer["stale"] is True
        assert service.metrics.get("degraded_answers_total").value >= 1
        assert service.metrics.get("breaker_open").value == 1.0
        assert (
            service.metrics.get("index_rebuild_failures_total").value >= 2
        )

    def test_recovery_clears_degraded_and_stale(self, beacon_hits):
        service = _service(beacon_hits, breaker_failures=1,
                           breaker_reset_s=0.0)
        service.index()
        address = _known_address(beacon_hits)
        with chaos(self._failing_rebuild_plan(times=1)):
            service.handle_request({"op": "refresh"})
            assert service.degraded
        # Fault budget spent: the next rebuild (breaker probe) succeeds.
        response = service.handle_request({"op": "refresh"})
        assert response["ok"] and not service.degraded
        answer = service.handle_request({"op": "query", "q": address})
        assert "stale" not in answer
        assert service.metrics.get("breaker_open").value == 0.0

    def test_failure_without_prior_index_propagates(self, beacon_hits):
        service = _service(beacon_hits)
        with chaos(self._failing_rebuild_plan()):
            response = service.handle_request(
                {"op": "query", "q": _known_address(beacon_hits)}
            )
        assert not response["ok"]  # nothing stale to answer from


class TestSnapshotFailurePolicy:
    @staticmethod
    def _unwritable_path(tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        return blocker / "snap.json"

    def test_raise_errors_false_degrades_and_counts(self, beacon_hits,
                                                    tmp_path):
        service = _service(beacon_hits)
        service.snapshot_path = self._unwritable_path(tmp_path)
        assert service.write_snapshot(raise_errors=False) is None
        assert service.metrics.get("snapshot_failures_total").value == 1

    def test_raise_errors_true_propagates(self, beacon_hits, tmp_path):
        service = _service(beacon_hits)
        service.snapshot_path = self._unwritable_path(tmp_path)
        with pytest.raises(OSError):
            service.write_snapshot(raise_errors=True)


class TestSocketProbe:
    def test_stale_socket_file_is_evicted_and_rebound(
        self, beacon_hits, tmp_path
    ):
        """A dead server's leftover socket must not block a restart."""
        socket_path = tmp_path / "svc.sock"
        corpse = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        corpse.bind(str(socket_path))
        corpse.close()  # no unlink: simulates a crashed server
        assert socket_path.exists()

        service = _service(beacon_hits)
        worker = threading.Thread(
            target=service.serve_socket,
            args=(socket_path,),
            kwargs={"max_connections": 1},
            daemon=True,
        )
        worker.start()
        client = _connect_when_ready(socket_path)
        stream = client.makefile("rw")
        stream.write(json.dumps({"op": "shutdown"}) + "\n")
        stream.flush()
        response = json.loads(stream.readline())
        stream.close()
        client.close()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert response["ok"]
        assert not socket_path.exists()

    def test_live_socket_is_not_evicted(self, beacon_hits, tmp_path):
        socket_path = tmp_path / "svc.sock"
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(str(socket_path))
        listener.listen(1)
        try:
            service = _service(beacon_hits)
            with pytest.raises(OSError, match="live server"):
                service.serve_socket(socket_path)
            assert socket_path.exists()  # the live owner keeps its file
        finally:
            listener.close()

    def test_full_backlog_listener_is_not_evicted(self, beacon_hits, tmp_path):
        """A live server with a full accept backlog answers the probe's
        connect with EAGAIN, not ECONNREFUSED: both servers refuse."""
        socket_path = tmp_path / "svc.sock"
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(str(socket_path))
        listener.listen(0)
        waiting = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        waiting.connect(str(socket_path))  # fills the backlog
        service = _service(beacon_hits[:100])
        plane = ServingPlane(
            tmp_path / "cat",
            config=PlaneConfig(workers=1, startup_timeout_s=2.0),
            registry=MetricsRegistry(),
        )
        try:
            refusal = _refusal(lambda: service.serve_socket(socket_path))
            assert "live server" in str(refusal)
            assert socket_path.exists()
            refusal = _refusal(
                lambda: asyncio.run(plane.serve(socket_path=socket_path))
            )
            assert "live server" in str(refusal)
            assert socket_path.exists()
        finally:
            service.request_shutdown()
            plane.request_shutdown()
            waiting.close()
            listener.close()


def _refusal(serve, timeout_s=10.0):
    """Run ``serve`` in a thread; the ``OSError`` it refused with.

    A server that evicts the path and starts serving instead never
    returns, which fails the caller's assertion after ``timeout_s``.
    """
    outcome = {}

    def run():
        try:
            serve()
        except OSError as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout_s)
    return outcome.get("error")


def _connect_when_ready(socket_path, attempts=500):
    """Connect with retry; must not probe first -- a probe connection
    would consume the server's only ``max_connections=1`` slot."""
    for _ in range(attempts):
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            client.connect(str(socket_path))
        except OSError:
            client.close()
            threading.Event().wait(0.01)
        else:
            return client
    raise AssertionError("server socket never came up")
