"""Serving plane: worker protocol, front hardening, differential suite.

The two satellite regressions from the issue live here:

- *differential byte-identity*: multi-worker answers relayed by the
  front must be byte-for-byte what the single-process
  :class:`~repro.serve.service.CellSpotService` emits for the same
  table (modulo explicit ``overloaded`` sheds);
- *worker-kill -> respawn -> identical-answers*: a SIGKILLed worker is
  detected, respawned, and the plane keeps answering identically.
"""

from __future__ import annotations

import asyncio
import json
import logging
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cdn.beacon import BeaconConfig
from repro.obs.metrics import MetricsRegistry, merge_histogram_dicts
from repro.scale.plane import (
    PlaneConfig,
    PlaneObs,
    SHED_RESPONSE,
    ServingPlane,
    WorkerHandle,
    plane_metrics,
)
from repro.scale.snapshot import SnapshotCatalog
from repro.scale.worker import QueryWorker
from repro.serve.service import CellSpotService
from repro.stream.engine import StreamEngine
from repro.stream.sources import generated_events
from repro.stream.windows import WindowPolicy

REPO = Path(__file__).resolve().parent.parent

@pytest.fixture(scope="module")
def engine(lab):
    engine = StreamEngine(policy=WindowPolicy(window_events=5_000))
    engine.ingest_many(
        generated_events(
            lab.world, BeaconConfig(demand_hits=40_000, base_hits=5)
        )
    )
    return engine


@pytest.fixture(scope="module")
def probes(engine):
    """Hits, covered addresses, and guaranteed misses."""
    subnets = [str(r.subnet) for r in engine.ratio_table(1).records()[:10]]
    addresses = [cidr.split("/")[0] for cidr in subnets[:4]]
    return subnets + addresses + ["203.0.113.9", "not an ip", "10.0.0.0/8"]


def service_bytes(service: CellSpotService, request: dict) -> bytes:
    """What the single-process service puts on the wire."""
    response = service.handle_request(request)
    return (json.dumps(response, separators=(",", ":")) + "\n").encode()


# ---- protocol-level units (no processes) --------------------------------


class TestPlaneConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"max_pending": 0},
            {"deadline_s": 0.0},
            {"deadline_s": -1.0},
            {"startup_timeout_s": 0.0},
            {"stats_timeout_s": 0.0},
            {"obs_scrape_interval_s": 0.0},
            {"flight_records": 0},  # a removed knob: unknown keyword
            {"drill_slow_worker": (4, 0.01)},  # slot out of range
            {"drill_slow_worker": (0, 0.0)},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        expected = TypeError if "flight_records" in kwargs else ValueError
        with pytest.raises(expected):
            PlaneConfig(**kwargs)

    def test_no_deadline_is_allowed(self):
        assert PlaneConfig(deadline_s=None).deadline_s is None

    def test_drill_on_a_valid_slot(self):
        config = PlaneConfig(workers=2, drill_slow_worker=(1, 0.005))
        assert config.drill_slow_worker == (1, 0.005)


class TestMergeHistogramDicts:
    def test_merges_counts_and_quantiles(self):
        registries = [MetricsRegistry(), MetricsRegistry()]
        for registry in registries:
            registry.histogram(
                "h", "test", bounds=(0.001, 0.01, 0.1)
            )
        for _ in range(98):
            registries[0].get("h").observe(0.0005)
        registries[0].get("h").observe(0.05)
        registries[1].get("h").observe(0.5)  # overflow bucket
        merged = merge_histogram_dicts(
            [registry.get("h").as_dict() for registry in registries]
        )
        assert merged["count"] == 100
        assert merged["buckets"]["0.001"] == 98
        assert merged["overflow"] == 1
        assert merged["p50"] == 0.001
        assert merged["p99"] == 0.1
        assert merged["sum"] == pytest.approx(98 * 0.0005 + 0.05 + 0.5)

    def test_empty_inputs(self):
        merged = merge_histogram_dicts([{}, {}])
        assert merged["count"] == 0
        assert merged["p99"] is None

    def test_no_inputs_at_all(self):
        merged = merge_histogram_dicts([])
        assert merged["count"] == 0
        assert merged["sum"] == 0.0
        assert merged["mean"] == 0.0
        assert merged["p50"] is None and merged["p99"] is None
        assert merged["buckets"] == {}

    def test_mismatched_bucket_edges_union(self):
        # Two workers whose histograms disagree on bounds: the merge
        # must union the edges instead of dropping either side.
        a = {"buckets": {"0.001": 5, "0.01": 1}, "overflow": 0,
             "count": 6, "sum": 0.008}
        b = {"buckets": {"0.005": 3, "0.05": 1}, "overflow": 2,
             "count": 6, "sum": 0.4}
        merged = merge_histogram_dicts([a, b])
        assert merged["count"] == 12
        assert merged["buckets"] == {
            "0.001": 5, "0.005": 3, "0.01": 1, "0.05": 1,
        }
        assert merged["overflow"] == 2
        assert merged["sum"] == pytest.approx(0.408)
        # Quantiles walk the *sorted* union of edges.
        assert merged["p50"] == 0.005

    def test_missing_and_empty_worker_payloads_are_skipped(self):
        real = {"buckets": {"0.01": 4}, "overflow": 0,
                "count": 4, "sum": 0.02}
        merged = merge_histogram_dicts([{}, real, {}])
        assert merged["count"] == 4
        assert merged["buckets"] == {"0.01": 4}

    def test_single_worker_passthrough(self):
        registry = MetricsRegistry()
        registry.histogram("h", "test", bounds=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.05, 0.5):
            registry.get("h").observe(value)
        original = registry.get("h").as_dict()
        merged = merge_histogram_dicts([original])
        assert merged["count"] == original["count"]
        assert merged["sum"] == pytest.approx(original["sum"])
        assert merged["buckets"] == original["buckets"]
        assert merged["overflow"] == original["overflow"]
        assert merged["p50"] == original["p50"]
        assert merged["p99"] == original["p99"]

    def test_merged_quantiles_are_monotone(self):
        # p50 <= p99 must hold across lopsided merges too.
        payloads = [
            {"buckets": {"0.001": 90, "0.1": 1}, "overflow": 0,
             "count": 91, "sum": 0.2},
            {"buckets": {"0.01": 5}, "overflow": 3, "count": 8,
             "sum": 30.0},
        ]
        merged = merge_histogram_dicts(payloads)
        assert merged["p50"] <= merged["p99"]
        assert merged["p50"] == 0.001
        assert merged["p99"] == float("inf")  # overflow tail


class TestQueryWorkerProtocol:
    def test_protocol_errors(self, tmp_path):
        worker = QueryWorker(SnapshotCatalog(tmp_path / "cat"), 0.5, 1)
        bad = json.loads(worker.handle_line(b"{not json"))
        assert bad["ok"] is False and "bad JSON" in bad["error"]
        not_object = json.loads(worker.handle_line(b"[1,2]"))
        assert not_object["ok"] is False
        unknown = json.loads(worker.handle_line(b'{"op":"nope"}'))
        assert unknown["ok"] is False and "unknown op" in unknown["error"]
        missing = json.loads(worker.handle_line(b'{"op":"query"}'))
        assert "'q' or 'qs'" in missing["error"]
        bad_batch = json.loads(
            worker.handle_line(b'{"op":"query","qs":"x"}')
        )
        assert "'qs' must be a list" in bad_batch["error"]

    def test_query_before_any_generation(self, tmp_path):
        worker = QueryWorker(SnapshotCatalog(tmp_path / "cat"), 0.5, 1)
        response = json.loads(
            worker.handle_line(b'{"op":"query","q":"192.0.2.1"}')
        )
        assert response["ok"] is False
        assert "no snapshot generation" in response["error"]

    def test_ping_refresh_stats(self, engine, tmp_path):
        catalog = SnapshotCatalog(tmp_path / "cat")
        catalog.publish(engine.ratio_table(1))
        worker = QueryWorker(catalog, 0.5, 1)
        pong = json.loads(worker.handle_line(b'{"op":"ping"}'))
        assert pong == {"ok": True, "pong": True, "pid": os.getpid()}
        refreshed = json.loads(worker.handle_line(b'{"op":"refresh"}'))
        assert refreshed == {"ok": True, "generation": 1}
        worker.handle_line(b'{"op":"query","q":"192.0.2.1"}')
        stats = json.loads(worker.handle_line(b'{"op":"stats"}'))
        assert stats["ok"] is True
        assert stats["worker"]["generation"] == 1
        assert stats["worker"]["queries"] == 1
        assert stats["worker"]["index_entries"] > 0
        assert "scale_worker_query_latency_seconds" in stats["metrics"]

    def test_worker_matches_service_bytes(self, engine, probes, tmp_path):
        """Inline differential: worker output == service output."""
        catalog = SnapshotCatalog(tmp_path / "cat")
        catalog.publish(engine.ratio_table(1))
        worker = QueryWorker(catalog, 0.5, 1)
        service = CellSpotService(engine, demand=None)
        for query in probes:
            request = {"op": "query", "q": query}
            line = (json.dumps(request) + "\n").encode()
            assert worker.handle_line(line) == service_bytes(
                service, request
            ), query
        batch = {"op": "query", "qs": probes}
        line = (json.dumps(batch) + "\n").encode()
        assert worker.handle_line(line) == service_bytes(service, batch)


def _reference_line(index, request: dict) -> bytes:
    """The reply the worker must send, built the slow way: every
    answer's ``to_dict()`` through one ``json.dumps``."""
    if "qs" in request:
        payload = {
            "ok": True,
            "results": [index.query(str(q)).to_dict() for q in request["qs"]],
        }
    else:
        payload = {"ok": True, "result": index.query(str(request["q"])).to_dict()}
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


class TestEncodedReplies:
    """Worker replies are joined from memoised encodings; they must be
    byte-identical to ``json.dumps`` of the ``to_dict()`` results."""

    @pytest.fixture()
    def mix(self, engine):
        records = engine.ratio_table(1).records()
        v6 = [r for r in records if r.subnet.family == 6][:3]
        assert v6, "fixture table has no IPv6 subnets"
        hits = [str(r.subnet) for r in records[:6]] + [
            str(r.subnet) for r in v6
        ]
        addresses = [cidr.split("/")[0] for cidr in hits]
        return (
            hits + addresses + addresses  # repeats hit the memo
            + [
                "203.0.113.9", "2001:db8:ffff::1", "10.0.0.0/8",  # misses
                f"  {addresses[0]}\t", f" {hits[1]} ",  # padded
                "not an ip", "", "   ", "1.2.3", "10.0.0.1/33",
                "2001:db8::/200", "::1::", "caf\u00e9", 'quo"te\\',
                5, None, 1.5, True, {"a": 1}, [1, 2],  # non-strings
            ]
        )

    def _check(self, worker, catalog, mix) -> None:
        from repro.columnar.mmaptable import open_mmap
        from repro.serve.index import ClassificationIndex

        table = open_mmap(catalog.latest().table_path)
        reference = ClassificationIndex.build(table, demand=None)
        for request in (
            {"op": "query", "qs": mix},
            {"op": "query", "qs": mix},  # every hit now memoised
            {"op": "query", "qs": []},
        ):
            line = json.dumps(request).encode()
            assert worker.handle_line(line) == _reference_line(
                reference, request
            )
        for query in mix:
            if query is None:
                continue  # "q": null is a missing "q" (a protocol error)
            request = {"op": "query", "q": query}
            line = json.dumps(request).encode()
            assert worker.handle_line(line) == _reference_line(
                reference, request
            ), query

    def test_untraced_worker(self, engine, mix, tmp_path):
        catalog = SnapshotCatalog(tmp_path / "cat")
        catalog.publish(engine.ratio_table(1))
        worker = QueryWorker(catalog, 0.5, 1)
        self._check(worker, catalog, mix)
        queries = worker.metrics.get("scale_worker_queries_total").value
        latency = worker.metrics.get("scale_worker_query_latency_seconds")
        assert queries == latency.count == 3 * len(mix) - 1

    def test_worker_with_obs_attached(self, engine, mix, tmp_path):
        from repro.scale.worker import WorkerObs

        catalog = SnapshotCatalog(tmp_path / "cat")
        catalog.publish(engine.ratio_table(1))
        worker = QueryWorker(catalog, 0.5, 1)
        worker.obs = WorkerObs(
            tmp_path / "obs", slot=0, trace_id="t", registry=worker.metrics
        )
        try:
            self._check(worker, catalog, mix)
            # A traced request line: the envelope never reaches the reply.
            traced = {"op": "query", "qs": mix[:5],
                      "_trace": {"tid": "t", "rid": "r1", "psid": "p"}}
            plain = {"op": "query", "qs": mix[:5]}
            assert worker.handle_line(json.dumps(traced).encode()) == (
                worker.handle_line(json.dumps(plain).encode())
            )
        finally:
            worker.obs.stop()
        from repro.obs.trace import read_span_log

        names = {record["name"] for record in read_span_log(tmp_path / "obs" / "worker-0")}
        assert {"worker.request", "worker.lpm", "worker.enrich"} <= names

    def test_swap_drops_the_previous_generations_memo(self, engine, tmp_path):
        """After a swap to generation N+1 no answer comes from
        generation N's memoised encodings."""
        from repro.core.ratios import RatioRecord, RatioTable

        table = engine.ratio_table(1)
        records = table.records()[:40]
        bumped = RatioTable(
            RatioRecord(
                subnet=r.subnet, asn=r.asn + 1, country=r.country,
                api_hits=r.api_hits + 1, cellular_hits=r.cellular_hits,
                hits=r.hits + 7,
            )
            for r in records
        )
        catalog = SnapshotCatalog(tmp_path / "cat")
        catalog.publish(RatioTable(records))
        worker = QueryWorker(catalog, 0.5, 1)
        request = {"op": "query", "qs": [str(r.subnet) for r in records]}
        line = json.dumps(request).encode()
        first = worker.handle_line(line)
        assert worker.handle_line(line) == first  # memoised, unchanged
        catalog.publish(bumped)
        assert worker.maybe_refresh(force=True) is True
        second = worker.handle_line(line)
        from repro.serve.index import ClassificationIndex

        assert second == _reference_line(
            ClassificationIndex.build(bumped), request
        )
        old = json.loads(first)["results"]
        new = json.loads(second)["results"]
        assert all(a["hits"] + 7 == b["hits"] for a, b in zip(old, new))
        assert all(a["asn"] + 1 == b["asn"] for a, b in zip(old, new))


class TestFrontHardening:
    """Admission / deadline behaviour, exercised without processes."""

    def make_plane(self, tmp_path, **overrides) -> ServingPlane:
        defaults = dict(workers=1, max_pending=2, deadline_s=0.05)
        defaults.update(overrides)
        return ServingPlane(
            tmp_path / "cat",
            config=PlaneConfig(**defaults),
            registry=MetricsRegistry(),
        )

    def run(self, coroutine):
        return asyncio.run(coroutine)

    def test_bad_json_and_unknown_op(self, tmp_path):
        plane = self.make_plane(tmp_path)
        response = json.loads(self.run(plane.handle_line(b"{oops")))
        assert response["ok"] is False and "bad JSON" in response["error"]
        response = json.loads(self.run(plane.handle_line(b"[]")))
        assert response["ok"] is False
        response = json.loads(self.run(plane.handle_line(b'{"op":"x"}')))
        assert "unknown op" in response["error"]

    def test_admission_control_sheds_beyond_max_pending(self, tmp_path):
        plane = self.make_plane(tmp_path)
        plane._pending = plane.config.max_pending
        response = self.run(
            plane.handle_line(b'{"op":"query","q":"192.0.2.1"}')
        )
        assert response == SHED_RESPONSE
        assert plane.metrics.get("scale_shed_total").value == 1
        assert plane._pending == plane.config.max_pending  # untouched

    def test_draining_plane_sheds_queries(self, tmp_path):
        plane = self.make_plane(tmp_path)
        plane.request_shutdown()
        response = self.run(
            plane.handle_line(b'{"op":"query","q":"192.0.2.1"}')
        )
        assert response == SHED_RESPONSE

    def test_deadline_sheds_when_no_worker_frees_up(self, tmp_path):
        plane = self.make_plane(tmp_path, deadline_s=0.05)

        async def scenario():
            started = time.perf_counter()
            # Idle queue is empty (no workers started): the request
            # must shed at its deadline instead of waiting forever.
            response = await plane.handle_line(
                b'{"op":"query","q":"192.0.2.1"}'
            )
            return response, time.perf_counter() - started

        response, elapsed = self.run(scenario())
        assert response == SHED_RESPONSE
        assert elapsed < 5.0
        assert plane.metrics.get("scale_shed_total").value == 1
        assert plane.metrics.get("scale_request_latency_seconds").count == 1

    def test_expired_deadline_sheds_immediately(self, tmp_path):
        plane = self.make_plane(tmp_path)

        async def scenario():
            return await plane._dispatch(
                b'{"op":"query","q":"x"}', time.perf_counter() - 1.0
            )

        assert self.run(scenario()) == SHED_RESPONSE

    def test_shed_response_is_the_service_shape(self):
        assert json.loads(SHED_RESPONSE) == {
            "ok": False, "error": "overloaded", "overloaded": True,
        }

    def test_plane_metrics_registers_idempotently(self):
        registry = MetricsRegistry()
        assert plane_metrics(registry) is registry
        plane_metrics(registry)  # second call must not raise
        assert registry.get("scale_shed_total").value == 0

    def test_stats_timeout_is_counted_and_logged(self, tmp_path):
        plane = self.make_plane(tmp_path, stats_timeout_s=0.05)

        class HangingHandle:
            slot = 3
            alive = True

            async def request(self, _line):
                await asyncio.sleep(30.0)

        plane._workers.append(HangingHandle())
        # Capture at the source logger: configure_logging() (run by any
        # earlier in-process CLI test) sets propagate=False on the
        # "cellspot" root, so records never reach pytest's root handler.
        records = []
        handler = logging.Handler()
        handler.emit = records.append
        source = logging.getLogger("cellspot.scale.plane")
        previous_level = source.level
        source.addHandler(handler)
        source.setLevel(logging.WARNING)
        try:
            payloads = self.run(plane._worker_stats())
        finally:
            source.removeHandler(handler)
            source.setLevel(previous_level)
        assert payloads == []
        assert plane.metrics.get("scale_stats_timeouts_total").value == 1
        assert any(
            "scale.stats.timeout" in record.getMessage()
            and "slot=3" in record.getMessage()
            for record in records
        )
        summary = plane._plane_summary()
        assert summary["stats_timeouts"] == 1

    def test_stats_connection_error_is_not_a_timeout(self, tmp_path):
        plane = self.make_plane(tmp_path)

        class DeadHandle:
            slot = 0
            alive = True

            async def request(self, _line):
                raise ConnectionResetError("worker closed the connection")

        plane._workers.append(DeadHandle())
        assert self.run(plane._worker_stats()) == []
        assert plane.metrics.get("scale_stats_timeouts_total").value == 0


class _ScriptedHandle(WorkerHandle):
    """A worker handle without a process: each request waits for the
    reply the test puts on ``replies``."""

    def __init__(self, slot: int) -> None:
        super().__init__(
            slot, SimpleNamespace(pid=4200 + slot, exitcode=-9),
            f"worker-{slot}.sock", None, None,
        )
        self.replies: asyncio.Queue = asyncio.Queue()

    async def request(self, line: bytes) -> bytes:
        return await self.replies.get()


class TestWorkerDeathArtifact:
    """``PlaneObs.harvest_worker`` names the request the front last
    dispatched to the dead worker, as ``_dispatch`` recorded it."""

    def test_dying_request_is_the_front_dispatch_record(self, tmp_path):
        obs_dir = tmp_path / "obs"
        plane = ServingPlane(
            tmp_path / "cat",
            config=PlaneConfig(workers=3, deadline_s=None, obs_dir=obs_dir),
            registry=MetricsRegistry(),
        )
        answer = b'{"ok":true,"result":{}}\n'

        async def scenario():
            busy, idle, fresh = (_ScriptedHandle(slot) for slot in range(3))
            plane._workers = [busy, idle, fresh]
            # ``idle`` answers one request; ``busy`` then holds one.
            plane._idle.put_nowait(idle)
            idle.replies.put_nowait(answer)
            first = await plane.handle_line(b'{"op":"query","q":"192.0.2.1"}')
            assert first == answer
            assert plane._idle.get_nowait() is idle
            plane._idle.put_nowait(busy)
            held = asyncio.ensure_future(
                plane.handle_line(b'{"op":"query","q":"192.0.2.2"}')
            )
            while busy.last_request is None:
                await asyncio.sleep(0)
            health = await plane.health()
            for handle in (busy, idle, fresh):
                plane._obs.harvest_worker(handle, "process exited (exit -9)")
            busy.replies.put_nowait(b'{"ok":false,"error":"boom"}\n')
            await held
            return health, busy.last_request["outcome"]

        health, settled = asyncio.run(scenario())
        assert health["inflight"] == {
            "0": "req-000000000002", "1": None, "2": None,
        }
        assert settled == "error"
        artifacts = {}
        for path in sorted(obs_dir.glob("postmortem-worker*.json")):
            artifact = json.loads(path.read_text())
            assert artifact["kind"] == "worker-death"
            assert artifact["reason"] == "process exited (exit -9)"
            assert artifact["pid"] == 4200 + artifact["slot"]
            artifacts[artifact["slot"]] = artifact["dying_request"]
        assert sorted(artifacts) == [0, 1, 2]
        # Killed mid-request: that request, still in flight.
        assert artifacts[0]["rid"] == "req-000000000002"
        assert artifacts[0]["outcome"] == "inflight"
        assert "192.0.2.2" in artifacts[0]["line"]
        # Killed idle: its last request, answered.
        assert artifacts[1]["rid"] == "req-000000000001"
        assert artifacts[1]["outcome"] == "ok"
        # Never served: nothing to name.
        assert artifacts[2] is None


# ---- full plane over real worker processes ------------------------------


async def _plane_scenario(catalog_dir, socket_path, service, probes):
    """Differential + kill/respawn + stats + drain, one plane lifetime."""
    plane = ServingPlane(
        catalog_dir,
        config=PlaneConfig(
            workers=2, max_pending=32, deadline_s=5.0,
            startup_timeout_s=60.0,
        ),
        registry=MetricsRegistry(),
    )
    ready = asyncio.Event()
    server_task = asyncio.create_task(
        plane.serve(
            socket_path=socket_path,
            ready_callback=lambda _plane: ready.set(),
        )
    )
    await asyncio.wait_for(ready.wait(), 90.0)

    reader, writer = await asyncio.open_unix_connection(str(socket_path))

    async def roundtrip(payload: dict) -> bytes:
        writer.write((json.dumps(payload) + "\n").encode())
        await writer.drain()
        return await asyncio.wait_for(reader.readline(), 30.0)

    async def differential_pass() -> None:
        for query in probes:
            request = {"op": "query", "q": query}
            assert await roundtrip(request) == service_bytes(
                service, request
            ), query
        batch = {"op": "query", "qs": list(probes)}
        assert await roundtrip(batch) == service_bytes(service, batch)

    # 1. Both workers up and answering.
    pong = json.loads(await roundtrip({"op": "ping"}))
    assert pong["ok"] and pong["workers"] == 2

    # 2. Differential byte-identity against the single-process service.
    await differential_pass()

    # 3. SIGKILL one worker; the reaper must respawn it.
    pid_file = plane.pid_file()
    pids_before = [
        int(token) for token in pid_file.read_text().split()
    ]
    assert len(pids_before) == 2
    os.kill(pids_before[0], signal.SIGKILL)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        stats = json.loads(await roundtrip({"op": "stats"}))
        plane_stats = stats["plane"]
        if (
            plane_stats["worker_respawns"] >= 1
            and plane_stats["workers"] == 2
        ):
            break
        await asyncio.sleep(0.1)
    else:
        raise AssertionError("killed worker was never respawned")
    assert plane_stats["worker_deaths"] >= 1
    pids_after = [int(token) for token in pid_file.read_text().split()]
    assert len(pids_after) == 2
    assert pids_before[0] not in pids_after  # dead pid dropped
    assert pids_before[1] in pids_after  # survivor kept

    # 4. ...and answers are still byte-identical after the respawn.
    await differential_pass()

    # 5. Merged stats expose worker latency + the front summary.
    stats = json.loads(await roundtrip({"op": "stats"}))
    assert stats["ok"] is True
    assert stats["query_latency"]["count"] > 0
    assert len(stats["workers"]) == 2
    assert stats["plane"]["generation"] == 1
    assert stats["plane"]["shed"] == 0

    # 6. Graceful drain via the shutdown op.
    done = json.loads(await roundtrip({"op": "shutdown"}))
    assert done == {"ok": True, "shutdown": True}
    writer.close()
    handled = await asyncio.wait_for(server_task, 30.0)
    assert handled > 0
    assert not any(handle.process.is_alive() for handle in plane._workers)


def test_plane_differential_and_respawn(engine, probes, tmp_path):
    catalog = SnapshotCatalog(tmp_path / "cat")
    catalog.publish(engine.ratio_table(1))
    service = CellSpotService(engine, demand=None)
    asyncio.run(
        _plane_scenario(
            tmp_path / "cat", tmp_path / "front.sock", service, probes
        )
    )


def test_drain_lets_workers_exit_on_eof(engine, tmp_path):
    """Drain delivers each worker its EOF: every worker exits 0 on
    its own and unlinks its socket, none is SIGTERMed."""
    catalog = SnapshotCatalog(tmp_path / "cat")
    catalog.publish(engine.ratio_table(1))
    plane = ServingPlane(
        tmp_path / "cat",
        config=PlaneConfig(workers=2, startup_timeout_s=60.0),
        registry=MetricsRegistry(),
    )

    async def scenario():
        await plane.start()
        await plane._drain()

    asyncio.run(scenario())
    assert [h.process.exitcode for h in plane._workers] == [0, 0]
    assert not list(catalog.root.glob("worker-*.sock"))


# ---- distributed observability over real worker processes ----------------


async def _plane_obs_scenario(catalog_dir, obs_dir, socket_path, service, probes):
    """Traced differential + kill harvest + federation, one plane lifetime."""
    plane = ServingPlane(
        catalog_dir,
        config=PlaneConfig(
            workers=2, max_pending=32, deadline_s=5.0,
            startup_timeout_s=60.0, obs_dir=obs_dir,
            obs_scrape_interval_s=0.1,
        ),
        registry=MetricsRegistry(),
    )
    ready = asyncio.Event()
    server_task = asyncio.create_task(
        plane.serve(
            socket_path=socket_path,
            ready_callback=lambda _plane: ready.set(),
        )
    )
    await asyncio.wait_for(ready.wait(), 90.0)
    reader, writer = await asyncio.open_unix_connection(str(socket_path))

    async def roundtrip(payload: dict) -> bytes:
        writer.write((json.dumps(payload) + "\n").encode())
        await writer.drain()
        return await asyncio.wait_for(reader.readline(), 30.0)

    async def differential_pass() -> None:
        for query in probes:
            request = {"op": "query", "q": query}
            assert await roundtrip(request) == service_bytes(
                service, request
            ), query
        batch = {"op": "query", "qs": list(probes)}
        assert await roundtrip(batch) == service_bytes(service, batch)

    # 1. Tracing on, answers still byte-identical to the single-process
    #    service: the _trace envelope must never leak into a response.
    await differential_pass()

    # 2. Federation: the workers' exported series appear worker-tagged.
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        federated = plane.federation_metrics()
        tagged = [
            key for key in federated
            if key.startswith('scale_worker_query_latency_seconds{worker="')
        ]
        if len(tagged) == 2:
            break
        await asyncio.sleep(0.05)
    else:
        raise AssertionError("per-worker federated series never appeared")
    assert federated[tagged[0]][0] == "h"

    # 3. The health op exposes the rollup, the run trace id, and each
    #    live worker's in-flight rid (none: this client waits for its
    #    replies).
    health = json.loads(await roundtrip({"op": "health"}))
    assert health["trace_id"] == plane._obs.trace_id
    assert {row["worker"] for row in health["workers"]} == {"0", "1"}
    assert health["inflight"] == {"0": None, "1": None}
    last_rid = plane._workers[0].last_request["rid"]

    # 4. SIGKILL an idle worker: the front writes a death artifact
    #    naming the last request it answered before respawning.
    pids_before = [
        int(token) for token in plane.pid_file().read_text().split()
    ]
    os.kill(pids_before[0], signal.SIGKILL)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        stats = json.loads(await roundtrip({"op": "stats"}))
        if (
            stats["plane"]["worker_respawns"] >= 1
            and stats["plane"]["workers"] == 2
        ):
            break
        await asyncio.sleep(0.1)
    else:
        raise AssertionError("killed worker was never respawned")
    artifacts = sorted(Path(obs_dir).glob("postmortem-worker0-*.json"))
    assert artifacts, "worker death left no postmortem artifact"
    artifact = json.loads(artifacts[0].read_text())
    assert artifact["kind"] == "worker-death"
    assert artifact["slot"] == 0
    assert artifact["trace_id"] == plane._obs.trace_id
    assert artifact["dying_request"]["rid"] == last_rid
    assert artifact["dying_request"]["outcome"] == "ok"

    # 5. Still byte-identical after the respawn, tracing still on.
    await differential_pass()
    assert stats["plane"]["stats_timeouts"] == 0

    # 6. Drain.
    done = json.loads(await roundtrip({"op": "shutdown"}))
    assert done == {"ok": True, "shutdown": True}
    writer.close()
    await asyncio.wait_for(server_task, 30.0)
    return plane


def test_plane_obs_end_to_end(engine, probes, tmp_path):
    from repro.obs.postmortem import build_postmortem
    from repro.obs.timeseries import TimeSeriesReader

    catalog = SnapshotCatalog(tmp_path / "cat")
    catalog.publish(engine.ratio_table(1))
    service = CellSpotService(engine, demand=None)
    obs_dir = tmp_path / "obs"
    plane = asyncio.run(
        _plane_obs_scenario(
            tmp_path / "cat", obs_dir, tmp_path / "front.sock",
            service, probes,
        )
    )
    trace_id = plane._obs.trace_id

    # Offline join: front + worker spans share the run trace id.
    postmortem = build_postmortem(obs_dir)
    assert postmortem["trace_id"] == trace_id
    assert "front" in postmortem["sources"]
    assert any(src.startswith("worker-") for src in postmortem["sources"])
    names = {span["name"] for span in postmortem["spans"]}
    assert {"front.request", "worker.request", "worker.decode",
            "worker.lpm", "worker.enrich"} <= names
    front_sids = {
        span["sid"] for span in postmortem["spans"]
        if span["name"] == "front.request"
    }
    joined = [
        span for span in postmortem["spans"]
        if span["name"] == "worker.request" and span.get("pid") in front_sids
    ]
    assert joined, "no worker span joined to a front span"
    assert postmortem["artifacts"]

    # Offline per-worker series: readable with the stock reader.
    for slot in (0, 1):
        reader = TimeSeriesReader(obs_dir / f"worker-{slot}")
        points = reader.series("scale_worker_query_latency_seconds")
        assert points, f"worker {slot} exported no samples"
        assert points[-1][1]["count"] > 0
        assert points[-1][1]["p99"] is not None


# ---- start-up: builder and workers come up together ---------------------


class TestConcurrentStart:
    """Workers spawn while the first generation is still on its way;
    each binds only once it has mapped one, and a failed start leaves
    no child behind."""

    def test_workers_spawn_before_the_first_generation(self, engine, tmp_path):
        catalog = SnapshotCatalog(tmp_path / "cat")
        plane = ServingPlane(
            tmp_path / "cat",
            config=PlaneConfig(workers=2, startup_timeout_s=60.0),
            registry=MetricsRegistry(),
        )
        before = set(multiprocessing.active_children())

        async def scenario():
            start = asyncio.ensure_future(plane.start())
            deadline = time.monotonic() + 30.0
            while len(set(multiprocessing.active_children()) - before) < 2:
                assert time.monotonic() < deadline, "workers never spawned"
                await asyncio.sleep(0.01)
            spawned = {
                child.pid
                for child in set(multiprocessing.active_children()) - before
            }
            await asyncio.sleep(0.5)
            # No generation yet: start is still waiting, and no worker
            # has bound its socket.
            assert not start.done()
            assert catalog.latest(missing_ok=True) is None
            assert not list(catalog.root.glob("worker-*.sock"))
            catalog.publish(engine.ratio_table(1))
            await asyncio.wait_for(start, 60.0)
            try:
                assert [handle.slot for handle in plane._workers] == [0, 1]
                assert {
                    handle.process.pid for handle in plane._workers
                } == spawned
                pong = json.loads(await plane.handle_line(b'{"op":"ping"}\n'))
                assert pong["workers"] == 2
                subnet = str(engine.ratio_table(1).records()[0].subnet)
                reply = json.loads(await plane.handle_line(
                    (json.dumps({"op": "query", "q": subnet}) + "\n").encode()
                ))
                assert reply["ok"] is True
            finally:
                await plane._drain()

        asyncio.run(scenario())
        assert set(multiprocessing.active_children()) <= before

    def test_start_timeout_leaves_no_child(self, tmp_path):
        plane = ServingPlane(
            tmp_path / "cat",
            config=PlaneConfig(workers=2, startup_timeout_s=2.0),
            registry=MetricsRegistry(),
        )
        before = set(multiprocessing.active_children())
        with pytest.raises(TimeoutError):
            asyncio.run(plane.start())
        assert set(multiprocessing.active_children()) <= before
        assert plane._workers == []


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    return env


def test_plane_processes_import_no_census():
    """A plane child imports what it runs, not the census behind it.

    Nor numpy: ``serve/index.py`` imports ``DemandDataset``, whose
    columns are ``array.array`` so that a plane process never pays
    numpy's import time and memory.
    """
    heavy = (
        "repro.lab", "repro.experiments", "repro.analysis", "repro.cdn",
        "repro.dns", "repro.evolution", "repro.parallel",
        "repro.core.pipeline", "repro.world.build", "numpy",
    )
    code = (
        "import json, sys\n"
        "import repro.cli, repro.scale.worker, repro.scale.builder\n"
        f"heavy = {heavy!r}\n"
        "loaded = sorted(m for m in sys.modules\n"
        "                if any(m == h or m.startswith(h + '.') for h in heavy))\n"
        "from repro import CellSpotter, Lab\n"
        "print(json.dumps([loaded, Lab.__module__, CellSpotter.__module__]))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, env=_cli_env(),
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    loaded, lab_module, spotter_module = json.loads(completed.stdout)
    assert loaded == []
    assert (lab_module, spotter_module) == ("repro.lab", "repro.core.pipeline")


def test_worker_imports_no_unused_obs_modules():
    """``repro.obs`` re-exports nothing, so a worker child loads only
    the telemetry modules it runs."""
    unused = (
        "repro.obs.alerts", "repro.obs.dashboard", "repro.obs.health",
        "repro.obs.postmortem", "repro.obs.sampler",
    )
    code = (
        "import json, sys\n"
        "import repro.scale.worker\n"
        f"print(json.dumps(sorted(set(sys.modules) & set({unused!r}))))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, env=_cli_env(),
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert json.loads(completed.stdout) == []


# ---- the serving-scale drill: SIGKILL under overload, postmortem, alerts ---


@pytest.fixture(scope="class")
def scale_drill(tmp_path_factory):
    """One ``serve-scale`` lifetime under fire, shared by the drill tests.

    Two workers over a ``--generate`` builder, a tight admission bound
    and deadline so an overload burst provokes explicit sheds, the
    distributed observability plane on, worker 0's first incarnation
    drilled slow so the worker-latency-skew alert has something to
    catch, that worker SIGKILLed mid-burst (found through the
    ``workers.pids`` file the front rewrites on every respawn), and a
    graceful SIGTERM drain at the end.
    """
    root = tmp_path_factory.mktemp("scale-drill")
    env = _cli_env()

    def loadgen(*extra, wait=True):
        command = [
            sys.executable, "-m", "repro.cli", "loadgen",
            "--snapshot-dir", "cat", "--socket", "plane.sock",
            "--seed", "7", *extra,
        ]
        if not wait:
            return subprocess.Popen(command, cwd=root, env=env)
        return subprocess.run(
            command, cwd=root, env=env, capture_output=True, text=True,
            timeout=300,
        )

    drill = SimpleNamespace(root=root)
    with open(root / "plane.err", "w") as plane_err:
        plane = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve-scale",
             "--snapshot-dir", "cat", "--socket", "plane.sock",
             "--workers", "2", "--max-pending", "4", "--deadline", "0.05",
             "--generate", "--scale", "0.002", "--seed", "3",
             "--hit-volume", "30000", "--window-events", "5000",
             "--timeseries-dir", "plane-ts",
             "--alert-log", "plane-alerts.jsonl",
             "--scrape-interval", "0.2",
             "--obs-dir", "cat-obs",
             "--drill-slow-worker", "0:0.005"],
            cwd=root, stderr=plane_err, env=env,
        )
        try:
            deadline = time.monotonic() + 180.0
            while not (root / "plane.sock").exists():
                assert plane.poll() is None, (root / "plane.err").read_text()
                assert time.monotonic() < deadline, "plane never came up"
                time.sleep(0.2)
            # 1. A normal burst, which also feeds worker 0's drilled
            #    (5 ms/query) latency histogram.
            drill.first = loadgen("--queries", "3000", "--report", "lg1.json")
            # 2. Idle past the skew rule's for_s so worker-latency-skew
            #    can move pending -> firing on the federated series.
            time.sleep(2.2)
            # 3. Overload burst with a mid-burst SIGKILL of the drilled
            #    worker, fired while the front's health reply names a
            #    request in flight on it; the reaper respawns the slot
            #    without the drill.
            pid_file = root / "cat" / "workers.pids"
            drill.pids = [int(t) for t in pid_file.read_text().split()]
            burst = loadgen(
                "--queries", "2000", "--overload", "2000",
                "--overload-concurrency", "64", "--report", "lg2.json",
                wait=False,
            )
            with socket.socket(socket.AF_UNIX) as probe:
                probe.connect(str(root / "plane.sock"))
                replies = probe.makefile("rb")
                deadline = time.monotonic() + 30.0
                while True:
                    probe.sendall(b'{"op":"health"}\n')
                    health = json.loads(replies.readline())
                    if health["inflight"].get("0") is not None:
                        break
                    if (
                        time.monotonic() >= deadline
                        or burst.poll() is not None
                    ):
                        pytest.fail("worker 0 never had a request in flight")
                    time.sleep(0.005)
                os.kill(drill.pids[0], signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while True:
                drill.respawned = [int(t) for t in pid_file.read_text().split()]
                if (
                    len(drill.respawned) == 2
                    and drill.pids[0] not in drill.respawned
                ):
                    break
                assert time.monotonic() < deadline, "worker never respawned"
                time.sleep(0.2)
            drill.burst_code = burst.wait(timeout=300)
            # 4. Calm traffic and a couple of scrape intervals so the
            #    overload and skew rules can resolve before shutdown
            #    (the respawned, undrilled worker brings the federated
            #    skew ratio back under threshold).
            time.sleep(1.0)
            drill.calm = loadgen("--queries", "2000")
            time.sleep(1.0)
            # 5. Graceful drain on SIGTERM.
            plane.send_signal(signal.SIGTERM)
            drill.exit_code = plane.wait(timeout=60)
        finally:
            if plane.poll() is None:
                plane.kill()
                plane.wait(timeout=30)
    drill.stderr = (root / "plane.err").read_text()
    return drill


class TestServingScaleDrill:
    """The plane heals a SIGKILL and sheds under overload, leaves a
    postmortem that joins its processes' spans on one trace, and its
    overload and worker-skew alerts fire and resolve."""

    def test_bursts_answer_without_client_errors(self, scale_drill):
        root = scale_drill.root
        assert scale_drill.first.returncode == 0, scale_drill.first.stderr
        lg1 = json.loads((root / "lg1.json").read_text())
        assert lg1["totals"]["errors"] == 0
        assert scale_drill.calm.returncode == 0, scale_drill.calm.stderr

    def test_sigkill_under_overload_sheds_and_respawns(self, scale_drill):
        assert len(scale_drill.pids) == 2, scale_drill.pids
        assert scale_drill.pids[1] in scale_drill.respawned
        assert scale_drill.burst_code == 0
        report = json.loads((scale_drill.root / "lg2.json").read_text())
        assert report["totals"]["errors"] == 0, report["totals"]
        assert report["totals"]["shed"] > 0, report["totals"]

    def test_worker_death_names_the_dying_request(self, scale_drill):
        obs = scale_drill.root / "cat-obs"
        artifacts = sorted(obs.glob("postmortem-worker0-*.json"))
        assert artifacts, sorted(p.name for p in obs.iterdir())
        artifact = json.loads(artifacts[-1].read_text())
        assert artifact["kind"] == "worker-death", artifact
        assert artifact["slot"] == 0, artifact
        dying = artifact.get("dying_request") or {}
        assert str(dying.get("rid", "")).startswith("req-"), artifact
        assert dying["outcome"] == "inflight", artifact

    def test_sigterm_drains_to_exit_zero(self, scale_drill):
        assert scale_drill.exit_code == 0, scale_drill.stderr[-2000:]
        assert "respawns" in scale_drill.stderr

    def test_drain_leaves_no_worker_sockets(self, scale_drill):
        # The SIGKILLed incarnation included: it cannot unlink its own.
        left = sorted(p.name for p in (scale_drill.root / "cat").glob(
            "worker-*.sock"
        ))
        assert left == []

    def test_front_start_span_times_each_start_step(self, scale_drill):
        from repro.obs.trace import read_span_log

        (start,) = [
            span for span in read_span_log(scale_drill.root / "cat-obs" / "front")
            if span["name"] == "front.start"
        ]
        attrs = start["attrs"]
        assert 0 < attrs["first_generation_s"] <= start["dur"]
        assert len(attrs["worker_connected_s"]) == 2
        assert all(0 < s <= start["dur"] for s in attrs["worker_connected_s"])

    def test_postmortem_joins_front_and_worker_spans(self, scale_drill):
        from repro.obs.postmortem import build_postmortem

        root = scale_drill.root
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "postmortem",
             "cat-obs", "--chrome-out", "pm-trace.json"],
            cwd=root, env=_cli_env(), capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "postmortem: trace " in proc.stdout, proc.stdout
        assert "front" in proc.stdout, proc.stdout
        assert "worker-0" in proc.stdout, proc.stdout
        assert "dying request rid=req-" in proc.stdout, proc.stdout

        postmortem = build_postmortem(root / "cat-obs")
        assert postmortem["trace_id"], postmortem["trace_ids"]
        names = {span["name"] for span in postmortem["spans"]}
        assert "front.request" in names, sorted(names)
        assert "worker.request" in names, sorted(names)
        sources = set(postmortem["sources"])
        assert "front" in sources and "worker-0" in sources, sources

        chrome = json.loads((root / "pm-trace.json").read_text())
        assert chrome["otherData"]["trace_id"] == postmortem["trace_id"]
        lanes = {
            event["args"]["name"]
            for event in chrome["traceEvents"]
            if event["ph"] == "M"
        }
        assert {"front", "worker-0"} <= lanes, lanes

    def test_overload_and_skew_alerts_fire_and_resolve(self, scale_drill):
        from repro.obs.alerts import episodes, read_alert_log

        log = read_alert_log(scale_drill.root / "plane-alerts.jsonl")
        overload = episodes(log, rule="serving-plane-overload")
        assert overload, sorted({e.get("rule") for e in log})
        fired = [ep for ep in overload if ep["fired"]]
        assert fired, overload
        assert any(ep["ended"] is not None for ep in fired), overload
        # The drilled worker 0 trips the federated skew rule, and its
        # fast respawn resolves it.
        skew = episodes(log, rule="worker-latency-skew")
        assert skew, sorted({e.get("rule") for e in log})
        skew_fired = [ep for ep in skew if ep["fired"]]
        assert skew_fired, skew
        assert any(ep["ended"] is not None for ep in skew_fired), skew
