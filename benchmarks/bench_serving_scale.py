"""Benchmark: horizontal serving plane vs the single-process service.

The serving plane exists to push aggregate query throughput past what
the single-process ``CellSpotService`` serving mode delivers on the
request path.  Two gates pin that claim, both at the shared bench
scale (0.005):

1. **Aggregate q/s.**  The plane (asyncio front + 4 worker processes
   over a shared mmap snapshot, driven by the heavy-tailed loadgen
   over a real ``AF_UNIX`` socket) must deliver at least
   ``AGGREGATE_MULTIPLIER_FLOOR`` times the *same-machine, same-run*
   baseline: the legacy single-process serve loop
   (:meth:`CellSpotService.serve_socket`) answering the same query
   stream one query per request -- the serving mode
   :mod:`bench_serving_latency` pins and the plane replaces.  The
   multiplier is relative, so the gate holds on a loaded 2-core CI
   runner and a fast dev box alike.  The aggregate must also clear
   ``2 x SINGLE_PROCESS_RATE_FLOOR`` absolute -- twice the q/s floor
   the single-process bench guarantees -- so the relative gate cannot
   be satisfied by a degenerate slow baseline.
2. **Worker-side p99 lookup latency** -- from the per-worker
   histograms the front merges on ``stats`` -- must stay under
   ``WORKER_P99_CEILING_S``: fanning out must not trade per-query
   latency for throughput.
3. **Tracing overhead.**  Turning on the distributed observability
   plane (``obs_dir``: per-request spans, the crash flight recorder,
   and worker metric federation) must cost less than 5% aggregate
   throughput.  Both arms run interleaved best-of-2 at the full query
   count and the gate pins ``best_traced / best_untraced`` at
   ``TRACING_OVERHEAD_FLOOR``.

The plane wins on two axes: worker processes classify in parallel
(real cores permitting), and batched requests amortize the per-request
parse/dispatch/syscall cost the single-query legacy mode pays in full.
Measured on a 1-core container: legacy wire baseline ~13k q/s, plane
aggregate ~36k q/s (~2.7x, all of it from batching); with real cores
the worker fan-out multiplies further.
"""

from __future__ import annotations

import asyncio
import json
import socket as socket_module
import threading
import time

from repro.cdn.beacon import BeaconConfig, BeaconGenerator
from repro.obs.metrics import MetricsRegistry
from repro.scale.loadgen import heavy_tail_queries, run_loadgen
from repro.scale.plane import PlaneConfig, ServingPlane
from repro.scale.snapshot import SnapshotCatalog
from repro.serve.service import CellSpotService, ServiceConfig
from repro.stream import StreamEngine, WindowPolicy

#: Plane aggregate q/s over the measured single-process wire baseline.
AGGREGATE_MULTIPLIER_FLOOR = 2.0
#: Keep in sync with ``bench_serving_latency.QUERY_RATE_FLOOR``: the
#: q/s floor the single-process bench guarantees.  The plane must
#: clear twice it in absolute terms.
SINGLE_PROCESS_RATE_FLOOR = 10_000
#: Worker-side per-query p99 ceiling (seconds), from merged histograms.
WORKER_P99_CEILING_S = 0.001
#: Tracing-on aggregate must stay within 5% of tracing-off.
TRACING_OVERHEAD_FLOOR = 0.95

WORKERS = 4
QUERY_COUNT = 12_000
BASELINE_QUERY_COUNT = 4_000


def _event_stream(lab):
    config = BeaconConfig(
        month=lab.beacon_config.month, demand_hits=60_000, base_hits=2.0
    )
    return list(BeaconGenerator(lab.world, config).iter_hits())


def _drained_service(hits) -> CellSpotService:
    engine = StreamEngine(policy=WindowPolicy(window_events=8192))
    service = CellSpotService(
        engine=engine, demand=None, config=ServiceConfig()
    )
    service.drain(iter(hits))
    service.index()
    return service


def _inprocess_rate(service: CellSpotService, queries) -> float:
    """Dict-API q/s (no wire): context for cross-machine comparison."""
    requests = [{"op": "query", "q": text} for text in queries]
    for request in requests[:200]:  # warm-up
        service.handle_request(request)
    started = time.perf_counter()
    for request in requests:
        response = service.handle_request(request)
        assert response["ok"]
    return len(requests) / (time.perf_counter() - started)


def _legacy_wire_rate(service: CellSpotService, queries, socket_path):
    """The replaced serving mode: one synchronous process, one query
    per request, over its own ``AF_UNIX`` serve loop."""
    thread = threading.Thread(
        target=service.serve_socket, args=(socket_path,), daemon=True
    )
    thread.start()
    deadline = time.monotonic() + 30.0
    while not socket_path.exists():
        assert time.monotonic() < deadline, "legacy server never bound"
        time.sleep(0.02)
    report = asyncio.run(
        run_loadgen(
            queries,
            socket_path=socket_path,
            concurrency=1,
            batch=1,
            warmup=256,
        )
    )
    conn = socket_module.socket(
        socket_module.AF_UNIX, socket_module.SOCK_STREAM
    )
    try:
        conn.connect(str(socket_path))
        conn.sendall(b'{"op":"shutdown"}\n')
        conn.recv(65536)
    finally:
        conn.close()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert report["totals"]["errors"] == 0, report["totals"]
    return report["throughput_queries_per_s"]


async def _drive_plane(catalog_dir, socket_path, queries, obs_dir=None):
    """Serve the catalog with 4 workers; return (report, stats)."""
    plane = ServingPlane(
        catalog_dir,
        config=PlaneConfig(
            workers=WORKERS,
            max_pending=128,
            deadline_s=5.0,
            startup_timeout_s=120.0,
            obs_dir=obs_dir,
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
    await asyncio.wait_for(ready.wait(), 120.0)
    try:
        report = await run_loadgen(
            queries,
            socket_path=socket_path,
            concurrency=8,
            batch=128,
            warmup=512,
        )
        reader, writer = await asyncio.open_unix_connection(
            str(socket_path)
        )
        writer.write(b'{"op":"stats"}\n')
        await writer.drain()
        stats = json.loads(await asyncio.wait_for(reader.readline(), 30.0))
        writer.write(b'{"op":"shutdown"}\n')
        await writer.drain()
        await asyncio.wait_for(reader.readline(), 30.0)
        writer.close()
    finally:
        plane.request_shutdown()
        await asyncio.wait_for(server_task, 60.0)
    return report, stats


def test_plane_aggregate_throughput_and_tail(lab, tmp_path):
    hits = _event_stream(lab)
    service = _drained_service(hits)
    table = service.engine.ratio_table(1)
    queries = heavy_tail_queries(table.records(), QUERY_COUNT, seed=1)

    inprocess = _inprocess_rate(service, queries[:BASELINE_QUERY_COUNT])
    baseline = _legacy_wire_rate(
        service,
        queries[:BASELINE_QUERY_COUNT],
        tmp_path / "legacy.sock",
    )

    catalog = SnapshotCatalog(tmp_path / "cat")
    catalog.publish(table, meta={"bench": "serving_scale"})
    report, stats = asyncio.run(
        _drive_plane(tmp_path / "cat", tmp_path / "front.sock", queries)
    )

    assert report["ok"], report["totals"]
    assert report["totals"]["errors"] == 0
    aggregate = report["throughput_queries_per_s"]
    multiplier = aggregate / baseline
    worker_p99 = stats["query_latency"]["p99"]
    assert stats["plane"]["workers"] == WORKERS
    assert stats["plane"]["worker_deaths"] == 0
    assert stats["query_latency"]["count"] > 0

    # Tracing-overhead arm: interleaved best-of-2 per arm, the first
    # untraced sample being the aggregate run above.
    obs_dir = tmp_path / "obs"
    untraced_rates = [aggregate]
    traced_rates = []
    for round_index in range(2):
        traced_report, _ = asyncio.run(
            _drive_plane(
                tmp_path / "cat",
                tmp_path / f"traced-{round_index}.sock",
                queries,
                obs_dir=obs_dir,
            )
        )
        assert traced_report["totals"]["errors"] == 0
        traced_rates.append(traced_report["throughput_queries_per_s"])
        if round_index == 0:
            untraced_report, _ = asyncio.run(
                _drive_plane(
                    tmp_path / "cat", tmp_path / "untraced-1.sock", queries
                )
            )
            assert untraced_report["totals"]["errors"] == 0
            untraced_rates.append(
                untraced_report["throughput_queries_per_s"]
            )
    overhead_ratio = max(traced_rates) / max(untraced_rates)
    # The traced arm must actually have traced: request spans from the
    # front, per-worker metric segments, and the crash flight rings.
    assert list((obs_dir / "front").glob("spans-*.jsonl"))
    assert list(obs_dir.glob("worker-*/segment-*.jsonl"))
    assert list(obs_dir.glob("worker-*.fr"))

    print(
        f"\nplane aggregate {aggregate:,.0f} q/s over {WORKERS} workers "
        f"vs single-process wire {baseline:,.0f} q/s "
        f"({multiplier:.2f}x, floor {AGGREGATE_MULTIPLIER_FLOOR:.1f}x; "
        f"dict API {inprocess:,.0f} q/s); "
        f"worker p99 {worker_p99 * 1e6:.0f}us "
        f"(shed {report['totals']['shed']}); "
        f"tracing on {max(traced_rates):,.0f} q/s vs off "
        f"{max(untraced_rates):,.0f} q/s "
        f"({overhead_ratio:.3f}x, floor {TRACING_OVERHEAD_FLOOR:.2f}x)"
    )
    assert aggregate >= 2 * SINGLE_PROCESS_RATE_FLOOR, (
        f"{aggregate:,.0f} q/s is under twice the single-process "
        f"floor ({SINGLE_PROCESS_RATE_FLOOR:,})"
    )
    assert multiplier >= AGGREGATE_MULTIPLIER_FLOOR, (
        f"{aggregate:,.0f} q/s is only {multiplier:.2f}x the "
        f"single-process wire baseline {baseline:,.0f} q/s"
    )
    assert worker_p99 < WORKER_P99_CEILING_S, (
        f"worker p99 {worker_p99 * 1e3:.3f}ms >= "
        f"{WORKER_P99_CEILING_S * 1e3:.0f}ms"
    )
    assert overhead_ratio >= TRACING_OVERHEAD_FLOOR, (
        f"tracing costs {(1 - overhead_ratio) * 100:.1f}% aggregate "
        f"throughput (>{(1 - TRACING_OVERHEAD_FLOOR) * 100:.0f}% budget)"
    )
