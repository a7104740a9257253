"""Benchmark: online serving -- query latency and ingest throughput.

The serving layer's reason to exist is answering point queries fast
enough to sit on a request path.  Three floors are pinned at the
shared bench scale (0.005):

1. **Query rate** through the full service path (request dict in,
   response dict out) must exceed ``QUERY_RATE_FLOOR`` per second
   single-process (measured ~40-80k/s on the dev box).
2. **p99 query latency**, measured per request with a monotonic
   clock over a mixed hit/miss/CIDR workload, must stay under
   ``P99_CEILING_S``.
3. **Ingest throughput** of the streaming engine must exceed
   ``INGEST_RATE_FLOOR`` events/second (measured ~60-90k/s), so one
   process can absorb a paper-scale month (5.7B beacons) in
   plausible wall-clock when sharded.
"""

from __future__ import annotations

import time

from repro.cdn.beacon import BeaconConfig, BeaconGenerator
from repro.core.ratios import RatioTable
from repro.net.addr import format_ip
from repro.serve.service import CellSpotService, ServiceConfig
from repro.stream import StreamEngine, WindowPolicy

#: Queries per second the service must sustain single-process.
QUERY_RATE_FLOOR = 10_000
#: Per-query p99 ceiling (seconds).
P99_CEILING_S = 0.001
#: Streaming ingest floor (events/second).
INGEST_RATE_FLOOR = 20_000

QUERY_COUNT = 20_000


def _event_stream(lab):
    config = BeaconConfig(
        month=lab.beacon_config.month, demand_hits=60_000, base_hits=2.0
    )
    return list(BeaconGenerator(lab.world, config).iter_hits())


def _drained_service(hits) -> CellSpotService:
    engine = StreamEngine(policy=WindowPolicy(window_events=8192))
    service = CellSpotService(engine=engine, config=ServiceConfig())
    service.drain(iter(hits))
    service.index()  # compile before timing: rebuilds are not queries
    return service


def _query_mix(ratios: RatioTable, count: int):
    """Hits, misses, and covering-CIDR queries in a fixed rotation."""
    subnets = [record.subnet for record in ratios]
    queries = []
    index = 0
    while len(queries) < count:
        subnet = subnets[index % len(subnets)]
        kind = index % 4
        if kind == 0:  # address inside a known subnet
            queries.append(format_ip(subnet.family, subnet.value + 7))
        elif kind == 1:  # exact stored prefix
            queries.append(str(subnet))
        elif kind == 2:  # miss: documentation space is never generated
            queries.append(f"203.0.113.{index % 256}")
        else:  # more-specific block inside a stored prefix
            length = 25 if subnet.family == 4 else 49
            queries.append(
                f"{format_ip(subnet.family, subnet.value)}/{length}"
            )
        index += 1
    return queries


def test_query_latency_and_rate(lab):
    hits = _event_stream(lab)
    service = _drained_service(hits)
    queries = _query_mix(service.engine.ratio_table(), QUERY_COUNT)
    requests = [{"op": "query", "q": text} for text in queries]

    for request in requests[:200]:  # warm-up
        service.handle_request(request)

    latencies = []
    started = time.perf_counter()
    for request in requests:
        t0 = time.perf_counter()
        response = service.handle_request(request)
        latencies.append(time.perf_counter() - t0)
        assert response["ok"]
    elapsed = time.perf_counter() - started

    rate = len(requests) / elapsed
    latencies.sort()
    p50 = latencies[len(latencies) // 2]
    p99 = latencies[int(len(latencies) * 0.99)]
    matched = service.metrics.get("queries_total").value
    print(
        f"\n{len(requests):,} queries over {len(service.index()):,} "
        f"index entries in {elapsed:.2f}s: {rate:,.0f} q/s, "
        f"p50 {p50 * 1e6:.0f}us, p99 {p99 * 1e6:.0f}us "
        f"({matched:,} answered)"
    )
    assert rate >= QUERY_RATE_FLOOR, (
        f"{rate:,.0f} q/s is below the {QUERY_RATE_FLOOR:,} floor"
    )
    assert p99 < P99_CEILING_S, f"p99 {p99 * 1e3:.2f}ms >= 1ms"


def test_batch_query_api_amortizes_dispatch(lab):
    hits = _event_stream(lab)
    service = _drained_service(hits)
    queries = _query_mix(service.engine.ratio_table(), QUERY_COUNT)

    started = time.perf_counter()
    response = service.handle_request({"op": "query", "qs": queries})
    elapsed = time.perf_counter() - started
    assert response["ok"] and len(response["results"]) == len(queries)
    rate = len(queries) / elapsed
    print(f"\nbatch API: {rate:,.0f} q/s")
    assert rate >= QUERY_RATE_FLOOR


def test_ingest_throughput(lab):
    hits = _event_stream(lab)
    best = float("inf")
    for _ in range(3):
        engine = StreamEngine(policy=WindowPolicy(window_events=8192))
        started = time.perf_counter()
        engine.ingest_many(hits)
        best = min(best, time.perf_counter() - started)
        assert engine.events_consumed == len(hits)
    rate = len(hits) / best
    print(
        f"\ningested {len(hits):,} events in {best:.2f}s "
        f"({rate:,.0f} events/s, {engine.subnet_count():,} subnets)"
    )
    assert rate >= INGEST_RATE_FLOOR, (
        f"{rate:,.0f} events/s is below the {INGEST_RATE_FLOOR:,} floor"
    )
