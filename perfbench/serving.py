"""The serving workload: ``cellspot serve-scale --workers 2`` as a
subprocess, driven by this single-process asyncio load generator.

Each run starts the plane several times.  Every plane's builder ingests
the same seeded hit JSONL and publishes a generation per window while
the open loop sends queries at a fixed offered rate (writes beside
reads); the open loop then goes on read-only for a while, and a
closed loop over the finished generation measures read capacity.

Queries follow ``heavy_tail_queries`` (demand-weighted, the CGN
concentration shape) in batches of 32 per request, as cniCloud batches
lookups.  Both loops use two connections: the closed loop is the
program's own ``run_loadgen``, which sends a connection's next request
when its last is answered; the open loop (the program has no fixed-rate
generator) pipelines requests on a fixed schedule and times each one
from when it was due.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional

from common import (
    ROOT,
    Run,
    TreeRss,
    lookup_probe,
    median,
    now,
    percentile,
    process_tree,
    timed,
)

SERVE_SCALE, TINY_SCALE = 0.005, 0.001
#: ~114k hit events at scale 0.005 (about 11k at the tiny scale), of
#: which the first ``HIT_EVENTS`` are served: the ingest job has the same
#: size whatever the seed.
HIT_CONFIG = {"demand_hits": 60_000, "base_hits": 2.0}
TINY_HIT_CONFIG = {"demand_hits": 6_000, "base_hits": 2.0}
HIT_EVENTS, TINY_HIT_EVENTS = 100_000, 8_000
BATCH = 32
CONNECTIONS = 2
#: Fixed offered rate, below half the closed-loop capacity measured on a
#: 2-core host, so the open loop measures latency and not a backlog.
RATE_QPS = 8_000
TINY_RATE_QPS = 2_000
#: Closed-loop capacity phase per plane: a fixed amount of work, sent as
#: ``CLOSED_CHUNKS`` back-to-back loops; the median chunk rate over all
#: planes is the capacity.
CLOSED_QUERIES = 48_000
TINY_CLOSED_QUERIES = 3_200
CLOSED_CHUNKS = 4
#: Planes per run, each ingesting the whole file; ``setup_s``, memory and
#: the latency tail are their median, times and the p50 the best plane's.
PLANES = 3
#: The builder publishes one generation per window.
INGEST_WINDOWS = 10
#: Read-only open loop per plane once every worker serves the final
#: generation (``--seconds`` split over the planes, at least this).
MIN_READ_ONLY_S = 1.0
#: Every Nth request's reply is checked against in-process lookups.
SAMPLE_EVERY = 25
READY_TIMEOUT_S = 120.0
#: Front deadline: long enough that a worker stalled by a snapshot swap
#: shows as latency in serve-ingest instead of as an ``overloaded`` shed.
DEADLINE_S = 2.0
#: Open-loop requests later than this behind schedule flag the run.
LATE_FLAG_MS = 20.0


# ---- the plane subprocess -------------------------------------------------


def _request(path: Path, payload: Dict, timeout: float = 10.0) -> Dict:
    """One control op over a fresh connection."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.settimeout(timeout)
        conn.connect(str(path))
        conn.sendall(json.dumps(payload).encode() + b"\n")
        buffer = b""
        while not buffer.endswith(b"\n"):
            chunk = conn.recv(1 << 20)
            if not chunk:
                raise ConnectionError("plane closed the control connection")
            buffer += chunk
    return json.loads(buffer)


class Plane:
    """One ``serve-scale`` process tree, started and stopped by us."""

    def __init__(self, home: Path, catalog: Path, extra: List[str]) -> None:
        home.mkdir(parents=True, exist_ok=True)
        self.home = home
        self.catalog = catalog
        self.socket = home / "p.sock"
        self.extra = extra
        self.proc: Optional[subprocess.Popen] = None
        self.started = 0.0

    def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        self.log = open(self.home / "plane.log", "wb")
        self.started, self.started_wall = now(), time.time()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve-scale",
                "--snapshot-dir", str(self.catalog),
                "--socket", str(self.socket),
                "--workers", str(CONNECTIONS),
                "--deadline", str(DEADLINE_S),
                *self.extra,
            ],
            stdout=self.log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
        )

    def wait_ready(self) -> float:
        """Seconds from process start until ``ping`` reports 2 workers."""
        deadline = now() + READY_TIMEOUT_S
        while now() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"serve-scale exited {self.proc.returncode}; "
                    f"see {self.home / 'plane.log'}"
                )
            try:
                if _request(self.socket, {"op": "ping"}).get("workers") == CONNECTIONS:
                    return now() - self.started
            except (OSError, ValueError):
                pass
            time.sleep(0.01)
        raise TimeoutError("serve-scale never reported its workers")

    def stats(self) -> Dict:
        return _request(self.socket, {"op": "stats"})

    def stop(self) -> None:
        """SIGTERM the front (it stops respawning), then its children,
        and wait until every process of the tree has ended."""
        if self.proc is None:
            return
        tree = process_tree(self.proc.pid)
        self.proc.send_signal(signal.SIGTERM)
        time.sleep(0.05)
        for pid in tree[1:]:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        deadline = now() + 10
        for pid in tree[1:]:
            while os.path.exists(f"/proc/{pid}") and now() < deadline:
                time.sleep(0.01)
            if os.path.exists(f"/proc/{pid}"):
                os.kill(pid, signal.SIGKILL)
        self.log.close()
        self.proc = None


# ---- load generation ------------------------------------------------------


class Load:
    """Counts and samples from one load phase."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.late: List[float] = []
        self.queries = 0
        self.shed = 0
        self.errors = 0
        self.samples: List = []  # (sent_at, queries, raw reply)

    def reply(self, index: int, sent_at: float, chunk, raw: bytes) -> None:
        self.queries += len(chunk)
        if not raw:
            self.errors += len(chunk)
        elif b'"overloaded"' in raw:
            self.shed += len(chunk)
        elif not raw.startswith(b'{"ok":true'):
            self.errors += len(chunk)
        elif index % SAMPLE_EVERY == 0:
            self.samples.append((sent_at, chunk, raw))


def _connect(path: Path):
    return asyncio.open_unix_connection(str(path), limit=1 << 22)


async def open_loop(path: Path, requests, rate_qps: float, seconds: float,
                    until=None) -> Load:
    """Requests sent on a fixed schedule, round-robin over the
    connections, pipelined; latency counts from each due time.  Sending
    stops after ``seconds`` once ``until()`` (if given) is true.

    ``requests`` holds ``(queries, encoded line)`` pairs, encoded ahead
    of time so the generator spends its CPU on keeping to the schedule.
    """
    load = Load()
    interval = BATCH / rate_qps
    conns = [await _connect(path) for _ in range(CONNECTIONS)]
    inflight = [asyncio.Queue() for _ in conns]

    async def receive(slot: int) -> None:
        reader = conns[slot][0]
        while True:
            item = await inflight[slot].get()
            if item is None:
                return
            index, due, chunk = item
            raw = await reader.readline()
            load.latencies.append(now() - due)
            load.reply(index, due, chunk, raw)

    receivers = [asyncio.create_task(receive(slot)) for slot in range(len(conns))]
    started = now()
    index = 0
    while True:
        due = started + index * interval
        if due - started >= seconds and (until is None or until()):
            break
        delay = due - now()
        if delay > 0:
            await asyncio.sleep(delay)
        load.late.append(max(0.0, now() - due))
        chunk, line = requests[index % len(requests)]
        slot = index % len(conns)
        conns[slot][1].write(line)
        inflight[slot].put_nowait((index, due, chunk))
        index += 1
    for queue in inflight:
        queue.put_nowait(None)
    await asyncio.wait_for(asyncio.gather(*receivers), 60.0)
    for _reader, writer in conns:
        writer.close()
    load.elapsed = now() - started
    return load


# ---- shared steps ---------------------------------------------------------


def _hits(run: Run):
    from repro.cdn.beacon import BeaconConfig, BeaconGenerator
    from repro.lab import Lab

    # The plane's input, made by the benchmark: ``input.*`` spans.
    with run.layer("input.world"):
        world_s, lab = timed(
            Lab.create, scale=TINY_SCALE if run.tiny else SERVE_SCALE,
            seed=run.seed,
        )
    config = BeaconConfig(**(TINY_HIT_CONFIG if run.tiny else HIT_CONFIG))
    with run.layer("input.hits"):
        beacons_s, hits = timed(
            lambda: list(BeaconGenerator(lab.world, config).iter_hits())
        )
    hits = hits[:TINY_HIT_EVENTS if run.tiny else HIT_EVENTS]
    run.detail("world.build_s", world_s)
    run.detail("cdn.beacons_s", beacons_s)
    return hits


def _requests(records, count: int, seed: int):
    """``count`` heavy-tailed queries as ``(queries, line)`` requests."""
    from repro.scale.loadgen import heavy_tail_queries

    queries = heavy_tail_queries(records, count, seed=seed)
    chunks = [queries[i:i + BATCH] for i in range(0, len(queries), BATCH)]
    return [
        (chunk, json.dumps({"op": "query", "qs": chunk},
                           separators=(",", ":")).encode() + b"\n")
        for chunk in chunks
    ]


def _probe_queries(requests):
    return [query for chunk, _line in requests[:600] for query in chunk]


def _check_samples(run: Run, load: Load, index, after: float = 0.0) -> int:
    """Sampled socket answers must equal in-process lookups."""
    checked = 0
    for sent_at, chunk, raw in load.samples:
        if sent_at < after:
            continue
        expected = json.loads(json.dumps(
            [index.query(text).to_dict() for text in chunk]
        ))
        run.check(json.loads(raw).get("results") == expected,
                  f"socket answers differ from in-process lookups for {chunk[:2]}")
        checked += 1
    run.check(checked > 0, "no sampled answers to check")
    return checked


def _account(run: Run, opened: Load, closed, stats: Dict) -> None:
    plane = stats["plane"]
    run.attempted += opened.queries
    run.failed += opened.shed + opened.errors
    for report in closed:
        totals = report["totals"]
        run.attempted += totals["queries"]
        run.failed += totals["shed"] + totals["errors"]
    run.attempted += 1  # the stats op itself
    run.failed += int(plane["worker_deaths"] + plane["worker_respawns"]
                      + plane["stats_timeouts"])
    run.check(len(stats["workers"]) == CONNECTIONS,
              f"stats reached {len(stats['workers'])} workers")


def _open_loop_details(run: Run, loads, stats: Dict) -> None:
    late_p99 = percentile([late for load in loads for late in load.late], 0.99) * 1e3
    run.detail("loadgen.late_ms_p99", late_p99)
    if late_p99 > LATE_FLAG_MS:
        run.notes.append(
            f"FLAG: load generator ran {late_p99:.1f} ms behind schedule (p99)"
        )
    latency = stats["query_latency"]
    if latency.get("count"):
        run.detail("scale.worker_query_us_p50", latency["p50"] * 1e6)
        run.detail("scale.worker_query_us_p99", latency["p99"] * 1e6)
    plane = stats["plane"]
    run.detail("scale.shed", plane["shed"])
    run.detail("scale.worker_deaths", plane["worker_deaths"])


def _plane_memory(run: Run, obs_dir: Path) -> None:
    """The plane's own resource telemetry: each exporting process's peak
    RSS (``process_rss_peak_bytes``, as ``rss.<process>_mb``) and its
    per-stage watermarks (``rss_peak_bytes{stage}``, as
    ``rss.<stage>_mb``).  The front exports with ``--timeseries-dir``,
    each worker with ``--obs-dir``; the builder exports none."""
    from repro.obs.timeseries import TimeSeriesReader, split_metric_tag

    for directory in sorted(obs_dir.iterdir()):
        if not directory.is_dir():
            continue
        reader = TimeSeriesReader(directory)
        for name in reader.metric_names():
            base, labels = split_metric_tag(name)
            if "worker" in labels:  # the front's copy of a worker series
                continue
            if base == "process_rss_peak_bytes":
                key = directory.name
            elif base == "rss_peak_bytes" and "stage" in labels:
                key = labels["stage"]
            else:
                continue
            point = reader.latest(name)
            run.detail(f"rss.{key}_mb", max(
                run.details.get(f"rss.{key}_mb", 0.0), point[1] / 2**20
            ))


def _plane_spans(run: Run, obs_dir: Path, client_p50_s: float) -> None:
    """Front, worker and builder span logs joined with our own spans."""
    from repro.obs.trace import read_span_log

    records = []
    for directory in sorted(obs_dir.iterdir()):
        if directory.is_dir():
            records.extend(read_span_log(directory))
    spans = [
        SimpleNamespace(
            name=r["name"], span_id=r["sid"], parent_id=r.get("pid"),
            started=r["mono"], duration=r["dur"],
        )
        for r in records
    ]
    worker = [s.duration for s in spans if s.name == "worker.request"]
    if worker:
        run.detail("scale.front_overhead_ms", (client_p50_s - median(worker)) * 1e3)
    publishes = [s.duration for s in spans if s.name == "builder.publish"]
    if publishes:
        from repro.obs.timeseries import TimeSeriesReader

        run.detail("scale.publish_s", median(publishes))
        run.detail("scale.generations", len(publishes))
        swaps = [
            TimeSeriesReader(directory).latest("scale_worker_swaps_total")
            for directory in obs_dir.glob("worker-*") if directory.is_dir()
        ]
        run.detail("scale.worker_swaps", sum(point[1] for point in swaps if point))
    run.extra_spans = spans


# ---- serve-ingest ---------------------------------------------------------


def _drain_file(run: Run, path: Path, window_events: int):
    """In-process reference: ``jsonl_events`` + ``StreamEngine`` over the
    file the builder ingests, plus the share of that time spent reading
    and decoding (``jsonl_events`` alone, each hit dropped as it comes,
    as ``ingest_many`` drops it)."""
    from repro.stream import StreamEngine, WindowPolicy
    from repro.stream.sources import jsonl_events

    def drain():
        engine = StreamEngine(policy=WindowPolicy(window_events=window_events, decay=1.0))
        with open(path) as handle, run.layer("probe.stream_ingest"):
            seconds, events = timed(engine.ingest_many, jsonl_events(handle))
        return seconds, events, engine

    def decode() -> float:
        with open(path) as handle, run.layer("probe.stream_decode"):
            return timed(deque, jsonl_events(handle), maxlen=0)[0]

    ingest_s, events, engine = drain()
    if run.trace:
        # The faster of two passes of each keeps the share from reading
        # the host's noise.
        decode_s = min(decode(), decode())
        ingest_s = min(ingest_s, drain()[0])
        run.detail("stream.decode_share", decode_s / ingest_s)
    run.detail("stream.ingest_events_per_s", events / ingest_s)
    return engine.ratio_table(1)


def _rows(table):
    return sorted(
        (str(r.subnet), r.asn, r.country, r.api_hits, r.cellular_hits, r.hits)
        for r in table.records()
    )


def _plane(run: Run, name: str, events: Path, window: int, total: int,
           requests, closed_queries, traced: bool = False):
    """One plane: ready, open loop through ingest and a read-only stretch,
    closed loop over the final generation, stop."""
    from repro.columnar.mmaptable import open_mmap
    from repro.scale.loadgen import run_loadgen
    from repro.scale.snapshot import CatalogError, SnapshotCatalog

    home = run.dir / name
    extra = ["--events", str(events), "--window-events", str(window)]
    if traced:
        # Span logs of every process; the front's metrics beside its
        # spans (a store's metric and span segments have their own
        # prefixes, so one directory holds both).
        extra += ["--obs-dir", str(home / "obs"),
                  "--timeseries-dir", str(home / "obs" / "front")]
    plane = Plane(home, home / "catalog", extra)
    catalog = SnapshotCatalog(plane.catalog)
    marks: Dict[str, float] = {}
    read_only_s = max(MIN_READ_ONLY_S, run.seconds / PLANES)

    async def watch() -> None:
        """Final generation in the catalog, then on every worker."""
        deadline = now() + READY_TIMEOUT_S
        final = None
        while final is None:
            if now() > deadline:
                raise TimeoutError("the final generation never appeared")
            try:
                info = catalog.latest(missing_ok=True)
            except CatalogError:
                info = None
            if info is not None and info.meta.get("events") == total:
                final = info.number
                # The pointer's mtime is when the generation landed,
                # even if that was before the plane reported ready.
                mtime = (plane.catalog / "CURRENT").stat().st_mtime
                marks["final"] = plane.started + mtime - plane.started_wall
            else:
                await asyncio.sleep(0.005)
        reader, writer = await _connect(plane.socket)
        while True:
            if now() > deadline:
                raise TimeoutError("workers never served the final generation")
            writer.write(b'{"op":"stats"}\n')
            stats = json.loads(await reader.readline())
            gens = [w.get("generation") for w in stats["workers"]]
            if len(gens) == CONNECTIONS and all(g == final for g in gens):
                marks["fresh"] = now()
                break
            await asyncio.sleep(0.02)
        writer.close()

    async def drive():
        watcher = asyncio.create_task(watch())

        def done() -> bool:
            if not watcher.done():
                return False
            # A failed watcher ends the loop; awaiting it re-raises.
            return watcher.exception() is not None or (
                now() - marks["fresh"] > read_only_s
            )

        opened = await open_loop(
            plane.socket, requests, TINY_RATE_QPS if run.tiny else RATE_QPS, 0.0,
            until=done,
        )
        await watcher
        size = -(-len(closed_queries) // CLOSED_CHUNKS)
        closed = [
            await run_loadgen(
                closed_queries[start:start + size], socket_path=plane.socket,
                concurrency=CONNECTIONS, batch=BATCH, warmup=0,
            )
            for start in range(0, len(closed_queries), size)
        ]
        return opened, closed

    plane.start()
    try:
        ready_s = plane.wait_ready()
        with TreeRss(plane.proc.pid) as rss:
            opened, closed = asyncio.run(drive())
            stats = plane.stats()
        table = open_mmap(catalog.latest().table_path)
        rows = _rows(table)
        table.close()
    finally:
        plane.stop()
    return SimpleNamespace(
        ready_s=ready_s, opened=opened, closed=closed, stats=stats,
        peak_mb=rss.peak_mb, rows=rows,
        ingest_s=marks["final"] - plane.started,
        fresh_s=marks["fresh"] - plane.started,
        freshness_s=marks["fresh"] - marks["final"],
        fresh_at=marks["fresh"],
        read_rates=[report["throughput_queries_per_s"] for report in closed],
    )


def serve_ingest(run: Run) -> None:
    run.own_spans += ("input.",)
    if run.trace:
        # The job runs in the plane's processes, which export their own
        # memory; this process's watermarks would be the benchmark's.
        run.start_tracing(watermarks=False)
    hits = _hits(run)
    window = -(-len(hits) // INGEST_WINDOWS)
    events = run.dir / "events.jsonl"
    with open(events, "w") as handle:
        for hit in hits:
            handle.write(hit.to_json() + "\n")
    expected = _drain_file(run, events, window)
    closed_count = TINY_CLOSED_QUERIES if run.tiny else CLOSED_QUERIES
    requests = _requests(expected.records(), 4096 * BATCH + closed_count, run.seed)
    closed_queries = [q for chunk, _line in requests[4096:] for q in chunk]
    requests = requests[:4096]
    index = lookup_probe(run, expected, _probe_queries(requests))

    planes = [
        _plane(run, f"plane-{n}", events, window, len(hits), requests, closed_queries)
        for n in range(PLANES)
    ]
    for got in planes:
        _account(run, got.opened, got.closed, got.stats)
        run.check(got.rows == _rows(expected),
                  "final generation differs from the in-process stream drain")
        _check_samples(run, got.opened, index, after=got.fresh_at)

    def mid(field):
        return median([getattr(got, field) for got in planes])

    def best(field, pick=min):
        return pick(getattr(got, field) for got in planes)

    # The ingest time and the p50 are the best plane's: the host's
    # slowdowns only ever make them worse.  Set-up, memory, the mean and
    # the p99 are the median plane's; capacity is the median chunk.
    p50 = min(percentile(got.opened.latencies, 0.5) for got in planes)
    p99 = median([percentile(got.opened.latencies, 0.99) for got in planes])
    mean = median([statistics.fmean(got.opened.latencies) for got in planes])
    read_qps = median([rate for got in planes for rate in got.read_rates])
    run.metrics.update(
        setup_s=mid("ready_s"), peak_rss_mb=mid("peak_mb"),
        op_p50_ms=p50 * 1e3, ops_per_s=read_qps,
    )
    run.detail("setup_s", mid("ready_s"))
    run.detail("peak_rss_mb", mid("peak_mb"))
    run.detail("read_qps", read_qps)
    run.detail("query_mean_ms", mean * 1e3)
    run.detail("query_p50_ms", p50 * 1e3)
    run.detail("query_p99_ms", p99 * 1e3)
    run.detail("ingest_events_per_s", len(hits) / best("ingest_s"))
    run.detail("freshness_s", best("freshness_s"))
    _open_loop_details(run, [got.opened for got in planes], planes[-1].stats)
    run.notes.append("closed-loop chunk q/s: " + " ".join(
        f"{rate:.0f}" for got in planes for rate in got.read_rates
    ))

    if run.trace:
        traced = _plane(run, "plane-traced", events, window, len(hits),
                        requests, closed_queries, traced=True)
        run.detail("trace.overhead_ratio", traced.ingest_s / best("ingest_s"))
        _open_loop_details(run, [traced.opened], traced.stats)
        obs_dir = run.dir / "plane-traced" / "obs"
        _plane_spans(run, obs_dir, percentile(traced.opened.latencies, 0.5))
        _plane_memory(run, obs_dir)
