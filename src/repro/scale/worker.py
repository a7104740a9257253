"""Worker process: immutable-index query serving over one socket.

Each worker owns nothing but an :class:`~repro.scale.snapshot.IndexHolder`
and a single ``AF_UNIX`` connection to the front.  The protocol is the
front's own line-delimited JSON (:mod:`repro.serve.protocol`, whose
query reply ``cellspot serve`` builds too), one request in flight at a
time (the front dispatches at most one request per worker connection),
so no request-id framing is needed: every request line is answered by
exactly one response line, in order.

Between requests -- and whenever the connection is idle past the poll
interval -- the worker polls the snapshot catalog and swaps to a newly
published generation.  The swap is the :class:`IndexHolder` build-then-
assign dance, so queries racing a swap are answered from the old index
or the new one, never a partial build.

With an observability directory (the plane's ``--obs-dir``) each
worker additionally runs its own telemetry spine (:class:`WorkerObs`):
per-request child spans (decode / LPM / enrich) under the front's
``trace_id`` into a bounded ``spans-`` segment ring, its local metric
registry exported on the scraper cadence into worker-tagged
time-series segments, and a crash flight recorder -- an mmap ring of
the last N request lines that survives ``SIGKILL``
(:mod:`repro.obs.flight`).  All of it is strictly additive: the
response bytes are built from the parsed request alone (the front's
``_trace`` envelope is popped first), so traced answers stay
byte-identical to untraced ones.

The worker exits when the front closes the connection (graceful drain)
or disappears (EOF): workers never outlive their plane.
"""

from __future__ import annotations

import os
import socket
import time
from pathlib import Path
from typing import Dict, Optional, Union

from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry
from repro.runtime.faults import fault_point, mark_worker_process
from repro.scale.snapshot import IndexHolder, SnapshotCatalog
from repro.serve import protocol

#: How long a freshly spawned worker waits for the front to connect.
ACCEPT_TIMEOUT_S = 30.0
#: Catalog poll cadence: while idle (seconds) and while busy (every N
#: requests).
POLL_INTERVAL_S = 0.05
REFRESH_EVERY = 256


def worker_metrics(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """The worker-local metric set (merged by the front on ``stats``)."""
    registry = registry or MetricsRegistry()
    registry.counter(
        "scale_worker_requests_total",
        "requests answered by this worker",
        exist_ok=True,
    )
    registry.counter(
        "scale_worker_queries_total",
        "individual queries answered by this worker",
        exist_ok=True,
    )
    registry.counter(
        "scale_worker_swaps_total",
        "generation swaps performed by this worker",
        exist_ok=True,
    )
    registry.gauge(
        "scale_worker_generation",
        "snapshot generation this worker serves",
        exist_ok=True,
    )
    registry.histogram(
        "scale_worker_query_latency_seconds",
        "per-query index lookup latency",
        bounds=DEFAULT_LATENCY_BUCKETS,
        exist_ok=True,
    )
    return registry


class WorkerObs:
    """One worker's distributed-telemetry bundle (span log, metric
    export, flight recorder) rooted under the plane's obs directory.

    Layout: spans and metric segments share ``<obs>/worker-<slot>/``
    (distinct ring prefixes); the flight ring is the sibling file
    ``<obs>/worker-<slot>.fr`` so the front can harvest it after the
    worker process is gone.
    """

    def __init__(
        self,
        obs_dir: Union[str, Path],
        slot: int,
        trace_id: str,
        registry: MetricsRegistry,
        scrape_interval_s: float = 0.5,
        flight_records: int = 128,
    ) -> None:
        from repro.obs.flight import FlightRecorder
        from repro.obs.resources import ResourceSampler
        from repro.obs.timeseries import MetricScraper, TimeSeriesStore
        from repro.obs.trace import SpanLog

        root = Path(obs_dir)
        name = f"worker-{slot}"
        self.slot = slot
        self.trace_id = trace_id
        self.spans = SpanLog(root / name, source=name)
        self.flight = FlightRecorder(
            root / f"{name}.fr", slots=flight_records
        )
        self.scraper = MetricScraper(
            TimeSeriesStore(root / name),
            registry=registry,
            interval_s=scrape_interval_s,
            source=name,
        )
        # Worker-side resource telemetry: every exported sample carries
        # this process's RSS/CPU/GC/fd readings, so the front's
        # federation enricher surfaces them as
        # ``process_rss_bytes{worker="<slot>"}`` and the rss-growth
        # rule can page on the one leaking worker.
        self.resources = ResourceSampler(registry=registry)
        self.resources.attach(self.scraper)

    def start(self) -> None:
        self.scraper.start()

    def stop(self) -> None:
        try:
            self.scraper.stop(final_scrape=True)
        except Exception:  # noqa: BLE001 -- teardown best effort
            pass
        try:
            self.resources.uninstall()
        except Exception:  # noqa: BLE001 -- teardown best effort
            pass
        self.flight.close()


class QueryWorker:
    """The request handler behind :func:`worker_main` (testable inline)."""

    def __init__(
        self,
        catalog: SnapshotCatalog,
        threshold: float,
        min_api_hits: int,
        refresh_every: int = 512,
        slot: int = 0,
        obs: Optional[WorkerObs] = None,
        slow_query_s: float = 0.0,
    ) -> None:
        self.holder = IndexHolder(
            catalog, threshold=threshold, min_api_hits=min_api_hits
        )
        self.refresh_every = max(1, refresh_every)
        self.metrics = worker_metrics()
        self.requests = 0
        self.slot = slot
        self.obs = obs
        #: Drill knob: sleep this long inside every timed lookup, so a
        #: deliberately sick replica shows up in its own latency
        #: histogram (the ``worker-latency-skew`` rule's food).
        self.slow_query_s = slow_query_s

    def maybe_refresh(self, force: bool = False) -> bool:
        if not force and self.requests % self.refresh_every:
            return False
        swapped = self.holder.poll()
        if swapped:
            self.metrics.get("scale_worker_swaps_total").inc()
            self.metrics.get("scale_worker_generation").set(
                float(self.holder.generation)
            )
        return swapped

    def handle_request(
        self, request: Dict, timings: Optional[Dict] = None
    ) -> bytes:
        """Answer one decoded request with its reply line; never raises."""
        try:
            fault_point("scale.worker", index=self.requests)
            self.requests += 1
            self.metrics.get("scale_worker_requests_total").inc()
            self.maybe_refresh()
            op = request.get("op")
            if op == "query":
                return self._handle_query(request, timings)
            if op == "stats":
                return protocol.dumps(self.stats())
            if op == "ping":
                return protocol.dumps(
                    {"ok": True, "pong": True, "pid": os.getpid()}
                )
            if op == "refresh":
                self.maybe_refresh(force=True)
                return protocol.dumps(
                    {"ok": True, "generation": self.holder.generation}
                )
            raise protocol.BadRequest(f"unknown op {op!r}")
        except protocol.BadRequest as exc:
            return protocol.error(str(exc))
        except Exception as exc:  # noqa: BLE001 -- the loop must survive
            return protocol.error(f"{type(exc).__name__}: {exc}")

    def _handle_query(
        self, request: Dict, timings: Optional[Dict] = None
    ) -> bytes:
        queries = protocol.query_items(request)
        active = self.holder.current()
        if active is None:
            self.maybe_refresh(force=True)
            active = self.holder.current()
        if active is None:
            return protocol.error("no snapshot generation published yet")
        encode = active[2].encode
        latency = self.metrics.get("scale_worker_query_latency_seconds")
        counter = self.metrics.get("scale_worker_queries_total")
        slow = self.slow_query_s

        def answer(text) -> str:
            started = time.perf_counter()
            if slow:
                time.sleep(slow)
            encoded = encode(str(text))
            latency.observe(time.perf_counter() - started)
            return encoded

        if timings is not None:
            # Tracing must cost nothing per query: the LPM total for
            # this line is the latency histogram's sum delta (the
            # untraced path already feeds it), and the remainder of the
            # batch wall time is enrichment.  Same closure either way,
            # so tracing-on answers cannot drift.
            lpm_before = latency.total
            batch_started = time.perf_counter()

        reply = protocol.query_reply(answer, queries, request.get("q"))
        answered = 1 if queries is None else len(queries)
        counter.inc(answered)

        if timings is not None:
            batch_elapsed = time.perf_counter() - batch_started
            lpm = latency.total - lpm_before
            timings["lpm"] = lpm
            timings["enrich"] = max(0.0, batch_elapsed - lpm)
            timings["queries"] = answered
        return reply

    def stats(self) -> Dict:
        active = self.holder.current()
        return {
            "ok": True,
            "worker": {
                "pid": os.getpid(),
                "generation": self.holder.generation,
                "index_entries": len(active[2]) if active is not None else 0,
                "requests": self.requests,
                "queries": self.metrics.get(
                    "scale_worker_queries_total"
                ).value,
            },
            "metrics": self.metrics.as_dict(),
        }

    def handle_line(self, line: bytes) -> bytes:
        decode_started = time.perf_counter()
        try:
            request = protocol.decode(line)
        except protocol.BadRequest as exc:
            return protocol.error(str(exc))
        # The front's trace envelope never reaches handle_request: the
        # response is built from the remaining fields alone, keeping
        # traced answers byte-identical to untraced ones.
        trace = request.pop("_trace", None)
        obs = self.obs
        if obs is None:
            return self.handle_request(request)
        decoded = time.perf_counter()
        generation = self.holder.generation
        rid = trace.get("rid", "") if isinstance(trace, dict) else ""
        token = obs.flight.begin(line, rid, generation)
        timings = {"lpm": 0.0, "enrich": 0.0, "queries": 0}
        response = self.handle_request(request, timings=timings)
        ok = response.startswith(b'{"ok":true')
        obs.flight.end(token, ok=ok)
        self._record_spans(
            trace, request, decode_started, decoded, timings, ok
        )
        return response

    def _record_spans(
        self,
        trace: Optional[Dict],
        request: Dict,
        decode_started: float,
        decoded: float,
        timings: Dict,
        ok: bool,
    ) -> None:
        """Persist this request's span tree (never raises into serving)."""
        obs = self.obs
        trace = trace if isinstance(trace, dict) else {}
        trace_id = trace.get("tid") or obs.trace_id
        rid = trace.get("rid")
        try:
            ended = time.perf_counter()
            # Build the whole tree, then persist it in ONE segment
            # write: per-span file opens were the dominant tracing cost
            # on the serving hot path.
            parent = obs.spans.build(
                "worker.request",
                trace_id,
                started=decode_started,
                duration=ended - decode_started,
                parent_id=trace.get("psid"),
                request_id=rid,
                slot=self.slot,
                generation=self.holder.generation,
                op=request.get("op"),
                ok=ok,
            )
            tree = [
                parent,
                obs.spans.build(
                    "worker.decode",
                    trace_id,
                    started=decode_started,
                    duration=decoded - decode_started,
                    parent_id=parent["sid"],
                    request_id=rid,
                ),
            ]
            if timings["queries"]:
                # Aggregate children: total LPM lookup time, then total
                # result enrichment, across the line's queries.
                tree.append(
                    obs.spans.build(
                        "worker.lpm",
                        trace_id,
                        started=decoded,
                        duration=timings["lpm"],
                        parent_id=parent["sid"],
                        request_id=rid,
                        queries=timings["queries"],
                    )
                )
                tree.append(
                    obs.spans.build(
                        "worker.enrich",
                        trace_id,
                        started=decoded + timings["lpm"],
                        duration=timings["enrich"],
                        parent_id=parent["sid"],
                        request_id=rid,
                        queries=timings["queries"],
                    )
                )
            obs.spans.write(tree)
        except Exception:  # noqa: BLE001 -- telemetry must not fail requests
            pass


def worker_main(
    socket_path: str,
    catalog_dir: str,
    threshold: float,
    min_api_hits: int,
    startup_timeout_s: float = 60.0,
    slot: int = 0,
    obs_dir: Optional[str] = None,
    trace_id: Optional[str] = None,
    obs_scrape_interval_s: float = 0.5,
    flight_records: int = 128,
    slow_query_s: float = 0.0,
) -> None:
    """Process entry point: serve one front connection until EOF."""
    mark_worker_process()
    catalog = SnapshotCatalog(catalog_dir)
    worker = QueryWorker(
        catalog,
        threshold=threshold,
        min_api_hits=min_api_hits,
        refresh_every=REFRESH_EVERY,
        slot=slot,
        slow_query_s=slow_query_s,
    )
    obs: Optional[WorkerObs] = None
    if obs_dir is not None:
        obs = WorkerObs(
            obs_dir,
            slot=slot,
            trace_id=trace_id or "",
            registry=worker.metrics,
            scrape_interval_s=obs_scrape_interval_s,
            flight_records=flight_records,
        )
        worker.obs = obs
        obs.start()
    # Map the first generation before accepting traffic so the very
    # first query is already answered from a complete index.
    try:
        catalog.wait_for_generation(timeout_s=startup_timeout_s)
        worker.maybe_refresh(force=True)
    except TimeoutError:
        pass  # serve "no generation" errors rather than dying silently

    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        listener.bind(socket_path)
        listener.listen(1)
        listener.settimeout(ACCEPT_TIMEOUT_S)
        try:
            connection, _addr = listener.accept()
        except socket.timeout:
            return  # front never came; exit quietly
        with connection:
            connection.settimeout(POLL_INTERVAL_S)
            buffer = b""
            while True:
                newline = buffer.find(b"\n")
                if newline >= 0:
                    line, buffer = buffer[:newline], buffer[newline + 1:]
                    if line.strip():
                        connection.sendall(worker.handle_line(line))
                    continue
                try:
                    chunk = connection.recv(65536)
                except socket.timeout:
                    worker.maybe_refresh(force=True)
                    continue
                if not chunk:
                    return  # front closed: drain complete
                buffer += chunk
    finally:
        if obs is not None:
            obs.stop()
        listener.close()
        try:
            os.unlink(socket_path)
        except OSError:
            pass
