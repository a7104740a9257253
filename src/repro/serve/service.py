"""The online cell-spotting service.

:class:`CellSpotService` wires a :class:`~repro.stream.StreamEngine`
to a :class:`~repro.serve.index.ClassificationIndex` behind a
line-delimited JSON request/response protocol, served over
stdin/stdout or a local ``AF_UNIX`` socket.

Protocol (one JSON object per line)::

    {"op": "query",   "q": "192.0.2.17"}          -> one classification
    {"op": "query",   "qs": ["192.0.2.17", ...]}  -> batch answers
    {"op": "stats"}                                -> metrics + engine state
    {"op": "health"}                               -> engine + drift + alerts
    {"op": "alerts"}                               -> alert rule states
    {"op": "refresh"}                              -> force index rebuild
    {"op": "snapshot"}                             -> force a state snapshot
    {"op": "shutdown"}                             -> snapshot, ack, stop

Every response carries ``{"ok": true|false}``; malformed requests are
answered (never crash the loop) and counted in
``query_errors_total``.

**Freshness model.**  The LPM index is a compiled artifact; rebuilding
it per event would melt the ingest path.  It is rebuilt when a window
closes (configurable stride), on ``refresh``, and lazily on the first
query after new events -- so queries always reflect at worst the
state as of the last completed ingest batch.

**Crash safety.**  Snapshots are written atomically every
``snapshot_every_events`` ingested events and at shutdown; a killed
server restarts from its snapshot and skips exactly the consumed
prefix of the event stream (see
:func:`repro.stream.sources.skip_events`), so no window count is
duplicated or lost.

``SIGUSR1`` dumps the metrics JSON to stderr without disturbing the
request stream (installed by the CLI front end, main thread only).

**Overload and degradation.**  The service degrades explicitly, never
silently:

- *Admission control* -- with ``max_pending`` set, requests beyond the
  bounded queue are shed with ``{"ok": false, "error": "overloaded",
  "overloaded": true}`` (in request order), counted in
  ``requests_shed_total``.
- *Deadlines* -- with ``deadline_s`` set, batch-query items past the
  request's budget are answered ``overloaded`` instead of holding the
  line occupied.
- *Circuit breaker + degraded mode* -- ``breaker_failures``
  consecutive index-rebuild failures open a breaker; while it is open
  (and until ``breaker_reset_s`` allows a probe) queries are answered
  from the last good index with a top-level ``"stale": true`` marker
  and counted in ``degraded_answers_total``.  A successful rebuild
  closes the breaker and clears the marker.
- *Snapshot failures* inside the serve loop degrade (counted in
  ``snapshot_failures_total``) instead of killing the server; only the
  explicit ``snapshot`` op reports them as errors.

:meth:`CellSpotService.request_shutdown` is the SIGTERM hook: the
serve loops finish already-accepted requests, write a final snapshot,
and return cleanly.
"""

from __future__ import annotations

import json
import logging
import queue
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Dict, Iterator, Optional, Union

from repro.cdn.logs import BeaconHit
from repro.core.asn_classifier import ASFilterConfig
from repro.core.classifier import DEFAULT_THRESHOLD
from repro.datasets.demand_dataset import DemandDataset
from repro.runtime.faults import fault_point
from repro.runtime.logging import get_logger, log_event
from repro.serve.index import ClassificationIndex
from repro.serve.metrics import MetricsRegistry, service_metrics
from repro.stream.engine import StreamEngine

_LOG = get_logger("serve.service")


@dataclass(frozen=True)
class ServiceConfig:
    """Serving knobs."""

    threshold: float = DEFAULT_THRESHOLD
    min_api_hits: int = 1
    #: Snapshot every N ingested events (None = only on shutdown).
    snapshot_every_events: Optional[int] = 50_000
    #: Events pulled from the source between requests.
    ingest_batch: int = 5_000
    #: Rebuild the index every N window advances (>=1).
    rebuild_every_windows: int = 1
    #: Admission bound: requests queued beyond this are shed with an
    #: explicit ``overloaded`` response (None = legacy unbounded).
    max_pending: Optional[int] = None
    #: Per-request wall budget; batch items past it are shed (None =
    #: no deadline).
    deadline_s: Optional[float] = None
    #: Consecutive index-rebuild failures that open the breaker.
    breaker_failures: int = 3
    #: Seconds an open breaker waits before allowing a probe rebuild.
    breaker_reset_s: float = 30.0

    def __post_init__(self) -> None:
        if self.snapshot_every_events is not None and (
            self.snapshot_every_events < 1
        ):
            raise ValueError("snapshot_every_events must be >= 1")
        if self.ingest_batch < 1:
            raise ValueError("ingest_batch must be >= 1")
        if self.rebuild_every_windows < 1:
            raise ValueError("rebuild_every_windows must be >= 1")
        if self.max_pending is not None and self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be > 0")
        if self.breaker_failures < 1:
            raise ValueError("breaker_failures must be >= 1")
        if self.breaker_reset_s < 0:
            raise ValueError("breaker_reset_s must be >= 0")


class CircuitBreaker:
    """Consecutive-failure breaker guarding an expensive operation.

    Closed (normal) until ``failures`` consecutive
    :meth:`record_failure` calls open it; while open, :meth:`allow`
    refuses until ``reset_s`` has elapsed, then admits a single probe.
    Any success closes it again.  The clock is injectable so tests can
    step time instead of sleeping.
    """

    def __init__(
        self,
        failures: int = 3,
        reset_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.failures = failures
        self.reset_s = reset_s
        self._clock = clock
        self._consecutive = 0
        self._opened_at: Optional[float] = None

    @property
    def is_open(self) -> bool:
        return self._opened_at is not None

    def allow(self) -> bool:
        """True when the guarded operation may be attempted now."""
        if self._opened_at is None:
            return True
        return self._clock() - self._opened_at >= self.reset_s

    def record_failure(self) -> None:
        self._consecutive += 1
        if self._consecutive >= self.failures:
            self._opened_at = self._clock()

    def record_success(self) -> None:
        self._consecutive = 0
        self._opened_at = None


class CellSpotService:
    """Streaming state + query index + metrics behind one request API."""

    def __init__(
        self,
        engine: StreamEngine,
        demand: Optional[DemandDataset] = None,
        as_classes=None,
        filter_config: Optional[ASFilterConfig] = None,
        config: Optional[ServiceConfig] = None,
        snapshot_path: Optional[Union[str, Path]] = None,
        metrics: Optional[MetricsRegistry] = None,
        alert_engine=None,
        drift_monitor=None,
        ratio_spool_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.engine = engine
        self.demand = demand
        self.as_classes = as_classes
        self.filter_config = filter_config
        self.config = config or ServiceConfig()
        self.snapshot_path = (
            Path(snapshot_path) if snapshot_path is not None else None
        )
        self.metrics = metrics or service_metrics()
        #: Optional :class:`repro.obs.alerts.AlertEngine` (the
        #: ``health`` / ``alerts`` ops surface its rule states).
        self.alert_engine = alert_engine
        #: Optional :class:`repro.obs.health.CensusDriftMonitor`,
        #: attached to the engine's window-close boundary.
        self.drift_monitor = drift_monitor
        if drift_monitor is not None:
            engine.attach_monitor(drift_monitor)
        #: When set, index rebuilds spool the ratio table through an
        #: mmap snapshot (:mod:`repro.scale.snapshot`) and build from
        #: the read-only mapping: the rebuild's working set is shared
        #: pages instead of a second in-heap record copy, and each
        #: published generation doubles as a handoff point for the
        #: horizontal serving plane's workers.
        self._ratio_spool = None
        self._spool_table = None
        if ratio_spool_dir is not None:
            from repro.scale.snapshot import SnapshotCatalog

            self._ratio_spool = SnapshotCatalog(ratio_spool_dir)
        self._index: Optional[ClassificationIndex] = None
        self._index_events = -1  # events_consumed at last build
        self._windows_at_build = -1
        self._events_since_snapshot = 0
        self.shutdown_requested = False
        #: Set by :meth:`request_shutdown` (SIGTERM): serve loops drain
        #: already-accepted requests before snapshotting and exiting.
        self._drain_on_shutdown = False
        #: True while queries are answered stale from the last good
        #: index because rebuilds keep failing (breaker open).
        self.degraded = False
        self._breaker = CircuitBreaker(
            failures=self.config.breaker_failures,
            reset_s=self.config.breaker_reset_s,
        )
        self._requests_handled = 0
        # A resumed engine may already hold consumed events.
        self.metrics.get("tracked_subnets").set(engine.subnet_count())

    def request_shutdown(self) -> None:
        """Ask the serve loop to stop after draining accepted work.

        Signal-handler safe (sets flags only); the loop notices on its
        next tick, answers what was already queued, writes a final
        snapshot, and returns.
        """
        self.shutdown_requested = True
        self._drain_on_shutdown = True

    # ---- ingestion -------------------------------------------------------

    def ingest_from(
        self,
        events: Iterator[BeaconHit],
        max_events: Optional[int] = None,
    ) -> int:
        """Pull up to ``max_events`` (default: one batch) from the source.

        Returns how many events were folded in; 0 means the source is
        (currently) exhausted.
        """
        budget = self.config.ingest_batch if max_events is None else max_events
        fault_point("serve.ingest", index=self.engine.events_consumed)
        ingested = 0
        windows_before = self.engine.windows_advanced
        started = time.perf_counter()
        while ingested < budget:
            try:
                hit = next(events)
            except StopIteration:
                break
            self.engine.ingest(hit)
            ingested += 1
        if ingested:
            elapsed = time.perf_counter() - started
            self.metrics.get("events_ingested_total").inc(ingested)
            self.metrics.get("ingest_batch_seconds").observe(elapsed)
            closed = self.engine.windows_advanced - windows_before
            if closed:
                self.metrics.get("window_advances_total").inc(closed)
            self.metrics.get("tracked_subnets").set(self.engine.subnet_count())
            self.metrics.get("ingest_events_per_s").set(
                self.metrics.rate("events_ingested_total")
            )
            self._events_since_snapshot += ingested
            every = self.config.snapshot_every_events
            if (
                every is not None
                and self.snapshot_path is not None
                and self._events_since_snapshot >= every
            ):
                # A failed periodic snapshot degrades; it must not
                # take ingestion (and with it, serving) down.
                self.write_snapshot(raise_errors=False)
        return ingested

    def drain(self, events: Iterator[BeaconHit]) -> int:
        """Ingest the whole source (one-shot / catch-up mode)."""
        total = 0
        while True:
            pulled = self.ingest_from(events, max_events=self.config.ingest_batch)
            if pulled == 0:
                return total
            total += pulled

    def write_snapshot(self, raise_errors: bool = True) -> Optional[Path]:
        """Persist engine state; ``raise_errors=False`` degrades instead.

        Serve-loop call sites pass ``False``: a full disk must cost
        durability (counted in ``snapshot_failures_total``), not
        availability.  The explicit ``snapshot`` op keeps ``True`` so
        the caller hears about the failure.
        """
        if self.snapshot_path is None:
            return None
        try:
            path = self.engine.save_snapshot(self.snapshot_path)
        except Exception as exc:  # noqa: BLE001 -- policy decided by caller
            if raise_errors:
                raise
            self.metrics.get("snapshot_failures_total").inc()
            log_event(
                _LOG, logging.ERROR, "snapshot.failed",
                error=f"{type(exc).__name__}: {exc}",
            )
            return None
        self.metrics.get("snapshots_written_total").inc()
        self._events_since_snapshot = 0
        return path

    # ---- index management ------------------------------------------------

    def _index_stale(self) -> bool:
        if self._index is None:
            return True
        if self.engine.events_consumed == self._index_events:
            return False
        advanced = self.engine.windows_advanced - self._windows_at_build
        return advanced >= self.config.rebuild_every_windows or (
            # No window has closed yet but data arrived: rebuild once
            # so early queries are not answered from an empty index.
            self._index_events <= 0
        )

    def _enter_degraded(self) -> None:
        if not self.degraded:
            self.degraded = True
            self.metrics.get("degraded_mode").set(1.0)
            log_event(
                _LOG, logging.WARNING, "serve.degraded",
                index_events=self._index_events,
            )

    def _leave_degraded(self) -> None:
        if self.degraded:
            self.degraded = False
            self.metrics.get("degraded_mode").set(0.0)
            log_event(_LOG, logging.INFO, "serve.recovered")

    def _rebuild_table(self):
        """The ratio table a rebuild compiles, spooled through mmap
        when a spool directory is configured.

        The spool publishes the table as the next snapshot generation
        (write-then-rename, see
        :class:`repro.scale.snapshot.SnapshotCatalog`) and maps it
        back read-only, so the build iterates shared pages instead of
        a second heap copy -- and external consumers (the serving
        plane's workers, ``cellspot loadgen``) can map the very same
        generation.  Decayed window policies hold fractional counts
        that the int64 snapshot format refuses, so only exact
        (``decay == 1.0``) engines spool; others fall back to the
        in-heap table.  Spool failures propagate into the caller's
        circuit-breaker path like any other rebuild failure.
        """
        table = self.engine.ratio_table(self.config.min_api_hits)
        if self._ratio_spool is None or not self.engine.policy.is_exact:
            return table
        from repro.columnar.mmaptable import open_mmap

        info = self._ratio_spool.publish(
            table,
            meta={
                "events": self.engine.events_consumed,
                "windows": self.engine.windows_advanced,
                "month": self.engine.month,
            },
        )
        mapped = open_mmap(info.table_path)
        # The index reads entries from its mapping on first hit, so the
        # superseded mapping is never closed here: it is unmapped by
        # garbage collection once the index built over it is gone.
        self._spool_table = mapped
        self._ratio_spool.prune(keep=2)
        log_event(
            _LOG, logging.INFO, "index.spooled",
            generation=info.number, path=str(info.table_path),
        )
        return mapped

    def index(self, force: bool = False) -> ClassificationIndex:
        """The current LPM index, rebuilt if stale (or ``force``).

        Rebuilds run behind a circuit breaker: while it is open (too
        many consecutive rebuild failures), the last good index is
        served in degraded mode instead of hammering the failing
        build.  Only when there is no index at all does the failure
        propagate -- there is nothing stale to answer from.
        """
        if not (force or self._index_stale()):
            return self._index
        if not self._breaker.allow():
            if self._index is not None:
                self._enter_degraded()
                return self._index
            raise RuntimeError(
                "index unavailable: rebuild circuit breaker is open "
                "and no previous index exists"
            )
        try:
            fault_point("serve.refresh")
            built = ClassificationIndex.build(
                self._rebuild_table(),
                demand=self.demand,
                threshold=self.config.threshold,
                min_api_hits=self.config.min_api_hits,
                as_classes=self.as_classes,
                filter_config=self.filter_config,
                hits_by_asn=(
                    self.engine.hits_by_asn()
                    if self.demand is not None
                    else None
                ),
            )
        except Exception as exc:  # noqa: BLE001 -- degrade, don't crash
            self._breaker.record_failure()
            self.metrics.get("index_rebuild_failures_total").inc()
            self.metrics.get("breaker_open").set(
                1.0 if self._breaker.is_open else 0.0
            )
            log_event(
                _LOG, logging.ERROR, "index.rebuild_failed",
                error=f"{type(exc).__name__}: {exc}",
                breaker_open=self._breaker.is_open,
            )
            if self._index is not None:
                self._enter_degraded()
                return self._index
            raise
        self._breaker.record_success()
        self.metrics.get("breaker_open").set(0.0)
        self._leave_degraded()
        self._index = built
        self._index_events = self.engine.events_consumed
        self._windows_at_build = self.engine.windows_advanced
        self.metrics.get("index_rebuilds_total").inc()
        log_event(
            _LOG, logging.INFO, "index.rebuilt",
            entries=len(self._index),
            events=self.engine.events_consumed,
        )
        return self._index

    # ---- request handling ------------------------------------------------

    def stats(self) -> Dict:
        return {
            "ok": True,
            "engine": {
                "month": self.engine.month,
                "events_consumed": self.engine.events_consumed,
                "windows_advanced": self.engine.windows_advanced,
                "window_fill": self.engine.state.window_fill,
                "subnets": self.engine.subnet_count(),
                "policy": {
                    "window_events": self.engine.policy.window_events,
                    "decay": self.engine.policy.decay,
                },
            },
            "index_entries": (
                len(self._index) if self._index is not None else 0
            ),
            "metrics": self.metrics.as_dict(),
        }

    def health(self) -> Dict:
        """The continuous-observability payload (``cellspot top`` food).

        Engine progress, derived rates, census drift scores, and live
        alert rule states -- everything the dashboard renders in one
        response, cheap enough to poll every second (no index rebuild,
        no ratio-table materialization).
        """
        import time as time_module

        latency = self.metrics.get("query_latency_seconds")
        payload = {
            "ok": True,
            "ts": time_module.time(),
            "engine": {
                "month": self.engine.month,
                "events_consumed": self.engine.events_consumed,
                "windows_advanced": self.engine.windows_advanced,
                "window_fill": self.engine.state.window_fill,
                "subnets": self.engine.subnet_count(),
            },
            "rates": {
                "events_per_s": self.metrics.rate("events_ingested_total"),
                "queries_per_s": self.metrics.rate("queries_total"),
                "query_p99_s": latency.quantile(0.99),
            },
            "index_entries": (
                len(self._index) if self._index is not None else 0
            ),
            "drift": (
                self.drift_monitor.summary()
                if self.drift_monitor is not None
                else {}
            ),
            "alerts": (
                self.alert_engine.snapshot()
                if self.alert_engine is not None
                else []
            ),
        }
        if self.alert_engine is not None:
            payload["alert_counts"] = self.alert_engine.counts()
        return payload

    def alerts(self) -> Dict:
        """Alert rule states plus recent transitions."""
        if self.alert_engine is None:
            return {"ok": True, "rules": [], "events": [],
                    "note": "no alert engine configured"}
        return {
            "ok": True,
            "rules": self.alert_engine.snapshot(),
            "events": self.alert_engine.events[-100:],
            "trace_id": self.alert_engine.trace_id,
        }

    def handle_request(self, request: Dict) -> Dict:
        """Answer one request dict; never raises."""
        try:
            fault_point("serve.request", index=self._requests_handled)
            self._requests_handled += 1
            op = request.get("op")
            if op == "query":
                return self._handle_query(request)
            if op == "stats":
                return self.stats()
            if op == "health":
                return self.health()
            if op == "alerts":
                return self.alerts()
            if op == "refresh":
                index = self.index(force=True)
                return {"ok": True, "index_entries": len(index)}
            if op == "snapshot":
                path = self.write_snapshot()
                if path is None:
                    return {"ok": False, "error": "no snapshot path configured"}
                return {"ok": True, "snapshot": str(path)}
            if op == "shutdown":
                self.shutdown_requested = True
                path = self.write_snapshot()
                return {
                    "ok": True,
                    "shutdown": True,
                    "snapshot": str(path) if path else None,
                }
            self.metrics.get("query_errors_total").inc()
            return {"ok": False, "error": f"unknown op {op!r}"}
        except Exception as exc:  # noqa: BLE001 -- the loop must survive
            self.metrics.get("query_errors_total").inc()
            log_event(
                _LOG, logging.ERROR, "request.failed",
                error=f"{type(exc).__name__}: {exc}",
            )
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    def _handle_query(self, request: Dict) -> Dict:
        queries = request.get("qs")
        single = request.get("q")
        if queries is None and single is None:
            self.metrics.get("query_errors_total").inc()
            return {"ok": False, "error": "query op needs 'q' or 'qs'"}
        if queries is not None and not isinstance(queries, list):
            self.metrics.get("query_errors_total").inc()
            return {"ok": False, "error": "'qs' must be a list"}
        index = self.index()
        latency = self.metrics.get("query_latency_seconds")
        counter = self.metrics.get("queries_total")
        deadline = (
            time.perf_counter() + self.config.deadline_s
            if self.config.deadline_s is not None
            else None
        )

        def answer(text) -> Dict:
            started = time.perf_counter()
            result = index.query(str(text))
            latency.observe(time.perf_counter() - started)
            counter.inc()
            if result.error is not None:
                self.metrics.get("query_errors_total").inc()
            return result.to_dict()

        def over_deadline() -> bool:
            return deadline is not None and time.perf_counter() > deadline

        def finish(response: Dict) -> Dict:
            if self.degraded:
                # Explicit staleness: degraded answers come from the
                # last good index, and the client must know.
                response["stale"] = True
                self.metrics.get("degraded_answers_total").inc()
            return response

        if queries is not None:
            results = []
            for item in queries:
                if over_deadline():
                    self.metrics.get("requests_shed_total").inc()
                    results.append(
                        {"ok": False, "error": "overloaded",
                         "overloaded": True}
                    )
                    continue
                results.append(answer(item))
            return finish({"ok": True, "results": results})
        return finish({"ok": True, "result": answer(single)})

    def handle_line(self, line: str) -> Dict:
        """Parse one protocol line and answer it; never raises."""
        stripped = line.strip()
        if not stripped:
            self.metrics.get("query_errors_total").inc()
            return {"ok": False, "error": "empty request line"}
        try:
            request = json.loads(stripped)
        except ValueError as exc:
            self.metrics.get("query_errors_total").inc()
            return {"ok": False, "error": f"bad JSON: {exc}"}
        if not isinstance(request, dict):
            self.metrics.get("query_errors_total").inc()
            return {"ok": False, "error": "request must be a JSON object"}
        return self.handle_request(request)

    # ---- serve loops -----------------------------------------------------

    def serve_lines(
        self,
        requests: IO[str],
        responses: IO[str],
        events: Optional[Iterator[BeaconHit]] = None,
    ) -> int:
        """Serve line-delimited JSON until EOF or a ``shutdown`` op.

        Before each request (and once at startup) up to one ingest
        batch is pulled from ``events``, so ingestion makes progress
        while the request stream is quiet.  Returns the number of
        requests answered.

        A reader thread feeds requests through a queue so the loop
        stays responsive while the handler is busy; with
        ``max_pending`` set, requests arriving beyond the bound are
        shed -- in request order -- with an explicit ``overloaded``
        response instead of queueing without limit.  SIGTERM
        (:meth:`request_shutdown`) drains already-queued requests,
        snapshots, and returns.
        """
        answered = 0
        pending: "queue.Queue" = queue.Queue()
        admit_lock = threading.Lock()
        admitted = 0
        pending_gauge = self.metrics.get("pending_requests")
        eof_seen = False

        def feed() -> None:
            nonlocal admitted
            for line in requests:
                with admit_lock:
                    bound = self.config.max_pending
                    if bound is not None and admitted >= bound:
                        # Shed markers ride the same queue so the
                        # refusal lands in request order.
                        pending.put(("shed", line))
                        continue
                    admitted += 1
                    pending_gauge.set(float(admitted))
                pending.put(("line", line))
            pending.put(("eof", None))

        reader = threading.Thread(target=feed, daemon=True)
        reader.start()
        if events is not None:
            self.ingest_from(events)
        while True:
            try:
                kind, line = pending.get(timeout=0.05)
            except queue.Empty:
                if self.shutdown_requested:
                    break
                if events is not None:
                    self.ingest_from(events)
                continue
            if kind == "eof":
                eof_seen = True
                break
            if kind == "shed":
                self.metrics.get("requests_shed_total").inc()
                response = {
                    "ok": False, "error": "overloaded", "overloaded": True,
                }
            else:
                with admit_lock:
                    admitted -= 1
                    pending_gauge.set(float(admitted))
                if events is not None:
                    self.ingest_from(events)
                response = self.handle_line(line)
            responses.write(json.dumps(response, separators=(",", ":")))
            responses.write("\n")
            responses.flush()
            answered += 1
            if self.shutdown_requested and not self._drain_on_shutdown:
                # The shutdown *op* stops immediately (it already
                # snapshotted); queued lines are intentionally dropped.
                break
        if self.shutdown_requested and self._drain_on_shutdown:
            # SIGTERM: the work was accepted, so finish it, then leave
            # resumable state behind.
            while True:
                try:
                    kind, line = pending.get_nowait()
                except queue.Empty:
                    break
                if kind != "line":
                    continue
                response = self.handle_line(line)
                responses.write(json.dumps(response, separators=(",", ":")))
                responses.write("\n")
                responses.flush()
                answered += 1
            self.write_snapshot(raise_errors=False)
        elif eof_seen and not self.shutdown_requested:
            # EOF without an explicit shutdown: drain and snapshot so a
            # piped session still leaves resumable state behind.
            if events is not None:
                self.drain(events)
            self.write_snapshot()
        log_event(
            _LOG, logging.INFO, "serve.done",
            requests=answered, events=self.engine.events_consumed,
        )
        return answered

    def serve_socket(
        self,
        socket_path: Union[str, Path],
        events: Optional[Iterator[BeaconHit]] = None,
        max_connections: Optional[int] = None,
    ) -> int:
        """Serve the same protocol over a local ``AF_UNIX`` socket.

        Each connection carries any number of request lines; the
        server is single-threaded (connections are handled in arrival
        order) and stops after a ``shutdown`` op or
        ``max_connections``.  Returns the number of requests answered.

        A leftover socket file from a crashed server is probed with a
        connect: refused means nobody is listening, so the stale file
        is removed and the bind proceeds; a live listener raises
        ``OSError`` instead of silently hijacking the path.  SIGTERM
        (:meth:`request_shutdown`) is noticed between lines -- reads
        carry a short timeout -- and ends with a final snapshot.
        """
        import socket as socket_module

        socket_path = Path(socket_path)
        if socket_path.exists():
            if _socket_is_live(socket_path):
                raise OSError(
                    f"socket {socket_path} is in use by a live server"
                )
            log_event(
                _LOG, logging.WARNING, "serve.socket.stale_removed",
                path=socket_path,
            )
            socket_path.unlink()
        server = socket_module.socket(
            socket_module.AF_UNIX, socket_module.SOCK_STREAM
        )
        answered = 0
        connections = 0
        try:
            server.bind(str(socket_path))
            server.listen(8)
            server.settimeout(0.1)
            log_event(
                _LOG, logging.INFO, "serve.socket", path=socket_path
            )
            while not self.shutdown_requested:
                if events is not None:
                    self.ingest_from(events)
                try:
                    connection, _addr = server.accept()
                except socket_module.timeout:
                    continue
                with connection:
                    # Bounded reads: a silent client must not make the
                    # server deaf to shutdown requests.  (A partial
                    # line racing the timeout can be dropped -- fine
                    # for this prompt-response, line-delimited
                    # protocol; clients write whole lines.)
                    connection.settimeout(0.5)
                    reader = connection.makefile("r")
                    writer = connection.makefile("w")
                    while not self.shutdown_requested:
                        try:
                            line = reader.readline()
                        except socket_module.timeout:
                            if events is not None:
                                self.ingest_from(events)
                            continue
                        except OSError:
                            break  # client went away mid-line
                        if not line:
                            break  # client EOF
                        response = self.handle_line(line)
                        writer.write(
                            json.dumps(response, separators=(",", ":"))
                        )
                        writer.write("\n")
                        writer.flush()
                        answered += 1
                connections += 1
                if (
                    max_connections is not None
                    and connections >= max_connections
                ):
                    break
            self.write_snapshot(raise_errors=False)
        finally:
            server.close()
            if socket_path.exists():
                socket_path.unlink()
        return answered


def _socket_is_live(socket_path: Path, timeout_s: float = 0.2) -> bool:
    """True when something is accepting connections on ``socket_path``.

    A crashed server leaves its socket file behind (unlink-on-exit
    never ran); connecting to such a corpse fails with
    ``ECONNREFUSED``, which is how we tell a stale file from a live
    server we must not evict.
    """
    import socket as socket_module

    probe = socket_module.socket(
        socket_module.AF_UNIX, socket_module.SOCK_STREAM
    )
    probe.settimeout(timeout_s)
    try:
        probe.connect(str(socket_path))
    except OSError:
        return False
    else:
        return True
    finally:
        probe.close()


def install_sigusr1_registry(registry, stream=None) -> bool:
    """Dump a metrics registry's JSON to ``stream`` (stderr) on ``SIGUSR1``.

    Returns False when signals are unavailable (non-main thread,
    platforms without SIGUSR1) -- the caller works without it.  Shared
    by the single-process service and the serving-plane front so both
    answer the same operator reflex with the same atomic dump.
    """
    import signal
    import sys

    if not hasattr(signal, "SIGUSR1"):
        return False
    target = stream if stream is not None else sys.stderr

    def _dump(_signum, _frame):
        target.write(registry.render_json(indent=2))
        target.write("\n")
        target.flush()

    try:
        signal.signal(signal.SIGUSR1, _dump)
    except ValueError:  # not the main thread
        return False
    return True


def install_sigusr1_stats(service: CellSpotService, stream=None) -> bool:
    """Dump the service's metrics JSON to ``stream`` on ``SIGUSR1``."""
    return install_sigusr1_registry(service.metrics, stream=stream)
