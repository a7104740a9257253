"""The online cell-spotting service.

:class:`CellSpotService` wires a :class:`~repro.stream.StreamEngine`
to a :class:`~repro.serve.index.ClassificationIndex` behind the
line-delimited JSON protocol of :mod:`repro.serve.protocol`, served
over stdin/stdout or a local ``AF_UNIX`` socket.  Query replies are
built by the same code the serving plane's workers run.

Protocol (one JSON object per line)::

    {"op": "query",   "q": "192.0.2.17"}          -> one classification
    {"op": "query",   "qs": ["192.0.2.17", ...]}  -> batch answers
    {"op": "stats"}                                -> metrics + engine state
    {"op": "health"}                               -> engine + drift + alerts
    {"op": "alerts"}                               -> alert rule states
    {"op": "refresh"}                              -> force index rebuild
    {"op": "snapshot"}                             -> force a state snapshot
    {"op": "shutdown"}                             -> snapshot, ack, stop

Every response carries ``{"ok": true|false}``; malformed requests --
a blank line included -- are answered (never crash the loop) and
counted in ``query_errors_total``.

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
  ``requests_shed_total``.  Stdin and each socket connection run
  through the same admission loop.
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
import socket
import threading
import time
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Dict, Iterable, Iterator, Optional, Union

from repro.cdn.logs import BeaconHit
from repro.core.asn_classifier import ASFilterConfig
from repro.core.classifier import DEFAULT_THRESHOLD
from repro.datasets.demand_dataset import DemandDataset
from repro.obs.metrics import MetricsRegistry
from repro.runtime.faults import fault_point
from repro.runtime.logging import get_logger, log_event
from repro.serve import protocol
from repro.serve.index import ClassificationIndex
from repro.stream.engine import StreamEngine

_LOG = get_logger("serve.service")


def service_metrics(
    clock=time.monotonic, registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """The serving layer's standard metric set, pre-registered.

    With no ``registry`` a fresh one is created (test isolation, ad
    hoc services).  Passing one -- typically
    :func:`repro.obs.metrics.global_registry` -- registers the serving
    set onto it idempotently (``exist_ok``), so serve metrics land in
    the same export as the batch/stream instrumentation; ``clock`` is
    ignored in that case (the shared registry keeps its own).
    """
    if registry is None:
        registry = MetricsRegistry(clock=clock)
    registry.counter(
        "events_ingested_total", "beacon events folded into window state",
        exist_ok=True,
    )
    registry.counter(
        "events_quarantined_total", "malformed events rejected by policy",
        exist_ok=True,
    )
    registry.counter(
        "window_advances_total", "windows closed into aggregate",
        exist_ok=True,
    )
    registry.counter(
        "queries_total", "classification queries answered", exist_ok=True
    )
    registry.counter(
        "query_errors_total", "malformed or failed requests", exist_ok=True
    )
    registry.counter(
        "snapshots_written_total", "state snapshots persisted", exist_ok=True
    )
    registry.counter(
        "index_rebuilds_total", "LPM index rebuilds", exist_ok=True
    )
    registry.counter(
        "requests_shed_total",
        "requests refused by admission control or deadline",
        exist_ok=True,
    )
    registry.counter(
        "degraded_answers_total",
        "queries answered stale from the last good index",
        exist_ok=True,
    )
    registry.counter(
        "index_rebuild_failures_total",
        "index rebuild attempts that raised",
        exist_ok=True,
    )
    registry.counter(
        "snapshot_failures_total",
        "snapshot writes that failed (serving continued)",
        exist_ok=True,
    )
    registry.gauge(
        "tracked_subnets", "subnets with live window state", exist_ok=True
    )
    registry.gauge(
        "breaker_open",
        "1 while the index-rebuild circuit breaker is open",
        exist_ok=True,
    )
    registry.gauge(
        "degraded_mode",
        "1 while queries are served stale from the last good index",
        exist_ok=True,
    )
    registry.gauge(
        "pending_requests",
        "requests queued awaiting the serve loop",
        exist_ok=True,
    )
    registry.gauge(
        "ingest_events_per_s", "lifetime ingest rate", exist_ok=True
    )
    registry.histogram(
        "query_latency_seconds", "per-query service latency", exist_ok=True
    )
    registry.histogram(
        "ingest_batch_seconds", "latency of ingest batches between requests",
        bounds=(0.0001, 0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0),
        exist_ok=True,
    )
    return registry


@dataclass(frozen=True)
class ServiceConfig:
    """Serving knobs."""

    threshold: float = DEFAULT_THRESHOLD
    min_api_hits: int = 1
    #: Snapshot every N ingested events (None = only on shutdown).
    snapshot_every_events: Optional[int] = 50_000
    #: Events pulled from the source between requests.
    ingest_batch: int = 5_000
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
        return self.engine.windows_advanced > self._windows_at_build or (
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
        if self._ratio_spool is None or not self.engine.policy.is_exact:
            return self.engine.ratio_table(self.config.min_api_hits)
        from repro.columnar.mmaptable import open_mmap

        info = self._ratio_spool.publish_engine(
            self.engine, self.config.min_api_hits
        )
        mapped = open_mmap(info.table_path)
        # The index reads entries from its mapping on first hit, so the
        # superseded mapping is never closed here: it is unmapped by
        # garbage collection once the index built over it is gone.
        self._spool_table = mapped
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

    def _engine_state(self) -> Dict:
        return {
            "month": self.engine.month,
            "events_consumed": self.engine.events_consumed,
            "windows_advanced": self.engine.windows_advanced,
            "window_fill": self.engine.state.window_fill,
            "subnets": self.engine.subnet_count(),
        }

    def stats(self) -> Dict:
        return {
            "ok": True,
            "engine": {
                **self._engine_state(),
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
        latency = self.metrics.get("query_latency_seconds")
        return protocol.health_payload(
            self.alert_engine,
            engine=self._engine_state(),
            rates={
                "events_per_s": self.metrics.rate("events_ingested_total"),
                "queries_per_s": self.metrics.rate("queries_total"),
                "query_p99_s": latency.quantile(0.99),
            },
            index_entries=(
                len(self._index) if self._index is not None else 0
            ),
            drift=(
                self.drift_monitor.summary()
                if self.drift_monitor is not None
                else {}
            ),
        )

    def handle_request(self, request: Dict) -> Dict:
        """Answer one request dict (the decoded reply line); never raises."""
        return json.loads(self._reply(request).decode())

    def handle_line(self, line: str) -> bytes:
        """Answer one protocol line with its reply line; never raises."""
        return self._reply(line.strip())

    def _reply(self, request: Union[Dict, str]) -> bytes:
        """The reply line of one request, decoded or a stripped line."""
        try:
            if isinstance(request, str):
                if not request:
                    raise protocol.BadRequest("empty request line")
                request = protocol.decode(request)
            fault_point("serve.request", index=self._requests_handled)
            self._requests_handled += 1
            op = request.get("op")
            if op == "query":
                return self._query(request)
            if op == "stats":
                return protocol.dumps(self.stats())
            if op == "health":
                return protocol.dumps(self.health())
            if op == "alerts":
                return protocol.dumps(protocol.alerts_payload(self.alert_engine))
            if op == "refresh":
                index = self.index(force=True)
                return protocol.dumps({"ok": True, "index_entries": len(index)})
            if op == "snapshot":
                path = self.write_snapshot()
                if path is None:
                    return protocol.error("no snapshot path configured")
                return protocol.dumps({"ok": True, "snapshot": str(path)})
            if op == "shutdown":
                self.shutdown_requested = True
                path = self.write_snapshot()
                return protocol.dumps({
                    "ok": True,
                    "shutdown": True,
                    "snapshot": str(path) if path else None,
                })
            raise protocol.BadRequest(f"unknown op {op!r}")
        except protocol.BadRequest as exc:
            self.metrics.get("query_errors_total").inc()
            return protocol.error(str(exc))
        except Exception as exc:  # noqa: BLE001 -- the loop must survive
            self.metrics.get("query_errors_total").inc()
            log_event(
                _LOG, logging.ERROR, "request.failed",
                error=f"{type(exc).__name__}: {exc}",
            )
            return protocol.error(f"{type(exc).__name__}: {exc}")

    def _query(self, request: Dict) -> bytes:
        queries = protocol.query_items(request)
        index = self.index()
        encode = index.encode
        is_error = index.is_error
        latency = self.metrics.get("query_latency_seconds")
        counter = self.metrics.get("queries_total")
        deadline = (
            time.perf_counter() + self.config.deadline_s
            if self.config.deadline_s is not None
            else None
        )

        def answer(text) -> str:
            started = time.perf_counter()
            encoded = encode(str(text))
            latency.observe(time.perf_counter() - started)
            counter.inc()
            if is_error(encoded):
                self.metrics.get("query_errors_total").inc()
            return encoded

        if self.degraded:
            # Explicit staleness: degraded answers come from the last
            # good index, and the client must know.
            self.metrics.get("degraded_answers_total").inc()
        return protocol.query_reply(
            answer,
            queries,
            request.get("q"),
            deadline=deadline,
            on_shed=lambda: self.metrics.get("requests_shed_total").inc(),
            stale=self.degraded,
        )

    # ---- serve loops -----------------------------------------------------

    def _serve_stream(
        self,
        requests: Iterable[str],
        write: Callable[[bytes], None],
        events: Optional[Iterator[BeaconHit]],
    ) -> int:
        """The admission loop: answer one stream's request lines.

        Up to one ingest batch is pulled from ``events`` at startup,
        before each request and whenever the stream is quiet.  A reader
        thread queues requests so the loop stays responsive while the
        handler is busy; with ``max_pending`` set, requests beyond the
        bound are shed -- in request order -- with an explicit
        ``overloaded`` reply.  Ends at EOF or shutdown; SIGTERM
        (:meth:`request_shutdown`) first answers what is queued, the
        ``shutdown`` op does not.  Returns the number of replies.
        """
        answered = 0
        pending: "queue.Queue" = queue.Queue()
        admit_lock = threading.Lock()
        admitted = 0
        pending_gauge = self.metrics.get("pending_requests")

        def feed() -> None:
            nonlocal admitted
            try:
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
            except (OSError, ValueError):
                pass  # the client went away (or sent undecodable bytes)
            finally:
                pending.put(("eof", None))

        def answer(kind: str, line: Optional[str]) -> None:
            nonlocal admitted, answered
            if kind == "shed":
                self.metrics.get("requests_shed_total").inc()
                reply = protocol.SHED_RESPONSE
            else:
                with admit_lock:
                    admitted -= 1
                    pending_gauge.set(float(admitted))
                if events is not None:
                    self.ingest_from(events)
                reply = self.handle_line(line)
            write(reply)
            answered += 1

        threading.Thread(target=feed, daemon=True).start()
        if events is not None:
            self.ingest_from(events)
        while not self.shutdown_requested:
            try:
                kind, line = pending.get(timeout=0.05)
            except queue.Empty:
                if events is not None:
                    self.ingest_from(events)
                continue
            if kind == "eof":
                break
            answer(kind, line)
        # SIGTERM: what was already queued still gets its answer.
        while self._drain_on_shutdown:
            try:
                kind, line = pending.get_nowait()
            except queue.Empty:
                break
            if kind != "eof":
                answer(kind, line)
        return answered

    def serve_lines(
        self,
        requests: IO[str],
        responses: IO[str],
        events: Optional[Iterator[BeaconHit]] = None,
    ) -> int:
        """Serve line-delimited JSON until EOF or a ``shutdown`` op.

        Returns the number of requests answered.  EOF drains the event
        source and snapshots, so a piped session leaves resumable
        state behind; SIGTERM snapshots after the queued answers.
        """

        def write(reply: bytes) -> None:
            responses.write(reply.decode())
            responses.flush()

        answered = self._serve_stream(requests, write, events)
        if self._drain_on_shutdown:
            self.write_snapshot(raise_errors=False)
        elif not self.shutdown_requested:  # EOF
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

        Connections are served one at a time, in arrival order, each
        through the admission loop of :meth:`serve_lines`; a client's
        EOF moves on to the next connection.  Stops after a
        ``shutdown`` op, SIGTERM or ``max_connections``, with a final
        snapshot.  Returns the number of requests answered.  A dead
        server's leftover socket file is replaced; a live server's
        path raises ``OSError``
        (:func:`~repro.serve.protocol.claim_socket_path`).
        """
        socket_path = Path(socket_path)
        protocol.claim_socket_path(socket_path)
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
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
                except socket.timeout:
                    continue
                with connection:
                    answered += self._serve_stream(
                        connection.makefile("r"), connection.sendall, events
                    )
                    with suppress(OSError):
                        # Ends the reader thread if it still waits on a
                        # client the loop stopped serving.
                        connection.shutdown(socket.SHUT_RDWR)
                connections += 1
                if (
                    max_connections is not None
                    and connections >= max_connections
                ):
                    break
            self.write_snapshot(raise_errors=False)
        finally:
            server.close()
            socket_path.unlink(missing_ok=True)
        return answered


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
