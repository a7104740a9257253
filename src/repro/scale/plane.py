"""The asyncio front: admission, deadlines, fan-out, respawn, drain.

One :class:`ServingPlane` is the public face of the serving tier.  It
accepts the line-delimited JSON protocol of :mod:`repro.serve.protocol`
over TCP and/or ``AF_UNIX``, answers control ops (``stats`` /
``health`` / ``alerts`` / ``ping`` / ``shutdown``) itself, and fans
``query`` ops out to N worker processes over per-worker ``AF_UNIX``
connections -- one request in flight per worker, so replies need no
id framing.

Hardening (the same refusals ``cellspot serve`` gives):

- *Admission control*: at most ``max_pending`` query requests are in
  flight across all connections; beyond that, requests are refused
  immediately with the explicit ``{"ok": false, "error":
  "overloaded", "overloaded": true}`` shed the clients already know.
- *Deadlines*: a request that cannot reach a worker (or get its reply)
  before ``deadline_s`` is shed the same way instead of queueing
  without bound.
- *Worker-death detection*: a worker that EOFs, resets, or exceeds the
  hard reply cap is retired and respawned; the in-flight request is
  retried on another worker (bounded retries), so a SIGKILLed worker
  costs latency, not wrong answers.
- *Graceful drain*: SIGTERM (or a ``shutdown`` op) stops accepting,
  answers what was admitted, closes worker connections (workers exit
  on EOF), and reaps the builder.

Query responses are relayed to the client byte-for-byte as the worker
serialized them.  Workers and the single-process
:class:`~repro.serve.service.CellSpotService` build query replies with
the same :func:`repro.serve.protocol.query_reply`, so the plane's
answers match the service's by construction; the differential suite
checks it over real processes.
"""

from __future__ import annotations

import asyncio
import json
import logging
import multiprocessing
import os
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.core.classifier import DEFAULT_THRESHOLD
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    global_registry,
    merge_histogram_dicts,
)
from repro.runtime.faults import fault_point
from repro.runtime.logging import get_logger, log_event
from repro.scale.builder import builder_main
from repro.scale.snapshot import CatalogError, SnapshotCatalog
from repro.scale.worker import worker_main
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    SHED_RESPONSE,
    BadRequest,
    alerts_payload,
    claim_socket_path,
    decode,
    dumps,
    error,
    health_payload,
    is_ok,
)

logger = get_logger("scale.plane")


def plane_metrics(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Register the front's metric set (idempotent)."""
    registry = registry or global_registry()
    registry.counter(
        "scale_requests_total", "requests answered by the front", exist_ok=True
    )
    registry.counter(
        "scale_queries_total", "individual queries fanned to workers",
        exist_ok=True,
    )
    registry.counter(
        "scale_shed_total",
        "requests refused with an explicit overloaded response",
        exist_ok=True,
    )
    registry.counter(
        "scale_worker_deaths_total", "worker processes observed dead",
        exist_ok=True,
    )
    registry.counter(
        "scale_worker_respawns_total", "worker processes respawned",
        exist_ok=True,
    )
    registry.counter(
        "scale_stats_timeouts_total",
        "per-worker stats roundtrips that timed out",
        exist_ok=True,
    )
    registry.gauge(
        "scale_pending_requests", "query requests currently admitted",
        exist_ok=True,
    )
    registry.gauge(
        "scale_workers_alive", "live worker processes", exist_ok=True
    )
    registry.gauge(
        "scale_generation", "latest published snapshot generation",
        exist_ok=True,
    )
    registry.histogram(
        "scale_request_latency_seconds",
        "front request latency (admission to response)",
        bounds=DEFAULT_LATENCY_BUCKETS,
        exist_ok=True,
    )
    return registry


#: Hard cap on one worker reply; beyond it the worker is presumed hung
#: and is killed + respawned.
WORKER_REPLY_CAP_S = 10.0
#: Times a query is retried on another worker after a death.
DISPATCH_RETRIES = 2
#: Seconds a drain waits for admitted requests to finish.
DRAIN_TIMEOUT_S = 10.0


@dataclass
class PlaneConfig:
    """Front-end knobs (validated on construction)."""

    workers: int = 4
    #: Query requests admitted across all connections; beyond this,
    #: explicit ``overloaded`` refusals.
    max_pending: int = 64
    #: Seconds a request may wait (queue + worker) before being shed.
    deadline_s: Optional[float] = 0.25
    threshold: float = DEFAULT_THRESHOLD
    min_api_hits: int = 1
    #: How long to wait for the first snapshot generation / a worker
    #: socket at startup.
    startup_timeout_s: float = 120.0
    #: Timeout for one per-worker ``stats`` roundtrip (best effort).
    stats_timeout_s: float = 2.0
    #: Observability root.  When set, the front mints request ids,
    #: injects ``_trace`` envelopes toward workers, records
    #: ``front.request`` spans, federates worker metric samples, and
    #: writes a death artifact naming each dead worker's last request.
    #: ``None`` keeps the plane byte-for-byte on its untraced fast path.
    obs_dir: Optional[Union[str, Path]] = None
    #: Cadence of the workers' local metric export into their segment
    #: rings (only meaningful with ``obs_dir``).
    obs_scrape_interval_s: float = 0.5
    #: ``(slot, seconds)``: slow every query on that slot's *first*
    #: incarnation by ``seconds`` -- a deliberate sick replica for
    #: skew-alert drills.  A respawn of the slot runs at full speed.
    drill_slow_worker: Optional[Tuple[int, float]] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if self.startup_timeout_s <= 0:
            raise ValueError("startup_timeout_s must be positive")
        if self.stats_timeout_s <= 0:
            raise ValueError("stats_timeout_s must be positive")
        if self.obs_scrape_interval_s <= 0:
            raise ValueError("obs_scrape_interval_s must be positive")
        if self.drill_slow_worker is not None:
            slot, seconds = self.drill_slow_worker
            if slot < 0 or slot >= self.workers:
                raise ValueError("drill_slow_worker slot out of range")
            if seconds <= 0:
                raise ValueError("drill_slow_worker seconds must be positive")


def _stop_process(process, timeout_s: float = 2.0) -> None:
    """Terminate a child if it still runs, then reap it."""
    if process.is_alive():
        process.terminate()
    process.join(timeout=timeout_s)


def _reap_process(process) -> None:
    """Give a child 2 s to exit on its own, then stop it."""
    process.join(timeout=2.0)
    if process.is_alive():
        _stop_process(process, timeout_s=1.0)


class WorkerHandle:
    """One worker process plus its exclusive front connection."""

    def __init__(
        self,
        slot: int,
        process,
        socket_path: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.slot = slot
        self.process = process
        self.socket_path = socket_path
        self.reader = reader
        self.writer = writer
        self.alive = True
        #: ``time.perf_counter()`` when the front's connection opened.
        self.connected = time.perf_counter()
        self._lock = asyncio.Lock()
        #: The last request the front dispatched to this worker (kept
        #: only when observability is on): ``rid``, a 240-byte ``line``
        #: excerpt, the wall-clock ``ts``, and an ``outcome`` that reads
        #: ``inflight`` until the reply lands, then ``ok`` or ``error``.
        #: A dead worker's death artifact names it.
        self.last_request: Optional[Dict] = None

    def settle(self, reply: bytes) -> None:
        """Record the outcome of the last request once its reply lands."""
        if self.last_request is not None:
            self.last_request["outcome"] = (
                "ok" if is_ok(reply) else "error"
            )

    def inflight_rid(self) -> Optional[str]:
        """The rid of the request on the wire to this worker, if any."""
        last = self.last_request
        if last is None or last["outcome"] != "inflight":
            return None
        return last["rid"]

    async def request(self, line: bytes) -> bytes:
        """One request/response roundtrip (serialized per worker)."""
        async with self._lock:
            self.writer.write(line)
            await self.writer.drain()
            reply = await self.reader.readline()
        if not reply:
            raise ConnectionResetError("worker closed the connection")
        return reply

    def close_connection(self) -> None:
        try:
            self.writer.close()
        except Exception:  # noqa: BLE001 -- teardown best effort
            pass


class PlaneObs:
    """Front-side distributed observability state.

    Owns the obs directory layout (see :mod:`repro.obs.postmortem`),
    mints run-unique request ids under the run ``trace_id``, records
    ``front.request`` spans, federates the workers' latest exported
    metric samples into worker-tagged keys, and writes a dead
    worker's ``postmortem-*.json`` artifact naming the request the
    front last dispatched to it.
    """

    def __init__(self, obs_dir: Union[str, Path]) -> None:
        from repro.obs.trace import SpanLog, current_trace_id

        self.root = Path(obs_dir)
        self.root.mkdir(parents=True, exist_ok=True)
        self.trace_id = current_trace_id()
        self.spans = SpanLog(self.root / "front", source="front")
        self._seq = 0
        self._artifacts = 0

    def next_request_id(self) -> str:
        """Monotonic per-run request id (``req-`` and 12 digits)."""
        self._seq += 1
        return f"req-{self._seq:012d}"

    # ---- metrics federation ---------------------------------------------

    def _latest_samples(self) -> Iterator[Tuple[str, Dict]]:
        """``(slot, newest exported sample)`` of each worker, by slot."""
        from repro.obs.timeseries import read_latest_sample

        for entry in sorted(self.root.glob("worker-*")):
            if entry.is_dir():
                sample = read_latest_sample(entry)
                if sample is not None:
                    yield entry.name[len("worker-"):], sample

    def federation_metrics(self, max_age_s: float = 2.0) -> Dict:
        """Latest per-worker samples as ``name{worker="N"}`` tagged keys.

        Reads each worker's newest exported sample (written by its
        in-process :class:`~repro.obs.timeseries.MetricScraper`) and
        re-keys every metric with a ``worker`` label.  Samples older
        than ``max_age_s`` are dropped: a dead worker's stale export
        must not keep feeding the skew alert.
        """
        from repro.obs.timeseries import split_metric_tag, tag_metric

        merged: Dict = {}
        now = time.time()
        for slot, sample in self._latest_samples():
            if now - float(sample.get("ts", 0.0)) > max_age_s:
                continue
            for name, value in (sample.get("m") or {}).items():
                # Worker keys may already carry a label (labeled-gauge
                # series like rss_peak_bytes{stage=...}); fold the
                # worker tag into the existing label set instead of
                # appending a second brace group.
                base, labels = split_metric_tag(name)
                labels["worker"] = slot
                merged[tag_metric(base, **labels)] = value
        return merged

    def worker_rollup(self) -> List[Dict]:
        """Per-worker health rows from the latest federated samples."""
        from repro.obs.timeseries import decode_payload

        rows: List[Dict] = []
        for slot, sample in self._latest_samples():
            metrics = sample.get("m") or {}
            row: Dict = {"worker": slot, "ts": sample.get("ts")}
            kind, latency = decode_payload(
                metrics.get("scale_worker_query_latency_seconds")
            )
            if kind == "histogram":
                row["queries"] = latency["count"]
                row["p99_s"] = latency["p99"]
            kind, generation = decode_payload(
                metrics.get("scale_worker_generation")
            )
            if kind in ("counter", "gauge"):
                row["generation"] = generation
            rows.append(row)
        return rows

    # ---- crash harvesting ------------------------------------------------

    def harvest_worker(self, handle: WorkerHandle, reason: str) -> Path:
        """Write a dead worker's death artifact.

        Its ``dying_request`` is the worker's last dispatched request:
        outcome ``inflight`` when the worker died holding it, else the
        request it last answered; ``None`` if it never served one.
        """
        dying = handle.last_request
        self._artifacts += 1
        artifact = {
            "kind": "worker-death",
            "ts": time.time(),
            "trace_id": self.trace_id,
            "slot": handle.slot,
            "pid": handle.process.pid,
            "exitcode": handle.process.exitcode,
            "reason": reason,
            "dying_request": dying,
        }
        path = self.root / (
            f"postmortem-worker{handle.slot}-{self._artifacts:04d}.json"
        )
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(artifact, indent=2, sort_keys=True))
        os.replace(tmp, path)
        log_event(
            logger,
            logging.WARNING,
            "scale.worker.postmortem",
            slot=handle.slot,
            reason=reason,
            artifact=str(path),
            dying_rid=(dying or {}).get("rid") or "-",
        )
        return path


class ServingPlane:
    """Front-end server + worker/builder process supervisor."""

    def __init__(
        self,
        catalog_dir: Union[str, Path],
        config: Optional[PlaneConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        alert_engine=None,
        source_spec: Optional[Dict] = None,
        builder_options: Optional[Dict] = None,
    ) -> None:
        self.catalog = SnapshotCatalog(catalog_dir)
        self.config = config or PlaneConfig()
        self.metrics = plane_metrics(registry)
        self.alert_engine = alert_engine
        self.source_spec = source_spec
        self.builder_options = dict(builder_options or {})
        # Spawned (not forked) children: workers must not inherit the
        # front's event loop, server sockets, or signal handlers.
        self._ctx = multiprocessing.get_context("spawn")
        self.builder_process = None
        self._obs: Optional[PlaneObs] = (
            PlaneObs(self.config.obs_dir)
            if self.config.obs_dir is not None
            else None
        )
        #: Spawn count per slot -- the slow-worker drill only afflicts
        #: a slot's first incarnation, so a respawn heals the skew.
        self._incarnations: Dict[int, int] = {}
        self._workers: List[WorkerHandle] = []
        self._idle: "asyncio.Queue[WorkerHandle]" = asyncio.Queue()
        self._pending = 0
        self._dispatched = 0
        self._requests_handled = 0
        self._shutdown = asyncio.Event()
        self._draining = False
        self._reaper_task: Optional[asyncio.Task] = None
        self._servers: List[asyncio.AbstractServer] = []

    # ---- lifecycle -------------------------------------------------------

    def pid_file(self) -> Path:
        """Worker pids, rewritten on every (re)spawn (kill drills)."""
        return self.catalog.root / "workers.pids"

    def _write_pids(self) -> None:
        pids = [
            str(handle.process.pid)
            for handle in self._workers
            if handle.alive and handle.process.pid
        ]
        self.pid_file().write_text("\n".join(pids) + "\n")

    async def start(self) -> None:
        """Spawn builder + workers and wait until queries can be served.

        The first-generation wait and every worker spawn run together:
        a worker maps a generation before it binds its socket, so each
        connection opened here already answers from a complete index.
        If any of it fails, every child started so far is terminated
        and joined before the error propagates.
        """
        started = time.perf_counter()
        if self.source_spec is not None:
            builder_kwargs = {
                "min_api_hits": self.config.min_api_hits,
                **self.builder_options,
            }
            if self._obs is not None:
                builder_kwargs.setdefault("obs_dir", str(self._obs.root))
                builder_kwargs.setdefault("trace_id", self._obs.trace_id)
            self.builder_process = self._ctx.Process(
                target=builder_main,
                args=(str(self.catalog.root), self.source_spec),
                kwargs=builder_kwargs,
                daemon=True,
            )
            self.builder_process.start()
        generation = asyncio.ensure_future(self._wait_for_generation())
        spawns = [
            asyncio.ensure_future(self._spawn_worker(slot, generation))
            for slot in range(self.config.workers)
        ]
        try:
            generation_seen, *handles = await asyncio.gather(
                generation, *spawns
            )
        except BaseException:
            await self._abort_start([generation, *spawns])
            raise
        for handle in handles:
            self._workers.append(handle)
            self._idle.put_nowait(handle)
        if self._obs is not None:
            try:
                self._obs.spans.record(
                    "front.start",
                    self._obs.trace_id,
                    started=started,
                    duration=time.perf_counter() - started,
                    first_generation_s=generation_seen - started,
                    worker_connected_s=[
                        handle.connected - started for handle in handles
                    ],
                )
            except Exception:  # noqa: BLE001 -- telemetry must not fail start
                pass
        self._write_pids()
        self.metrics.get("scale_workers_alive").set(float(self._alive_count()))
        self._reaper_task = asyncio.create_task(self._reap_loop())

    async def _abort_start(self, tasks: List[asyncio.Future]) -> None:
        """Cancel a failed start's tasks and stop every child it started."""
        for task in tasks:
            task.cancel()
        for result in await asyncio.gather(*tasks, return_exceptions=True):
            if isinstance(result, WorkerHandle):
                result.close_connection()
                _stop_process(result.process)
        if self.builder_process is not None:
            _stop_process(self.builder_process)

    async def _wait_for_generation(self) -> float:
        """``time.perf_counter()`` once the catalog holds a generation."""
        deadline = time.monotonic() + self.config.startup_timeout_s
        while True:
            try:
                info = self.catalog.latest()
            except CatalogError:
                info = None
            if info is not None:
                self.metrics.get("scale_generation").set(float(info.number))
                return time.perf_counter()
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"no snapshot generation appeared in {self.catalog.root} "
                    f"within {self.config.startup_timeout_s:g}s"
                )
            await asyncio.sleep(0.05)

    async def _spawn_worker(
        self, slot: int, generation: Optional[asyncio.Future] = None
    ) -> WorkerHandle:
        """Start one worker and connect to it.

        ``generation`` is the start-up wait for the first generation.
        The worker binds only after mapping one, so its connect deadline
        starts once that wait is done.  A failed or cancelled spawn
        stops its process.
        """
        path = str(
            self.catalog.root / f"worker-{slot}-{uuid.uuid4().hex[:8]}.sock"
        )
        incarnation = self._incarnations.get(slot, 0)
        self._incarnations[slot] = incarnation + 1
        kwargs = {
            "startup_timeout_s": self.config.startup_timeout_s,
            "slot": slot,
        }
        if self._obs is not None:
            kwargs.update(
                obs_dir=str(self._obs.root),
                trace_id=self._obs.trace_id,
                obs_scrape_interval_s=self.config.obs_scrape_interval_s,
            )
        drill = self.config.drill_slow_worker
        if drill is not None and drill[0] == slot and incarnation == 0:
            kwargs["slow_query_s"] = drill[1]
            log_event(
                logger,
                logging.WARNING,
                "scale.drill.slow_worker",
                slot=slot,
                slow_query_s=drill[1],
            )
        process = self._ctx.Process(
            target=worker_main,
            args=(
                path,
                str(self.catalog.root),
                self.config.threshold,
                self.config.min_api_hits,
            ),
            kwargs=kwargs,
            daemon=True,
        )
        process.start()
        try:
            if generation is not None:
                await asyncio.shield(generation)
            deadline = time.monotonic() + self.config.startup_timeout_s
            while True:
                try:
                    reader, writer = await asyncio.open_unix_connection(
                        path, limit=MAX_LINE_BYTES
                    )
                    break
                except (FileNotFoundError, ConnectionRefusedError, OSError):
                    if not process.is_alive():
                        raise RuntimeError(
                            f"worker {slot} died during startup "
                            f"(exit {process.exitcode})"
                        )
                    if time.monotonic() >= deadline:
                        raise TimeoutError(
                            f"worker {slot} socket {path} never came up"
                        )
                    await asyncio.sleep(0.02)
        except BaseException:
            if process.is_alive():
                process.terminate()
            if generation is not None:
                # Start-up serves nothing yet, so reap before the error
                # propagates.  A failed respawn must not block the loop
                # a serving plane answers on; the next spawn reaps it.
                process.join(timeout=2.0)
            raise
        return WorkerHandle(slot, process, path, reader, writer)

    def _alive_count(self) -> int:
        return sum(1 for handle in self._workers if handle.alive)

    async def _retire(
        self,
        handle: WorkerHandle,
        respawn: bool = True,
        reason: str = "connection lost",
    ) -> None:
        """Mark a worker dead, kill its process, optionally respawn."""
        if not handle.alive:
            return
        handle.alive = False
        self.metrics.get("scale_worker_deaths_total").inc()
        handle.close_connection()
        if self._obs is not None:
            try:
                self._obs.harvest_worker(handle, reason)
            except Exception:  # noqa: BLE001 -- telemetry must not block respawn
                pass
        if handle.process.is_alive():
            handle.process.terminate()
        # A SIGKILLed worker never runs its own unlink.
        Path(handle.socket_path).unlink(missing_ok=True)
        self.metrics.get("scale_workers_alive").set(float(self._alive_count()))
        if respawn and not self._draining:
            replacement = await self._spawn_worker(handle.slot)
            self._workers[
                self._workers.index(handle)
            ] = replacement
            self._idle.put_nowait(replacement)
            self.metrics.get("scale_worker_respawns_total").inc()
            self.metrics.get("scale_workers_alive").set(
                float(self._alive_count())
            )
            self._write_pids()

    async def _reap_loop(self) -> None:
        """Detect silently dead workers (e.g. SIGKILL) and respawn."""
        while not self._shutdown.is_set():
            await asyncio.sleep(0.2)
            try:
                info = self.catalog.latest(missing_ok=True)
                if info is not None:
                    self.metrics.get("scale_generation").set(
                        float(info.number)
                    )
            except CatalogError:
                pass
            for handle in list(self._workers):
                if handle.alive and not handle.process.is_alive():
                    try:
                        await self._retire(
                            handle,
                            reason=(
                                "process exited "
                                f"(exit {handle.process.exitcode})"
                            ),
                        )
                    except (RuntimeError, TimeoutError):
                        pass  # respawn failed; the next tick retries nothing
                        # -- the slot stays dead and stats show it.

    # ---- dispatch --------------------------------------------------------

    async def _dispatch(
        self,
        line: bytes,
        deadline: Optional[float],
        rid: Optional[str] = None,
    ) -> bytes:
        """Send one query line to a worker; retry across deaths."""
        attempts = 0
        while True:
            remaining: Optional[float] = None
            if deadline is not None:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    self.metrics.get("scale_shed_total").inc()
                    return SHED_RESPONSE
            try:
                if remaining is None:
                    handle = await self._idle.get()
                else:
                    handle = await asyncio.wait_for(
                        self._idle.get(), remaining
                    )
            except asyncio.TimeoutError:
                self.metrics.get("scale_shed_total").inc()
                return SHED_RESPONSE
            if not handle.alive:
                continue  # stale idle-queue entry from a retirement
            self._dispatched += 1
            fault_point("scale.dispatch", index=self._dispatched)
            cap = WORKER_REPLY_CAP_S
            budget = cap if remaining is None else min(remaining, cap)
            if rid is not None:
                handle.last_request = {
                    "rid": rid,
                    "line": line[:240].decode("utf-8", "replace").rstrip("\n"),
                    "ts": time.time(),
                    "outcome": "inflight",
                }
            task = asyncio.ensure_future(handle.request(line))
            try:
                reply = await asyncio.wait_for(asyncio.shield(task), budget)
            except asyncio.TimeoutError:
                if budget >= cap:
                    # Hung worker: kill it and retry elsewhere.
                    task.cancel()
                    await self._retire(handle, reason="reply cap exceeded")
                    if attempts < DISPATCH_RETRIES:
                        attempts += 1
                        continue
                    return error("worker timeout")
                # Deadline shed: the worker is merely busy; reclaim it
                # once its reply lands.
                asyncio.ensure_future(self._reclaim(handle, task))
                self.metrics.get("scale_shed_total").inc()
                return SHED_RESPONSE
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                await self._retire(handle)
                if attempts < DISPATCH_RETRIES:
                    attempts += 1
                    continue
                return error("worker failed")
            else:
                handle.settle(reply)
                self._idle.put_nowait(handle)
                return reply

    async def _reclaim(self, handle: WorkerHandle, task: asyncio.Future) -> None:
        """Re-idle a worker whose reply outlived its request's deadline."""
        try:
            reply = await asyncio.wait_for(task, WORKER_REPLY_CAP_S)
        except (
            asyncio.TimeoutError,
            ConnectionError,
            asyncio.IncompleteReadError,
            OSError,
        ):
            await self._retire(handle, reason="reclaim failed")
        else:
            handle.settle(reply)
            if handle.alive:
                self._idle.put_nowait(handle)

    # ---- request handling ------------------------------------------------

    async def handle_line(self, line: bytes) -> bytes:
        """Answer one protocol line (front op or worker fan-out)."""
        self._requests_handled += 1
        try:
            request = decode(line)
        except BadRequest as exc:
            return error(str(exc))
        op = request.get("op")
        if op == "query":
            return await self._handle_query(line, request)
        if op == "stats":
            return dumps(await self.stats())
        if op == "health":
            return dumps(await self.health())
        if op == "alerts":
            return dumps(alerts_payload(self.alert_engine))
        if op == "ping":
            return dumps(
                {"ok": True, "pong": True, "workers": self._alive_count()}
            )
        if op == "shutdown":
            self.request_shutdown()
            return dumps({"ok": True, "shutdown": True})
        return error(f"unknown op {op!r}")

    async def _handle_query(self, line: bytes, request: Dict) -> bytes:
        if self._draining:
            return SHED_RESPONSE
        if self._pending >= self.config.max_pending:
            self.metrics.get("scale_shed_total").inc()
            return SHED_RESPONSE
        rid: Optional[str] = None
        span_id: Optional[str] = None
        if self._obs is not None:
            # Trace envelope: the worker pops ``_trace`` before
            # answering, so the reply bytes stay identical to an
            # untraced run.  Injected only for admitted requests --
            # pre-admission sheds never reach a worker.
            from repro.obs.trace import _new_id

            rid = self._obs.next_request_id()
            span_id = _new_id()
            envelope = (
                ',"_trace":{"tid":"%s","rid":"%s","psid":"%s"}}\n'
                % (self._obs.trace_id, rid, span_id)
            ).encode()
            stripped = line.rstrip()
            if stripped.endswith(b"}") and len(stripped) > 2:
                # Splice the envelope into the already-serialized
                # object instead of re-dumping the whole (possibly
                # 100-query) request line.  The ids are hex16 /
                # ``req-%012d``, so no JSON escaping is needed.
                line = stripped[:-1] + envelope
            else:
                request["_trace"] = {
                    "tid": self._obs.trace_id,
                    "rid": rid,
                    "psid": span_id,
                }
                line = dumps(request)
        self._pending += 1
        self.metrics.get("scale_pending_requests").set(float(self._pending))
        started = time.perf_counter()
        deadline = (
            started + self.config.deadline_s
            if self.config.deadline_s is not None
            else None
        )
        try:
            reply = await self._dispatch(line, deadline, rid=rid)
        finally:
            self._pending -= 1
            self.metrics.get("scale_pending_requests").set(
                float(self._pending)
            )
        elapsed = time.perf_counter() - started
        self.metrics.get("scale_request_latency_seconds").observe(elapsed)
        self.metrics.get("scale_requests_total").inc()
        queries = request.get("qs")
        self.metrics.get("scale_queries_total").inc(
            len(queries) if isinstance(queries, list) else 1
        )
        if self._obs is not None:
            try:
                self._obs.spans.record(
                    "front.request",
                    self._obs.trace_id,
                    started=started,
                    duration=elapsed,
                    span_id=span_id,
                    request_id=rid,
                    outcome="shed" if reply == SHED_RESPONSE else "ok",
                    queries=len(queries) if isinstance(queries, list) else 1,
                )
            except Exception:  # noqa: BLE001 -- telemetry must not fail queries
                pass
        return reply

    async def _worker_stats(self) -> List[Dict]:
        """One ``stats`` roundtrip per live worker (best effort).

        A roundtrip that exceeds ``stats_timeout_s`` is still skipped
        (a busy worker must not wedge the front's ``stats`` op), but no
        longer silently: it bumps ``scale_stats_timeouts_total`` and
        logs the worker slot, so a chronically unresponsive worker is
        visible instead of just missing from the merged histogram.
        """
        stats_line = dumps({"op": "stats"})
        payloads: List[Dict] = []
        for handle in list(self._workers):
            if not handle.alive:
                continue
            try:
                reply = await asyncio.wait_for(
                    handle.request(stats_line), self.config.stats_timeout_s
                )
            except asyncio.TimeoutError:
                self.metrics.get("scale_stats_timeouts_total").inc()
                log_event(
                    logger,
                    logging.WARNING,
                    "scale.stats.timeout",
                    slot=handle.slot,
                    timeout_s=self.config.stats_timeout_s,
                )
                continue
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                continue  # dying worker: the reaper will retire it
            try:
                payload = json.loads(reply)
            except ValueError:
                continue
            if payload.get("ok"):
                payloads.append(payload)
        return payloads

    def _plane_summary(self) -> Dict:
        metrics = self.metrics
        return {
            "workers": self._alive_count(),
            "configured_workers": self.config.workers,
            "generation": int(metrics.get("scale_generation").value),
            "pending": self._pending,
            "max_pending": self.config.max_pending,
            "deadline_s": self.config.deadline_s,
            "requests": metrics.get("scale_requests_total").value,
            "queries": metrics.get("scale_queries_total").value,
            "shed": metrics.get("scale_shed_total").value,
            "worker_deaths": metrics.get("scale_worker_deaths_total").value,
            "worker_respawns": metrics.get(
                "scale_worker_respawns_total"
            ).value,
            "stats_timeouts": metrics.get(
                "scale_stats_timeouts_total"
            ).value,
            "draining": self._draining,
        }

    async def stats(self) -> Dict:
        worker_payloads = await self._worker_stats()
        merged = merge_histogram_dicts(
            [
                payload.get("metrics", {}).get(
                    "scale_worker_query_latency_seconds", {}
                )
                for payload in worker_payloads
            ]
        )
        return {
            "ok": True,
            "plane": self._plane_summary(),
            "workers": [payload.get("worker", {}) for payload in worker_payloads],
            "query_latency": merged,
            "metrics": self.metrics.as_dict(),
        }

    async def health(self) -> Dict:
        latency = self.metrics.get("scale_request_latency_seconds")
        payload = health_payload(
            self.alert_engine,
            plane=self._plane_summary(),
            rates={
                "requests_per_s": self.metrics.rate("scale_requests_total"),
                "queries_per_s": self.metrics.rate("scale_queries_total"),
                "request_p99_s": latency.quantile(0.99),
            },
        )
        if self._obs is not None:
            payload["inflight"] = {
                str(handle.slot): handle.inflight_rid()
                for handle in self._workers
                if handle.alive
            }
            try:
                payload["workers"] = self._obs.worker_rollup()
                payload["trace_id"] = self._obs.trace_id
            except Exception:  # noqa: BLE001 -- telemetry must not fail health
                pass
        return payload

    def federation_metrics(self, max_age_s: Optional[float] = None) -> Dict:
        """Workers' latest exported metrics as worker-tagged keys.

        Wired into the front's :class:`~repro.obs.timeseries.MetricScraper`
        as an enricher so per-worker series land in the front's
        time-series ring (the PR 5 offline toolchain -- reader, alert
        engine, ``cellspot top`` -- then sees them for free).  Returns
        ``{}`` when observability is off.
        """
        if self._obs is None:
            return {}
        if max_age_s is None:
            max_age_s = max(4.0 * self.config.obs_scrape_interval_s, 2.0)
        return self._obs.federation_metrics(max_age_s=max_age_s)

    # ---- serving ---------------------------------------------------------

    def request_shutdown(self) -> None:
        """Begin a graceful drain (signal-handler safe inside the loop)."""
        self._draining = True
        self._shutdown.set()

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                response = await self.handle_line(line)
                writer.write(response)
                await writer.drain()
                if self._draining:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request
        finally:
            try:
                writer.close()
            except Exception:  # noqa: BLE001 -- teardown best effort
                pass

    async def serve(
        self,
        socket_path: Optional[Union[str, Path]] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        ready_callback=None,
    ) -> int:
        """Run until SIGTERM / ``shutdown``; returns requests handled.

        A socket path owned by a live server is refused (``OSError``)
        before any worker is spawned.
        """
        if socket_path is None and port is None:
            raise ValueError("serve needs a socket path and/or a TCP port")
        if socket_path is not None:
            socket_path = Path(socket_path)
            claim_socket_path(socket_path)
        await self.start()
        if socket_path is not None:
            self._servers.append(
                await asyncio.start_unix_server(
                    self._handle_client,
                    path=str(socket_path),
                    limit=MAX_LINE_BYTES,
                )
            )
        if port is not None:
            self._servers.append(
                await asyncio.start_server(
                    self._handle_client,
                    host or "127.0.0.1",
                    port,
                    limit=MAX_LINE_BYTES,
                )
            )
        if ready_callback is not None:
            ready_callback(self)
        try:
            await self._shutdown.wait()
        finally:
            await self._drain()
            if socket_path is not None:
                Path(socket_path).unlink(missing_ok=True)
        return self._requests_handled

    async def _drain(self) -> None:
        """Stop intake, finish admitted work, stop children."""
        self._draining = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            try:
                await server.wait_closed()
            except Exception:  # noqa: BLE001 -- teardown best effort
                pass
        self._servers = []
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        while self._pending > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        if self._reaper_task is not None:
            self._reaper_task.cancel()
            try:
                await self._reaper_task
            except asyncio.CancelledError:
                pass
        closing = [handle for handle in self._workers if handle.alive]
        for handle in closing:
            handle.alive = False
            handle.close_connection()  # EOF: workers exit cleanly
        for handle in closing:
            try:
                await handle.writer.wait_closed()
            except OSError:  # the worker already dropped the connection
                pass
        # Reap off the loop and all at once: a child slow to exit must
        # not stall the loop or the other reaps.
        reaps = [
            asyncio.to_thread(_reap_process, handle.process)
            for handle in self._workers
        ]
        if self.builder_process is not None:
            reaps.append(asyncio.to_thread(_stop_process, self.builder_process))
        await asyncio.gather(*reaps)
        self.metrics.get("scale_workers_alive").set(0.0)
