"""The streaming ingestion engine.

:class:`StreamEngine` consumes beacon events one at a time and
maintains :class:`~repro.stream.windows.WindowedSubnetState`; at any
moment it can emit the same :class:`~repro.core.ratios.RatioTable`
algebra the batch pipeline produces, so every downstream consumer
(classifier, AS filter, confidence intervals, the serving index) works
unchanged on live state.

**Stream == batch.**  Under an exact window policy (``decay == 1``),
draining a finite event stream leaves integer counters identical to
``BeaconDataset.from_hits`` over the same events, so
:meth:`StreamEngine.ratio_table` is *bit-identical* to
``RatioTable.from_beacons`` of a batch run -- the differential test in
``tests/test_stream_differential.py`` pins this for seeds {0, 1}.

**Crash safety.**  :meth:`save_snapshot` writes the full window state
plus the consumed-event offset through
:func:`repro.runtime.checkpoint.atomic_writer`; a ``kill -9`` leaves
either the previous snapshot or the new one, never a torn file.
:meth:`load_snapshot` plus :func:`repro.stream.sources.skip_events`
resumes with no duplicated and no lost counts.
"""

from __future__ import annotations

import json
import logging
import time
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Union

from repro.cdn.logs import BeaconHit
from repro.core.classifier import (
    DEFAULT_THRESHOLD,
    ClassificationResult,
    SubnetClassifier,
)
from repro.core.ratios import RatioRecord, RatioTable, ratio_records
from repro.obs.metrics import MeterCache, instrument
from repro.runtime.checkpoint import atomic_writer
from repro.runtime.faults import fault_point
from repro.runtime.logging import get_logger, log_event
from repro.stream.windows import WindowedSubnetState, WindowPolicy

#: Bump when the snapshot layout changes; mismatched snapshots are
#: rejected instead of misread.
SNAPSHOT_FORMAT_VERSION = 1

_LOG = get_logger("stream.engine")

#: Stream-engine telemetry (``repro.obs``), recorded at window-close /
#: snapshot granularity -- never per event.  ``ingest`` is the hottest
#: loop in the online path; folded events are tallied on the engine
#: and flushed to the global counter only when a window closes or a
#: snapshot is cut, so steady-state ingest pays a plain integer add.
_STREAM_METER = MeterCache(
    lambda: (
        instrument(
            "counter", "stream_events_total",
            "beacon events folded into windowed state",
        ),
        instrument(
            "counter", "stream_window_advances_total",
            "windows closed into the aggregate",
        ),
        instrument(
            "gauge", "stream_tracked_subnets",
            "subnets with live window state",
        ),
        instrument(
            "histogram", "stream_snapshot_seconds",
            "wall time of atomic snapshot writes",
        ),
        instrument(
            "gauge", "stream_window_lag_events",
            "open-window fill at the last metrics flush (a window "
            "that stops closing shows a climbing lag here)",
        ),
    )
)


class SnapshotError(RuntimeError):
    """A snapshot file is unreadable or from an incompatible engine."""


class StreamEngine:
    """Incremental beacon ingestion with windowed per-subnet state."""

    def __init__(
        self,
        policy: Optional[WindowPolicy] = None,
        month: Optional[str] = None,
    ) -> None:
        self.state = WindowedSubnetState(policy)
        #: Collection month, pinned by the first event when not given.
        self.month = month
        #: Accepted events folded into state (the resume offset).
        self.events_consumed = 0
        #: Events already flushed to the global counter (obs batching).
        self._events_flushed = 0
        #: Optional census drift monitor (attach_monitor).
        self.monitor = None
        #: Optional :class:`repro.obs.resources.LeakDrill` -- retains
        #: ballast at each window close so the rss-growth alert can be
        #: exercised end to end (process state, like ``monitor``).
        self.leak_drill = None

    @property
    def policy(self) -> WindowPolicy:
        return self.state.policy

    def attach_monitor(self, monitor) -> None:
        """Hook a census drift monitor at the window-close boundary.

        ``monitor`` is a :class:`repro.obs.health.CensusDriftMonitor`
        (anything with ``on_window_close(window_seq, window_counts)``).
        Scoring happens only when a window closes -- never per event --
        so the ingest hot path is untouched.  Monitors are process
        state, not window state: a snapshot-resumed engine needs the
        monitor re-attached.
        """
        self.monitor = monitor
        self.state.on_advance = (
            None if monitor is None else monitor.on_window_close
        )

    @property
    def windows_advanced(self) -> int:
        return self.state.windows_closed

    # ---- ingestion -------------------------------------------------------

    def ingest(self, hit: BeaconHit) -> bool:
        """Fold one event in; returns True when a window just closed."""
        if self.month is None:
            self.month = hit.month
        elif hit.month != self.month:
            raise ValueError(
                f"event from {hit.month} in a {self.month} stream"
            )
        closed = self.state.observe(
            subnet=hit.subnet,
            asn=hit.asn,
            country=hit.country,
            api_enabled=hit.api_enabled,
            cellular_labeled=hit.is_cellular_labeled,
        )
        self.events_consumed += 1
        if closed:
            if self.leak_drill is not None:
                self.leak_drill.on_window_close()
            self._flush_metrics(window_closed=True)
            log_event(
                _LOG, logging.DEBUG, "window.advance",
                windows=self.state.windows_closed,
                events=self.events_consumed,
                subnets=self.state.subnet_count(),
            )
        return closed

    def _flush_metrics(self, window_closed: bool = False) -> None:
        """Fold batched event counts + live gauges into the registry."""
        events, advances, subnets, _snapshot, lag = _STREAM_METER.resolve()
        pending = self.events_consumed - self._events_flushed
        if pending > 0:
            events.inc(pending)
            self._events_flushed = self.events_consumed
        if window_closed:
            advances.inc()
        subnets.set(self.state.subnet_count())
        lag.set(self.state.window_fill)

    def ingest_many(self, events: Iterable[BeaconHit]) -> int:
        """Drain an event iterable; returns how many were folded in."""
        count = 0
        for hit in events:
            self.ingest(hit)
            count += 1
        return count

    # ---- live views ------------------------------------------------------

    def ratio_records(self, min_api_hits: int = 1) -> Iterator[RatioRecord]:
        """The live ratio records (aggregate + open window), lazily, in
        canonical subnet order.

        Filtered by :func:`~repro.core.ratios.ratio_records`, so the
        record filter (subnets with fewer than ``min_api_hits`` API
        hits are dropped) is the batch one.
        """
        return ratio_records(
            (counts for _subnet, counts in self.state.combined()),
            min_api_hits=min_api_hits,
        )

    def ratio_table(self, min_api_hits: int = 1) -> RatioTable:
        """The live :class:`RatioTable` over :meth:`ratio_records`."""
        return RatioTable(self.ratio_records(min_api_hits))

    def classification(
        self,
        threshold: float = DEFAULT_THRESHOLD,
        min_api_hits: int = 1,
    ) -> ClassificationResult:
        """Threshold labels over the live ratio table."""
        classifier = SubnetClassifier(
            threshold=threshold, min_api_hits=min_api_hits
        )
        return classifier.classify(self.ratio_table(min_api_hits))

    def hits_by_asn(self) -> Dict[int, float]:
        return self.state.hits_by_asn()

    def subnet_count(self) -> int:
        return self.state.subnet_count()

    # ---- snapshots -------------------------------------------------------

    def to_snapshot(self) -> Dict:
        return {
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "month": self.month,
            "events_consumed": self.events_consumed,
            "state": self.state.to_snapshot(),
        }

    def save_snapshot(self, path: Union[str, Path]) -> Path:
        """Atomically persist engine state (kill-9 safe)."""
        path = Path(path)
        started = time.perf_counter()
        with atomic_writer(path) as stream:
            json.dump(self.to_snapshot(), stream, separators=(",", ":"))
        # Chaos hook: tear the file *after* the atomic rename, modeling
        # media corruption that load_snapshot must detect (not crash on).
        fault_point("stream.snapshot", path=path)
        _STREAM_METER.resolve()[3].observe(time.perf_counter() - started)
        self._flush_metrics()
        log_event(
            _LOG, logging.INFO, "snapshot.saved",
            path=path, events=self.events_consumed,
            windows=self.windows_advanced,
        )
        return path

    @classmethod
    def from_snapshot(cls, raw: Dict) -> "StreamEngine":
        version = raw.get("format_version")
        if version != SNAPSHOT_FORMAT_VERSION:
            raise SnapshotError(
                f"snapshot format {version!r} != {SNAPSHOT_FORMAT_VERSION}"
            )
        engine = cls.__new__(cls)
        engine.state = WindowedSubnetState.from_snapshot(raw["state"])
        engine.month = raw["month"]
        engine.events_consumed = raw["events_consumed"]
        # Monitors and leak drills are process state, not snapshot
        # state; re-attach (attach_monitor / leak_drill) after resume.
        engine.monitor = None
        engine.leak_drill = None
        # Events restored from a snapshot were counted by the process
        # that consumed them; this process's counter starts at the
        # resume offset so totals reflect work done *here*.
        engine._events_flushed = engine.events_consumed
        return engine

    @classmethod
    def load_snapshot(cls, path: Union[str, Path]) -> "StreamEngine":
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise SnapshotError(f"unreadable snapshot {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise SnapshotError(f"snapshot {path} is not a JSON object")
        try:
            engine = cls.from_snapshot(raw)
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"malformed snapshot {path}: {exc}") from exc
        log_event(
            _LOG, logging.INFO, "snapshot.loaded",
            path=path, events=engine.events_consumed,
            windows=engine.windows_advanced,
        )
        return engine

    @classmethod
    def resume_or_start(
        cls,
        snapshot_path: Optional[Union[str, Path]],
        policy: Optional[WindowPolicy] = None,
    ) -> "StreamEngine":
        """Load the snapshot when present, else a fresh engine.

        A resumed engine keeps the *snapshot's* window policy: mixing
        policies mid-stream would silently change semantics, so a
        caller-supplied policy that disagrees raises.
        """
        if snapshot_path is not None and Path(snapshot_path).exists():
            engine = cls.load_snapshot(snapshot_path)
            if policy is not None and policy != engine.policy:
                raise SnapshotError(
                    f"snapshot window policy {engine.policy} != requested "
                    f"{policy}; delete the snapshot to change policy"
                )
            return engine
        return cls(policy=policy)
