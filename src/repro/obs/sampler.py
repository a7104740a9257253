"""Sampling wall-clock profiler: periodic ``sys._current_frames`` walks.

Answers "where did the time go" statistically, cheaply enough to run
against production traffic: a daemon thread wakes ~100 times a second,
snapshots every thread's current frame stack, and folds each stack
into an aggregate count.  Overhead scales with the *sampling rate*,
not the workload, so the <5% resource-observability budget holds on
the fused ingest+classify hot path (pinned by
``benchmarks/bench_resource_obs.py``).  Deterministic per-call counts
need no repo code: run the CLI under the standard library's
deterministic profiler (see ``docs/observability.md``).

Outputs:

- **collapsed stacks** (:meth:`SamplingProfiler.collapsed`,
  ``--prof-sample-out``): one ``frame;frame;frame count`` line per
  unique stack, the flamegraph.pl / speedscope interchange format;
- **Chrome trace** (:meth:`SamplingProfiler.to_chrome_trace`): one
  complete event per unique stack with sampled-time durations, joined
  to the run's ``trace_id`` so a flamegraph can sit next to the span
  trace in one Perfetto session.

Both are written atomically, so a crashed run never leaves a torn
report.

Frames are keyed ``function (file:firstlineno)`` -- the *definition*
line, not the currently executing line, so one function is one frame
in the fold regardless of where in its body the sample landed.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.trace import current_trace_id
from repro.runtime.checkpoint import atomic_write_text

#: ~100Hz: granular enough for stage-level attribution, cheap enough
#: to leave on against live traffic.
DEFAULT_INTERVAL_S = 0.01

#: Stack frames retained per sample (deepest dropped beyond this).
MAX_STACK_DEPTH = 64


def _frame_key(frame) -> str:
    code = frame.f_code
    filename = os.path.basename(code.co_filename) or code.co_filename
    return f"{code.co_name} ({filename}:{code.co_firstlineno})"


class SamplingProfiler:
    """Aggregating wall-clock stack sampler (one per process)."""

    def __init__(
        self,
        interval_s: float = DEFAULT_INTERVAL_S,
        max_depth: int = MAX_STACK_DEPTH,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.interval_s = interval_s
        self.max_depth = max_depth
        #: Samples actually taken (one per thread per wakeup).
        self.samples = 0
        #: Wakeups (one snapshot of all threads each).
        self.wakeups = 0
        self.started_at: Optional[float] = None
        self.stopped_at: Optional[float] = None
        self._counts: Dict[Tuple[str, ...], int] = {}
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ---- lifecycle --------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> bool:
        """Begin sampling; returns True once the sampler runs.

        Idempotent: calling start on a running sampler returns True
        without spawning a second thread.
        """
        if self.running:
            return True
        self.started_at = time.perf_counter()
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._loop, name="cellspot-stack-sampler", daemon=True
        )
        self._thread.start()
        return True

    def stop(self) -> None:
        """Stop sampling (idempotent)."""
        self._stop_event.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
            self.stopped_at = time.perf_counter()

    def _loop(self) -> None:
        own_id = threading.get_ident()
        while not self._stop_event.wait(self.interval_s):
            self._collect(own_id)

    def _collect(self, own_id: int) -> None:
        # sys._current_frames is a point-in-time snapshot taken under
        # the GIL -- frames can't mutate mid-walk on CPython.
        frames = sys._current_frames()
        self.wakeups += 1
        folded: List[Tuple[str, ...]] = []
        for thread_id, frame in frames.items():
            if thread_id == own_id:
                continue
            stack: List[str] = []
            depth = 0
            while frame is not None and depth < self.max_depth:
                stack.append(_frame_key(frame))
                frame = frame.f_back
                depth += 1
            if stack:
                folded.append(tuple(reversed(stack)))  # root-first
        if not folded:
            return
        with self._lock:
            for stack_key in folded:
                self._counts[stack_key] = self._counts.get(stack_key, 0) + 1
                self.samples += 1

    # ---- views ------------------------------------------------------------

    def counts(self) -> Dict[Tuple[str, ...], int]:
        """Snapshot copy of the folded-stack aggregate."""
        with self._lock:
            return dict(self._counts)

    def collapsed(self) -> List[str]:
        """Flamegraph-ready collapsed-stack lines, heaviest first."""
        counts = self.counts()
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return [
            ";".join(stack) + f" {count}" for stack, count in ordered
        ]

    def top(self, n: int = 10) -> List[Tuple[str, int]]:
        """Leaf frames by inclusive sample count (self time)."""
        leaves: Dict[str, int] = {}
        for stack, count in self.counts().items():
            leaf = stack[-1]
            leaves[leaf] = leaves.get(leaf, 0) + count
        return sorted(leaves.items(), key=lambda kv: (-kv[1], kv[0]))[:n]

    # ---- export -----------------------------------------------------------

    def write_collapsed(self, path: Union[str, Path]) -> Path:
        """Atomically write the collapsed stacks (crash-safe report)."""
        path = Path(path)
        atomic_write_text(path, "\n".join(self.collapsed()) + "\n")
        return path

    def to_chrome_trace(self, trace_id: Optional[str] = None) -> Dict:
        """Chrome ``trace_event`` JSON for the sampled profile.

        One complete event per unique folded stack, laid end to end on
        a synthetic sampled-time axis (``dur`` = samples x interval),
        heaviest first; the full fold rides in ``args.stack``.  The
        ``trace_id`` (default: the run's) joins the profile to the
        span trace and the run manifest.
        """
        trace_id = trace_id or current_trace_id()
        pid = os.getpid()
        interval_us = self.interval_s * 1e6
        events = []
        cursor = 0.0
        ordered = sorted(
            self.counts().items(), key=lambda kv: (-kv[1], kv[0])
        )
        for stack, count in ordered:
            duration = count * interval_us
            events.append(
                {
                    "name": stack[-1],
                    "cat": "cellspot-sample",
                    "ph": "X",
                    "ts": cursor,
                    "dur": duration,
                    "pid": pid,
                    "tid": 0,
                    "args": {
                        "trace_id": trace_id,
                        "samples": count,
                        "stack": ";".join(stack),
                    },
                }
            )
            cursor += duration
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "trace_id": trace_id,
                "kind": "sampling-profile",
                "samples": self.samples,
                "interval_s": self.interval_s,
            },
        }

    def write_chrome_trace(
        self, path: Union[str, Path], trace_id: Optional[str] = None
    ) -> Path:
        import json

        path = Path(path)
        atomic_write_text(
            path, json.dumps(self.to_chrome_trace(trace_id)) + "\n"
        )
        return path
