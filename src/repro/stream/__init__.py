"""Streaming ingestion: the census signal as a live stream.

The paper's census is a batch artifact, but its core quantity --
per-/24 and /48 cellular ratios from RUM beacons -- arrives naturally
as a stream.  This package ingests beacon events incrementally and
maintains windowed per-subnet counters whose drained total is
*provably equal* to a batch run over the same events -- the windows
hold the batch dataset's own ``SubnetBeaconCounts``, filled by its
per-hit fold:

- :mod:`repro.stream.windows` -- tumbling / exponentially-decayed
  window state with deterministic, event-count-driven semantics;
- :mod:`repro.stream.engine` -- the ingestion engine: event folding,
  live :class:`~repro.core.ratios.RatioTable` views, atomic snapshots
  for crash-resume;
- :mod:`repro.stream.sources` -- event sources (finite JSONL, tailed
  JSONL, world generator) under the runtime's ingestion policies.

The serving layer (:mod:`repro.serve`) builds its queryable index on
top of this engine.
"""

from repro.stream.engine import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
    StreamEngine,
)
from repro.stream.sources import (
    follow_jsonl,
    generated_events,
    jsonl_events,
    skip_events,
)
from repro.stream.windows import (
    WindowedSubnetState,
    WindowPolicy,
)

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotError",
    "StreamEngine",
    "WindowPolicy",
    "WindowedSubnetState",
    "follow_jsonl",
    "generated_events",
    "jsonl_events",
    "skip_events",
]
