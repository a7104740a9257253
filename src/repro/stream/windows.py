"""Windowed per-subnet counter state for the streaming engine.

The batch pipeline sees one month of beacons at once; the online
engine sees them one at a time.  State is organised as an *open
window* of per-subnet counters plus a *closed aggregate* that absorbs
each window when it closes:

    aggregate <- aggregate * decay + window

Both are ``{Prefix: SubnetBeaconCounts}`` mappings filled by the
batch dataset's own per-hit fold
(:func:`repro.datasets.beacon_dataset.fold_hit`), so a subnet's
metadata is pinned by its first event in every window, and the
aggregate keeps the first window's metadata -- exactly what
``BeaconDataset.from_hits`` keeps, wherever the window boundaries fall.

- ``decay == 1.0`` is a **tumbling accumulate**: integer counters add
  exactly, so a drained stream holds precisely the counts a batch run
  over the same events would -- the stream/batch differential test
  rests on this.
- ``decay < 1.0`` is an **exponentially decayed** view: each window
  advance multiplies history by ``decay``, so old evidence fades with
  a half-life of ``ln(0.5)/ln(decay)`` windows.  Counters become
  floats, deliberately and visibly.

Windows advance on *event count* (every ``window_events`` ingested
events), never on wall clock: replaying the same event sequence yields
bit-identical state on any machine at any speed -- the deterministic,
seed-stable semantics the differential and crash-resume tests need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.datasets.beacon_dataset import SubnetBeaconCounts, fold_hit
from repro.net.prefix import Prefix

#: Per-subnet counters; int under tumbling accumulation, float once decayed.
Counts = Dict[Prefix, SubnetBeaconCounts]


def _subnet_key(subnet: Prefix) -> Tuple[int, int, int]:
    """Canonical subnet order: (family, value, length)."""
    return subnet.family, subnet.value, subnet.length


@dataclass(frozen=True)
class WindowPolicy:
    """Deterministic window semantics.

    ``window_events`` -- events per window (the tumbling size).
    ``decay`` -- multiplier applied to the closed aggregate at each
    window advance; 1.0 accumulates exactly (stream == batch).
    """

    window_events: int = 10_000
    decay: float = 1.0

    def __post_init__(self) -> None:
        if self.window_events < 1:
            raise ValueError("window_events must be >= 1")
        if not 0 < self.decay <= 1:
            raise ValueError("decay must be in (0, 1]")

    @property
    def is_exact(self) -> bool:
        """True when a drained stream equals the batch aggregate."""
        return self.decay == 1.0


class WindowedSubnetState:
    """Open window + decayed aggregate over per-subnet counters."""

    def __init__(self, policy: Optional[WindowPolicy] = None) -> None:
        self.policy = policy or WindowPolicy()
        #: Events in the currently open window.
        self.window_fill = 0
        #: Total windows closed so far.
        self.windows_closed = 0
        self._window: Counts = {}
        self._aggregate: Counts = {}
        #: Optional observer called at the top of :meth:`advance` with
        #: ``(window_seq, window_counts)`` -- the *closing* window's raw
        #: counters before they are folded into the (possibly decayed)
        #: aggregate.  The census drift monitor
        #: (:class:`repro.obs.health.CensusDriftMonitor`) hangs here.
        self.on_advance = None

    # ---- ingestion -------------------------------------------------------

    def observe(
        self,
        subnet: Prefix,
        asn: int,
        country: str,
        api_enabled: bool,
        cellular_labeled: bool,
    ) -> bool:
        """Fold one event in; returns True when a window just closed."""
        fold_hit(self._window, subnet, asn, country, api_enabled,
                 cellular_labeled)
        self.window_fill += 1
        if self.window_fill >= self.policy.window_events:
            self.advance()
            return True
        return False

    def advance(self) -> None:
        """Close the open window into the aggregate (decay applies)."""
        if self.on_advance is not None:
            # Observe-before-fold: the monitor sees the closing
            # window's fresh evidence, untouched by decay or history.
            self.on_advance(self.windows_closed + 1, self._window)
        aggregate = self._aggregate
        decay = self.policy.decay
        if decay != 1.0:
            for counts in aggregate.values():
                counts.hits *= decay
                counts.api_hits *= decay
                counts.cellular_hits *= decay
        for subnet, counts in self._window.items():
            current = aggregate.get(subnet)
            if current is None:
                # The window is cleared below: the aggregate takes the
                # counter over.
                aggregate[subnet] = counts
            else:
                # First seen wins: the aggregate's metadata stays.
                current.hits += counts.hits
                current.api_hits += counts.api_hits
                current.cellular_hits += counts.cellular_hits
        self._window.clear()
        self.window_fill = 0
        self.windows_closed += 1

    # ---- views -----------------------------------------------------------

    def combined(self) -> Iterator[Tuple[Prefix, SubnetBeaconCounts]]:
        """Aggregate plus open window, one summed row per subnet.

        Rows come out in canonical subnet order (family, value,
        length) so downstream tables are deterministic regardless of
        event arrival order.  A subnet held on one side only comes out
        as the state's own counter (read it, never change it); one
        held on both is summed into a new counter that keeps the
        aggregate's (first-seen) metadata.
        """
        merged = dict(self._aggregate)
        for subnet, counts in self._window.items():
            current = merged.get(subnet)
            if current is not None:
                counts = SubnetBeaconCounts(
                    subnet, current.asn, current.country,
                    current.hits + counts.hits,
                    current.api_hits + counts.api_hits,
                    current.cellular_hits + counts.cellular_hits,
                )
            merged[subnet] = counts
        for subnet in sorted(merged, key=_subnet_key):
            yield subnet, merged[subnet]

    def subnet_count(self) -> int:
        keys = set(self._aggregate)
        keys.update(self._window)
        return len(keys)

    def hits_by_asn(self) -> Dict[int, float]:
        """Live per-AS hit totals (AS filter rule 2 input)."""
        totals: Dict[int, float] = {}
        for _subnet, counts in self.combined():
            totals[counts.asn] = totals.get(counts.asn, 0) + counts.hits
        return totals

    # ---- snapshot round-trip ---------------------------------------------

    def to_snapshot(self) -> Dict:
        """JSON-shaped state (exact: ints stay ints under decay=1)."""

        def rows(table: Counts) -> List[List]:
            return [
                [s.family, s.value, s.length, c.asn, c.country, c.hits,
                 c.api_hits, c.cellular_hits]
                for s, c in sorted(
                    table.items(), key=lambda item: _subnet_key(item[0])
                )
            ]

        return {
            "policy": {
                "window_events": self.policy.window_events,
                "decay": self.policy.decay,
            },
            "window_fill": self.window_fill,
            "windows_closed": self.windows_closed,
            "window": rows(self._window),
            "aggregate": rows(self._aggregate),
        }

    @classmethod
    def from_snapshot(cls, raw: Dict) -> "WindowedSubnetState":
        """Rebuild state; impossible counts and repeated subnets raise
        ``ValueError`` instead of loading."""
        policy = WindowPolicy(
            window_events=raw["policy"]["window_events"],
            decay=raw["policy"]["decay"],
        )
        state = cls(policy)
        state.window_fill = raw["window_fill"]
        state.windows_closed = raw["windows_closed"]

        def fill(rows: List[List], table: Counts) -> None:
            for family, value, length, asn, country, hits, api, cell in rows:
                subnet = Prefix(family, value, length)
                if subnet in table:
                    raise ValueError(f"duplicate snapshot row for {subnet}")
                table[subnet] = SubnetBeaconCounts(
                    subnet, asn, country, hits, api, cell
                )

        fill(raw["window"], state._window)
        fill(raw["aggregate"], state._aggregate)
        return state
