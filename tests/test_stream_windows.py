"""Windowed counter state: the streaming engine's foundation.

Window semantics are event-count-driven and deterministic; these
tests pin the exact advance points, the decay algebra, canonical
ordering, the window-close hook, and the snapshot round-trip.
"""

from __future__ import annotations

import pytest

from repro.net.prefix import Prefix
from repro.stream.windows import WindowedSubnetState, WindowPolicy

P1 = Prefix.parse("10.0.0.0/24")
P2 = Prefix.parse("10.0.1.0/24")
P6 = Prefix.parse("2001:db8::/48")


class TestObserve:
    def test_observe_counts_api_and_cellular(self):
        state = WindowedSubnetState(WindowPolicy(window_events=100))
        state.observe(P1, 1, "DE", api_enabled=False, cellular_labeled=False)
        state.observe(P1, 1, "DE", api_enabled=True, cellular_labeled=False)
        state.observe(P1, 1, "DE", api_enabled=True, cellular_labeled=True)
        counts = dict(state.combined())[P1]
        assert (counts.hits, counts.api_hits, counts.cellular_hits) == (3, 2, 1)

    def test_cellular_without_api_is_rejected(self):
        state = WindowedSubnetState(WindowPolicy(window_events=100))
        with pytest.raises(ValueError, match="cellular label without API"):
            state.observe(P1, 1, "DE", api_enabled=False,
                          cellular_labeled=True)
        assert state.window_fill == 0 and state.subnet_count() == 0


class TestWindowPolicy:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            WindowPolicy(window_events=0)
        with pytest.raises(ValueError):
            WindowPolicy(decay=0.0)
        with pytest.raises(ValueError):
            WindowPolicy(decay=1.5)

    def test_is_exact(self):
        assert WindowPolicy(decay=1.0).is_exact
        assert not WindowPolicy(decay=0.5).is_exact


class TestWindowAdvancement:
    def test_window_closes_exactly_on_event_count(self):
        state = WindowedSubnetState(WindowPolicy(window_events=3))
        closes = [
            state.observe(P1, 1, "DE", api_enabled=False, cellular_labeled=False)
            for _ in range(7)
        ]
        assert closes == [False, False, True, False, False, True, False]
        assert state.windows_closed == 2
        assert state.window_fill == 1

    def test_tumbling_accumulation_is_exact_integers(self):
        state = WindowedSubnetState(WindowPolicy(window_events=2, decay=1.0))
        for _ in range(5):
            state.observe(P1, 1, "DE", api_enabled=True, cellular_labeled=True)
        rows = dict(state.combined())
        counts = rows[P1]
        assert counts.hits == 5 and isinstance(counts.hits, int)
        assert counts.api_hits == 5 and counts.cellular_hits == 5

    def test_decay_fades_history_per_advance(self):
        state = WindowedSubnetState(WindowPolicy(window_events=1, decay=0.5))
        state.observe(P1, 1, "DE", api_enabled=True, cellular_labeled=False)
        state.observe(P1, 1, "DE", api_enabled=True, cellular_labeled=False)
        # After two closes: first hit decayed once (0.5), second fresh (1.0).
        rows = dict(state.combined())
        assert rows[P1].hits == pytest.approx(1.5)
        state.observe(P1, 1, "DE", api_enabled=True, cellular_labeled=False)
        rows = dict(state.combined())
        assert rows[P1].hits == pytest.approx(0.25 + 0.5 + 1.0)

    def test_decay_preserves_metadata(self):
        state = WindowedSubnetState(WindowPolicy(window_events=1, decay=0.5))
        for _ in range(2):
            state.observe(P1, 9, "US", api_enabled=True, cellular_labeled=True)
        counts = dict(state.combined())[P1]
        assert (counts.asn, counts.country) == (9, "US")
        assert (counts.hits, counts.api_hits, counts.cellular_hits) == (
            1.5, 1.5, 1.5
        )

    def test_on_advance_sees_raw_window_in_first_seen_order(self):
        state = WindowedSubnetState(WindowPolicy(window_events=3, decay=0.5))
        seen = []
        state.on_advance = lambda seq, window: seen.append(
            (seq, [(s, c.hits) for s, c in window.items()])
        )
        for prefix in (P6, P1, P6, P2, P2, P2):
            state.observe(prefix, 1, "DE", api_enabled=False,
                          cellular_labeled=False)
        assert seen == [(1, [(P6, 2), (P1, 1)]), (2, [(P2, 3)])]

    def test_combined_merges_open_window_with_aggregate(self):
        state = WindowedSubnetState(WindowPolicy(window_events=2))
        state.observe(P1, 1, "DE", api_enabled=False, cellular_labeled=False)
        state.observe(P1, 1, "DE", api_enabled=False, cellular_labeled=False)
        state.observe(P1, 1, "DE", api_enabled=False, cellular_labeled=False)
        rows = dict(state.combined())
        assert rows[P1].hits == 3  # 2 closed + 1 open

    def test_combined_order_is_canonical(self):
        state = WindowedSubnetState(WindowPolicy(window_events=100))
        for prefix in (P6, P2, P1):
            state.observe(prefix, 1, "DE", api_enabled=False,
                          cellular_labeled=False)
        assert [p for p, _ in state.combined()] == [P1, P2, P6]

    def test_subnet_count_spans_window_and_aggregate(self):
        state = WindowedSubnetState(WindowPolicy(window_events=2))
        state.observe(P1, 1, "DE", api_enabled=False, cellular_labeled=False)
        state.observe(P1, 1, "DE", api_enabled=False, cellular_labeled=False)
        state.observe(P2, 2, "US", api_enabled=False, cellular_labeled=False)
        assert state.subnet_count() == 2

    def test_hits_by_asn_totals(self):
        state = WindowedSubnetState(WindowPolicy(window_events=100))
        for _ in range(3):
            state.observe(P1, 1, "DE", api_enabled=False,
                          cellular_labeled=False)
        state.observe(P2, 1, "DE", api_enabled=False, cellular_labeled=False)
        state.observe(P6, 2, "US", api_enabled=False, cellular_labeled=False)
        assert state.hits_by_asn() == {1: 4, 2: 1}


class TestSnapshotRoundTrip:
    def test_round_trip_preserves_everything(self):
        state = WindowedSubnetState(WindowPolicy(window_events=3, decay=0.5))
        for prefix, n in ((P1, 4), (P2, 3), (P6, 2)):
            for _ in range(n):
                state.observe(prefix, 7, "JP", api_enabled=True,
                              cellular_labeled=True)
        restored = WindowedSubnetState.from_snapshot(state.to_snapshot())
        assert restored.policy == state.policy
        assert restored.window_fill == state.window_fill
        assert restored.windows_closed == state.windows_closed
        assert list(restored.combined()) == list(state.combined())

    def test_snapshot_is_json_shaped(self):
        import json

        state = WindowedSubnetState(WindowPolicy(window_events=2))
        state.observe(P1, 1, "DE", api_enabled=True, cellular_labeled=False)
        raw = json.loads(json.dumps(state.to_snapshot()))
        assert WindowedSubnetState.from_snapshot(raw).subnet_count() == 1
