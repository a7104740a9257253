"""Engine lifecycle: ingestion guards, snapshots, crash-resume.

The crash-resume contract is the paper-facing one: a server killed at
an arbitrary point resumes from its last atomic snapshot plus
``skip_events`` and ends with *exactly* the state of an uninterrupted
run -- no window count duplicated, none lost.
"""

from __future__ import annotations

import json

import pytest

from repro.cdn.logs import BeaconHit
from repro.cdn.netinfo import ConnectionType
from repro.core.ratios import RatioTable
from repro.datasets.beacon_dataset import BeaconDataset
from repro.net.prefix import Prefix
from repro.stream import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
    StreamEngine,
    WindowPolicy,
    skip_events,
)
from repro.world.population import Browser

POLICY = WindowPolicy(window_events=4096, decay=1.0)


def _drained(hits, policy=POLICY) -> StreamEngine:
    engine = StreamEngine(policy=policy)
    engine.ingest_many(hits)
    return engine


class TestIngestion:
    def test_month_is_pinned_by_first_event(self, beacon_hits):
        engine = StreamEngine(policy=POLICY)
        engine.ingest(beacon_hits[0])
        assert engine.month == beacon_hits[0].month

    def test_cross_month_event_is_rejected(self, beacon_hits):
        from dataclasses import replace

        engine = StreamEngine(policy=POLICY)
        engine.ingest(beacon_hits[0])
        alien = replace(beacon_hits[1], month="2019-09")
        with pytest.raises(ValueError, match="2019-09"):
            engine.ingest(alien)

    def test_events_consumed_counts_every_event(self, beacon_hits):
        engine = _drained(beacon_hits)
        assert engine.events_consumed == len(beacon_hits)
        assert engine.windows_advanced == len(beacon_hits) // 4096

    def test_ratio_table_rejects_bad_min_api_hits(self, beacon_hits):
        engine = _drained(beacon_hits[:100])
        with pytest.raises(ValueError):
            engine.ratio_table(min_api_hits=0)


class TestFirstSeenMetadata:
    """A subnet's metadata is pinned by its first event, as in the batch
    dataset, wherever the window boundaries fall."""

    @staticmethod
    def _hits():
        subnet = Prefix.parse("10.0.0.0/24")
        return [
            BeaconHit(
                month="2017-01", family=4, address=subnet.nth_address(1),
                subnet=subnet, asn=asn, country="DE",
                browser=Browser.CHROME_MOBILE, api_enabled=True,
                connection_type=conn,
            )
            for asn, conn in [(1, ConnectionType.CELLULAR)] * 10
            + [(2, ConnectionType.WIFI), (1, ConnectionType.CELLULAR)]
        ]

    @pytest.mark.parametrize("window_events", [1, 2, 10])
    def test_conflicting_metadata_keeps_the_first_like_batch(
        self, window_events
    ):
        hits = self._hits()
        batch = RatioTable.from_beacons(BeaconDataset.from_hits("2017-01", hits))
        assert [r.asn for r in batch] == [1]
        engine = StreamEngine(policy=WindowPolicy(window_events=window_events))
        for hit in hits:
            engine.ingest(hit)
            engine.ratio_table()  # a mid-window read never raises
            assert engine.hits_by_asn().keys() == {1}
        assert engine.ratio_table() == batch


class TestSnapshots:
    def test_round_trip_preserves_state(self, beacon_hits, tmp_path):
        engine = _drained(beacon_hits[:10_000])
        path = engine.save_snapshot(tmp_path / "snap.json")
        restored = StreamEngine.load_snapshot(path)
        assert restored.month == engine.month
        assert restored.events_consumed == engine.events_consumed
        assert restored.ratio_table() == engine.ratio_table()
        assert restored.hits_by_asn() == engine.hits_by_asn()

    def test_snapshot_counts_stay_integers(self, beacon_hits, tmp_path):
        engine = _drained(beacon_hits[:5000])
        path = engine.save_snapshot(tmp_path / "snap.json")
        raw = json.loads(path.read_text())
        rows = raw["state"]["aggregate"] + raw["state"]["window"]
        assert rows and all(
            isinstance(value, int) for row in rows for value in row[5:]
        )

    def test_version_mismatch_is_rejected(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"format_version": SNAPSHOT_FORMAT_VERSION + 1}))
        with pytest.raises(SnapshotError, match="format"):
            StreamEngine.load_snapshot(path)

    @pytest.mark.parametrize("payload", ["{not json", "[]", '{"format_version": 1}'])
    def test_garbage_snapshots_raise_snapshot_error(self, tmp_path, payload):
        path = tmp_path / "snap.json"
        path.write_text(payload)
        with pytest.raises(SnapshotError):
            StreamEngine.load_snapshot(path)

    @pytest.mark.parametrize("section", ["aggregate", "window"])
    def test_impossible_counts_are_refused(self, beacon_hits, tmp_path,
                                           section):
        engine = _drained(beacon_hits[:100], WindowPolicy(window_events=60))
        raw = engine.to_snapshot()
        # cellular 5 > API 2: a ratio of 2.5 must never be served.
        raw["state"][section].append([4, 167772160, 24, 1, "DE", 3, 2, 5])
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(SnapshotError, match="cellular <= api <= hits"):
            StreamEngine.load_snapshot(path)

    @pytest.mark.parametrize("section", ["aggregate", "window"])
    def test_duplicate_subnet_rows_are_refused(self, beacon_hits, tmp_path,
                                               section):
        engine = _drained(beacon_hits[:100], WindowPolicy(window_events=60))
        raw = engine.to_snapshot()
        rows = raw["state"][section]
        rows.append(list(rows[0]))
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(SnapshotError, match="duplicate snapshot row"):
            StreamEngine.load_snapshot(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SnapshotError, match="unreadable"):
            StreamEngine.load_snapshot(tmp_path / "absent.json")


class TestResumeOrStart:
    def test_fresh_engine_when_no_snapshot(self, tmp_path):
        engine = StreamEngine.resume_or_start(
            tmp_path / "none.json", policy=POLICY
        )
        assert engine.events_consumed == 0
        assert engine.policy == POLICY

    def test_resume_keeps_snapshot_policy(self, beacon_hits, tmp_path):
        path = _drained(beacon_hits[:2000]).save_snapshot(tmp_path / "s.json")
        engine = StreamEngine.resume_or_start(path)
        assert engine.policy == POLICY
        assert engine.events_consumed == 2000

    def test_conflicting_policy_refuses_to_resume(self, beacon_hits, tmp_path):
        path = _drained(beacon_hits[:2000]).save_snapshot(tmp_path / "s.json")
        with pytest.raises(SnapshotError, match="window policy"):
            StreamEngine.resume_or_start(
                path, policy=WindowPolicy(window_events=7)
            )


class TestCrashResume:
    @pytest.mark.parametrize("kill_at", [1, 4096, 5000, 17_777])
    def test_resume_equals_uninterrupted_run(
        self, beacon_hits, tmp_path, kill_at
    ):
        """Snapshot at an arbitrary event, 'crash', resume, drain.

        The resumed engine must end bit-identical to one that never
        crashed: same table, same event count, same window count.
        """
        first = StreamEngine(policy=POLICY)
        first.ingest_many(beacon_hits[:kill_at])
        path = first.save_snapshot(tmp_path / "snap.json")
        del first  # the kill -9

        resumed = StreamEngine.resume_or_start(path)
        remaining = skip_events(iter(beacon_hits), resumed.events_consumed)
        resumed.ingest_many(remaining)

        uninterrupted = _drained(beacon_hits)
        assert resumed.events_consumed == uninterrupted.events_consumed
        assert resumed.windows_advanced == uninterrupted.windows_advanced
        assert resumed.ratio_table() == uninterrupted.ratio_table()

    def test_double_resume_still_exact(self, beacon_hits, tmp_path):
        """Two crashes at different points: still no drift."""
        path = tmp_path / "snap.json"
        engine = StreamEngine(policy=POLICY)
        engine.ingest_many(beacon_hits[:3000])
        engine.save_snapshot(path)

        engine = StreamEngine.resume_or_start(path)
        engine.ingest_many(beacon_hits[3000:9000])
        engine.save_snapshot(path)

        engine = StreamEngine.resume_or_start(path)
        engine.ingest_many(
            skip_events(iter(beacon_hits), engine.events_consumed)
        )
        assert engine.ratio_table() == _drained(beacon_hits).ratio_table()

    def test_snapshot_is_atomic_no_tmp_left_behind(
        self, beacon_hits, tmp_path
    ):
        engine = _drained(beacon_hits[:1000])
        engine.save_snapshot(tmp_path / "snap.json")
        engine.save_snapshot(tmp_path / "snap.json")  # overwrite path too
        assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]
