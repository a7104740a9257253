"""Snapshot catalog + swap-safe index holder (repro.scale.snapshot).

The critical property under test: a reader hammering queries across a
generation swap never observes a torn index or a freed mmap page --
every answer it sees is exactly the complete answer of *some*
published generation.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.cdn.beacon import BeaconConfig
from repro.scale.snapshot import (
    CatalogError,
    IndexHolder,
    SnapshotCatalog,
)
from repro.stream.engine import StreamEngine
from repro.stream.sources import generated_events
from repro.stream.windows import WindowPolicy


@pytest.fixture(scope="module")
def engines(lab):
    """Two engines at different ingest depths (distinct tables)."""
    first = StreamEngine(policy=WindowPolicy(window_events=5_000))
    events = generated_events(
        lab.world, BeaconConfig(demand_hits=30_000, base_hits=5)
    )
    first.ingest_many(events)
    second = StreamEngine(policy=WindowPolicy(window_events=5_000))
    events = generated_events(
        lab.world, BeaconConfig(demand_hits=60_000, base_hits=10)
    )
    second.ingest_many(events)
    return first, second


class TestSnapshotCatalog:
    def test_publish_latest_roundtrip(self, engines, tmp_path):
        catalog = SnapshotCatalog(tmp_path / "cat")
        assert catalog.latest() is None
        table = engines[0].ratio_table(1)
        info = catalog.publish(table, meta={"events": 123})
        assert info.number == 1
        assert info.meta == {"events": 123}
        seen = catalog.latest()
        assert seen.number == 1
        assert seen.table_path.exists()
        from repro.columnar.mmaptable import open_mmap

        mapped = open_mmap(seen.table_path)
        try:
            assert len(mapped) == len(table)
        finally:
            mapped.close()

    def test_generations_increment_and_prune(self, engines, tmp_path):
        catalog = SnapshotCatalog(tmp_path / "cat")
        table = engines[0].ratio_table(1)
        for _ in range(4):
            catalog.publish(table)
        assert catalog.generations() == [1, 2, 3, 4]
        removed = catalog.prune(keep=2)
        assert [path.name for path in removed] == [
            "gen-000001.rt", "gen-000002.rt",
        ]
        assert catalog.generations() == [3, 4]
        assert catalog.latest().number == 4

    def test_corrupt_pointer_raises_catalog_error(self, engines, tmp_path):
        catalog = SnapshotCatalog(tmp_path / "cat")
        catalog.publish(engines[0].ratio_table(1))
        (tmp_path / "cat" / "CURRENT").write_text('{"generation": 2')
        with pytest.raises(CatalogError):
            catalog.latest()
        # Publish heals: next generation number comes from disk scan
        # failing -> latest(missing_ok=True) also raises, so a torn
        # pointer must be surfaced to the *publisher* too.
        with pytest.raises(CatalogError):
            catalog.publish(engines[0].ratio_table(1))

    def test_pointer_naming_missing_snapshot(self, engines, tmp_path):
        catalog = SnapshotCatalog(tmp_path / "cat")
        info = catalog.publish(engines[0].ratio_table(1))
        info.table_path.unlink()
        with pytest.raises(CatalogError):
            catalog.latest()
        assert catalog.latest(missing_ok=True) is None

    def test_wait_for_generation_times_out(self, tmp_path):
        catalog = SnapshotCatalog(tmp_path / "cat")
        with pytest.raises(TimeoutError):
            catalog.wait_for_generation(timeout_s=0.2, poll_interval_s=0.02)


class TestIndexHolder:
    def test_refresh_swaps_only_on_new_generation(self, engines, tmp_path):
        catalog = SnapshotCatalog(tmp_path / "cat")
        holder = IndexHolder(catalog)
        assert holder.refresh() is False  # nothing published yet
        assert holder.current() is None
        catalog.publish(engines[0].ratio_table(1))
        assert holder.refresh() is True
        assert holder.generation == 1
        assert holder.refresh() is False  # same generation: no rebuild
        catalog.publish(engines[1].ratio_table(1))
        assert holder.refresh() is True
        assert holder.generation == 2

    def test_poll_survives_corrupt_pointer(self, engines, tmp_path):
        catalog = SnapshotCatalog(tmp_path / "cat")
        holder = IndexHolder(catalog)
        catalog.publish(engines[0].ratio_table(1))
        assert holder.poll() is True
        before = holder.current()
        (tmp_path / "cat" / "CURRENT").write_text("not json at all")
        assert holder.poll() is False  # keeps serving the old triple
        assert holder.current() is before

    def test_index_matches_table(self, engines, tmp_path):
        catalog = SnapshotCatalog(tmp_path / "cat")
        catalog.publish(engines[0].ratio_table(1))
        holder = IndexHolder(catalog)
        holder.refresh()
        _info, table, index = holder.current()
        assert len(index) == len(table)
        record = table.records()[0]
        result = index.query(str(record.subnet))
        assert result.matched
        assert result.entry.subnet == record.subnet

    def test_racing_first_hits_encode_identically(self, engines):
        """Threads racing to build the same memoised entries and
        encodings all get what a fresh index answers (two threads may
        both build one entry; either result is the same)."""
        import sys

        from repro.serve.index import ClassificationIndex

        table = engines[1].ratio_table(1)
        probes = [str(r.subnet) for r in table.records()[:300]]
        probes += [cidr.split("/")[0] for cidr in probes[:100]]
        reference = ClassificationIndex.build(table)
        expected = {
            q: json.dumps(reference.query(q).to_dict(), separators=(",", ":"))
            for q in probes
        }
        index = ClassificationIndex.build(table)
        failures = []

        def reader(slot: int) -> None:
            order = probes[slot * 37:] + probes[:slot * 37]
            for query in order:
                if index.encode(query) != expected[query]:
                    failures.append(query)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=reader, args=(slot,), daemon=True)
                for slot in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:3]

    def test_swap_hammer_readers_never_torn(self, engines, tmp_path):
        """Satellite: hammer queries across swaps; every answer must be
        byte-identical to one of the two complete generations."""
        catalog = SnapshotCatalog(tmp_path / "cat")
        tables = [engines[0].ratio_table(1), engines[1].ratio_table(1)]
        catalog.publish(tables[0])

        # Probe queries with known per-generation answers.
        probes = [str(r.subnet) for r in tables[1].records()[:12]]
        probes.append("203.0.113.9")  # a guaranteed miss
        from repro.serve.index import ClassificationIndex

        expected = []
        for table in tables:
            index = ClassificationIndex.build(table, demand=None)
            expected.append(
                {q: json.dumps(index.query(q).to_dict()) for q in probes}
            )
        allowed = {
            q: {expected[0][q], expected[1][q]} for q in probes
        }

        holder = IndexHolder(catalog)
        holder.refresh()
        stop = threading.Event()
        failures = []
        queries_run = [0] * 4

        def reader(slot: int) -> None:
            while not stop.is_set():
                triple = holder.current()
                if triple is None:
                    continue
                _info, _table, index = triple
                for query in probes:
                    got = json.dumps(index.query(query).to_dict())
                    if got not in allowed[query]:
                        failures.append((query, got))
                        stop.set()
                        return
                    queries_run[slot] += 1

        threads = [
            threading.Thread(target=reader, args=(slot,), daemon=True)
            for slot in range(4)
        ]
        for thread in threads:
            thread.start()
        # Swap back and forth while readers hammer.
        swaps = 0
        for round_number in range(10):
            catalog.publish(tables[round_number % 2])
            if holder.refresh():
                swaps += 1
            catalog.prune(keep=2)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not failures, f"torn answers observed: {failures[:3]}"
        assert swaps == 10
        assert sum(queries_run) > 0
        # The holder ends on the last published generation.
        assert holder.generation == 11
