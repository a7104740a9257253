"""The serve path's mmap ratio spool (satellite of the scale plane).

``CellSpotService`` with ``ratio_spool_dir`` publishes each rebuilt
ratio table as a snapshot generation and compiles the index from the
mapped file instead of a second heap copy.  Answers must be identical
with and without the spool, generations must accumulate (pruned to 2),
and decayed window policies -- whose fractional counts the int64
snapshot format refuses -- must skip the spool entirely.
"""

from __future__ import annotations

import itertools

import pytest

from repro.cdn.beacon import BeaconConfig
from repro.columnar.mmaptable import MmapRatioTable
from repro.scale.snapshot import SnapshotCatalog
from repro.serve.service import CellSpotService
from repro.stream.engine import StreamEngine
from repro.stream.sources import generated_events
from repro.stream.windows import WindowPolicy


def build_engine(lab, decay: float = 1.0, demand_hits: int = 30_000):
    engine = StreamEngine(
        policy=WindowPolicy(window_events=5_000, decay=decay)
    )
    engine.ingest_many(
        generated_events(
            lab.world, BeaconConfig(demand_hits=demand_hits, base_hits=5)
        )
    )
    return engine


def test_spooled_answers_match_in_heap(lab, tmp_path):
    plain = CellSpotService(build_engine(lab), demand=None)
    spooled = CellSpotService(
        build_engine(lab),
        demand=None,
        ratio_spool_dir=tmp_path / "spool",
    )
    table = plain.engine.ratio_table(1)
    probes = [str(record.subnet) for record in table.records()[:20]]
    probes += ["203.0.113.1", "198.51.100.7/24"]
    for query in probes:
        request = {"op": "query", "q": query}
        assert spooled.handle_request(request) == plain.handle_request(
            request
        ), query
    # The spooled rebuild compiled from the mapped generation.
    assert isinstance(spooled._spool_table, MmapRatioTable)
    catalog = SnapshotCatalog(tmp_path / "spool")
    assert catalog.generations() == [1]
    assert catalog.latest().meta["events"] == (
        spooled.engine.events_consumed
    )


def test_spool_generations_accumulate_and_prune(lab, tmp_path):
    service = CellSpotService(
        build_engine(lab),
        demand=None,
        ratio_spool_dir=tmp_path / "spool",
    )
    events = generated_events(
        lab.world, BeaconConfig(demand_hits=40_000, base_hits=5)
    )
    for _ in range(3):
        service.engine.ingest_many(itertools.islice(events, 5_000))
        response = service.handle_request({"op": "refresh"})
        assert response["ok"] is True
    catalog = SnapshotCatalog(tmp_path / "spool")
    # Three forced rebuilds: pruned to the newest two generations,
    # pointer tracking the newest.
    assert catalog.generations() == [2, 3]
    assert catalog.latest().number == 3
    # The service holds the newest generation's mapping.
    assert service._spool_table is not None
    assert service._spool_table.path == catalog.latest().table_path
    response = service.handle_request(
        {"op": "query", "q": "203.0.113.1"}
    )
    assert response["ok"] is True


def test_decayed_policy_skips_spool(lab, tmp_path):
    service = CellSpotService(
        build_engine(lab, decay=0.5),
        demand=None,
        ratio_spool_dir=tmp_path / "spool",
    )
    response = service.handle_request({"op": "query", "q": "203.0.113.1"})
    assert response["ok"] is True
    assert service._spool_table is None
    assert SnapshotCatalog(tmp_path / "spool").generations() == []


def test_no_spool_dir_keeps_legacy_path(lab):
    service = CellSpotService(build_engine(lab), demand=None)
    assert service._ratio_spool is None
    response = service.handle_request({"op": "query", "q": "203.0.113.1"})
    assert response["ok"] is True
    assert service._spool_table is None
