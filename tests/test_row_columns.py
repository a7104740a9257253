"""The row columns the census reduces over, against their records.

``RatioTable`` keeps ``families``, ``ratio_values``, ``asns`` and
``country_codes``/``country_names`` beside its records, and a
``ClassificationResult`` keeps its labels as a 0/1 ``label_column``
with the classified table, both in ratio-table row order.  Every
column reduction over them rests on that order, so it is pinned here
for each way a result is produced: the serial pipeline, the sharded
pool, the fused cache run and a drained stream engine.
"""

from __future__ import annotations

import io

import pytest

from repro.cdn.beacon import BeaconConfig, BeaconGenerator
from repro.core.classifier import SubnetClassifier
from repro.core.ratios import RatioTable
from repro.datasets.beacon_dataset import BeaconDataset
from repro.datasets.demand_dataset import DemandDataset
from repro.parallel.cache import DatasetCache
from repro.parallel.executor import ShardPlan
from repro.parallel.pipeline import run_from_entry, run_sharded
from repro.stream import StreamEngine, WindowPolicy
from repro.world.build import WorldParams, build_world

COLUMNS = ("families", "ratio_values", "asns", "country_codes", "country_names")


def expected_columns(records):
    """Each column, rebuilt from the records one at a time."""
    names = list(dict.fromkeys(r.country for r in records))
    return {
        "families": [r.subnet.family for r in records],
        "ratio_values": [r.ratio for r in records],
        "asns": [r.asn for r in records],
        "country_codes": [names.index(r.country) for r in records],
        "country_names": names,
    }


def assert_columns(table, records):
    expected = expected_columns(records)
    for name in COLUMNS:
        assert list(getattr(table, name)) == expected[name], name


def assert_rows_line_up(ratios, classification):
    records = list(ratios)
    assert list(classification.labels) == [r.subnet for r in records]
    assert list(classification.label_column) == [
        int(label) for label in classification.labels.values()
    ]
    assert_columns(ratios, records)
    assert_columns(classification.table, records)
    assert list(classification.table) == records


def _stream_result():
    world = build_world(WorldParams(seed=1, scale=0.002, background_as_count=400))
    config = BeaconConfig(month="2017-01", demand_hits=5000, base_hits=2.0)
    engine = StreamEngine(policy=WindowPolicy(window_events=4096, decay=1.0))
    engine.ingest_many(BeaconGenerator(world, config).iter_hits())
    return engine.ratio_table(), engine.classification()


@pytest.mark.parametrize("path", ["serial", "sharded", "from_entry", "stream"])
def test_labels_follow_ratio_rows(lab, tmp_path, path):
    if path == "serial":
        result = lab.result
        ratios, classification = result.ratios, result.classification
    elif path == "sharded":
        result = run_sharded(
            lab.spotter, lab.beacons, lab.demand, lab.as_classes,
            plan=ShardPlan.plan(workers=2, shards=4, force_processes=True),
        )
        ratios, classification = result.ratios, result.classification
    elif path == "from_entry":
        cache = DatasetCache(tmp_path)
        key = cache.key_for(lab.cache_params())
        cache.store(key, lab.beacons, lab.demand, params=lab.cache_params())
        result = run_from_entry(
            lab.spotter, cache.fetch(key), lab.as_classes,
            plan=ShardPlan.plan(workers=2, shards=4),
        )
        ratios, classification = result.ratios, result.classification
    else:
        ratios, classification = _stream_result()
    assert len(ratios) > 0
    assert_rows_line_up(ratios, classification)


def test_mmap_round_trip_serves_the_same_columns(lab, tmp_path):
    table = lab.result.ratios
    mapped = RatioTable.open_mmap(table.save_mmap(tmp_path / "ratios.rt"))
    try:
        # The snapshot keeps rows in canonical subnet order.
        canonical = sorted(table, key=lambda r: tuple(r.subnet))
        in_memory = RatioTable(canonical)
        for name in COLUMNS:
            assert list(getattr(mapped, name)) == list(getattr(in_memory, name)), name
        assert list(mapped.subnet_keys()) == list(in_memory.subnet_keys())
        for family in (4, 6):
            for weights in (None, lab.demand):
                assert repr(mapped.bucket_fractions(family, demand=weights)) == repr(
                    in_memory.bucket_fractions(family, demand=weights)
                )
        classification = SubnetClassifier().classify(mapped)
        assert_rows_line_up(mapped, classification)
    finally:
        mapped.close()


def test_dataset_family_columns_follow_every_write(lab, tmp_path):
    """Generated, loaded and cache-rebuilt datasets keep their family
    columns in dataset order; so does a dataset built hit by hit."""
    beacon_text, demand_text = io.StringIO(), io.StringIO()
    lab.beacons.dump(beacon_text)
    lab.demand.dump(demand_text)
    beacon_text.seek(0)
    demand_text.seek(0)
    cache = DatasetCache(tmp_path)
    key = cache.key_for(lab.cache_params())
    cache.store(key, lab.beacons, lab.demand, params=lab.cache_params())
    cached_beacons, cached_demand = cache.load_datasets(cache.fetch(key))
    for beacons in (lab.beacons, BeaconDataset.load(beacon_text), cached_beacons):
        assert list(beacons.families) == [c.subnet.family for c in beacons]
    for demand in (lab.demand, DemandDataset.load(demand_text), cached_demand):
        assert list(demand.families) == [r.subnet.family for r in demand]

    world = build_world(WorldParams(seed=2, scale=0.002, background_as_count=400))
    config = BeaconConfig(month="2017-01", demand_hits=3000, base_hits=2.0)
    folded = BeaconDataset.from_hits("2017-01", BeaconGenerator(world, config).iter_hits())
    assert len(folded) > 0
    assert list(folded.families) == [c.subnet.family for c in folded]
