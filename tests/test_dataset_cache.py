"""Dataset cache correctness: hits, misses, and corruption.

The cache is only allowed to affect *time*: a hit must rebuild the
identical datasets (order and digests included), a key derived from
different parameters must miss, and any corruption -- truncated
shard, flipped byte, missing file, garbage meta -- must quarantine
the entry and report a miss instead of crashing or, worse, serving
wrong data.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.datasets.beacon_dataset import BeaconDataset, SubnetBeaconCounts
from repro.datasets.demand_dataset import DemandDataset, SubnetDemand
from repro.net.prefix import Prefix
from repro.parallel.cache import (
    CACHE_FORMAT_VERSION,
    SHARD_BATCH_ROWS,
    CacheCorruption,
    DatasetCache,
    cache_key,
    iter_shard_batches,
)
from repro.runtime.manifest import dataset_digest
from repro.runtime.quarantine import read_quarantine
from repro.world.population import Browser

PARAMS = {"seed": 7, "scale": 0.004, "note": "cache-test"}


@pytest.fixture()
def datasets():
    """Small deterministic BEACON + DEMAND pair (no world needed)."""
    rng = random.Random(20260806)
    beacons = BeaconDataset(month="2016-12")
    demand = DemandDataset(window_days=7)
    beacons.observe_browser_batch(Browser.CHROME_MOBILE, 500, 420)
    beacons.observe_browser_batch(Browser.OTHER_DESKTOP, 300, 0)
    seen = set()
    while len(seen) < 200:
        if rng.random() < 0.8:
            prefix = Prefix(4, rng.randrange(1 << 24) << 8, 24)
        else:
            prefix = Prefix(6, rng.randrange(1 << 48) << 80, 48)
        if prefix in seen:
            continue
        seen.add(prefix)
        asn = rng.randrange(1, 500)
        country = rng.choice(["US", "DE", "IN"])
        api = rng.randrange(0, 30)
        beacons.add_counts(
            SubnetBeaconCounts(
                prefix, asn, country,
                hits=api + rng.randrange(0, 50),
                api_hits=api,
                cellular_hits=rng.randrange(0, api + 1),
            )
        )
        demand._add(SubnetDemand(prefix, asn, country, rng.random() * 5))
    return beacons, demand


@pytest.fixture()
def cache(tmp_path):
    return DatasetCache(tmp_path / "cache")


def _store(cache, datasets, shards=4):
    beacons, demand = datasets
    key = cache.key_for(PARAMS)
    entry = cache.store(key, beacons, demand, shards=shards, params=PARAMS)
    return key, entry


# ---- keys -------------------------------------------------------------------


def test_key_is_deterministic_and_parameter_sensitive():
    assert cache_key(PARAMS) == cache_key(dict(PARAMS))
    assert cache_key(PARAMS) != cache_key({**PARAMS, "seed": 8})
    assert cache_key(PARAMS) != cache_key({**PARAMS, "scale": 0.005})
    assert len(cache_key(PARAMS)) == 64  # full sha256 hex


def test_key_insensitive_to_dict_ordering():
    shuffled = {k: PARAMS[k] for k in reversed(list(PARAMS))}
    assert cache_key(PARAMS) == cache_key(shuffled)


def test_key_rejects_unserializable_params():
    with pytest.raises(ValueError, match="JSON-serializable"):
        cache_key({"bad": object()})


def test_store_rejects_mismatched_params(cache, datasets):
    beacons, demand = datasets
    with pytest.raises(ValueError, match="do not hash"):
        cache.store("0" * 64, beacons, demand, params=PARAMS)


# ---- hit path ---------------------------------------------------------------


@pytest.mark.parametrize("shards", [1, 4, 8])
def test_hit_returns_identical_datasets(cache, datasets, shards):
    beacons, demand = datasets
    key, entry = _store(cache, datasets, shards=shards)
    fetched = cache.fetch(key)
    assert fetched is not None
    assert fetched.shards == shards
    assert len(fetched.beacon_shards) == shards
    assert len(fetched.demand_shards) == shards
    loaded_beacons, loaded_demand = cache.load_datasets(fetched)
    # Identical means identical: same digests (covers order), same
    # browser counters, same per-subnet records.
    assert dataset_digest(loaded_beacons) == dataset_digest(beacons)
    assert dataset_digest(loaded_demand) == dataset_digest(demand)
    assert loaded_beacons.browser_counts == beacons.browser_counts
    assert [c.subnet for c in loaded_beacons] == [c.subnet for c in beacons]
    assert [r.subnet for r in loaded_demand] == [r.subnet for r in demand]
    # The fetch writes through DemandDataset._add, so the columns the
    # census reduces over are filled like a generated dataset's.
    assert list(loaded_demand.position.values()) == list(range(len(demand)))
    assert list(loaded_demand.dus) == list(demand.dus)
    assert list(loaded_demand.asns) == list(demand.asns)
    assert [loaded_demand.country_names[c] for c in loaded_demand.country_codes] == [
        r.country for r in demand
    ]
    assert entry.dataset_digests["beacon"] == dataset_digest(beacons)
    assert entry.dataset_digests["demand"] == dataset_digest(demand)


def test_absent_key_is_clean_miss(cache):
    assert cache.fetch("f" * 64) is None
    assert not (cache.root / "quarantine").exists()


def test_different_params_force_regeneration(cache, datasets):
    """Digest mismatch (changed params) can never hit a stale entry."""
    key, _ = _store(cache, datasets)
    other_key = cache.key_for({**PARAMS, "seed": 8})
    assert other_key != key
    assert cache.fetch(other_key) is None  # must re-parse/regenerate
    assert cache.fetch(key) is not None  # the original entry survives


# ---- corruption -> quarantine ----------------------------------------------


def _quarantine_sidecars(cache):
    qdir = cache.root / "quarantine"
    if not qdir.exists():
        return []
    return sorted(qdir.glob("*.quarantine.jsonl"))


def _assert_quarantined_miss(cache, key, reason_fragment):
    assert cache.fetch(key) is None
    assert not cache.entry_dir(key).exists()  # moved aside, not left rotting
    sidecars = _quarantine_sidecars(cache)
    assert sidecars, "expected a quarantine sidecar"
    with sidecars[-1].open() as stream:
        records = list(read_quarantine(stream))
    assert records and reason_fragment in records[0].error.reason
    # After quarantine the key is a plain miss -- and storable again.
    assert cache.fetch(key) is None


def test_truncated_shard_is_quarantined(cache, datasets):
    key, entry = _store(cache, datasets)
    path, _sha = entry.beacon_shards[1]
    with open(path, "a") as stream:
        stream.write("garbage")
    _assert_quarantined_miss(cache, key, "digest mismatch")


def test_missing_shard_is_quarantined(cache, datasets):
    key, entry = _store(cache, datasets)
    path, _sha = entry.demand_shards[0]
    import os

    os.unlink(path)
    _assert_quarantined_miss(cache, key, "missing shard file")


def test_garbage_meta_is_quarantined(cache, datasets):
    key, _ = _store(cache, datasets)
    (cache.entry_dir(key) / "meta.json").write_text("{not json")
    _assert_quarantined_miss(cache, key, "unreadable meta.json")


def test_foreign_format_version_is_quarantined(cache, datasets):
    key, _ = _store(cache, datasets)
    meta_path = cache.entry_dir(key) / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["format_version"] = CACHE_FORMAT_VERSION + 1
    meta_path.write_text(json.dumps(meta))
    _assert_quarantined_miss(cache, key, "format version")


def test_restore_after_quarantine(cache, datasets):
    """Corruption costs a rebuild, nothing more: store works again."""
    key, entry = _store(cache, datasets)
    with open(entry.beacon_shards[0][0], "w") as stream:
        stream.write("{}")
    assert cache.fetch(key) is None
    _, entry2 = _store(cache, datasets)
    assert cache.fetch(key) is not None
    loaded_beacons, _ = cache.load_datasets(entry2)
    assert dataset_digest(loaded_beacons) == dataset_digest(datasets[0])


def test_repeated_corruption_never_collides(cache, datasets):
    for _ in range(3):
        key, entry = _store(cache, datasets)
        with open(entry.beacon_shards[0][0], "a") as stream:
            stream.write("x")
        assert cache.fetch(key) is None
    quarantined_dirs = [
        p for p in (cache.root / "quarantine").iterdir() if p.is_dir()
    ]
    assert len(quarantined_dirs) == 3


def test_shard_batches_verify_digest(cache, datasets, tmp_path):
    key, entry = _store(cache, datasets)
    path, sha = entry.beacon_shards[0]
    assert all(isinstance(b, dict) for b in iter_shard_batches(path, sha))
    with pytest.raises(CacheCorruption, match="digest mismatch"):
        list(iter_shard_batches(path, "0" * 64))
    with pytest.raises(CacheCorruption, match="unreadable"):
        list(iter_shard_batches(tmp_path / "nope.json", sha))
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    import hashlib

    digest = hashlib.sha256(bad.read_bytes()).hexdigest()
    with pytest.raises(CacheCorruption, match="JSON object"):
        list(iter_shard_batches(bad, digest))


# ---- crash-consistency ------------------------------------------------------


def test_entry_without_meta_does_not_exist(cache, datasets):
    """Shard files without the meta commit point are invisible."""
    key, _ = _store(cache, datasets)
    (cache.entry_dir(key) / "meta.json").unlink()
    assert cache.fetch(key) is None
    # ...and nothing was quarantined: this is a mid-store crash shape,
    # not corruption of a committed entry.
    assert not _quarantine_sidecars(cache)


# ---- lab integration --------------------------------------------------------


def test_lab_cache_round_trip(tmp_path):
    from repro.lab import Lab

    cache_dir = tmp_path / "labcache"
    first = Lab.create(scale=0.002, seed=9, cache_dir=cache_dir)
    beacons_digest = dataset_digest(first.beacons)
    demand_digest = dataset_digest(first.demand)
    assert any(cache_dir.iterdir())  # entry stored on the miss

    second = Lab.create(scale=0.002, seed=9, cache_dir=cache_dir)
    assert dataset_digest(second.beacons) == beacons_digest
    assert dataset_digest(second.demand) == demand_digest

    # Corrupt the entry: the next lab regenerates without crashing.
    cache = DatasetCache(cache_dir)
    key = cache.key_for(second.cache_params())
    for path in cache.entry_dir(key).glob("beacon.shard*.json"):
        path.write_text("garbage")
    third = Lab.create(scale=0.002, seed=9, cache_dir=cache_dir)
    assert dataset_digest(third.beacons) == beacons_digest
    assert cache.fetch(key) is not None  # re-stored after regeneration


def test_lab_cache_key_tracks_parameters(tmp_path):
    from repro.lab import Lab

    a = Lab.create(scale=0.002, seed=9, cache_dir=tmp_path)
    b = Lab.create(scale=0.002, seed=10, cache_dir=tmp_path)
    cache = DatasetCache(tmp_path)
    assert cache.key_for(a.cache_params()) != cache.key_for(b.cache_params())


# ---- streaming shard reads (bounded-memory record batches) ------------------


def _sized_datasets(subnets: int):
    """A BEACON/DEMAND pair with exactly ``subnets`` beacon rows."""
    beacons = BeaconDataset(month="2016-12")
    demand = DemandDataset(window_days=7)
    for i in range(subnets):
        prefix = Prefix(4, (i + 1) << 8, 24)
        beacons.add_counts(
            SubnetBeaconCounts(
                prefix, asn=1 + i % 97, country="US",
                hits=7, api_hits=5, cellular_hits=3,
            )
        )
    demand._add(SubnetDemand(Prefix(4, 1 << 8, 24), 1, "US", 2.5))
    return beacons, demand


def _stored_beacon_shard(tmp_path, subnets: int):
    cache = DatasetCache(tmp_path / f"cache-{subnets}")
    params = {**PARAMS, "subnets": subnets}
    beacons, demand = _sized_datasets(subnets)
    entry = cache.store(
        cache.key_for(params), beacons, demand, shards=1, params=params
    )
    return entry.beacon_shards[0]


def test_shard_files_hold_bounded_record_batches(tmp_path):
    """One JSONL line per batch, never more than SHARD_BATCH_ROWS rows."""
    subnets = SHARD_BATCH_ROWS * 2 + 100
    path, digest = _stored_beacon_shard(tmp_path, subnets)
    sizes = [
        len(batch["idx"]) for batch in iter_shard_batches(path, digest)
    ]
    assert sizes == [SHARD_BATCH_ROWS, SHARD_BATCH_ROWS, 100]
    # Batches concatenate back to the full shard, in order.
    idx = [i for batch in iter_shard_batches(path, digest) for i in batch["idx"]]
    assert idx == list(range(subnets))


def test_single_object_shard_file_still_reads(tmp_path):
    """A v1-era single-JSON-object file is a valid one-batch v2 file."""
    import hashlib

    path = tmp_path / "beacon.shard0.json"
    columns = {"idx": [0, 1], "value": [256, 512]}
    path.write_text(json.dumps(columns), encoding="utf-8")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert list(iter_shard_batches(path, digest)) == [columns]


def test_streaming_peak_memory_is_flat_as_shards_grow(tmp_path):
    """Peak allocation while draining a shard tracks the batch size,
    not the shard size: an 8x larger shard must not cost 8x the peak."""
    import tracemalloc

    def peak_draining(subnets: int) -> int:
        path, digest = _stored_beacon_shard(tmp_path, subnets)
        # Prime imports/caches outside the measured window.
        next(iter_shard_batches(path, digest))
        tracemalloc.start()
        try:
            rows = 0
            for batch in iter_shard_batches(path, digest):
                rows += len(batch["idx"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == subnets
        return peak

    small = peak_draining(SHARD_BATCH_ROWS * 2)
    large = peak_draining(SHARD_BATCH_ROWS * 16)
    assert large < small * 2, (small, large)
