"""Equivalence contract of the columnar hot core.

Seeded property suite over randomized record batches: every kernel
and every domain operation must satisfy

    kernels_np  ==  kernels_py  ==  row-wise oracle (tests/row_oracle.py)

bit for bit -- mixed /24 and /48 keys, IPv4 and IPv6, duplicate keys,
empty batches, single rows, counts at the int64 edge.  The
``array_backend`` fixture runs each case once per installed backend;
cross-backend cases additionally diff numpy against python directly.
"""

from __future__ import annotations

import bisect
import math
import os
import pickle
import random
from array import array
from types import SimpleNamespace

import pytest

from repro.columnar import ops
from repro.columnar.backend import (
    BACKEND_ENV,
    active_backend_name,
    get_kernels,
    kernels_for,
    numpy_available,
    set_backend,
    use_backend,
)
from repro.columnar.batch import BeaconBatch, DemandBatch, SpotBatch
from repro.core.ratios import RatioRecord, RatioTable
from repro.net.prefix import Prefix
from repro.parallel.sharding import stable_shard_index
from repro.parallel.views import DemandMap
from tests import row_oracle as reference

BOTH_BACKENDS = numpy_available()


# ---- batch generators -------------------------------------------------------

def make_beacon_rows(rng, n, dup_frac=0.3, v6_frac=0.5):
    """Compact beacon rows with controlled duplicate-key pressure."""
    rows, keys = [], []
    for i in range(n):
        if keys and rng.random() < dup_frac:
            family, value, length = rng.choice(keys)
        else:
            if rng.random() < v6_frac:
                family, length = 6, 48
                value = rng.randrange(0, 2 ** 128) & ~((1 << 80) - 1)
            else:
                family, length = 4, 24
                value = rng.randrange(0, 2 ** 32) & ~0xFF
            keys.append((family, value, length))
        api = rng.randrange(0, 40)
        rows.append(
            (
                i,
                family,
                value,
                length,
                rng.randrange(1, 70000),
                rng.choice(["US", "DE", "JP", "BR", "IN", ""]),
                api + rng.randrange(0, 15),
                api,
                rng.randrange(0, api + 1),
            )
        )
    return rows


def make_demand_rows(rng, n, dup_frac=0.0):
    rows, keys = [], []
    for i in range(n):
        if keys and rng.random() < dup_frac:
            family, value, length = rng.choice(keys)
        else:
            family, length = (4, 24) if rng.random() < 0.5 else (6, 48)
            mask = ~0xFF if family == 4 else ~((1 << 80) - 1)
            value = rng.randrange(0, 2 ** (32 if family == 4 else 128)) & mask
            keys.append((family, value, length))
        rows.append(
            (
                i, family, value, length, rng.randrange(1, 300), "US",
                rng.random() * 50,
            )
        )
    return rows


BATCH_SHAPES = [(0, 0.0), (1, 0.0), (1, 1.0), (9, 0.5), (400, 0.35)]


# ---- three-way equivalence: spot --------------------------------------------

@pytest.mark.parametrize("n,dup", BATCH_SHAPES)
def test_spot_matches_reference(array_backend, n, dup):
    rng = random.Random(100 + n)
    rows = make_beacon_rows(rng, n, dup)
    batch = BeaconBatch.from_rows(rows, array_backend)
    assert batch.to_rows() == rows  # lossless round-trip, incl. 2**127 values
    spot, (asns, asn_hits) = ops.spot_batch(batch, 3, 0.5)
    ref_rows, ref_hits = reference.spot_rows(rows, 3, 0.5)
    got = [r + (label,) for r, label in zip(spot.batch.to_rows(), spot.label)]
    assert got == ref_rows
    assert dict(zip(asns, asn_hits)) == ref_hits
    assert list(asns) == sorted(ref_hits)


@pytest.mark.parametrize("n,dup", BATCH_SHAPES)
def test_group_accumulate_matches_reference(array_backend, n, dup):
    rng = random.Random(200 + n)
    rows = make_beacon_rows(rng, n, dup)
    batch = BeaconBatch.from_rows(rows, array_backend)
    grouped = ops.group_accumulate_beacons(batch)
    assert grouped.to_rows() == reference.accumulate_rows(rows)


@pytest.mark.skipif(not BOTH_BACKENDS, reason="needs numpy for the diff")
@pytest.mark.parametrize("n,dup", BATCH_SHAPES)
def test_numpy_python_bitwise_identical(n, dup):
    """Direct numpy-vs-python diff (not just both-vs-reference)."""
    rng = random.Random(300 + n)
    rows = make_beacon_rows(rng, n, dup)
    results = {}
    for backend in ("python", "numpy"):
        batch = BeaconBatch.from_rows(rows, backend)
        spot, partial = ops.spot_batch(batch, 2, 0.8)
        grouped = ops.group_accumulate_beacons(batch)
        results[backend] = (
            spot.batch.to_rows(),
            spot.label,
            [list(column) for column in partial],
            grouped.to_rows(),
        )
    assert results["python"] == results["numpy"]


# ---- shard hashing ----------------------------------------------------------

@pytest.mark.parametrize("shards", [1, 2, 5, 8, 64])
def test_shard_index_matches_scalar_hash(array_backend, shards):
    rng = random.Random(41)
    rows = make_beacon_rows(rng, 250, 0.2)
    # Edge keys: all-zero, all-ones 128-bit, int64-boundary values.
    edges = [
        (4, 0, 24), (6, 2 ** 128 - 1, 48), (6, 2 ** 127, 48),
        (4, 2 ** 32 - 256, 24), (6, (2 ** 64 - 1) << 64, 48),
        (6, 2 ** 64 - 1 - 0xFFFF, 48),
    ]
    keys = [(r[1], r[2], r[3]) for r in rows] + edges
    k = kernels_for(array_backend)
    got = k.shard_index(
        k.index_col([key[0] for key in keys]),
        k.u64_col([key[1] >> 64 for key in keys]),
        k.u64_col([key[1] & (2 ** 64 - 1) for key in keys]),
        k.index_col([key[2] for key in keys]),
        shards,
    )
    expected = [
        stable_shard_index(family, value, length, shards)
        for family, value, length in keys
    ]
    assert [int(v) for v in got] == expected


def test_partition_batch_matches_rowwise_partition(array_backend):
    from repro.parallel.sharding import partition_rows

    rng = random.Random(55)
    rows = make_beacon_rows(rng, 300, 0.25)
    batch = BeaconBatch.from_rows(rows, array_backend)
    for shards in (1, 3, 7):
        parts = ops.partition_batch(batch, shards)
        assert [part.to_rows() for part in parts] == partition_rows(
            rows, shards
        )


# ---- merges and ordering ----------------------------------------------------

def test_sort_by_idx_restores_dataset_order(array_backend):
    rng = random.Random(60)
    rows = make_beacon_rows(rng, 120, 0.0)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    batch = BeaconBatch.from_rows(shuffled, array_backend)
    assert ops.sort_by_idx(batch).to_rows() == rows


def test_spot_concat_argsort_merge_equals_serial(array_backend):
    """The zero-copy shard merge: concat columns + one idx argsort."""
    rng = random.Random(61)
    rows = make_beacon_rows(rng, 200, 0.0)
    batch = BeaconBatch.from_rows(rows, array_backend)
    serial_spot, serial_partial = ops.spot_batch(batch, 2, 0.5)
    spots, partials = [], []
    for part in ops.partition_batch(batch, 5):
        spot, partial = ops.spot_batch(part, 2, 0.5)
        spots.append(spot)
        partials.append(partial)
    merged = ops.sort_spot_by_idx(SpotBatch.concat(spots))
    assert merged.batch.to_rows() == serial_spot.batch.to_rows()
    assert merged.label == serial_spot.label
    assert ops.merge_asn_partials(partials, array_backend) == dict(
        zip(*serial_partial)
    )


def test_duplicate_key_detection_matches_seen_set(array_backend):
    rng = random.Random(63)
    rows = make_demand_rows(rng, 80, dup_frac=0.3)
    batch = DemandBatch.from_rows(rows, array_backend)
    expected = reference.duplicate_key((r[1], r[2], r[3]) for r in rows)
    assert ops.find_duplicate_key(batch) == expected
    clean = DemandBatch.from_rows(make_demand_rows(rng, 50), array_backend)
    assert ops.find_duplicate_key(clean) is None


# ---- integer boundaries (regression: counts must never wrap) ----------------

def test_counts_at_int64_boundary_promote_not_wrap(array_backend):
    """Sums past 2**63 promote to exact Python ints on both backends."""
    near = 2 ** 63 - 5
    rows = [
        (0, 4, 0x0A000000, 24, 1, "US", near, near - 2, 2 ** 62),
        (1, 4, 0x0A000000, 24, 1, "US", near, near - 2, 2 ** 62),
        (2, 4, 0x0A000100, 24, 2, "DE", 2 ** 31, 2 ** 31 - 1, 2 ** 31 - 2),
        (3, 4, 0x0A000100, 24, 2, "DE", 2 ** 31, 2 ** 31 - 1, 2 ** 31 - 2),
    ]
    batch = BeaconBatch.from_rows(rows, array_backend)
    grouped = ops.group_accumulate_beacons(batch)
    assert grouped.to_rows() == reference.accumulate_rows(rows)
    merged = grouped.to_rows()
    assert merged[0][6] == 2 * near  # > int64 max, exact
    assert merged[1][6] == 2 ** 32  # crosses 2**31 cleanly


def test_column_overflow_promotes_to_exact_ints(array_backend):
    k = kernels_for(array_backend)
    col = k.int_col([2 ** 64, -(2 ** 70), 3])
    assert k.to_list(col) == [2 ** 64, -(2 ** 70), 3]
    perm = k.lex_argsort([k.index_col([0, 0, 0])])
    starts = k.group_bounds([k.index_col([0, 0, 0])], perm)
    assert k.segment_sum_int(col, perm, starts) == [2 ** 64 - 2 ** 70 + 3]


@pytest.mark.parametrize("n", [0, 1, 9, 2000])
def test_group_sum_equals_a_dict_loop_bit_for_bit(array_backend, n):
    """Groups in first-appearance order, each summed in row order: the
    bits of a ``+=`` loop, on weights whose sums depend on that order."""
    rng = random.Random(n)
    groups = [rng.randrange(0, 40, 3) for _ in range(n)]
    weights = [rng.random() * 10.0 ** rng.randint(-8, 8) for _ in range(n)]
    expected: dict = {}
    for group, weight in zip(groups, weights):
        expected[group] = expected.get(group, 0.0) + weight
    k = kernels_for(array_backend)
    for group_col, weight_col in (
        (groups, weights), (k.index_col(groups), k.float_col(weights))
    ):
        ids, sums = k.group_sum(group_col, weight_col)
        assert ids == list(expected)
        assert [s.hex() for s in sums] == [s.hex() for s in expected.values()]
        assert all(type(i) is int for i in ids)
        assert all(type(s) is float for s in sums)
    if n == 2000:
        reordered: dict = {}
        for group, weight in sorted(zip(groups, weights), key=lambda gw: gw[1]):
            reordered[group] = reordered.get(group, 0.0) + weight
        assert any(reordered[g] != expected[g] for g in expected)


@pytest.mark.parametrize("n", [0, 1, 9, 2000])
def test_slot_ids_equal_a_bisect_loop(array_backend, n):
    """Mixed-radix slots from int, 0/1 and float digit columns, with
    empty, exact-tie and pass-through cuts: the ids a per-row
    ``bisect_right`` loop gives, on both backends."""
    rng = random.Random(n)
    families = [rng.choice((4, 6)) for _ in range(n)]
    flags = [rng.randrange(2) for _ in range(n)]
    ratios = [rng.choice((0.1, 0.9, math.nextafter(0.9, 1.0), rng.random()))
              for _ in range(n)]
    codes = [rng.randrange(7) for _ in range(n)]
    parts = [
        (families, (4, 5)),
        (flags, ()),
        (ratios, (0.1, math.nextafter(0.9, math.inf))),
        (codes, range(1, 7)),
        (flags, (1,)),
    ]
    expected = []
    for row in range(n):
        slot = 0
        for column, cuts in parts:
            cuts = list(cuts)
            slot = slot * (len(cuts) + 1) + bisect.bisect_right(cuts, column[row])
        expected.append(slot)
    k = kernels_for(array_backend)
    columns = [
        (array("b", families), (4, 5)),
        (k.int_col(flags), ()),
        (k.float_col(ratios), (0.1, math.nextafter(0.9, math.inf))),
        (k.take(k.int_col(range(7)), codes), range(1, 7)),
        (array("b", flags), (1,)),
    ]
    for given in (parts, columns):
        assert k.to_list(k.slot_ids(given)) == expected
    ids = k.to_list(k.slot_ids(parts[:1]))
    assert all(type(i) is int for i in ids)


def test_ratio_division_past_float53_uses_exact_path(array_backend):
    """cell/api past 2**53: both backends take correctly-rounded
    big-int division, matching the serial classifier's Python ``/``."""
    api = 2 ** 53 + 2
    cell = 2 ** 52 + 1
    rows = [(0, 4, 0x01000000, 24, 1, "US", api + 1, api, cell)]
    batch = BeaconBatch.from_rows(rows, array_backend)
    threshold = cell / api
    spot, _ = ops.spot_batch(batch, 1, threshold)
    ref_rows, _ = reference.spot_rows(rows, 1, threshold)
    assert spot.label == [ref_rows[0][-1]]


# ---- shard interleave (regression: restored == dataset order) ---------------

def test_sharded_demand_rows_restore_dataset_order(array_backend):
    """Partition, concat and one idx argsort give back the dataset's
    demand rows in their original order, float bits included."""
    rng = random.Random(64)
    rows = make_demand_rows(rng, 500)
    batch = DemandBatch.from_rows(rows, array_backend)
    parts = ops.partition_batch(batch, 6)
    restored = ops.sort_by_idx(DemandBatch.concat(parts))
    assert restored.to_rows() == rows


# ---- domain-level equivalence ----------------------------------------------

def _table(rng, n, base=0):
    records = []
    seen = set()
    while len(records) < n:
        prefix = Prefix.make(4, rng.randrange(0, 2 ** 32), 24)
        if prefix in seen:
            continue
        seen.add(prefix)
        api = rng.randrange(1, 50)
        records.append(
            RatioRecord(
                prefix, base + rng.randrange(1, 500), "US", api,
                rng.randrange(0, api + 1), api + 2,
            )
        )
    return records


def test_from_hits_equals_rowwise(array_backend, beacon_hits):
    from repro.datasets.beacon_dataset import BeaconDataset

    month = beacon_hits[0].month
    dataset = BeaconDataset.from_hits(month, beacon_hits)
    by_subnet, browsers = reference.fold_hits(beacon_hits)
    folded = {
        c.subnet: (c.asn, c.country, c.hits, c.api_hits, c.cellular_hits)
        for c in dataset
    }
    assert list(folded) == list(by_subnet)
    assert folded == by_subnet
    assert list(dataset.browser_counts.items()) == list(browsers.items())


def test_from_hits_rejects_foreign_months_and_bad_labels(array_backend):
    from repro.datasets.beacon_dataset import BeaconDataset
    from repro.cdn.logs import BeaconHit
    from repro.cdn.netinfo import ConnectionType
    from repro.world.population import Browser

    subnet = Prefix.make(4, 0x0A000000, 24)
    hit = BeaconHit(
        month="2017-02", family=4, address=0x0A000001, subnet=subnet,
        asn=1, country="US", browser=Browser.CHROME_MOBILE,
        api_enabled=True, connection_type=ConnectionType.CELLULAR,
    )
    with pytest.raises(ValueError, match="2017-02 in a 2017-01 collection"):
        BeaconDataset.from_hits("2017-01", [hit])
    # A cellular label needs API data (BeaconHit refuses to build one,
    # so a stand-in carries the impossible combination).
    bad = SimpleNamespace(
        month="2017-02", subnet=subnet, asn=1, country="US",
        browser=Browser.CHROME_MOBILE, api_enabled=False,
        is_cellular_labeled=True,
    )
    with pytest.raises(ValueError, match="cellular label without API data"):
        BeaconDataset.from_hits("2017-02", [hit, bad])


def test_demand_map_from_batch_equals_from_rows(array_backend):
    rng = random.Random(71)
    rows = make_demand_rows(rng, 150)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    batch = DemandBatch.from_rows(shuffled, array_backend)
    from_batch = DemandMap.from_batch(batch)
    from_rows = DemandMap.from_rows(shuffled)
    assert list(from_batch) == list(from_rows)
    for row in rows:
        prefix = Prefix(row[1], row[2], row[3])
        assert from_batch.du_of(prefix) == from_rows.du_of(prefix)
    duplicated = shuffled + [shuffled[0]]
    renumbered = [
        (i,) + row[1:] for i, row in enumerate(duplicated)
    ]
    with pytest.raises(ValueError) as rows_err:
        DemandMap.from_rows(renumbered)
    with pytest.raises(ValueError) as batch_err:
        DemandMap.from_batch(
            DemandBatch.from_rows(renumbered, array_backend)
        )
    assert str(batch_err.value) == str(rows_err.value)


# ---- backend dispatch -------------------------------------------------------

def test_backend_dispatch_precedence(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    previous = set_backend("python")
    try:
        assert active_backend_name() == "python"
        assert get_kernels().NAME == "python"
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        # Forced beats env.
        assert active_backend_name() == "python"
        set_backend("auto")
        if numpy_available():
            assert active_backend_name() == "numpy"
    finally:
        set_backend(previous)


#: Names the backend a CI arm installs.  Only this test reads it; the
#: dispatch under test never does.
EXPECTED_BACKEND_ENV = "CELLSPOT_EXPECT_BACKEND"


def test_auto_detection_picks_the_installed_backend(monkeypatch):
    """With nothing forced and no backend env var, detection alone must
    resolve to the environment's backend: classifying on the fallback in
    a numpy-equipped environment, or the reverse, would invalidate every
    number a backend arm produces.  Without an expectation, numpy is
    expected exactly when it is installed."""
    expected = os.environ.get(EXPECTED_BACKEND_ENV) or (
        "numpy" if numpy_available() else "python"
    )
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    previous = set_backend(None)
    try:
        assert numpy_available() == (expected == "numpy"), (
            f"numpy_available()={numpy_available()} in the {expected} arm"
        )
        actual = active_backend_name()
        assert actual == expected, (
            f"backend auto-detection picked {actual!r}, "
            f"this arm requires {expected!r}"
        )
    finally:
        set_backend(previous)


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "python")
    set_backend(None)
    try:
        assert active_backend_name() == "python"
        assert get_kernels().NAME == "python"
    finally:
        monkeypatch.delenv(BACKEND_ENV)
        set_backend(None)


def test_requesting_numpy_without_numpy_is_a_hard_error(monkeypatch):
    import repro.columnar.backend as backend_mod

    monkeypatch.setattr(backend_mod, "numpy_available", lambda: False)
    with use_backend("python"):
        pass  # python backend never needs numpy
    with pytest.raises(RuntimeError, match="numpy"):
        with use_backend("numpy"):
            pass  # pragma: no cover


def test_invalid_backend_name_rejected():
    with pytest.raises(ValueError):
        set_backend("fortran")


def test_use_backend_restores_previous():
    previous = active_backend_name()
    with use_backend("python"):
        assert active_backend_name() == "python"
    assert active_backend_name() == previous


# ---- mmap ratio snapshots ---------------------------------------------------

def test_mmap_table_round_trip_and_lookups(tmp_path, array_backend):
    rng = random.Random(80)
    records = _table(rng, 60) + [
        RatioRecord(Prefix.make(6, rng.randrange(0, 2 ** 128), 48),
                    7, "JP", 9, 4, 11),
    ]
    table = RatioTable(records)
    path = table.save_mmap(tmp_path / "ratios.mm")
    mapped = RatioTable.open_mmap(path)
    try:
        assert mapped == table
        assert len(mapped) == len(table)
        for record in records:
            assert mapped.get(record.subnet) == record
            assert record.subnet in mapped
        absent = Prefix.make(4, 0xDEADBEEF, 24)
        if table.get(absent) is None:
            assert mapped.get(absent) is None
        keys = [
            (r.subnet.family, r.subnet.value, r.subnet.length)
            for r in mapped
        ]
        assert keys == sorted(keys)
        assert mapped.ratio_cdf(4).quantile(0.5) == (
            table.ratio_cdf(4).quantile(0.5)
        )
    finally:
        mapped.close()


def test_mmap_table_pickles_by_path(tmp_path):
    rng = random.Random(81)
    table = RatioTable(_table(rng, 400))
    mapped = RatioTable.open_mmap(table.save_mmap(tmp_path / "r.mm"))
    try:
        blob = pickle.dumps(mapped)
        # Pickling by path: bytes stay O(path), not O(records).
        assert len(blob) < 400
        clone = pickle.loads(blob)
        try:
            assert clone == table
        finally:
            clone.close()
    finally:
        mapped.close()


def test_mmap_snapshot_rejects_corruption(tmp_path):
    from repro.columnar.mmaptable import open_mmap

    table = RatioTable(_table(random.Random(82), 10))
    path = table.save_mmap(tmp_path / "r.mm")
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="bad magic"):
        open_mmap(path)
    path.write_bytes(b"")
    with pytest.raises(ValueError, match="truncated"):
        open_mmap(path)
    good = table.save_mmap(tmp_path / "r2.mm")
    truncated = good.read_bytes()[:-8]
    good.write_bytes(truncated)
    with pytest.raises(ValueError, match="size mismatch"):
        open_mmap(good)


def test_mmap_snapshot_refuses_unsnapshotable_counts(tmp_path):
    big = RatioTable(
        [RatioRecord(Prefix.make(4, 0, 24), 1, "US", 2 ** 63, 5, 2 ** 63 + 1)]
    )
    with pytest.raises(ValueError, match="int64"):
        big.save_mmap(tmp_path / "big.mm")
