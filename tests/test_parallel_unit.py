"""Unit tests for the parallel layer's building blocks.

Sharding must be a stable pure function of the prefix, plans must
respect the hardware, executors must preserve submission order, and
the demand view must be indistinguishable from the dataset it
projects.  The differential suite proves end-to-end equality; these
tests localize the failure when one brick breaks.
"""

from __future__ import annotations

import os

import pytest

from repro.datasets.demand_dataset import DemandDataset, SubnetDemand
from repro.net.prefix import Prefix
from repro.parallel.chunks import available_cpus
from repro.parallel.executor import ShardExecutor, ShardPlan
from repro.parallel.sharding import (
    beacon_rows,
    demand_rows,
    partition_beacons,
    partition_demand,
    partition_rows,
    shard_of,
    stable_shard_index,
)
from repro.parallel.views import DemandEntry, DemandMap


# ---- sharding ---------------------------------------------------------------


def test_shard_index_pinned_values():
    """FNV-1a assignment is part of the on-disk format: pin it.

    If these values ever change, existing cache entries must be
    invalidated by bumping CACHE_FORMAT_VERSION.
    """
    assert stable_shard_index(4, 0x0A000000, 24, 8) == 2
    assert stable_shard_index(4, 0x0A000100, 24, 8) == 3
    assert stable_shard_index(6, 0x20010DB8 << 96, 48, 8) == 1
    assert stable_shard_index(4, 0x0A000000, 24, 5) == 0


def test_shard_index_range_and_determinism():
    prefixes = [Prefix(4, value << 8, 24) for value in range(500)]
    for shards in (1, 2, 7, 16):
        seen = set()
        for prefix in prefixes:
            index = shard_of(prefix, shards)
            assert 0 <= index < shards
            assert index == shard_of(prefix, shards)  # pure function
            seen.add(index)
        if shards > 1:
            assert len(seen) > 1, "degenerate distribution"
    assert shard_of(prefixes[0], 1) == 0


def test_shard_dispersion_survives_zero_low_bits():
    """Aggregation prefixes end in structurally zero bits (/24: 8,
    /48: 80); power-of-two shard counts must still balance.  Guards
    the avalanche finalizer -- raw FNV-1a fails this badly."""
    from collections import Counter

    prefixes = [Prefix(4, value << 8, 24) for value in range(2000)]
    prefixes += [Prefix(6, value << 80, 48) for value in range(500)]
    for shards in (2, 8, 16):
        counts = Counter(shard_of(prefix, shards) for prefix in prefixes)
        assert len(counts) == shards
        expected = len(prefixes) / shards
        assert max(counts.values()) < 1.5 * expected
        assert min(counts.values()) > 0.5 * expected


def test_shard_index_rejects_bad_counts():
    with pytest.raises(ValueError):
        stable_shard_index(4, 0, 24, 0)
    with pytest.raises(ValueError):
        partition_rows([], 0)


def test_partition_is_complete_and_disjoint(lab):
    rows = list(beacon_rows(lab.beacons))
    parts = partition_beacons(lab.beacons, 7)
    assert len(parts) == 7
    assert sum(len(part) for part in parts) == len(rows)
    assert sorted(row for part in parts for row in part) == sorted(rows)
    for index, part in enumerate(parts):
        for row in part:
            assert stable_shard_index(row[1], row[2], row[3], 7) == index


def test_partition_membership_ignores_row_order(lab):
    rows = list(demand_rows(lab.demand))
    forward = partition_rows(rows, 5)
    backward = partition_rows(reversed(rows), 5)
    for a, b in zip(forward, backward):
        assert sorted(a) == sorted(b)


def test_demand_rows_carry_dataset_order(lab):
    rows = list(demand_rows(lab.demand))
    assert [row[0] for row in rows] == list(range(len(lab.demand)))
    parts = partition_demand(lab.demand, 3)
    assert sum(len(p) for p in parts) == len(rows)
    assert sorted(row for part in parts for row in part) == sorted(rows)


# ---- plans ------------------------------------------------------------------


def test_plan_defaults_are_serial():
    plan = ShardPlan.plan()
    assert plan.workers == 1
    assert plan.shards == 1
    assert plan.is_serial
    assert not plan.use_processes


def test_plan_clamps_to_hardware():
    plan = ShardPlan.plan(workers=10_000)
    assert plan.requested_workers == 10_000
    assert plan.workers == min(10_000, available_cpus())
    assert plan.shards == plan.workers


def test_plan_force_processes_bypasses_clamp():
    plan = ShardPlan.plan(workers=4, force_processes=True)
    assert plan.workers == 4
    assert plan.use_processes
    assert not plan.is_serial


def test_plan_decouples_shards_from_workers():
    plan = ShardPlan.plan(workers=1, shards=6)
    assert plan.workers == 1
    assert plan.shards == 6
    assert not plan.is_serial  # sharded merge path, in-process


def test_plan_rejects_bad_requests():
    with pytest.raises(ValueError):
        ShardPlan.plan(workers=0)
    with pytest.raises(ValueError):
        ShardPlan.plan(workers=2, shards=0)


def test_available_cpus_positive():
    assert available_cpus() >= 1


# ---- executor ---------------------------------------------------------------


def _describe(arg):
    """The doubled argument and the pid of the process that ran it."""
    return arg * 2, os.getpid()


def test_executor_preserves_submission_order_in_process():
    executor = ShardExecutor(ShardPlan.plan(workers=1, shards=4))
    results = executor.map(_describe, [3, 1, 2, 0])
    assert [value for _, (value, _) in results] == [6, 2, 4, 0]
    assert all(seconds >= 0 for seconds, _ in results)
    assert {pid for _, (_, pid) in results} == {os.getpid()}


def test_executor_preserves_submission_order_across_processes():
    executor = ShardExecutor(
        ShardPlan.plan(workers=2, shards=4, force_processes=True)
    )
    results = executor.map(_describe, list(range(8)))
    assert [value for _, (value, _) in results] == [i * 2 for i in range(8)]
    pids = {pid for _, (_, pid) in results}
    assert pids - {os.getpid()}, "some shard must run in a forked child"


def test_executor_single_job_stays_in_process():
    executor = ShardExecutor(
        ShardPlan.plan(workers=4, force_processes=True)
    )
    results = executor.map(_describe, [21])
    assert results[0][1] == (42, os.getpid())


# ---- demand view ------------------------------------------------------------


def _tiny_demand() -> DemandDataset:
    dataset = DemandDataset(window_days=7)
    for index in range(1, 6):
        dataset._add(
            SubnetDemand(Prefix(4, index << 8, 24), index, "US", float(index))
        )
    return dataset


def test_demand_map_matches_dataset():
    dataset = _tiny_demand()
    view = DemandMap.from_dataset(dataset)
    assert len(view) == len(dataset)
    assert view.total_du == dataset.total_du
    for record in dataset:
        assert view.du_of(record.subnet) == record.du
    assert [(e.asn, e.du) for e in view] == [
        (r.asn, r.du) for r in dataset
    ]


def test_demand_map_from_rows_restores_order():
    dataset = _tiny_demand()
    rows = list(demand_rows(dataset))
    shuffled = [rows[3], rows[0], rows[4], rows[1], rows[2]]
    view = DemandMap.from_rows(shuffled)
    assert [entry.du for entry in view] == [r.du for r in dataset]
    assert view.du_of(Prefix(4, 9_999 << 8, 24)) == 0.0  # unobserved


def test_demand_map_rejects_duplicate_subnets():
    rows = list(demand_rows(_tiny_demand()))
    with pytest.raises(ValueError, match="duplicate"):
        DemandMap.from_rows(rows + [rows[0]])


def test_demand_entry_shape():
    entry = DemandEntry(asn=7, du=1.5)
    assert entry.asn == 7 and entry.du == 1.5


# ---- fused cache run --------------------------------------------------------


def test_run_from_entry_equals_serial(lab, tmp_path):
    from repro.parallel.cache import DatasetCache
    from repro.parallel.pipeline import run_from_entry

    cache = DatasetCache(tmp_path)
    key = cache.key_for(lab.cache_params())
    cache.store(key, lab.beacons, lab.demand, params=lab.cache_params())
    entry = cache.fetch(key)
    assert entry is not None
    serial = lab.result
    fused = run_from_entry(
        lab.spotter, entry, lab.as_classes, plan=ShardPlan.plan(workers=4)
    )
    assert fused.ratios == serial.ratios
    assert fused.classification.labels == serial.classification.labels
    assert fused.as_result == serial.as_result
    assert fused.operators == serial.operators
    assert list(fused.ratios) == list(serial.ratios)  # exact serial order
    assert any(
        stage.startswith("load_beacon.shard") for stage in fused.stage_timings
    )
    assert "fused_spot" in fused.stage_timings
