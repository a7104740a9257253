"""Sharded and fused pipeline runs.

Two entry points, both producing a
:class:`~repro.core.pipeline.CellSpotterResult` that is **equal** to
the serial pipeline's -- not statistically close, equal, down to the
last float:

:func:`run_sharded`
    In-memory datasets are projected to columnar record batches
    (:mod:`repro.columnar`), prefix-hash partitioned with the
    vectorized shard-index kernel, every shard runs the ratio/label
    stage as one :func:`~repro.columnar.ops.spot_batch` call (possibly
    in a process pool), and the parent merges shard outputs by
    concatenating columns and argsorting the idx column back into
    serial iteration order before the (cheap, inherently global)
    AS-identification tail runs.

:func:`run_from_entry`
    The cache-backed fast path: columnar shard files from a
    :class:`~repro.parallel.cache.DatasetCache` entry are *streamed*
    record batch by record batch and spotted as they decode, fusing
    straight into the ratio table, labels, per-AS hit totals, and a
    :class:`~repro.parallel.views.DemandMap` without ever
    materializing the per-subnet dataclasses of a full
    ``BeaconDataset`` / ``DemandDataset``.  Skipping that
    materialization is where the end-to-end speedup comes from on
    repeated runs.

Why the results are bit-identical and not merely close: shard outputs
carry their original dataset index, the parent sorts on it, and every
float accumulation downstream (demand sums, CFD numerators) therefore
happens in exactly the serial order.  Integer sums (beacon hits) are
order-independent to begin with.  The differential test suite pins
this equality for arbitrary worker and shard counts.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.core.asn_classifier import identify_cellular_ases
from repro.core.classifier import ClassificationResult
from repro.core.mixed import operator_profiles
from repro.core.pipeline import CellSpotter, CellSpotterResult
from repro.core.ratios import RatioRecord
from repro.datasets.beacon_dataset import BeaconDataset
from repro.datasets.caida import ASClassificationDataset
from repro.datasets.demand_dataset import DemandDataset
from repro.net.prefix import Prefix
from repro.obs.trace import span

from repro.columnar import ops as columnar_ops
from repro.columnar.backend import active_backend_name
from repro.columnar.batch import BeaconBatch, DemandBatch, SpotBatch

from repro.parallel.cache import CacheEntry, iter_shard_batches
from repro.parallel.executor import ShardExecutor, ShardPlan
from repro.parallel.views import DemandMap

def _spot_shard(
    args: Tuple[BeaconBatch, int, float]
) -> Tuple[SpotBatch, Tuple[List[int], List[int]]]:
    """Columnar ratio + label stage for one shard (pool worker).

    One :func:`repro.columnar.ops.spot_batch` call over the shard's
    record batch -- the vectorized replacement for the per-row loop
    this worker used to run (frozen as the row-wise oracle
    ``spot_rows`` under ``tests/``), bit-identical to it by the kernel
    equivalence contract.  Keeps its pre-columnar name
    so the ``shard.spot_shard`` span the executor derives from it
    stays stable for trace consumers.  Returns the kept rows as a
    :class:`SpotBatch` plus the shard's ``(asns, hits)`` partial.
    """
    batch, min_api_hits, threshold = args
    return columnar_ops.spot_batch(batch, min_api_hits, threshold)


def _spot_beacon_shard_file(
    args: Tuple[str, str, str, int, float]
) -> Tuple[SpotBatch, Tuple[List[int], List[int]]]:
    """Stream one cached BEACON shard and spot it batch-at-a-time
    (pool worker).

    Each record batch is decoded, spotted with the columnar kernels,
    and released before the next one is read -- peak memory is one
    batch plus the kept rows, however large the shard file grows.
    """
    path, sha256_hex, backend, min_api_hits, threshold = args
    spots: List[SpotBatch] = []
    partials: List[Tuple[List[int], List[int]]] = []
    for columns in iter_shard_batches(path, sha256_hex):
        batch = BeaconBatch.from_columns(columns, backend)
        spot, partial = columnar_ops.spot_batch(batch, min_api_hits, threshold)
        spots.append(spot)
        partials.append(partial)
    if not spots:
        return (
            SpotBatch(batch=BeaconBatch.from_rows([], backend), label=[]),
            ([], []),
        )
    merged = columnar_ops.merge_asn_partials(partials, backend)
    return SpotBatch.concat(spots), (list(merged), list(merged.values()))


def _fetch_demand_shard_file(args: Tuple[str, str, str]) -> DemandBatch:
    """Stream one cached DEMAND shard into a columnar batch
    (pool worker)."""
    path, sha256_hex, backend = args
    parts = [
        DemandBatch.from_columns(columns, backend)
        for columns in iter_shard_batches(path, sha256_hex)
    ]
    if not parts:
        return DemandBatch.from_rows([], backend)
    return DemandBatch.concat(parts)


def _assemble_batch(
    spot: SpotBatch,
) -> Tuple[Dict[Prefix, RatioRecord], Dict[Prefix, bool]]:
    """Rebuild the ratio table and labels from an idx-sorted spot batch.

    The one remaining per-row walk -- the Python-object boundary where
    kept rows become ``Prefix``/``RatioRecord`` instances.  Insertion
    order of both dicts matches what ``RatioTable.from_beacons`` +
    ``SubnetClassifier.classify`` produce from the full dataset.
    """
    table: Dict[Prefix, RatioRecord] = {}
    labels: Dict[Prefix, bool] = {}
    for (
        (_idx, family, value, length, asn, country, hits, api, cell),
        label,
    ) in zip(spot.batch.to_rows(), spot.label):
        prefix = Prefix(family, value, length)
        table[prefix] = RatioRecord(prefix, asn, country, api, cell, hits)
        labels[prefix] = label
    return table, labels


def _finish(
    spotter: CellSpotter,
    table: Dict[Prefix, RatioRecord],
    labels: Dict[Prefix, bool],
    hits_by_asn: Dict[int, int],
    demand_view,
    as_classes: Optional[ASClassificationDataset],
    timings: Dict[str, float],
) -> CellSpotterResult:
    """Shared serial tail: AS identification + operator profiles."""
    classification = ClassificationResult(
        threshold=spotter.threshold, labels=labels, records=table
    )
    # The classified table holds the same rows, in the same order.
    ratios = classification.table
    started = time.perf_counter()
    with span("stage.as_identification"):
        as_result = identify_cellular_ases(
            classification,
            demand_view,
            as_classes=as_classes,
            config=spotter.as_filter,
            hits_by_asn=hits_by_asn,
        )
    timings["as_identification"] = time.perf_counter() - started
    started = time.perf_counter()
    with span("stage.operator_profiles"):
        operators = operator_profiles(
            as_result, cutoff=spotter.dedicated_cutoff
        )
    timings["operator_profiles"] = time.perf_counter() - started
    return CellSpotterResult(
        ratios=ratios,
        classification=classification,
        as_result=as_result,
        operators=operators,
        stage_timings=timings,
    )


def run_sharded(
    spotter: CellSpotter,
    beacons: BeaconDataset,
    demand: DemandDataset,
    as_classes: Optional[ASClassificationDataset] = None,
    plan: Optional[ShardPlan] = None,
) -> CellSpotterResult:
    """Run the pipeline over prefix-hash shards of in-memory datasets.

    Produces a result equal to ``spotter.run(beacons, demand,
    as_classes)`` for *any* plan -- worker count, shard count, and
    executor mode never leak into the output, only into
    ``stage_timings``.
    """
    plan = plan or ShardPlan.plan()
    backend = active_backend_name()
    timings: Dict[str, float] = {}

    started = time.perf_counter()
    with span("stage.partition", shards=plan.shards):
        beacon_batch = BeaconBatch.from_dataset(beacons, backend)
        beacon_parts = columnar_ops.partition_batch(beacon_batch, plan.shards)
        demand_batch = DemandBatch.from_dataset(demand, backend)
    timings["partition"] = time.perf_counter() - started

    executor = ShardExecutor(plan)
    shard_args = [
        (part, spotter.min_api_hits, spotter.threshold)
        for part in beacon_parts
    ]
    with span("stage.spot_shards", shards=plan.shards, workers=plan.workers):
        shard_results = executor.map(_spot_shard, shard_args)

    started = time.perf_counter()
    with span("stage.merge", shards=plan.shards):
        spots: List[SpotBatch] = []
        partials: List[Tuple[List[int], List[int]]] = []
        for index, (secs, (spot, partial)) in enumerate(shard_results):
            timings[f"spot.shard{index}"] = secs
            spots.append(spot)
            partials.append(partial)
        # Zero-copy merge: concatenate shard columns, one argsort on
        # the idx column restores serial dataset order.
        ordered = columnar_ops.sort_spot_by_idx(SpotBatch.concat(spots))
        table, labels = _assemble_batch(ordered)
        hits_by_asn = columnar_ops.merge_asn_partials(partials, backend)
    timings["merge"] = time.perf_counter() - started

    started = time.perf_counter()
    with span("stage.demand_map"):
        demand_map = DemandMap.from_batch(demand_batch)
    timings["demand_map"] = time.perf_counter() - started

    return _finish(
        spotter, table, labels, hits_by_asn, demand_map, as_classes, timings
    )


def run_from_entry(
    spotter: CellSpotter,
    entry: CacheEntry,
    as_classes: Optional[ASClassificationDataset] = None,
    plan: Optional[ShardPlan] = None,
) -> CellSpotterResult:
    """Fused pipeline run straight from cached columnar shards.

    Each shard file is *streamed* record batch by record batch
    (digest-verified, bounded peak memory) and spotted with the
    columnar kernels as it decodes -- ratio filtering, labels, and
    per-AS hit totals all happen inside the loading workers; the
    parent only concatenates columns and restores serial row order
    with one argsort.  No intermediate ``BeaconDataset`` /
    ``DemandDataset`` is ever built.  Equal output to the serial
    pipeline over the datasets the entry caches.
    """
    plan = plan or ShardPlan.plan()
    backend = active_backend_name()
    timings: Dict[str, float] = {}
    executor = ShardExecutor(plan)

    with span("stage.load_shards", shards=plan.shards, workers=plan.workers):
        beacon_spots = executor.map(
            _spot_beacon_shard_file,
            [
                (path, sha, backend, spotter.min_api_hits, spotter.threshold)
                for path, sha in entry.beacon_shards
            ],
        )
        demand_loads = executor.map(
            _fetch_demand_shard_file,
            [(path, sha, backend) for path, sha in entry.demand_shards],
        )
    for index, (secs, _) in enumerate(beacon_spots):
        timings[f"load_beacon.shard{index}"] = secs
    for index, (secs, _) in enumerate(demand_loads):
        timings[f"load_demand.shard{index}"] = secs

    started = time.perf_counter()
    with span("stage.fused_spot"):
        ordered = columnar_ops.sort_spot_by_idx(
            SpotBatch.concat([spot for _, (spot, _) in beacon_spots])
        )
        table, labels = _assemble_batch(ordered)
        hits_by_asn = columnar_ops.merge_asn_partials(
            [partial for _, (_, partial) in beacon_spots], backend
        )
    timings["fused_spot"] = time.perf_counter() - started

    started = time.perf_counter()
    with span("stage.demand_map"):
        demand_map = DemandMap.from_batch(
            DemandBatch.concat([batch for _, batch in demand_loads])
        )
    timings["demand_map"] = time.perf_counter() - started

    return _finish(
        spotter, table, labels, hits_by_asn, demand_map, as_classes, timings
    )
