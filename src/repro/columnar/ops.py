"""Domain operations over record batches, backend-agnostic.

Everything here composes the primitive kernels (``lex_argsort`` /
``group_bounds`` / ``segment_*`` / ``spot`` / ``shard_index``) into
the operations the pipeline actually runs: classify a batch, merge
per-AS partials, group-accumulate subnet counts, partition by shard
hash, restore dataset order.  The kernels are resolved from each
batch's own ``backend`` name, so an operation applied to a batch a
pool worker pickled back always reads the columns the way they were
written.

Ordering contract (the bit-identity currency of this codebase):
grouped subnets come back sorted by ``(family, value, length)``.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from repro.columnar.backend import get_kernels, kernels_for
from repro.columnar.batch import BeaconBatch, SpotBatch, _join_value


def spot_batch(
    batch: BeaconBatch, min_api_hits: int, threshold: float
) -> Tuple[SpotBatch, Tuple[List[int], List[int]]]:
    """Classify one beacon batch: kept rows + labels + per-AS hits.

    The columnar kernel behind the ``_spot_shard`` pool worker
    (replacing its old per-row loop, frozen as the row-wise oracle
    ``spot_rows`` in ``tests/row_oracle.py``);
    returns the kept rows (``api >= min_api_hits``, batch order) with
    their labels, plus the batch's ``(asns, hit_sums)`` partial
    (ascending ASN, *all* rows counted).
    """
    k = kernels_for(batch.backend)
    keep, labels, uniq_asns, asn_hits = k.spot(
        batch.asn, batch.hits, batch.api, batch.cell,
        min_api_hits, threshold,
    )
    return SpotBatch(batch=batch.take(keep), label=labels), (uniq_asns, asn_hits)


def merge_asn_partials(
    partials: Sequence[Tuple[List[int], List[int]]], backend: str
) -> Dict[int, int]:
    """Sum per-shard ``(asns, hits)`` partials into one dict.

    Ascending-ASN output order; integer sums are order-independent so
    any shard interleave reduces to the same dict.
    """
    k = kernels_for(backend)
    asns = k.int_col([a for asns_part, _ in partials for a in asns_part])
    hits = k.int_col([h for _, hits_part in partials for h in hits_part])
    perm = k.lex_argsort([asns])
    starts = k.group_bounds([asns], perm)
    uniq = k.segment_first(asns, perm, starts)
    sums = k.segment_sum_int(hits, perm, starts)
    return {int(a): int(s) for a, s in zip(uniq, sums)}


def slot_counts(slots) -> Dict[int, int]:
    """Rows per slot id, slots in order of first appearance.

    A ``group_sum`` of 1.0 per row with the active kernels: float sums
    of ones are exact integers below ``2**53`` rows.
    """
    kernels = get_kernels()
    ones = array("d", [1.0]) * kernels.length(slots)
    ids, sums = kernels.group_sum(slots, ones)
    return dict(zip(ids, map(int, sums)))


def sort_by_idx(batch):
    """Restore original dataset order (after any shard interleave)."""
    k = kernels_for(batch.backend)
    return batch.take(k.lex_argsort([batch.idx]))


def sort_spot_by_idx(spot: SpotBatch) -> SpotBatch:
    """Restore a concatenated spot batch to dataset order, labels too."""
    k = kernels_for(spot.batch.backend)
    return spot.take(k.lex_argsort([spot.batch.idx]))


def group_accumulate_beacons(batch: BeaconBatch) -> BeaconBatch:
    """Group by subnet in canonical order, summing ``hits``/``api``/``cell``.

    Metadata (``asn``/``country``) is taken from each group's first
    row.  ``idx`` carries each group's first row index.
    """
    k = kernels_for(batch.backend)
    keys = batch.key_columns
    perm = k.lex_argsort(list(keys))
    starts = k.group_bounds(list(keys), perm)
    hit_sums = k.segment_sum_int(batch.hits, perm, starts)
    api_sums = k.segment_sum_int(batch.api, perm, starts)
    cell_sums = k.segment_sum_int(batch.cell, perm, starts)
    rep = [int(perm[s]) for s in starts]
    rep_col = k.index_col(rep)
    return BeaconBatch(
        backend=batch.backend,
        idx=k.take(batch.idx, rep_col),
        family=k.take(batch.family, rep_col),
        value_hi=k.take(batch.value_hi, rep_col),
        value_lo=k.take(batch.value_lo, rep_col),
        length=k.take(batch.length, rep_col),
        asn=k.take(batch.asn, rep_col),
        country=[batch.country[r] for r in rep],
        hits=k.int_col(hit_sums),
        api=k.int_col(api_sums),
        cell=k.int_col(cell_sums),
    )


def find_duplicate_key(batch) -> Optional[Tuple[int, int, int]]:
    """First repeated subnet key ``(family, value, length)``, if any.

    "First" in row order: the key whose *second* occurrence has the
    smallest row position -- the repeat a row-wise ``seen``-set loop
    notices first.
    """
    k = kernels_for(batch.backend)
    keys = list(batch.key_columns)
    perm = k.lex_argsort(keys)
    starts = k.group_bounds(keys, perm)
    n = len(perm)
    if len(starts) == n:
        return None
    starts_list = [int(s) for s in starts]
    best_row: Optional[int] = None
    for g, start in enumerate(starts_list):
        stop = starts_list[g + 1] if g + 1 < len(starts_list) else n
        if stop - start > 1:
            # Stable sort: perm runs ascending within the group, so
            # perm[start + 1] is the group's second occurrence.
            row = int(perm[start + 1])
            if best_row is None or row < best_row:
                best_row = row
    if best_row is None:
        return None
    return (
        int(batch.family[best_row]),
        _join_value(
            int(batch.value_hi[best_row]), int(batch.value_lo[best_row])
        ),
        int(batch.length[best_row]),
    )


def partition_batch(batch, shards: int) -> list:
    """Split a batch into prefix-hash partitions (original row order
    preserved inside each shard, like the row-wise partitioner)."""
    k = kernels_for(batch.backend)
    if shards == 1:
        return [batch]
    sidx = k.shard_index(
        batch.family, batch.value_hi, batch.value_lo, batch.length, shards
    )
    perm = k.lex_argsort([sidx])
    starts = k.group_bounds([sidx], perm)
    present = [int(s) for s in k.segment_first(sidx, perm, starts)]
    starts_list = [int(s) for s in starts]
    n = len(perm)
    empty = batch.take(k.index_col([]))
    parts = [empty] * shards
    for g, shard in enumerate(present):
        start = starts_list[g]
        stop = starts_list[g + 1] if g + 1 < len(starts_list) else n
        parts[shard] = batch.take(k.take(perm, k.index_col(range(start, stop))))
    return parts
