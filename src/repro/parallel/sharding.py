"""Deterministic prefix-hash sharding.

The census keyspace is the set of /24 and /48 aggregation prefixes
(millions of them at paper scale), and every pipeline stage up to AS
identification is keyed by that prefix.  Sharding therefore hashes the
*prefix* -- all records of one subnet land in exactly one shard, which
is what lets the parent concatenate per-shard outputs without
cross-shard reconciliation.

The hash is a hand-rolled 64-bit FNV-1a over the prefix's
``(family, value, length)``: Python's builtin ``hash`` is randomized
per process for strings and must never decide shard membership, and
shard assignment must be stable across interpreter versions so cache
shard files written by one toolchain read back under another.

Records cross process boundaries as *compact rows* (plain tuples of
ints and short strings).  Pickling a tuple costs a fraction of
pickling a dataclass instance, and the row keeps the record's original
dataset index in front so the parent can restore exact serial
iteration order after an arbitrary shard interleave -- the property
the differential suite pins down.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

from repro.datasets.beacon_dataset import BeaconDataset
from repro.datasets.demand_dataset import DemandDataset
from repro.net.prefix import Prefix

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _avalanche(h: int) -> int:
    """64-bit finalizer (splitmix64-style) spreading high bits low.

    Raw FNV-1a is not enough here: multiplication mod 2**64 never
    propagates high bits downward, and aggregation prefixes have
    *structurally zero* low bits (a /24's value ends in 8 zero bits, a
    /48's in 80), so ``h % 2**k`` would park every prefix in one shard
    for power-of-two shard counts.  The xorshift-multiply finalizer
    folds the high bits back down, giving uniform dispersion for any
    modulus.
    """
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _MASK64
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & _MASK64
    h ^= h >> 33
    return h

#: Compact beacon row: (idx, family, value, length, asn, country,
#: hits, api_hits, cellular_hits).
BeaconRow = Tuple[int, int, int, int, int, str, int, int, int]
#: Compact demand row: (idx, family, value, length, asn, country, du).
DemandRow = Tuple[int, int, int, int, int, str, float]


def stable_shard_index(
    family: int, value: int, length: int, shards: int
) -> int:
    """Shard index of a prefix, stable across processes and versions."""
    if shards <= 0:
        raise ValueError("need at least one shard")
    if shards == 1:
        return 0
    h = _FNV_OFFSET
    for part in (family, value & _MASK64, value >> 64, length):
        h ^= part & _MASK64
        h = (h * _FNV_PRIME) & _MASK64
    return _avalanche(h) % shards


def shard_of(prefix: Prefix, shards: int) -> int:
    """Shard index of a :class:`~repro.net.prefix.Prefix`."""
    return stable_shard_index(prefix.family, prefix.value, prefix.length, shards)


def beacon_rows(beacons: BeaconDataset) -> Iterator[BeaconRow]:
    """Compact rows for every subnet, in dataset iteration order."""
    for idx, counts in enumerate(beacons):
        subnet = counts.subnet
        yield (
            idx,
            subnet.family,
            subnet.value,
            subnet.length,
            counts.asn,
            counts.country,
            counts.hits,
            counts.api_hits,
            counts.cellular_hits,
        )


def demand_rows(demand: DemandDataset) -> Iterator[DemandRow]:
    """Compact rows for every demand record, in dataset order."""
    for idx, record in enumerate(demand):
        subnet = record.subnet
        yield (
            idx,
            subnet.family,
            subnet.value,
            subnet.length,
            record.asn,
            record.country,
            record.du,
        )


def partition_rows(
    rows: Iterable[Tuple], shards: int
) -> List[List[Tuple]]:
    """Split compact rows into prefix-hash partitions.

    Rows carry ``(idx, family, value, length, ...)``; partition
    membership depends only on the prefix, never on the index, so the
    same dataset partitions identically regardless of how it was
    produced or ordered.
    """
    if shards <= 0:
        raise ValueError("need at least one shard")
    parts: List[List[Tuple]] = [[] for _ in range(shards)]
    if shards == 1:
        parts[0].extend(rows)
        return parts
    for row in rows:
        parts[stable_shard_index(row[1], row[2], row[3], shards)].append(row)
    return parts


def partition_beacons(
    beacons: BeaconDataset, shards: int
) -> List[List[BeaconRow]]:
    """Prefix-hash partition of a BEACON dataset as compact rows."""
    return partition_rows(beacon_rows(beacons), shards)


def partition_demand(
    demand: DemandDataset, shards: int
) -> List[List[DemandRow]]:
    """Prefix-hash partition of a DEMAND dataset as compact rows."""
    return partition_rows(demand_rows(demand), shards)
