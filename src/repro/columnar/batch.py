"""Record batches: the columnar shape of the pipeline's hot data.

A record batch is a set of parallel columns -- backend-native integer
/ float buffers plus plain Python lists for strings -- with one row
per record.  128-bit prefix values are split into two unsigned 64-bit
halves (``value_hi`` / ``value_lo``) so both backends index them with
fixed-width arithmetic; ``to_rows`` rejoins them into the full
integer value only at the Python-object boundary.

Batches know which backend built their columns (``backend``), so code
that receives a pickled batch from a pool worker dispatches kernels by
the batch's own name instead of trusting process-global state --
worker and parent can never disagree about how to read a column.

Layout (one row = one compact row of :mod:`repro.parallel.sharding`):

=============  ========  ==========================================
column         kind      meaning
=============  ========  ==========================================
``idx``        int64     original dataset position (order restore)
``family``     int64     4 or 6
``value_hi``   uint64    prefix value bits 64..127
``value_lo``   uint64    prefix value bits 0..63
``length``     int64     prefix length (24 / 48 / ...)
``asn``        int64     origin AS
``country``    list[str] ISO country code
``hits``       int64*    beacon hits        (BeaconBatch)
``api``        int64*    API-enabled hits   (BeaconBatch)
``cell``       int64*    cellular hits      (BeaconBatch)
``du``         float64   demand units       (DemandBatch)
``label``      list[bool] cellular verdict  (SpotBatch)
=============  ========  ==========================================

``int64*`` columns promote to exact Python-int storage when a value
exceeds the int64 range (see the kernel modules).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple


_MASK64 = 0xFFFFFFFFFFFFFFFF


def _join_value(hi: int, lo: int) -> int:
    return (hi << 64) | lo


def _kernels(backend: str):
    from repro.columnar.backend import kernels_for

    return kernels_for(backend)


@dataclass
class BeaconBatch:
    """Columnar beacon rows (one row per subnet's counts)."""

    backend: str
    idx: Sequence[int]
    family: Sequence[int]
    value_hi: Sequence[int]
    value_lo: Sequence[int]
    length: Sequence[int]
    asn: Sequence[int]
    country: List[str]
    hits: Sequence[int]
    api: Sequence[int]
    cell: Sequence[int]

    def __len__(self) -> int:
        return len(self.country)

    @property
    def key_columns(self) -> Tuple[Sequence[int], ...]:
        """Canonical subnet sort key: (family, value, length)."""
        return (self.family, self.value_hi, self.value_lo, self.length)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple], backend: str) -> "BeaconBatch":
        """Build from compact ``BeaconRow`` tuples (see sharding)."""
        idx: List[int] = []
        family: List[int] = []
        hi: List[int] = []
        lo: List[int] = []
        length: List[int] = []
        asn: List[int] = []
        country: List[str] = []
        hits: List[int] = []
        api: List[int] = []
        cell: List[int] = []
        for i, f, value, ln, a, c, h, ap, ce in rows:
            idx.append(i)
            family.append(f)
            hi.append(value >> 64)
            lo.append(value & _MASK64)
            length.append(ln)
            asn.append(a)
            country.append(c)
            hits.append(h)
            api.append(ap)
            cell.append(ce)
        k = _kernels(backend)
        return cls(
            backend=backend,
            idx=k.index_col(idx),
            family=k.index_col(family),
            value_hi=k.u64_col(hi),
            value_lo=k.u64_col(lo),
            length=k.index_col(length),
            asn=k.int_col(asn),
            country=country,
            hits=k.int_col(hits),
            api=k.int_col(api),
            cell=k.int_col(cell),
        )

    @classmethod
    def from_dataset(cls, beacons, backend: str) -> "BeaconBatch":
        """Columns straight from a ``BeaconDataset`` (dataset order)."""
        from repro.parallel.sharding import beacon_rows

        return cls.from_rows(beacon_rows(beacons), backend)

    @classmethod
    def from_columns(cls, columns, backend: str) -> "BeaconBatch":
        """Adopt decoded shard-file columns (full ``value`` ints).

        ``columns`` maps the cache schema names (``idx`` .. ``cell``)
        to equal-length lists; the 128-bit ``value`` column is split
        into halves here.
        """
        values = columns["value"]
        k = _kernels(backend)
        return cls(
            backend=backend,
            idx=k.index_col(columns["idx"]),
            family=k.index_col(columns["family"]),
            value_hi=k.u64_col([v >> 64 for v in values]),
            value_lo=k.u64_col([v & _MASK64 for v in values]),
            length=k.index_col(columns["length"]),
            asn=k.int_col(columns["asn"]),
            country=list(columns["country"]),
            hits=k.int_col(columns["hits"]),
            api=k.int_col(columns["api"]),
            cell=k.int_col(columns["cell"]),
        )

    def to_rows(self) -> List[tuple]:
        """Back to compact rows (tests, legacy interop)."""
        k = _kernels(self.backend)
        return [
            (i, f, _join_value(hi, lo), ln, a, c, h, ap, ce)
            for i, f, hi, lo, ln, a, c, h, ap, ce in zip(
                k.to_list(self.idx), k.to_list(self.family),
                k.to_list(self.value_hi), k.to_list(self.value_lo),
                k.to_list(self.length), k.to_list(self.asn),
                self.country, k.to_list(self.hits),
                k.to_list(self.api), k.to_list(self.cell),
            )
        ]

    def take(self, indices) -> "BeaconBatch":
        """Row-gather (shard split, order restore)."""
        k = _kernels(self.backend)
        return BeaconBatch(
            backend=self.backend,
            idx=k.take(self.idx, indices),
            family=k.take(self.family, indices),
            value_hi=k.take(self.value_hi, indices),
            value_lo=k.take(self.value_lo, indices),
            length=k.take(self.length, indices),
            asn=k.take(self.asn, indices),
            country=k.take_list(self.country, indices),
            hits=k.take(self.hits, indices),
            api=k.take(self.api, indices),
            cell=k.take(self.cell, indices),
        )

    @classmethod
    def concat(cls, batches: Sequence["BeaconBatch"]) -> "BeaconBatch":
        """Column-wise concatenation (the zero-copy shard merge)."""
        if not batches:
            raise ValueError("nothing to concatenate")
        k = _kernels(batches[0].backend)
        country: List[str] = []
        for batch in batches:
            country.extend(batch.country)
        return cls(
            backend=batches[0].backend,
            idx=k.concat([b.idx for b in batches]),
            family=k.concat([b.family for b in batches]),
            value_hi=k.concat([b.value_hi for b in batches]),
            value_lo=k.concat([b.value_lo for b in batches]),
            length=k.concat([b.length for b in batches]),
            asn=k.concat([b.asn for b in batches]),
            country=country,
            hits=k.concat([b.hits for b in batches]),
            api=k.concat([b.api for b in batches]),
            cell=k.concat([b.cell for b in batches]),
        )


@dataclass
class SpotBatch:
    """Kept (classified) beacon rows plus their cellular labels."""

    batch: BeaconBatch
    label: List[bool]

    def __len__(self) -> int:
        return len(self.label)

    def take(self, indices) -> "SpotBatch":
        return SpotBatch(
            batch=self.batch.take(indices),
            label=_kernels(self.batch.backend).take_list(self.label, indices),
        )

    @classmethod
    def concat(cls, parts: Sequence["SpotBatch"]) -> "SpotBatch":
        if not parts:
            raise ValueError("nothing to concatenate")
        label: List[bool] = []
        for part in parts:
            label.extend(part.label)
        return cls(
            batch=BeaconBatch.concat([part.batch for part in parts]),
            label=label,
        )


@dataclass
class DemandBatch:
    """Columnar demand rows."""

    backend: str
    idx: Sequence[int]
    family: Sequence[int]
    value_hi: Sequence[int]
    value_lo: Sequence[int]
    length: Sequence[int]
    asn: Sequence[int]
    country: List[str]
    du: Sequence[float]

    def __len__(self) -> int:
        return len(self.country)

    @property
    def key_columns(self) -> Tuple[Sequence[int], ...]:
        return (self.family, self.value_hi, self.value_lo, self.length)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple], backend: str) -> "DemandBatch":
        idx: List[int] = []
        family: List[int] = []
        hi: List[int] = []
        lo: List[int] = []
        length: List[int] = []
        asn: List[int] = []
        country: List[str] = []
        du: List[float] = []
        for i, f, value, ln, a, c, d in rows:
            idx.append(i)
            family.append(f)
            hi.append(value >> 64)
            lo.append(value & _MASK64)
            length.append(ln)
            asn.append(a)
            country.append(c)
            du.append(d)
        k = _kernels(backend)
        return cls(
            backend=backend,
            idx=k.index_col(idx),
            family=k.index_col(family),
            value_hi=k.u64_col(hi),
            value_lo=k.u64_col(lo),
            length=k.index_col(length),
            asn=k.int_col(asn),
            country=country,
            du=k.float_col(du),
        )

    @classmethod
    def from_dataset(cls, demand, backend: str) -> "DemandBatch":
        from repro.parallel.sharding import demand_rows

        return cls.from_rows(demand_rows(demand), backend)

    @classmethod
    def from_columns(cls, columns, backend: str) -> "DemandBatch":
        """Adopt decoded shard-file columns (full ``value`` ints)."""
        values = columns["value"]
        k = _kernels(backend)
        return cls(
            backend=backend,
            idx=k.index_col(columns["idx"]),
            family=k.index_col(columns["family"]),
            value_hi=k.u64_col([v >> 64 for v in values]),
            value_lo=k.u64_col([v & _MASK64 for v in values]),
            length=k.index_col(columns["length"]),
            asn=k.int_col(columns["asn"]),
            country=list(columns["country"]),
            du=k.float_col(columns["du"]),
        )

    def to_rows(self) -> List[tuple]:
        k = _kernels(self.backend)
        return [
            (i, f, _join_value(hi, lo), ln, a, c, d)
            for i, f, hi, lo, ln, a, c, d in zip(
                k.to_list(self.idx), k.to_list(self.family),
                k.to_list(self.value_hi), k.to_list(self.value_lo),
                k.to_list(self.length), k.to_list(self.asn),
                self.country, k.to_list(self.du),
            )
        ]

    def take(self, indices) -> "DemandBatch":
        k = _kernels(self.backend)
        return DemandBatch(
            backend=self.backend,
            idx=k.take(self.idx, indices),
            family=k.take(self.family, indices),
            value_hi=k.take(self.value_hi, indices),
            value_lo=k.take(self.value_lo, indices),
            length=k.take(self.length, indices),
            asn=k.take(self.asn, indices),
            country=k.take_list(self.country, indices),
            du=k.take(self.du, indices),
        )

    @classmethod
    def concat(cls, batches: Sequence["DemandBatch"]) -> "DemandBatch":
        if not batches:
            raise ValueError("nothing to concatenate")
        k = _kernels(batches[0].backend)
        country: List[str] = []
        for batch in batches:
            country.extend(batch.country)
        return cls(
            backend=batches[0].backend,
            idx=k.concat([b.idx for b in batches]),
            family=k.concat([b.family for b in batches]),
            value_hi=k.concat([b.value_hi for b in batches]),
            value_lo=k.concat([b.value_lo for b in batches]),
            length=k.concat([b.length for b in batches]),
            asn=k.concat([b.asn for b in batches]),
            country=country,
            du=k.concat([b.du for b in batches]),
        )
