"""Cellular ratio computation (section 4.1).

The cellular ratio of a subnet is the fraction of its Network
Information API-enabled beacon hits whose ConnectionType is cellular.
:class:`RatioTable` materializes those ratios for every sampled /24 and
/48, and joins them with Demand Units for the demand-weighted
distributions of Figure 2.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional

from repro.columnar.backend import get_kernels
from repro.datasets.beacon_dataset import SubnetBeaconCounts
from repro.datasets.demand_dataset import DemandDataset
from repro.net.prefix import Prefix
from repro.stats.cdf import EmpiricalCDF


@dataclass(frozen=True)
class RatioRecord:
    """One subnet's cellular ratio and supporting counts."""

    subnet: Prefix
    asn: int
    country: str
    api_hits: int
    cellular_hits: int
    hits: int

    @property
    def ratio(self) -> float:
        """Cellular hits over API-enabled hits."""
        return self.cellular_hits / self.api_hits

    @property
    def family(self) -> int:
        return self.subnet.family


def ratio_records(
    beacons: Iterable[SubnetBeaconCounts], min_api_hits: int = 1
) -> Iterator[RatioRecord]:
    """The ratio record of each subnet with at least ``min_api_hits``
    API-enabled hits, lazily, in the order of ``beacons``.

    Subnets below the floor are dropped: their ratios are
    statistically meaningless.
    """
    if min_api_hits < 1:
        raise ValueError("min_api_hits must be >= 1")
    return (
        RatioRecord(
            subnet=counts.subnet,
            asn=counts.asn,
            country=counts.country,
            api_hits=counts.api_hits,
            cellular_hits=counts.cellular_hits,
            hits=counts.hits,
        )
        for counts in beacons
        if counts.api_hits >= min_api_hits
    )


class RatioTable:
    """Cellular ratios for all subnets with usable API data.

    Beside its records the table keeps one column per field the census
    reduces over, in row order (the order of iteration): ``families``,
    ``ratio_values`` (each record's :attr:`RatioRecord.ratio`, NaN
    without API hits), ``asns`` and ``country_codes`` (an index into
    ``country_names``, numbered in order of first appearance).  They
    are built with the table and never change after.
    """

    def __init__(self, records: Iterable[RatioRecord]) -> None:
        self._by_subnet: Dict[Prefix, RatioRecord] = {}
        self._add_rows(records, check=True)

    def _add_rows(self, records: Iterable[RatioRecord], check: bool) -> None:
        """Fill the row columns in one pass over ``records``; with
        ``check``, also validate each record and add it to the table."""
        by_subnet = self._by_subnet
        self.families = array("b")
        self.ratio_values = array("d")
        self.asns: List[int] = []
        self.country_codes = array("q")
        self.country_names: List[str] = []
        code_of: Dict[str, int] = {}
        add_family, add_ratio = self.families.append, self.ratio_values.append
        add_asn, add_code = self.asns.append, self.country_codes.append
        for record in records:
            subnet = record.subnet
            if check:
                if record.api_hits <= 0:
                    raise ValueError(f"{subnet}: ratio needs API hits")
                if subnet in by_subnet:
                    raise ValueError(f"duplicate ratio subnet {subnet}")
                by_subnet[subnet] = record
            add_family(subnet.family)
            api_hits = record.api_hits
            # NaN for a row without API hits, which only a table
            # adopted unchecked can hold: it buckets as "high" on both
            # kernel backends, where its record's ratio would raise.
            add_ratio(record.cellular_hits / api_hits if api_hits else math.nan)
            add_asn(record.asn)
            code = code_of.get(record.country)
            if code is None:
                code = code_of[record.country] = len(code_of)
                self.country_names.append(record.country)
            add_code(code)

    def __eq__(self, other: object) -> bool:
        """Tables are equal when they hold the same records (any order)."""
        if not isinstance(other, RatioTable):
            return NotImplemented
        return self._by_subnet == other._by_subnet

    # Tables are mutable aggregates; equality is by content, not identity.
    __hash__ = None  # type: ignore[assignment]

    @classmethod
    def _from_ordered(
        cls, by_subnet: Dict[Prefix, RatioRecord]
    ) -> "RatioTable":
        """Adopt an already-validated subnet->record mapping (no copy)
        and build its row columns.

        Internal fast path for :class:`ClassificationResult`, whose
        records come from a table already checked: a classified ratio
        table, or the sharded pipeline's merged rows (shards are
        disjoint by construction and rows are pre-filtered on
        ``api_hits``), so re-running the constructor's duplicate/API
        checks would only re-prove what is already guaranteed.
        """
        table = cls.__new__(cls)
        table._by_subnet = by_subnet
        table._add_rows(by_subnet.values(), check=False)
        return table

    @classmethod
    def from_beacons(
        cls, beacons: Iterable[SubnetBeaconCounts], min_api_hits: int = 1
    ) -> "RatioTable":
        """Compute ratios from a BEACON dataset (or any iterable of its
        per-subnet counts, such as the stream's live windows), keeping
        the records :func:`ratio_records` yields.
        """
        return cls(ratio_records(beacons, min_api_hits))

    # ---- mmap snapshots ----------------------------------------------------

    def save_mmap(self, path):
        """Snapshot this table as an mmap-able columnar file.

        See :mod:`repro.columnar.mmaptable`: pool workers given the
        reopened table share read-only pages instead of pickling
        records.
        """
        from repro.columnar.mmaptable import save_mmap

        return save_mmap(self, path)

    @classmethod
    def open_mmap(cls, path) -> "RatioTable":
        """Open a :meth:`save_mmap` snapshot as a lazy, shareable table."""
        from repro.columnar.mmaptable import open_mmap

        return open_mmap(path)

    def __len__(self) -> int:
        return len(self._by_subnet)

    def __contains__(self, subnet: Prefix) -> bool:
        return subnet in self._by_subnet

    def __iter__(self) -> Iterator[RatioRecord]:
        return iter(self._by_subnet.values())

    def get(self, subnet: Prefix) -> Optional[RatioRecord]:
        return self._by_subnet.get(subnet)

    def subnet_keys(self) -> Iterator[Prefix]:
        """The subnets, in row order (a :class:`Prefix` is its
        ``(family, value, length)`` tuple)."""
        return iter(self._by_subnet)

    def records(self, family: Optional[int] = None) -> List[RatioRecord]:
        if family is None:
            return list(self._by_subnet.values())
        return [r for r in self._by_subnet.values() if r.subnet.family == family]

    # ---- distributions (Figure 2) -----------------------------------------

    def ratio_cdf(self, family: int) -> EmpiricalCDF:
        """Unweighted CDF of cellular ratios for one family."""
        records = self.records(family)
        if not records:
            raise ValueError(f"no IPv{family} ratio records")
        return EmpiricalCDF(record.ratio for record in records)

    def demand_weighted_cdf(
        self, family: int, demand: DemandDataset
    ) -> EmpiricalCDF:
        """Demand-weighted CDF of cellular ratios for one family."""
        records = self.records(family)
        if not records:
            raise ValueError(f"no IPv{family} ratio records")
        values = [record.ratio for record in records]
        weights = [demand.du_of(record.subnet) for record in records]
        if sum(weights) <= 0:
            raise ValueError("ratio subnets carry no demand")
        return EmpiricalCDF(values, weights)

    def bucket_fractions(
        self,
        family: int,
        low: float = 0.1,
        high: float = 0.9,
        demand: Optional[DemandDataset] = None,
    ) -> Dict[str, float]:
        """Fractions of subnets (or demand) below/between/above cutoffs.

        Mirrors the paper's headline split: ratios < 0.1, 0.1-0.9, and
        > 0.9 (section 4.1 reports 91.3% / 2.9% / 5.8% for /24s).

        One slot per (family digit, bucket) over the table's columns.
        Demand weights come from one join of the subnets against the
        demand dataset, and every sum adds the family's rows in row
        order, as a per-record loop does.
        """
        if not 0 <= low < high <= 1:
            raise ValueError("need 0 <= low < high <= 1")
        kernels = get_kernels()
        # Family digit 1 is this family.  Bucket 0 is ratio < low; 2 is
        # ratio > high, that is at or above the float after ``high``.
        slots = kernels.slot_ids([
            (self.families, (family, family + 1)),
            (self.ratio_values, (low, math.nextafter(high, math.inf))),
        ])
        if demand is None:
            # Imported here: the serving plane's processes load this
            # module but never count slots.
            from repro.columnar.ops import slot_counts

            sums = slot_counts(slots)
            total = sum(sums.get(slot, 0) for slot in _FAMILY_SLOTS)
        else:
            weights = demand.du_column(self.subnet_keys())
            sums = dict(zip(*kernels.group_sum(slots, weights)))
            ids, totals = kernels.group_sum(kernels.take(_IN_FAMILY, slots), weights)
            total = dict(zip(ids, totals)).get(1, 0.0)
        if not any(slot in sums for slot in _FAMILY_SLOTS):
            raise ValueError(f"no IPv{family} ratio records")
        if total <= 0:
            raise ValueError("no weight to distribute")
        low_sum, mid_sum, high_sum = (sums.get(slot, 0.0) for slot in _FAMILY_SLOTS)
        return {
            "low": low_sum / total,
            "intermediate": mid_sum / total,
            "high": high_sum / total,
        }


#: ``bucket_fractions``' slots of the asked family's three buckets, and
#: each slot's family digit as in-family (1) or not (0).
_FAMILY_SLOTS = (3, 4, 5)
_IN_FAMILY = (0, 0, 0, 1, 1, 1, 0, 0, 0)
