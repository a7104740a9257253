"""Cellular ratio computation (section 4.1).

The cellular ratio of a subnet is the fraction of its Network
Information API-enabled beacon hits whose ConnectionType is cellular.
:class:`RatioTable` materializes those ratios for every sampled /24 and
/48, and joins them with Demand Units for the demand-weighted
distributions of Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional

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


class RatioTable:
    """Cellular ratios for all subnets with usable API data."""

    def __init__(self, records: Iterable[RatioRecord]) -> None:
        self._by_subnet: Dict[Prefix, RatioRecord] = {}
        for record in records:
            if record.api_hits <= 0:
                raise ValueError(f"{record.subnet}: ratio needs API hits")
            if record.subnet in self._by_subnet:
                raise ValueError(f"duplicate ratio subnet {record.subnet}")
            self._by_subnet[record.subnet] = record

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
        """Adopt an already-validated subnet->record mapping (no copy).

        Internal fast path for the parallel layer
        (:mod:`repro.parallel`): the sharded pipeline builds the
        mapping itself (shards are disjoint by construction and rows
        are pre-filtered on ``api_hits``), so re-running the
        constructor's duplicate/API checks would only re-prove what
        the sharder already guarantees.
        """
        table = cls.__new__(cls)
        table._by_subnet = by_subnet
        return table

    @classmethod
    def from_beacons(
        cls, beacons: Iterable[SubnetBeaconCounts], min_api_hits: int = 1
    ) -> "RatioTable":
        """Compute ratios from a BEACON dataset (or any iterable of its
        per-subnet counts, such as the stream's live windows).

        Subnets with fewer than ``min_api_hits`` API-enabled hits are
        dropped: their ratios are statistically meaningless.
        """
        if min_api_hits < 1:
            raise ValueError("min_api_hits must be >= 1")
        return cls(
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
        """
        records = self.records(family)
        if not records:
            raise ValueError(f"no IPv{family} ratio records")
        return bucket_fractions(records, low, high, demand)


def bucket_fractions(
    records: List[RatioRecord],
    low: float = 0.1,
    high: float = 0.9,
    demand: Optional[DemandDataset] = None,
) -> Dict[str, float]:
    """:meth:`RatioTable.bucket_fractions` over records already in hand.

    Callers that split one family several ways (Figure 2) select the
    family's records once and pass them to each split.
    """
    if not 0 <= low < high <= 1:
        raise ValueError("need 0 <= low < high <= 1")
    du_of = None if demand is None else demand.du_of
    total = low_sum = mid_sum = high_sum = 0.0
    for record in records:
        weight = 1.0 if du_of is None else du_of(record.subnet)
        total += weight
        ratio = record.ratio
        if ratio < low:
            low_sum += weight
        elif ratio > high:
            high_sum += weight
        else:
            mid_sum += weight
    if total <= 0:
        raise ValueError("no weight to distribute")
    return {
        "low": low_sum / total,
        "intermediate": mid_sum / total,
        "high": high_sum / total,
    }
