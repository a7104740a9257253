"""The DEMAND dataset: per-subnet Demand Units.

Section 3.2: daily request counts are aggregated per /24 and /48 over a
seven-day window, then normalized into unit-less Demand Units (DU) out
of 100,000 -- each DU is 0.001% of global request demand, so
``1000 DU == 1%``.
"""

from __future__ import annotations

import json
import operator
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import IO, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.columnar.backend import get_kernels
from repro.net.prefix import Prefix

#: The normalization constant of section 3.2.
DEMAND_UNIT_TOTAL = 100_000.0


def fraction_to_du(fraction: float) -> float:
    """Convert a fraction of global demand to Demand Units."""
    return fraction * DEMAND_UNIT_TOTAL


def du_to_fraction(du: float) -> float:
    """Convert Demand Units to a fraction of global demand."""
    return du / DEMAND_UNIT_TOTAL


@dataclass
class SubnetDemand:
    """Demand Units attributed to one subnet."""

    subnet: Prefix
    asn: int
    country: str
    du: float

    def __post_init__(self) -> None:
        if self.du < 0:
            raise ValueError(f"{self.subnet}: demand must be non-negative")

    def to_json(self) -> str:
        return json.dumps(
            {
                "subnet": str(self.subnet),
                "asn": self.asn,
                "country": self.country,
                "du": self.du,
            },
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, line: str) -> "SubnetDemand":
        raw = json.loads(line)
        return cls(
            subnet=Prefix.parse(raw["subnet"]),
            asn=raw["asn"],
            country=raw["country"],
            du=raw["du"],
        )


class DemandDataset:
    """Normalized platform demand for one collection window.

    Every write goes through :meth:`_add`, which also appends to the
    columns the census reduces over, in dataset order: ``position``
    (subnet -> row), ``families``, ``country_codes`` (an index into
    ``country_names``, numbered in order of first appearance), ``asns``
    and ``dus``.
    """

    def __init__(self, window_days: int = 7) -> None:
        if window_days <= 0:
            raise ValueError("window must cover at least one day")
        self.window_days = window_days
        self._records: List[SubnetDemand] = []
        self.position: Dict[Prefix, int] = {}
        self.families = array("b")
        self.country_codes = array("q")
        self.country_names: List[str] = []
        self._code_of: Dict[str, int] = {}
        self.asns = array("q")
        self.dus = array("d")

    # ---- construction ----------------------------------------------------

    @classmethod
    def from_request_totals(
        cls,
        totals: Iterable[Tuple[Prefix, int, str, float]],
        window_days: int = 7,
    ) -> "DemandDataset":
        """Build from raw ``(subnet, asn, country, requests)`` totals.

        Request totals are normalized so all subnets sum to
        :data:`DEMAND_UNIT_TOTAL` Demand Units.
        """
        dataset = cls(window_days=window_days)
        rows = list(totals)
        grand_total = sum(row[3] for row in rows)
        if grand_total <= 0:
            raise ValueError("no requests to normalize")
        for subnet, asn, country, requests in rows:
            if requests < 0:
                raise ValueError(f"{subnet}: negative request count")
            if requests == 0:
                continue
            du = DEMAND_UNIT_TOTAL * requests / grand_total
            dataset._add(SubnetDemand(subnet, asn, country, du))
        return dataset

    def _add(self, record: SubnetDemand) -> None:
        # Everything that can fail -- a duplicate subnet, an ASN the
        # 64-bit column cannot hold, a DU that is no float, an
        # unhashable country -- is checked before the first write, so a
        # rejected record leaves every column as it was.
        position = self.position
        if record.subnet in position:
            raise ValueError(f"duplicate demand subnet {record.subnet}")
        asn = operator.index(record.asn)
        if not -(2**63) <= asn < 2**63:
            raise OverflowError(f"{record.subnet}: ASN {asn} out of range")
        du = float(record.du)
        code = self._code_of.get(record.country)
        # The first write: a family the column cannot hold fails here.
        self.families.append(record.subnet.family)
        position[record.subnet] = len(self._records)
        self._records.append(record)
        if code is None:
            code = self._code_of[record.country] = len(self.country_names)
            self.country_names.append(record.country)
        self.country_codes.append(code)
        self.asns.append(asn)
        self.dus.append(du)

    # ---- lookups -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, subnet: Prefix) -> bool:
        return subnet in self.position

    def __iter__(self) -> Iterator[SubnetDemand]:
        return iter(self._records)

    def get(self, subnet: Prefix) -> Optional[SubnetDemand]:
        position = self.position.get(subnet)
        return self._records[position] if position is not None else None

    def du_of(self, subnet: Prefix) -> float:
        """Demand Units of a subnet (0 if the subnet saw no requests)."""
        position = self.position.get(subnet)
        return self._records[position].du if position is not None else 0.0

    def du_column(self, subnets: Iterable[Prefix]):
        """Demand Units of each subnet, in order, as a float column of
        the active kernels (0.0 where a subnet saw no requests).

        One join through ``position`` per call; nothing of it is kept.
        """
        kernels = get_kernels()
        missing = len(self._records)
        rows = list(map(self.position.get, subnets, repeat(missing)))
        return kernels.take(self.dus + array("d", [0.0]), rows)

    def family_counts(self) -> Counter:
        """Demand subnets per address family, families in order of
        first appearance."""
        from repro.columnar.ops import slot_counts

        return Counter(slot_counts(self.families))

    def subnets(self, family: Optional[int] = None) -> List[SubnetDemand]:
        if family is None:
            return list(self._records)
        return [
            record
            for record in self._records
            if record.subnet.family == family
        ]

    @property
    def total_du(self) -> float:
        return sum(record.du for record in self._records)

    # ---- rollups -----------------------------------------------------------

    def du_by_asn(self) -> Dict[int, float]:
        totals: Dict[int, float] = {}
        for record in self._records:
            totals[record.asn] = totals.get(record.asn, 0.0) + record.du
        return totals

    def du_by_country(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for record in self._records:
            totals[record.country] = totals.get(record.country, 0.0) + record.du
        return totals

    # ---- persistence ---------------------------------------------------------

    def dump(self, stream: IO[str]) -> int:
        header = {"window_days": self.window_days}
        stream.write(json.dumps(header, separators=(",", ":")))
        stream.write("\n")
        count = 0
        for record in self._records:
            stream.write(record.to_json())
            stream.write("\n")
            count += 1
        return count

    @classmethod
    def load(
        cls, stream: IO[str], policy: Optional["IngestPolicy"] = None
    ) -> "DemandDataset":
        """Read a dataset back from :meth:`dump` output.

        ``policy`` governs malformed record lines exactly as in
        :meth:`repro.datasets.beacon_dataset.BeaconDataset.load`; the
        default strict policy raises
        :class:`~repro.runtime.policies.IngestFault` with per-line
        context.  Header problems are always fatal.
        """
        from repro.runtime.policies import IngestPolicy, line_error

        if policy is None:
            policy = IngestPolicy.strict()
        header_line = stream.readline()
        if not header_line.strip():
            raise ValueError("missing DEMAND header line")
        try:
            header = json.loads(header_line)
            dataset = cls(window_days=header["window_days"])
        except Exception as exc:
            raise ValueError(f"line 1: DemandDataset header: {exc}") from exc
        for line_no, line in enumerate(stream, start=2):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                dataset._add(SubnetDemand.from_json(stripped))
            except Exception as exc:  # noqa: BLE001 -- policy classifies
                policy.reject(
                    line_error(line_no, "SubnetDemand", stripped, exc), line
                )
                continue
            policy.accept()
        policy.finish()
        return dataset
