"""Threshold classification of subnets (section 4.1-4.2).

A subnet is labeled cellular when its cellular ratio meets the
threshold (the paper settles on 0.5, a deliberate "majority" rule,
after showing accuracy is stable across (0.1, 0.96)).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.ratios import RatioRecord, RatioTable
from repro.net.prefix import Prefix

#: The paper's operating threshold.
DEFAULT_THRESHOLD = 0.5


@dataclass(frozen=True)
class SubnetClassifier:
    """Cellular/non-cellular decision rule over ratio records."""

    threshold: float = DEFAULT_THRESHOLD
    min_api_hits: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.threshold <= 1:
            raise ValueError("threshold must be in (0, 1]")
        if self.min_api_hits < 1:
            raise ValueError("min_api_hits must be >= 1")

    def is_cellular(self, record: RatioRecord) -> bool:
        """Decide one subnet (False when below the API-hit floor)."""
        if record.api_hits < self.min_api_hits:
            return False
        return record.ratio >= self.threshold

    def classify(self, ratios: RatioTable) -> "ClassificationResult":
        """Label every subnet in the table."""
        labels: Dict[Prefix, bool] = {}
        records: Dict[Prefix, RatioRecord] = {}
        for record in ratios:
            labels[record.subnet] = self.is_cellular(record)
            records[record.subnet] = record
        return ClassificationResult(
            threshold=self.threshold, labels=labels, records=records
        )


@dataclass
class ClassificationResult:
    """Subnet labels produced by one classifier run.

    ``records`` holds each labelled subnet's ratio record, in the
    order of ``labels``.  Built with the result: ``label_column``, the
    labels as 0/1 in that order, and ``table``, the classified
    :class:`RatioTable` over ``records``, whose row columns line up
    with it.
    """

    threshold: float
    labels: Dict[Prefix, bool]
    records: Dict[Prefix, RatioRecord]
    label_column: array = field(init=False, repr=False, compare=False)
    table: RatioTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.label_column = array("b", bytearray(self.labels.values()))
        self.table = RatioTable._from_ordered(self.records)

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, subnet: Prefix) -> bool:
        return subnet in self.labels

    def is_cellular(self, subnet: Prefix) -> bool:
        """Label of a subnet; unobserved subnets default to non-cellular.

        The paper's method is deliberately conservative: it can only
        assert cellular for subnets with supporting beacon evidence, so
        everything unobserved counts as fixed-line (hence the large
        false-negative counts in Table 3).
        """
        return self.labels.get(subnet, False)

    def cellular_subnets(self, family: Optional[int] = None) -> List[Prefix]:
        return [
            subnet
            for subnet, cellular in self.labels.items()
            if cellular and (family is None or subnet.family == family)
        ]

    def cellular_set(self) -> Set[Prefix]:
        return {s for s, cellular in self.labels.items() if cellular}

    def cellular_count(self, family: int) -> int:
        return len(self.cellular_subnets(family))

    def observed_count(self, family: int) -> int:
        return sum(1 for subnet in self.labels if subnet.family == family)

    def cellular_fraction_of_active(self, family: int) -> float:
        """Detected cellular share of active space (7.3% IPv4 in the paper)."""
        observed = self.observed_count(family)
        if observed == 0:
            raise ValueError(f"no IPv{family} subnets observed")
        return self.cellular_count(family) / observed

    def asns_with_cellular(self) -> Dict[int, int]:
        """ASN -> number of detected cellular subnets (AS pipeline input)."""
        counts: Dict[int, int] = {}
        for subnet, cellular in self.labels.items():
            if cellular:
                asn = self.records[subnet].asn
                counts[asn] = counts.get(asn, 0) + 1
        return counts
