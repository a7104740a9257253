"""Within-operator subnet demand concentration: Figure 8, section 6.2.

The paper's observation: cellular demand inside an operator collapses
onto a handful of CGN /24s (25 subnets carry 99.3% in the large mixed
European ISP), while fixed-line demand decays gradually over orders of
magnitude more subnets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.classifier import ClassificationResult
from repro.datasets.demand_dataset import DemandDataset
from repro.stats.concentration import (
    gini_coefficient,
    rank_share_curve,
    smallest_covering,
)


@dataclass(frozen=True)
class ConcentrationReport:
    """Figure 8 data for one operator."""

    asn: int
    #: (rank, share) curves over each class's own demand.
    cellular_curve: Tuple[Tuple[int, float], ...]
    fixed_curve: Tuple[Tuple[int, float], ...]
    cellular_du: float
    fixed_du: float
    #: Subnets needed to cover 99.3% of cellular demand (paper: ~25).
    cellular_covering_993: int
    fixed_covering_993: int
    cellular_gini: float
    fixed_gini: float

    @property
    def cellular_subnet_count(self) -> int:
        return len(self.cellular_curve)

    @property
    def fixed_subnet_count(self) -> int:
        return len(self.fixed_curve)

    @property
    def concentration_gap(self) -> float:
        """Fixed vs cellular covering-set ratio (paper: ~3 orders of
        magnitude more fixed subnets before the demand drop-off)."""
        if self.cellular_covering_993 == 0:
            return float("inf")
        return self.fixed_covering_993 / self.cellular_covering_993


def subnet_demand_concentration(
    classification: ClassificationResult,
    demand: DemandDataset,
    asn: int,
    covering_fraction: float = 0.993,
) -> ConcentrationReport:
    """Build the Figure 8 concentration report for one AS.

    Only demand-active subnets enter the ranked curves, mirroring the
    paper's ranked-demand plot.
    """
    labels = classification.labels.get
    cellular: List[float] = []
    fixed: List[float] = []
    for subnet, record in classification.records.items():
        du = demand.du_of(subnet)
        if du <= 0 or record.asn != asn:
            continue
        if labels(subnet, False):
            cellular.append(du)
        else:
            fixed.append(du)
    # Demand-active subnets without beacon data (e.g. terminating
    # proxies) still belong in the fixed-line curve.
    observed = set(classification.records)
    for record in demand:
        if record.asn == asn and record.du > 0 and record.subnet not in observed:
            fixed.append(record.du)
    if not cellular:
        raise ValueError(f"AS{asn} has no demand-active cellular subnets")
    if not fixed:
        raise ValueError(f"AS{asn} has no demand-active fixed subnets")
    return ConcentrationReport(
        asn=asn,
        cellular_curve=tuple(rank_share_curve(cellular)),
        fixed_curve=tuple(rank_share_curve(fixed)),
        cellular_du=sum(cellular),
        fixed_du=sum(fixed),
        cellular_covering_993=smallest_covering(cellular, covering_fraction),
        fixed_covering_993=smallest_covering(fixed, covering_fraction),
        cellular_gini=gini_coefficient(cellular),
        fixed_gini=gini_coefficient(fixed),
    )
