"""Validation against carrier ground truth (section 4.2, Table 3).

For each carrier-provided prefix we compare the classifier's label
(unobserved prefixes count as non-cellular -- the paper's method is a
lower bound) against the operator's label, accumulating two confusion
matrices: one counting CIDRs, one weighting each CIDR by its Demand
Units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.core.classifier import ClassificationResult
from repro.datasets.demand_dataset import DemandDataset
from repro.datasets.groundtruth import CarrierGroundTruth
from repro.stats.confusion import BinaryConfusion


@dataclass(frozen=True)
class CarrierValidation:
    """Table 3 row: per-carrier accuracy by CIDR count and by demand."""

    carrier: str
    by_cidr: BinaryConfusion
    by_demand: BinaryConfusion

    def as_row(self) -> Dict[str, float]:
        """Flat mapping for table rendering."""
        row = {"carrier": self.carrier}
        for scope, confusion in (("cidr", self.by_cidr), ("demand", self.by_demand)):
            for key, value in confusion.as_dict().items():
                row[f"{scope}_{key}"] = value
        return row


def validate_against_carrier(
    result: ClassificationResult,
    truth: CarrierGroundTruth,
    demand: Optional[DemandDataset] = None,
) -> CarrierValidation:
    """Score a classification against one carrier's ground truth.

    ``demand`` supplies the weights for the demand-scope confusion; when
    omitted the demand matrix degenerates to the CIDR matrix.
    """
    by_cidr = BinaryConfusion()
    by_demand = BinaryConfusion()
    labels = result.labels.get
    for prefix in truth.cellular:
        predicted = labels(prefix, False)
        by_cidr.observe(True, predicted)
        weight = demand.du_of(prefix) if demand is not None else 1.0
        by_demand.observe(True, predicted, weight)
    for prefix in truth.fixed:
        predicted = labels(prefix, False)
        by_cidr.observe(False, predicted)
        weight = demand.du_of(prefix) if demand is not None else 1.0
        by_demand.observe(False, predicted, weight)
    return CarrierValidation(
        carrier=truth.label, by_cidr=by_cidr, by_demand=by_demand
    )


def validate_many(
    result: ClassificationResult,
    carriers: Iterable[CarrierGroundTruth],
    demand: Optional[DemandDataset] = None,
) -> Dict[str, CarrierValidation]:
    """Validate against several carriers at once (Table 3)."""
    return {
        truth.label: validate_against_carrier(result, truth, demand)
        for truth in carriers
    }
