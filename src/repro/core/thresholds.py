"""Threshold sensitivity analysis (section 4.2, Figure 3).

Sweeps the cellular-ratio threshold over (0, 1] and scores each value
against carrier ground truth with the F1 metric, demand-weighted by
default (low-demand carrier subnets rarely produce beacons, so the
count-based recall floor is structural, not threshold-dependent --
cf. Table 3's Carrier A row).  The paper's observation, which the
reproduction must recover, is a wide stable plateau: accuracy barely
moves between thresholds of 0.1 and ~0.96 because the Network
Information API produces almost no cellular false positives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.classifier import SubnetClassifier
from repro.core.ratios import RatioTable
from repro.core.validation import validate_against_carrier
from repro.datasets.demand_dataset import DemandDataset
from repro.datasets.groundtruth import CarrierGroundTruth


def default_threshold_grid(step: float = 0.02) -> List[float]:
    """Thresholds spanning (0, 1] at the given step."""
    if not 0 < step <= 0.5:
        raise ValueError("step must be in (0, 0.5]")
    grid = []
    value = step
    while value < 1.0 - 1e-9:
        grid.append(round(value, 6))
        value += step
    grid.append(1.0)
    return grid


@dataclass(frozen=True)
class ThresholdSweep:
    """F1 scores across a threshold grid for one carrier."""

    carrier: str
    thresholds: Tuple[float, ...]
    f1_scores: Tuple[float, ...]
    weighted: bool

    def best(self) -> Tuple[float, float]:
        """(threshold, F1) of the best-scoring threshold."""
        index = max(range(len(self.f1_scores)), key=self.f1_scores.__getitem__)
        return self.thresholds[index], self.f1_scores[index]

    def stable_range(self, tolerance: float = 0.05) -> Tuple[float, float]:
        """Widest threshold interval scoring within ``tolerance`` of best.

        The paper reports stability across (0.1, 0.96); this returns
        the measured equivalent.
        """
        _, best_f1 = self.best()
        floor = best_f1 - tolerance
        in_range = [
            threshold
            for threshold, score in zip(self.thresholds, self.f1_scores)
            if score >= floor
        ]
        if not in_range:
            raise ValueError("no thresholds within tolerance")
        return min(in_range), max(in_range)

    def score_at(self, threshold: float) -> float:
        """F1 at the grid point closest to ``threshold``."""
        index = min(
            range(len(self.thresholds)),
            key=lambda i: abs(self.thresholds[i] - threshold),
        )
        return self.f1_scores[index]


def sweep_thresholds(
    ratios: RatioTable,
    truth: CarrierGroundTruth,
    demand: Optional[DemandDataset] = None,
    thresholds: Optional[Sequence[float]] = None,
    weighted: bool = True,
) -> ThresholdSweep:
    """Score the classifier across a threshold grid for one carrier."""
    grid = list(thresholds) if thresholds is not None else default_threshold_grid()
    if not grid:
        raise ValueError("empty threshold grid")
    # Validation scores only the carrier's own prefixes, each by exact
    # key, so classifying just their rows gives the full table's scores.
    scored = {}
    for prefix in truth.all_prefixes:
        record = ratios.get(prefix)
        if record is not None:
            scored[prefix] = record
    carrier_ratios = RatioTable(scored.values())
    scores = []
    for threshold in grid:
        classifier = SubnetClassifier(threshold=threshold)
        result = classifier.classify(carrier_ratios)
        validation = validate_against_carrier(result, truth, demand)
        confusion = validation.by_demand if weighted else validation.by_cidr
        scores.append(confusion.f1)
    return ThresholdSweep(
        carrier=truth.label,
        thresholds=tuple(grid),
        f1_scores=tuple(scores),
        weighted=weighted,
    )


def sweep_many(
    ratios: RatioTable,
    carriers: Dict[str, CarrierGroundTruth],
    demand: Optional[DemandDataset] = None,
    thresholds: Optional[Sequence[float]] = None,
    weighted: bool = True,
) -> Dict[str, ThresholdSweep]:
    """Figure 3: one sweep per ground-truth carrier."""
    return {
        label: sweep_thresholds(ratios, truth, demand, thresholds, weighted)
        for label, truth in carriers.items()
    }
