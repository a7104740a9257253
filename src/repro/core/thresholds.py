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
from repro.datasets.demand_dataset import DemandDataset
from repro.datasets.groundtruth import CarrierGroundTruth
from repro.net.prefix import Prefix
from repro.stats.confusion import BinaryConfusion


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
    """Score the classifier across a threshold grid for one carrier.

    Equal, float for float, to classifying ``ratios`` with a
    :class:`SubnetClassifier` at each threshold and scoring the result
    with :func:`validate_against_carrier`.
    """
    grid = list(thresholds) if thresholds is not None else default_threshold_grid()
    if not grid:
        raise ValueError("empty threshold grid")
    classifiers = [SubnetClassifier(threshold=threshold) for threshold in grid]
    # Validation scores only the carrier's own prefixes, each by exact
    # key, so each one is read once into (ratio, weight): ratio is None
    # when the prefix is unobserved or below the API-hit floor, which
    # leaves it non-cellular at every threshold.
    floor = classifiers[0].min_api_hits
    use_demand = weighted and demand is not None

    def scored(prefixes: Sequence[Prefix]) -> List[Tuple[Optional[float], float]]:
        pairs = []
        for prefix in prefixes:
            record = ratios.get(prefix)
            ratio = (
                record.ratio
                if record is not None and record.api_hits >= floor
                else None
            )
            pairs.append((ratio, demand.du_of(prefix) if use_demand else 1.0))
        return pairs

    cellular, fixed = scored(truth.cellular), scored(truth.fixed)
    scores = []
    for classifier in classifiers:
        threshold = classifier.threshold
        # validate_against_carrier's four cells, added in its order.
        tp = fn = fp = tn = 0.0
        for ratio, weight in cellular:
            if ratio is not None and ratio >= threshold:
                tp += weight
            else:
                fn += weight
        for ratio, weight in fixed:
            if ratio is not None and ratio >= threshold:
                fp += weight
            else:
                tn += weight
        scores.append(BinaryConfusion(tp=tp, fp=fp, tn=tn, fn=fn).f1)
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
