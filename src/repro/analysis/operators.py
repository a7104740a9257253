"""Operator-level analyses: Table 7 and Figures 5-7.

Operator profiles come from the pipeline's AS identification stage;
these helpers turn them into the paper's rankings and distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.columnar.backend import get_kernels
from repro.core.classifier import ClassificationResult
from repro.core.mixed import OperatorProfile
from repro.datasets.demand_dataset import DemandDataset
from repro.stats.cdf import EmpiricalCDF


def ranked_operator_demand(
    operators: Iterable[OperatorProfile],
) -> List[Tuple[int, OperatorProfile, float]]:
    """Figure 7: operators ranked by cellular demand with global shares."""
    profiles = sorted(
        operators, key=lambda profile: profile.cellular_du, reverse=True
    )
    total = sum(profile.cellular_du for profile in profiles)
    if total <= 0:
        raise ValueError("operators carry no cellular demand")
    return [
        (rank, profile, profile.cellular_du / total)
        for rank, profile in enumerate(profiles, start=1)
    ]


@dataclass(frozen=True)
class TopOperatorRow:
    """Table 7 row."""

    rank: int
    country: str
    demand_share: float
    mixed: bool


def top_operators(
    operators: Iterable[OperatorProfile], count: int = 10
) -> List[TopOperatorRow]:
    """Table 7: the top operators by share of global cellular demand."""
    if count <= 0:
        raise ValueError("count must be positive")
    ranked = ranked_operator_demand(operators)
    return [
        TopOperatorRow(
            rank=rank,
            country=profile.country,
            demand_share=share,
            mixed=profile.is_mixed,
        )
        for rank, profile, share in ranked[:count]
    ]


def top_share(operators: Iterable[OperatorProfile], count: int) -> float:
    """Global cellular demand share of the top-N operators.

    Paper: top 10 = 38%, top 5 = 35.9%.
    """
    ranked = ranked_operator_demand(operators)
    return sum(share for _, _, share in ranked[:count])


def per_operator_fraction_cdfs(
    operators: Iterable[OperatorProfile],
) -> Tuple[EmpiricalCDF, EmpiricalCDF]:
    """Figure 5: CDFs of per-AS cellular demand and subnet fractions."""
    profiles = list(operators)
    if not profiles:
        raise ValueError("no operator profiles")
    demand_cdf = EmpiricalCDF(
        profile.cellular_fraction_of_demand for profile in profiles
    )
    subnet_cdf = EmpiricalCDF(
        profile.cellular_subnet_fraction for profile in profiles
    )
    return demand_cdf, subnet_cdf


@dataclass(frozen=True)
class CaseStudyPoint:
    """One subnet of a case-study AS: its ratio and demand."""

    ratio: float
    du: float


def case_study_distribution(
    classification: ClassificationResult,
    demand: DemandDataset,
    asn: int,
    family: int = 4,
) -> List[CaseStudyPoint]:
    """Figure 6 input: (cellular ratio, demand) for every observed
    subnet of one AS (the paper's case studies are /24-level)."""
    records = [
        record
        for record in classification.records.values()
        if record.asn == asn and record.family == family
    ]
    if not records:
        raise ValueError(f"AS{asn} has no IPv{family} ratio records")
    dus = get_kernels().to_list(
        demand.du_column(record.subnet for record in records)
    )
    return [
        CaseStudyPoint(ratio=record.ratio, du=du)
        for record, du in zip(records, dus)
    ]


def case_study_cdfs(
    points: List[CaseStudyPoint],
) -> Tuple[EmpiricalCDF, Optional[EmpiricalCDF]]:
    """Figure 6 curves: subnet-count CDF and demand-weighted CDF over
    cellular ratio.  The demand CDF is None when the AS carries no
    observed demand."""
    subnet_cdf = EmpiricalCDF(point.ratio for point in points)
    total_du = sum(point.du for point in points)
    demand_cdf = (
        EmpiricalCDF(
            (point.ratio for point in points),
            (point.du for point in points),
        )
        if total_du > 0
        else None
    )
    return subnet_cdf, demand_cdf
