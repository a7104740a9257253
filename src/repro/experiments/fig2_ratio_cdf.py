"""Figure 2: distribution of cellular ratios across global IP space.

Paper anchors for the bucket split (<0.1 / 0.1-0.9 / >0.9):
- IPv4 subnets: 91.3% / 2.9% / 5.8%
- IPv6 subnets: 98.7% / 0.1% / 1.2%
- IPv4 demand:  80%   / 6.9% / 13.1%
- IPv6 demand:  98.7% low, 6.4% high (the paper's IPv6 demand numbers
  overlap; we compare only low/high).
"""

from __future__ import annotations

from repro.experiments.base import Comparison, ExperimentResult, experiment
from repro.lab import Lab

PAPER = {
    ("subnets", 4): (0.913, 0.029, 0.058),
    ("subnets", 6): (0.987, 0.001, 0.012),
    ("demand", 4): (0.80, 0.069, 0.131),
    ("demand", 6): (0.929, 0.007, 0.064),
}


@experiment("fig2")
def run(lab: Lab) -> ExperimentResult:
    ratios = lab.result.ratios
    demand = lab.demand
    splits = {}
    rows = []
    comparisons = []
    for scope in ("subnets", "demand"):
        for family in (4, 6):
            weights = demand if scope == "demand" else None
            buckets = ratios.bucket_fractions(family, demand=weights)
            splits[(scope, family)] = buckets
            paper_low, paper_mid, paper_high = PAPER[(scope, family)]
            rows.append(
                [
                    f"IPv{family} {scope}",
                    f"{100 * buckets['low']:.1f}%",
                    f"{100 * buckets['intermediate']:.1f}%",
                    f"{100 * buckets['high']:.1f}%",
                ]
            )
            comparisons.append(
                Comparison(
                    f"IPv{family} {scope}: ratio < 0.1",
                    paper_low, buckets["low"], 0.15,
                )
            )
            comparisons.append(
                Comparison(
                    f"IPv{family} {scope}: ratio > 0.9",
                    paper_high, buckets["high"], 0.9,
                )
            )
    # Shape check: the distribution is bimodal -- almost nothing sits in
    # the intermediate band for subnet counts.
    v4 = splits[("subnets", 4)]
    comparisons.append(
        Comparison("IPv4 subnets: intermediate band", 0.029, v4["intermediate"], 1.5)
    )
    return ExperimentResult(
        experiment_id="fig2",
        title="Cellular ratio distribution (subnets and demand weighted)",
        headers=["series", "ratio<0.1", "0.1..0.9", "ratio>0.9"],
        rows=rows,
        comparisons=comparisons,
    )
