"""Table 2: dataset sizes, plus the section 3.2 coverage statistics.

The paper: BEACON covers 4.7M /24 and 1.8M /48 blocks over December
2016; DEMAND covers 6.8M /24 and 909K /48 over a one-week snapshot.
BEACON reaches only 73% of DEMAND's blocks but 92% of its demand.
Counts scale with the world's ``scale`` parameter, so comparisons are
made on scale-free ratios and on counts divided by scale.
"""

from __future__ import annotations

from repro.analysis.coverage import beacon_coverage
from repro.experiments.base import Comparison, ExperimentResult, experiment
from repro.lab import Lab

PAPER_BEACON_SLASH24 = 4_700_000
PAPER_BEACON_SLASH48 = 1_800_000
PAPER_DEMAND_SLASH24 = 6_800_000
PAPER_DEMAND_SLASH48 = 909_000
PAPER_SUBNET_COVERAGE = 0.73
PAPER_DEMAND_COVERAGE = 0.92


@experiment("table2")
def run(lab: Lab) -> ExperimentResult:
    beacons, demand = lab.beacons, lab.demand
    scale = lab.world.params.scale
    beacon_families = beacons.family_counts()
    demand_families = demand.family_counts()
    beacon24, beacon48 = beacon_families[4], beacon_families[6]
    demand24, demand48 = demand_families[4], demand_families[6]

    coverage = beacon_coverage(beacons, demand)
    subnet_coverage = coverage.subnet_coverage
    demand_coverage = coverage.demand_coverage

    rows = [
        ["BEACON", "Dec 2016 (monthly)", beacon24, beacon48],
        ["DEMAND", f"{demand.window_days}-day snapshot", demand24, demand48],
    ]
    comparisons = [
        Comparison("BEACON /24 count / scale", PAPER_BEACON_SLASH24, beacon24 / scale, 0.5),
        Comparison("BEACON /48 count / scale", PAPER_BEACON_SLASH48, beacon48 / scale, 0.5),
        Comparison("DEMAND /24 count / scale", PAPER_DEMAND_SLASH24, demand24 / scale, 0.6),
        Comparison("DEMAND /48 count / scale", PAPER_DEMAND_SLASH48, demand48 / scale, 10.0),
        Comparison("BEACON subnet coverage of DEMAND", PAPER_SUBNET_COVERAGE, subnet_coverage, 0.25),
        Comparison("BEACON demand-weighted coverage", PAPER_DEMAND_COVERAGE, demand_coverage, 0.2),
    ]
    return ExperimentResult(
        experiment_id="table2",
        title="CDN datasets used for cellular address analysis",
        headers=["Source", "Period", "/24 blocks", "/48 blocks"],
        rows=rows,
        comparisons=comparisons,
        notes=[
            f"world scale = {scale:g}; absolute counts are scaled-down "
            "equivalents of the paper's full-platform figures",
            "paper /48 DEMAND figure (909K) is smaller than its BEACON "
            "figure because the demand week under-samples IPv6; our "
            "generator holds one IPv6 population, so the /48 comparison "
            "carries a wide tolerance",
        ],
    )
