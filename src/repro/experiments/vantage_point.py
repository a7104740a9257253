"""Section 3 (text): the measurement vantage point.

The paper's platform: ~200,000 servers in 1,450 networks, observing
clients from 46,936 ASes across 245 countries.  This experiment
deploys the platform substrate over the world, measures the equivalent
vantage statistics at the configured scale, and checks the scale-free
shape: the fleet is broadly deployed, demand reaches it from the vast
majority of the AS registry, and nearly all demand is served from the
client's own continent (the premise of a well-deployed CDN).
"""

from __future__ import annotations

from repro.cdn.platform import (
    PAPER_DEPLOYMENT_NETWORKS,
    PAPER_SERVER_COUNT,
    deploy_platform,
)
from repro.experiments.base import Comparison, ExperimentResult, experiment
from repro.lab import Lab

PAPER_OBSERVED_ASES = 46_936
PAPER_OBSERVED_COUNTRIES = 245


@experiment("vantage")
def run(lab: Lab) -> ExperimentResult:
    platform = deploy_platform(lab.world)
    demand = lab.demand
    report = platform.service_report(demand)
    observed_ases = len(set(demand.asns))
    observed_countries = len(demand.country_names)
    registry_size = len(lab.world.topology.registry)

    rows = [
        ["server regions", len(platform), "-"],
        ["servers", f"{platform.total_servers:,}",
         f"{PAPER_SERVER_COUNT:,} (full scale)"],
        ["hosting networks", platform.network_count,
         f"{PAPER_DEPLOYMENT_NETWORKS:,} (full scale)"],
        ["ASes observed in demand", f"{observed_ases:,}",
         f"{PAPER_OBSERVED_ASES:,} (full scale)"],
        ["countries observed", observed_countries,
         f"{PAPER_OBSERVED_COUNTRIES} (full scale)"],
        ["demand served in-continent",
         f"{100 * report.in_continent_fraction:.1f}%", "-"],
    ]
    comparisons = [
        Comparison(
            "observed ASes / registry size (CDN sees nearly everyone)",
            1.0,
            observed_ases / registry_size,
            0.2,
        ),
        Comparison(
            "all profiled countries observed",
            1.0,
            observed_countries / len(lab.world.profiles),
            0.1,
        ),
        Comparison(
            "demand served in-continent",
            1.0,
            report.in_continent_fraction,
            0.1,
        ),
        Comparison(
            "hosting-network spread vs fleet (networks per 100 servers)",
            PAPER_DEPLOYMENT_NETWORKS / PAPER_SERVER_COUNT * 100,
            platform.network_count / platform.total_servers * 100,
            6.0,
        ),
    ]
    return ExperimentResult(
        experiment_id="vantage",
        title="The CDN vantage point (section 3)",
        headers=["metric", "measured", "paper"],
        rows=rows,
        comparisons=comparisons,
        notes=[
            "absolute fleet numbers scale with the world; the checks are "
            "the scale-free properties of a broadly deployed platform"
        ],
    )
