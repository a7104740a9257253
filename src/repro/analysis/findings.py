"""The paper's summarized key findings as executable checks.

Sections 6.4 and 7.3 enumerate the study's takeaways; this module
evaluates each one against a lab run, producing a compact scorecard
(the capstone the individual experiments feed into).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.continent import continent_demand, global_cellular_fraction
from repro.analysis.country import country_demand_stats, top_country_share
from repro.analysis.operators import top_share
from repro.core.mixed import mixed_share
from repro.dns.analysis import (
    public_dns_usage,
    resolver_cellular_fractions,
    shared_resolver_fraction,
)
from repro.lab import Lab
from repro.stats.concentration import smallest_covering
from repro.world.geo import Continent


@dataclass(frozen=True)
class Finding:
    """One checked claim."""

    section: str
    claim: str
    measured: str
    holds: bool


def evaluate_key_findings(lab: Lab) -> List[Finding]:
    """Evaluate all nine summarized findings on one lab."""
    result = lab.result
    operators = list(result.operators.values())
    accepted = set(result.operators)
    findings: List[Finding] = []

    # -- Section 6.4 -------------------------------------------------------
    share = mixed_share(operators)
    findings.append(Finding(
        "6.4 #1", "a majority of cellular networks are mixed (58.6%)",
        f"{100 * share:.1f}% mixed", share > 0.5,
    ))

    top10 = top_share(operators, 10)
    findings.append(Finding(
        "6.4 #2", "demand centralizes in few networks (top 10 ~38%)",
        f"top 10 hold {100 * top10:.1f}%", 0.25 <= top10 <= 0.55,
    ))

    # Concentration inside the biggest carrier: few subnets, most demand.
    biggest = max(operators, key=lambda p: p.cellular_du)
    records = result.classification.records
    subnet_dus = [
        du
        for subnet in result.classification.cellular_subnets()
        if records[subnet].asn == biggest.asn
        and (du := lab.demand.du_of(subnet)) > 0
    ]
    covering = smallest_covering(subnet_dus, 0.99) if subnet_dus else 0
    concentrated = bool(subnet_dus) and covering <= max(
        1, round(0.35 * len(subnet_dus))
    )
    findings.append(Finding(
        "6.4 #3", "cellular traffic concentrates in a few /24s (CGN)",
        f"99% of AS{biggest.asn}'s cellular demand in {covering} of "
        f"{len(subnet_dus)} subnets", concentrated,
    ))

    mixed_asns = {asn for asn, p in result.operators.items() if p.is_mixed}
    shares = resolver_cellular_fractions(
        lab.affinity, result.classification, asns=mixed_asns
    )
    shared = shared_resolver_fraction(shares) if shares else 0.0
    findings.append(Finding(
        "6.4 #4", "~60% of mixed-network resolvers are shared",
        f"{100 * shared:.0f}% shared", 0.4 <= shared <= 0.8,
    ))

    ranked = sorted(operators, key=lambda p: p.cellular_du, reverse=True)
    us_asn = next(p.asn for p in ranked if p.country == "US")
    non_us = [
        p.asn for p in ranked
        if p.country in ("IN", "HK", "DZ", "NG") and p.cellular_du > 0
    ][:4]
    usage = public_dns_usage(
        lab.affinity, result.classification, [us_asn] + non_us
    )
    us_public = usage[us_asn].public_fraction
    foreign_public = max(usage[asn].public_fraction for asn in non_us)
    findings.append(Finding(
        "6.4 #5", "significant public DNS use outside the U.S.",
        f"US {100 * us_public:.1f}% vs max abroad {100 * foreign_public:.0f}%",
        us_public < 0.1 and foreign_public > 0.3,
    ))

    # -- Section 7.3 -------------------------------------------------------
    rows = continent_demand(
        result.classification, lab.demand, lab.world.geography,
        restrict_to_asns=accepted,
    )
    overall = global_cellular_fraction(rows)
    findings.append(Finding(
        "7.3 #1", "cellular is ~16.2% of global demand",
        f"{100 * overall:.1f}%", 0.10 <= overall <= 0.25,
    ))
    africa = rows[Continent.AFRICA].cellular_fraction
    asia = rows[Continent.ASIA].cellular_fraction
    europe = rows[Continent.EUROPE].cellular_fraction
    findings.append(Finding(
        "7.3 #1b", "Africa and Asia lean on cellular far more than Europe",
        f"AF {100 * africa:.0f}%, AS {100 * asia:.0f}%, EU {100 * europe:.0f}%",
        africa > europe and asia > europe,
    ))

    stats = country_demand_stats(
        result.classification, lab.demand, lab.world.geography,
        restrict_to_asns=accepted,
    )
    top5 = top_country_share(stats, 5)
    findings.append(Finding(
        "7.3 #2", "top countries dominate (top 5 ~55.7%)",
        f"top 5 hold {100 * top5:.1f}%", 0.40 <= top5 <= 0.75,
    ))

    dominant = [
        row.iso2 for row in stats.values() if row.cellular_fraction > 0.6
    ]
    findings.append(Finding(
        "7.3 #3", "in several countries cellular is the dominant access",
        f"{len(dominant)} countries above 60% cellular "
        f"({', '.join(sorted(dominant)[:6])})", len(dominant) >= 3,
    ))
    return findings
