"""Country-level demand statistics: Figures 11 and 12.

Figure 11 ranks countries within each continent by their share of
global cellular demand; Figure 12 scatters every country by overall
cellular demand (y) against the cellular fraction of its own demand
(x), exposing the "frontier" countries -- very high demand (US), very
high cellular reliance (Ghana, Laos), or both (Indonesia).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.continent import DEFAULT_DEMAND_EXCLUSIONS, cellular_positions
from repro.columnar.backend import get_kernels
from repro.core.classifier import ClassificationResult
from repro.datasets.demand_dataset import DemandDataset
from repro.world.geo import Continent, Geography


@dataclass(frozen=True)
class CountryDemand:
    """One country's demand profile."""

    iso2: str
    continent: Continent
    cellular_du: float
    total_du: float
    global_cellular_du: float

    @property
    def cellular_fraction(self) -> float:
        """Cellular share of the country's own demand (Figure 12 x)."""
        return self.cellular_du / self.total_du if self.total_du > 0 else 0.0

    @property
    def global_cellular_share(self) -> float:
        """Share of global cellular demand (Figures 11 and 12 y)."""
        if self.global_cellular_du <= 0:
            return 0.0
        return self.cellular_du / self.global_cellular_du


def country_demand_stats(
    classification: ClassificationResult,
    demand: DemandDataset,
    geography: Geography,
    restrict_to_asns: Optional[Set[int]] = None,
    exclude_countries: frozenset = DEFAULT_DEMAND_EXCLUSIONS,
) -> Dict[str, CountryDemand]:
    """Per-country cellular/total demand over the whole dataset."""
    counted = {
        country.iso2
        for country in geography
        if country.iso2 not in exclude_countries
    }
    kernels = get_kernels()
    names, codes = demand.country_names, demand.country_codes
    # Each country's sums are added in demand order, and its key comes
    # in at its first counted row, as a scan of the records would.
    total = {
        names[code]: du
        for code, du in zip(*kernels.group_sum(codes, demand.dus))
        if names[code] in counted
    }
    positions = cellular_positions(classification, demand, restrict_to_asns)
    cellular = {
        names[code]: du
        for code, du in zip(*kernels.group_sum(
            kernels.take(codes, positions), kernels.take(demand.dus, positions)
        ))
        if names[code] in counted
    }
    global_cellular = sum(cellular.values())
    return {
        iso2: CountryDemand(
            iso2=iso2,
            continent=geography.get(iso2).continent,
            cellular_du=cellular.get(iso2, 0.0),
            total_du=total[iso2],
            global_cellular_du=global_cellular,
        )
        for iso2 in total
    }


def top_countries_by_continent(
    stats: Dict[str, CountryDemand], count: int = 10
) -> Dict[Continent, List[CountryDemand]]:
    """Figure 11: top countries per continent by global cellular share."""
    if count <= 0:
        raise ValueError("count must be positive")
    grouped: Dict[Continent, List[CountryDemand]] = {c: [] for c in Continent}
    for row in stats.values():
        grouped[row.continent].append(row)
    return {
        continent: sorted(
            rows, key=lambda row: row.global_cellular_share, reverse=True
        )[:count]
        for continent, rows in grouped.items()
    }


def top_country_share(stats: Dict[str, CountryDemand], top: int) -> float:
    """Share of global cellular demand in the top-N countries.

    Paper: top 5 countries hold 55.7%, top 20 hold 80%.
    """
    if top <= 0:
        raise ValueError("top must be positive")
    shares = sorted(
        (row.global_cellular_share for row in stats.values()), reverse=True
    )
    return sum(shares[:top])


def frontier_countries(
    stats: Dict[str, CountryDemand],
    min_fraction: float = 0.6,
    min_share: float = 0.02,
) -> List[CountryDemand]:
    """Countries on Figure 12's upper-right frontier.

    Either heavily cellular-reliant (fraction >= ``min_fraction``) or a
    major cellular market (share >= ``min_share``).
    """
    return sorted(
        (
            row
            for row in stats.values()
            if row.cellular_fraction >= min_fraction
            or row.global_cellular_share >= min_share
        ),
        key=lambda row: row.global_cellular_share,
        reverse=True,
    )
