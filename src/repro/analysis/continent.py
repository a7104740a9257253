"""Continent-level rollups: Tables 4, 6, and 8.

All aggregation keys off the country recorded with each subnet /
operator, mapped to continents through :class:`~repro.world.geo.Geography`.
China is excluded from demand statistics by default, as in section 7.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, Iterable, List, Optional, Set

from repro.columnar.backend import get_kernels
from repro.columnar.ops import slot_counts
from repro.core.classifier import ClassificationResult
from repro.core.mixed import OperatorProfile
from repro.datasets.demand_dataset import DemandDataset
from repro.world.geo import Continent, Geography

#: Countries dropped from demand statistics (section 7.1).
DEFAULT_DEMAND_EXCLUSIONS = frozenset({"CN"})


@dataclass
class SubnetCensus:
    """Table 4 row: detected cellular subnets for one continent."""

    continent: Continent
    cellular_slash24: int = 0
    cellular_slash48: int = 0
    active_slash24: int = 0
    active_slash48: int = 0

    @property
    def pct_active_ipv4(self) -> float:
        if self.active_slash24 == 0:
            return 0.0
        return self.cellular_slash24 / self.active_slash24

    @property
    def pct_active_ipv6(self) -> float:
        if self.active_slash48 == 0:
            return 0.0
        return self.cellular_slash48 / self.active_slash48


def subnets_by_continent(
    classification: ClassificationResult,
    geography: Geography,
    restrict_to_asns: Optional[Set[int]] = None,
) -> Dict[Continent, SubnetCensus]:
    """Detected cellular subnet counts per continent (Table 4).

    ``restrict_to_asns`` limits *cellular* credit to subnets of the
    given (accepted cellular) ASes.  At the paper's scale stray false
    positives are a rounding error against 350k detected subnets; at
    reduced world scale the AS count does not shrink with the subnet
    count, so the AS filter's output is needed to keep the census
    comparable (see the table4 experiment note).
    """
    # Slot = (continent, family digit, label) over the classified
    # table's columns.  A country outside the geography gets a last
    # continent slot that is dropped; family digit 1 is IPv4 and every
    # other family counts as IPv6.
    continents = list(Continent)
    slot_of = {c: slot for slot, c in enumerate(continents)}
    country_slot = {country.iso2: slot_of[country.continent] for country in geography}
    table = classification.table
    kernels = get_kernels()
    code_slots = kernels.int_col([
        country_slot.get(iso2, len(continents)) for iso2 in table.country_names
    ])
    labels = classification.label_column
    if restrict_to_asns is not None:
        labels = labels[:]
        asns = table.asns
        for row in compress(range(len(labels)), classification.label_column):
            if asns[row] not in restrict_to_asns:
                labels[row] = 0
    slots = kernels.slot_ids([
        (kernels.take(code_slots, table.country_codes), range(1, len(continents) + 1)),
        (table.families, (4, 5)),
        (labels, (1,)),
    ])
    census = {continent: SubnetCensus(continent) for continent in continents}
    for slot, count in slot_counts(slots).items():
        continent, rest = divmod(slot, 6)
        if continent == len(continents):
            continue
        row = census[continents[continent]]
        family_digit, cellular = divmod(rest, 2)
        if family_digit == 1:
            row.active_slash24 += count
            row.cellular_slash24 += count * cellular
        else:
            row.active_slash48 += count
            row.cellular_slash48 += count * cellular
    return census


@dataclass
class ASCensus:
    """Table 6 row: detected cellular ASes for one continent."""

    continent: Continent
    as_count: int = 0
    countries: Set[str] = field(default_factory=set)

    @property
    def average_per_country(self) -> float:
        if not self.countries:
            return 0.0
        return self.as_count / len(self.countries)


def ases_by_continent(
    operators: Iterable[OperatorProfile], geography: Geography
) -> Dict[Continent, ASCensus]:
    """Detected cellular AS counts per continent (Table 6).

    Average-per-country counts only countries with at least one
    detected cellular AS, as the paper does.
    """
    census = {continent: ASCensus(continent) for continent in Continent}
    for profile in operators:
        country = geography.find(profile.country)
        if country is None:
            continue
        row = census[country.continent]
        row.as_count += 1
        row.countries.add(profile.country)
    return census


@dataclass(frozen=True)
class ContinentDemand:
    """Table 8 row: cellular demand statistics for one continent."""

    continent: Continent
    cellular_du: float
    total_du: float
    global_cellular_du: float
    subscribers_m: float

    @property
    def cellular_fraction(self) -> float:
        """Share of the continent's demand that is cellular (col. 1)."""
        return self.cellular_du / self.total_du if self.total_du > 0 else 0.0

    @property
    def global_cellular_share(self) -> float:
        """Share of global cellular demand from this continent (col. 2)."""
        if self.global_cellular_du <= 0:
            return 0.0
        return self.cellular_du / self.global_cellular_du

    @property
    def demand_per_1000_subscribers(self) -> float:
        """DU per thousand subscribers (col. 4)."""
        if self.subscribers_m <= 0:
            return 0.0
        return self.cellular_du / (self.subscribers_m * 1_000)


def continent_demand(
    classification: ClassificationResult,
    demand: DemandDataset,
    geography: Geography,
    restrict_to_asns: Optional[Set[int]] = None,
    exclude_countries: frozenset = DEFAULT_DEMAND_EXCLUSIONS,
) -> Dict[Continent, ContinentDemand]:
    """Cellular demand statistics per continent (Table 8).

    ``restrict_to_asns`` limits cellular credit to subnets of the
    accepted cellular ASes, removing proxy/cloud subnet-level false
    positives the AS filter caught.
    """
    # One slot per continent, in ``Continent`` order; each non-excluded
    # country maps straight to its continent's slot, and an excluded
    # one to a last slot that is dropped.
    continents = list(Continent)
    slot_of = {c: slot for slot, c in enumerate(continents)}
    country_slot = {
        country.iso2: slot_of[country.continent]
        for country in geography
        if country.iso2 not in exclude_countries
    }
    kernels = get_kernels()
    slots = kernels.int_col([
        country_slot.get(iso2, len(continents)) for iso2 in demand.country_names
    ])
    positions = cellular_positions(classification, demand, restrict_to_asns)
    total = _slot_sums(
        kernels.group_sum(
            kernels.take(slots, demand.country_codes), demand.dus
        ),
        len(continents),
    )
    cellular = _slot_sums(
        kernels.group_sum(
            kernels.take(slots, kernels.take(demand.country_codes, positions)),
            kernels.take(demand.dus, positions),
        ),
        len(continents),
    )
    global_cellular = sum(cellular)
    subscribers = [0.0] * len(continents)
    for country in geography:
        if country.iso2 in exclude_countries:
            continue
        subscribers[slot_of[country.continent]] += country.subscribers_m
    return {
        continent: ContinentDemand(
            continent=continent,
            cellular_du=cellular[slot],
            total_du=total[slot],
            global_cellular_du=global_cellular,
            subscribers_m=subscribers[slot],
        )
        for slot, continent in enumerate(continents)
    }


def cellular_positions(
    classification: ClassificationResult,
    demand: DemandDataset,
    restrict_to_asns: Optional[Set[int]] = None,
) -> List[int]:
    """Demand rows of the subnets labelled cellular, in demand order.

    With ``restrict_to_asns``, only rows of those ASes (by the demand
    record's ASN).  Sorting the rows back into demand order keeps
    every sum over them in the order a scan of the dataset adds.
    """
    # One join of the cellular subnets against the demand rows.
    cellular = compress(classification.labels, classification.label_column)
    rows = [row for row in map(demand.position.get, cellular) if row is not None]
    if restrict_to_asns is not None:
        asns = demand.asns
        rows = [row for row in rows if asns[row] in restrict_to_asns]
    rows.sort()
    return rows


def _slot_sums(group_sums, count: int) -> List[float]:
    """``(slots, sums)`` from ``group_sum`` as one value per slot
    below ``count`` (0.0 where a slot has no rows)."""
    values = [0.0] * count
    for slot, value in zip(*group_sums):
        if slot < count:
            values[slot] = value
    return values


def global_cellular_fraction(
    rows: Dict[Continent, ContinentDemand],
) -> float:
    """Overall cellular share of demand (paper: 16.2%)."""
    cellular = sum(row.cellular_du for row in rows.values())
    total = sum(row.total_du for row in rows.values())
    if total <= 0:
        raise ValueError("no demand to aggregate")
    return cellular / total
