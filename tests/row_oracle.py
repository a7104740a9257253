"""The frozen row-wise oracle (the third arm of the columnar contract).

The equivalence contract of the columnar core is three-way::

    kernels_np  ==  kernels_py  ==  row-wise oracle (this module)

The first two are columnar (``repro.columnar``); this module is the
frozen *row-wise* semantics they both must reproduce --
dict-accumulation loops written the way the pre-columnar pipeline
wrote them (the old per-row ``_spot_shard`` worker, the per-subnet
totals dict, the per-hit dataset fold, and the per-record ``+=`` loops
of the DNS, country, continent, ratio-bucket, coverage, platform,
industry and case-study analyses).
It lives with the tests because nothing in the program calls it: the
kernel suite (``tests/test_columnar_kernels.py``) and
``benchmarks/bench_columnar_core.py`` compare against it, so the
kernels are checked against an implementation too simple to be wrong
in the same way twice.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.continent import (
    DEFAULT_DEMAND_EXCLUSIONS,
    ContinentDemand,
    SubnetCensus,
)
from repro.analysis.country import CountryDemand
from repro.analysis.coverage import CoverageReport
from repro.analysis.industry import (
    DEFAULT_CELLULAR_BYTES_PER_REQUEST,
    TrafficShareReport,
)
from repro.analysis.operators import CaseStudyPoint
from repro.cdn.platform import ServiceReport
from repro.dns.analysis import DistanceReport, PublicDNSUsage, ResolverShare
from repro.net.prefix import Prefix
from repro.world.geo import Continent

#: Compact beacon row: (idx, family, value, length, asn, country,
#: hits, api, cell) -- the tuple shape of repro.parallel.sharding.
BeaconRow = Tuple[int, int, int, int, int, str, int, int, int]


def spot_rows(
    rows: Iterable[BeaconRow], min_api_hits: int, threshold: float
) -> Tuple[List[tuple], Dict[int, int]]:
    """Per-row ratio + label stage, exactly as the pre-columnar
    ``_spot_shard`` worker ran it.

    Returns kept rows with the label appended, plus the per-AS
    beacon-hit totals over *all* rows (insertion order = first seen).
    """
    out: List[tuple] = []
    hits_by_asn: Dict[int, int] = {}
    for idx, family, value, length, asn, country, hits, api, cell in rows:
        hits_by_asn[asn] = hits_by_asn.get(asn, 0) + hits
        if api >= min_api_hits:
            out.append(
                (
                    idx,
                    family,
                    value,
                    length,
                    asn,
                    country,
                    hits,
                    api,
                    cell,
                    cell / api >= threshold,
                )
            )
    return out, hits_by_asn


def accumulate_rows(rows: Iterable[BeaconRow]) -> List[BeaconRow]:
    """Dict-based group accumulation by subnet key, canonical order.

    First-seen metadata and ``idx``; ``hits``/``api``/``cell`` summed
    as exact Python ints; groups sorted by ``(family, value, length)``.
    """
    groups: Dict[Tuple[int, int, int], list] = {}
    for idx, family, value, length, asn, country, hits, api, cell in rows:
        key = (family, value, length)
        current = groups.get(key)
        if current is None:
            groups[key] = [idx, family, value, length, asn, country,
                           hits, api, cell]
            continue
        current[6] += hits
        current[7] += api
        current[8] += cell
    return sorted((tuple(g) for g in groups.values()),
                  key=lambda r: (r[1], r[2], r[3]))


def fold_hits(hits) -> Tuple[Dict[Prefix, tuple], Dict[object, Tuple[int, int]]]:
    """Per-hit dict fold of beacon hits, the pre-columnar way.

    Returns ``{subnet: (asn, country, hits, api, cell)}`` and
    ``{browser: (hits, api)}``, both in first-seen order; the first
    hit for a subnet pins its metadata.
    """
    subnets: Dict[Prefix, list] = {}
    browsers: Dict[object, Tuple[int, int]] = {}
    for hit in hits:
        api = 1 if hit.api_enabled else 0
        cell = 1 if hit.api_enabled and hit.is_cellular_labeled else 0
        current = subnets.setdefault(hit.subnet, [hit.asn, hit.country, 0, 0, 0])
        current[2] += 1
        current[3] += api
        current[4] += cell
        seen, seen_api = browsers.get(hit.browser, (0, 0))
        browsers[hit.browser] = (seen + 1, seen_api + api)
    return {k: tuple(v) for k, v in subnets.items()}, browsers


def duplicate_key(
    keys: Iterable[Tuple[int, int, int]]
) -> Optional[Tuple[int, int, int]]:
    """Key at the first repeat in iteration order (seen-set loop)."""
    seen = set()
    for key in keys:
        if key in seen:
            return key
        seen.add(key)
    return None


# ---- demand-weighted analyses: one loop iteration per record ---------------

def resolver_cellular_fractions(
    affinity,
    classification,
    asns: Optional[Set[int]] = None,
    include_public: bool = False,
) -> List[ResolverShare]:
    """Figure 9's per-resolver shares, one record at a time."""
    labels = classification.labels.get
    cellular: Dict[str, float] = {}
    fixed: Dict[str, float] = {}
    meta: Dict[str, Optional[int]] = {}
    records = affinity if asns is None else affinity.records_of_asns(asns)
    for record in records:
        resolver = record.resolver
        if resolver.is_public and not include_public:
            continue
        key = resolver.resolver_id
        meta[key] = resolver.asn
        if labels(record.subnet, False):
            cellular[key] = cellular.get(key, 0.0) + record.du
        else:
            fixed[key] = fixed.get(key, 0.0) + record.du
    return [
        ResolverShare(
            resolver_id=key,
            asn=meta[key],
            cellular_du=cellular.get(key, 0.0),
            fixed_du=fixed.get(key, 0.0),
        )
        for key in meta
    ]


def public_dns_usage(affinity, classification, asns) -> Dict[int, PublicDNSUsage]:
    """Figure 10's public DNS split of cellular demand, per record."""
    labels = classification.labels.get
    result: Dict[int, PublicDNSUsage] = {}
    for asn in asns:
        total = 0.0
        by_service: Dict[str, float] = {}
        country = ""
        for record in affinity.records_of_asn(asn):
            if not labels(record.subnet, False):
                continue
            country = record.country
            total += record.du
            if record.resolver.is_public:
                service = record.resolver.service
                by_service[service] = by_service.get(service, 0.0) + record.du
        result[asn] = PublicDNSUsage(
            asn=asn, country=country, total_du=total, by_service=by_service
        )
    return result


def resolver_distance_report(affinity, classification, asn: int) -> DistanceReport:
    """The Brazil case's demand-weighted distances, per record."""
    labels = classification.labels.get
    cellular_sum = cellular_weight = 0.0
    fixed_sum = fixed_weight = 0.0
    country = ""
    for record in affinity.records_of_asn(asn):
        distance = record.distance_km
        if distance is None:
            continue
        country = record.country
        if labels(record.subnet, False):
            cellular_sum += distance * record.du
            cellular_weight += record.du
        else:
            fixed_sum += distance * record.du
            fixed_weight += record.du
    return DistanceReport(
        asn=asn,
        country=country,
        cellular_km=cellular_sum / cellular_weight if cellular_weight else 0.0,
        fixed_km=fixed_sum / fixed_weight if fixed_weight else 0.0,
    )


def country_demand_stats(
    classification,
    demand,
    geography,
    restrict_to_asns: Optional[Set[int]] = None,
    exclude_countries: frozenset = DEFAULT_DEMAND_EXCLUSIONS,
) -> Dict[str, CountryDemand]:
    """Figures 11 and 12's per-country demand, per demand record."""
    counted = {
        country.iso2
        for country in geography
        if country.iso2 not in exclude_countries
    }
    labels = classification.labels.get
    cellular: Dict[str, float] = {}
    total: Dict[str, float] = {}
    for record in demand:
        iso2 = record.country
        if iso2 not in counted:
            continue
        total[iso2] = total.get(iso2, 0.0) + record.du
        if not labels(record.subnet, False):
            continue
        if restrict_to_asns is not None and record.asn not in restrict_to_asns:
            continue
        cellular[iso2] = cellular.get(iso2, 0.0) + record.du
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


def continent_demand(
    classification,
    demand,
    geography,
    restrict_to_asns: Optional[Set[int]] = None,
    exclude_countries: frozenset = DEFAULT_DEMAND_EXCLUSIONS,
) -> Dict[Continent, ContinentDemand]:
    """Table 8's per-continent demand, per demand record."""
    continents = list(Continent)
    slot_of = {c: slot for slot, c in enumerate(continents)}
    country_slot = {
        country.iso2: slot_of[country.continent]
        for country in geography
        if country.iso2 not in exclude_countries
    }
    cellular = [0.0] * len(continents)
    total = [0.0] * len(continents)
    labels = classification.labels.get
    for record in demand:
        slot = country_slot.get(record.country)
        if slot is None:
            continue
        total[slot] += record.du
        if not labels(record.subnet, False):
            continue
        if restrict_to_asns is not None and record.asn not in restrict_to_asns:
            continue
        cellular[slot] += record.du
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


# ---- per-record census loops (Figure 2, Tables 2 and 4, sections 3 and 7) --

def bucket_fractions(
    records,
    low: float = 0.1,
    high: float = 0.9,
    demand=None,
) -> Dict[str, float]:
    """Figure 2's bucket split over one family's ratio records."""
    if not 0 <= low < high <= 1:
        raise ValueError("need 0 <= low < high <= 1")
    du_of = None if demand is None else demand.du_of
    total = low_sum = mid_sum = high_sum = 0.0
    for record in records:
        weight = 1.0 if du_of is None else du_of(record.subnet)
        total += weight
        ratio = record.ratio
        if ratio < low:
            low_sum += weight
        elif ratio > high:
            high_sum += weight
        else:
            mid_sum += weight
    if total <= 0:
        raise ValueError("no weight to distribute")
    return {
        "low": low_sum / total,
        "intermediate": mid_sum / total,
        "high": high_sum / total,
    }


def family_counts(subnets) -> Counter:
    """Table 2's subnets per address family, one prefix at a time."""
    return Counter(map(attrgetter("family"), subnets))


def beacon_coverage(beacons, demand, family: Optional[int] = None) -> CoverageReport:
    """Section 3.2's coverage of DEMAND by BEACON, per demand row."""
    observed = beacons.keys()
    covered_subnets = 0
    covered_du = 0.0
    demand_subnets = 0
    total_du = 0.0
    for subnet, du in zip(demand.position, demand.dus):
        if family is not None and subnet.family != family:
            continue
        demand_subnets += 1
        total_du += du
        if subnet in observed:
            covered_subnets += 1
            covered_du += du
    return CoverageReport(
        demand_subnets=demand_subnets,
        covered_subnets=covered_subnets,
        total_du=total_du,
        covered_du=covered_du,
    )


def subnets_by_continent(
    classification,
    geography,
    restrict_to_asns: Optional[Set[int]] = None,
) -> Dict[Continent, SubnetCensus]:
    """Table 4's subnet census, one labelled subnet at a time."""
    census = {continent: SubnetCensus(continent) for continent in Continent}
    row_of = {country.iso2: census[country.continent] for country in geography}
    records = classification.records
    for subnet, cellular in classification.labels.items():
        record = records[subnet]
        row = row_of.get(record.country)
        if row is None:
            continue
        if cellular and restrict_to_asns is not None:
            cellular = record.asn in restrict_to_asns
        if subnet.family == 4:
            row.active_slash24 += 1
            if cellular:
                row.cellular_slash24 += 1
        else:
            row.active_slash48 += 1
            if cellular:
                row.cellular_slash48 += 1
    return census


def service_report(platform, demand) -> ServiceReport:
    """Section 3's served-where report, per demand record."""
    outcomes: Dict[str, Optional[Tuple[str, bool, bool]]] = {}
    in_country = in_continent = total = 0.0
    by_region: Dict[str, float] = {}
    for record in demand:
        iso2 = record.country
        if iso2 not in outcomes:
            outcomes[iso2] = platform._outcome(iso2)
        outcome = outcomes[iso2]
        if outcome is None:
            continue
        region_id, same_country, same_continent = outcome
        total += record.du
        by_region[region_id] = by_region.get(region_id, 0.0) + record.du
        if same_country:
            in_country += record.du
        if same_continent:
            in_continent += record.du
    if total <= 0:
        raise ValueError("no routable demand")
    return ServiceReport(
        in_country_fraction=in_country / total,
        in_continent_fraction=in_continent / total,
        demand_by_region=by_region,
    )


def observed_ases_and_countries(demand) -> Tuple[int, int]:
    """Section 3's vantage counts: distinct ASes and countries in DEMAND."""
    return (
        len({record.asn for record in demand}),
        len({record.country for record in demand}),
    )


def byte_share_report(
    classification,
    demand,
    restrict_to_asns: Optional[Set[int]] = None,
    exclude_countries: frozenset = frozenset({"CN"}),
    cellular_bytes_per_request: float = DEFAULT_CELLULAR_BYTES_PER_REQUEST,
) -> TrafficShareReport:
    """Section 7.1's request vs byte share, per demand record."""
    if cellular_bytes_per_request <= 0:
        raise ValueError("bytes-per-request ratio must be positive")
    labels = classification.labels.get
    cellular_du = total_du = 0.0
    for record in demand:
        if record.country in exclude_countries:
            continue
        total_du += record.du
        if not labels(record.subnet, False):
            continue
        if restrict_to_asns is not None and record.asn not in restrict_to_asns:
            continue
        cellular_du += record.du
    if total_du <= 0:
        raise ValueError("no demand to aggregate")
    request_fraction = cellular_du / total_du
    cellular_bytes = cellular_du * cellular_bytes_per_request
    fixed_bytes = total_du - cellular_du
    byte_fraction = cellular_bytes / (cellular_bytes + fixed_bytes)
    return TrafficShareReport(
        request_fraction=request_fraction,
        byte_fraction=byte_fraction,
        cellular_bytes_per_request=cellular_bytes_per_request,
    )


def case_study_distribution(
    classification, demand, asn: int, family: int = 4
) -> List[CaseStudyPoint]:
    """Figure 6's (ratio, DU) points of one AS, a ``du_of`` per record."""
    points = [
        CaseStudyPoint(ratio=record.ratio, du=demand.du_of(subnet))
        for subnet, record in classification.records.items()
        if record.asn == asn and record.family == family
    ]
    if not points:
        raise ValueError(f"AS{asn} has no IPv{family} ratio records")
    return points
