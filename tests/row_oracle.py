"""The frozen row-wise oracle (the third arm of the columnar contract).

The equivalence contract of the columnar core is three-way::

    kernels_np  ==  kernels_py  ==  row-wise oracle (this module)

The first two are columnar (``repro.columnar``); this module is the
frozen *row-wise* semantics they both must reproduce --
dict-accumulation loops written the way the pre-columnar pipeline
wrote them (the old per-row ``_spot_shard`` worker, the per-subnet
totals dict, the per-hit dataset fold, and the per-record ``+=`` loops
of the DNS, country and continent analyses).
It lives with the tests because nothing in the program calls it: the
kernel suite (``tests/test_columnar_kernels.py``) and
``benchmarks/bench_columnar_core.py`` compare against it, so the
kernels are checked against an implementation too simple to be wrong
in the same way twice.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.continent import DEFAULT_DEMAND_EXCLUSIONS, ContinentDemand
from repro.analysis.country import CountryDemand
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
