"""Client-subnet -> resolver affinities (after Chen et al., section 6.3).

The CDN observes which recursive resolver asks for each client's
content; joining that with demand gives a weighted association between
client subnets and resolver addresses.  We generate the equivalent:
every demand-active subnet of an access AS is assigned a resolver --
one of the operator's own (honoring per-resolver serving policies) or
a public service, with per-carrier public-DNS adoption from the
calibration profiles.

Client locations are drawn per subnet: fixed-line subnets cluster near
the operator's resolver site, cellular subnets spread over the whole
country (cellular cores are centralized), which reproduces the paper's
finding that in some mixed carriers cellular clients sit ~1,500 miles
from resolvers that are proximal to the fixed customers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.dns.public import normalized_popularity
from repro.dns.resolvers import Resolver, deploy_resolvers
from repro.datasets.demand_dataset import DemandDataset
from repro.net.prefix import Prefix
from repro.world.build import World
from repro.world.geo import haversine_km

#: Degrees of geographic spread for client draw (roughly country-sized
#: for cellular clients, metro-sized for fixed ones).
_CELLULAR_SPREAD_DEG = 12.0
_FIXED_SPREAD_DEG = 0.8


@dataclass(frozen=True)
class AffinityRecord:
    """One (client subnet, resolver) association with demand weight."""

    subnet: Prefix
    asn: int
    country: str
    resolver: Resolver
    du: float
    client_latitude: float
    client_longitude: float

    @property
    def distance_km(self) -> Optional[float]:
        """Great-circle distance to the resolver (None for anycast)."""
        if self.resolver.is_public:
            return None
        return haversine_km(
            self.client_latitude,
            self.client_longitude,
            self.resolver.latitude,
            self.resolver.longitude,
        )


class ResolverAffinity:
    """All affinity records plus lookup indices."""

    def __init__(self, records: Iterable[AffinityRecord]) -> None:
        self._records = list(records)
        # ASN -> its runs of consecutive records, as (start, stop)
        # positions in the record stream.  One AS's runs interleave with
        # other ASes', so the positions keep any selection of ASes in
        # stream order.
        self._by_asn: Dict[int, List[Tuple[int, int]]] = {}
        run_asn, start = None, 0
        for position, record in enumerate(self._records):
            if record.asn != run_asn:
                if position:
                    self._by_asn.setdefault(run_asn, []).append((start, position))
                run_asn, start = record.asn, position
        if self._records:
            self._by_asn.setdefault(run_asn, []).append(
                (start, len(self._records))
            )

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[AffinityRecord]:
        return iter(self._records)

    def records_of_asn(self, asn: int) -> List[AffinityRecord]:
        return self.records_of_asns((asn,))

    def records_of_asns(self, asns: Collection[int]) -> List[AffinityRecord]:
        """Records of the given ASes, in stream order."""
        records = self._records
        runs = sorted({run for asn in asns for run in self._by_asn.get(asn, ())})
        selected: List[AffinityRecord] = []
        for start, stop in runs:
            selected.extend(records[start:stop])
        return selected

    def resolvers(self) -> List[Resolver]:
        """Distinct resolvers with at least one client."""
        seen: Dict[str, Resolver] = {}
        for record in self._records:
            seen.setdefault(record.resolver.resolver_id, record.resolver)
        return list(seen.values())

    def asns(self) -> List[int]:
        return list(self._by_asn)


def build_affinity(
    world: World,
    demand: DemandDataset,
    seed_salt: str = "affinity",
) -> ResolverAffinity:
    """Generate affinities for every demand-active access-network subnet."""
    operator_resolvers, public_resolvers = deploy_resolvers(world)
    public_by_service: Dict[str, List[Resolver]] = {}
    for resolver in public_resolvers:
        public_by_service.setdefault(resolver.service, []).append(resolver)
    public_pools = [
        (public_by_service[service], weight)
        for service, weight in normalized_popularity().items()
    ]
    plans = world.topology.plans
    plan_of_prefix = world.allocation.by_prefix

    records: List[AffinityRecord] = []
    append = records.append
    for subnet_demand in demand:
        asn = subnet_demand.asn
        resolvers = operator_resolvers.get(asn)
        if not resolvers:
            continue  # not an access network
        plan = plans[asn]
        subnet = subnet_demand.subnet
        subnet_plan = plan_of_prefix.get(subnet)
        if subnet_plan is None:
            continue
        rng = world.rng(f"{seed_salt}:{subnet}")
        cellular_client = subnet_plan.is_cellular
        country_code = subnet_plan.country
        country = world.geography.get(country_code)
        spread = _CELLULAR_SPREAD_DEG if cellular_client else _FIXED_SPREAD_DEG
        client_lat = _clamp_lat(country.latitude + rng.uniform(-spread, spread))
        client_lon = _wrap_lon(country.longitude + rng.uniform(-spread, spread))

        # A /24 holds many clients, so its demand is a *weighted
        # association* over several resolvers, not a single pick.
        public_rate = plan.public_dns_fraction if cellular_client else 0.02
        public_du = subnet_demand.du * public_rate
        if public_du > 0:
            for pool, weight in public_pools:
                resolver = rng.choice(pool)
                du = public_du * weight
                if du > 0:
                    append(AffinityRecord(subnet, asn, country_code, resolver,
                                          du, client_lat, client_lon))

        operator_du = subnet_demand.du - public_du
        candidates = [r for r in resolvers if r.policy.serves(cellular_client)]
        if not candidates:
            candidates = resolvers
        splits = [rng.random() + 0.2 for _ in candidates]
        split_total = sum(splits)
        for resolver, split in zip(candidates, splits):
            du = operator_du * split / split_total
            if du > 0:
                append(AffinityRecord(subnet, asn, country_code, resolver,
                                      du, client_lat, client_lon))
    return ResolverAffinity(records)


def _clamp_lat(latitude: float) -> float:
    return min(max(latitude, -90.0), 90.0)


def _wrap_lon(longitude: float) -> float:
    while longitude > 180.0:
        longitude -= 360.0
    while longitude < -180.0:
        longitude += 360.0
    return longitude
