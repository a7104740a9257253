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

import random
from array import array
from functools import partial
from itertools import chain, repeat
from typing import (
    Collection, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple,
)

from repro.dns.public import normalized_popularity
from repro.dns.resolvers import Resolver, deploy_resolvers
from repro.datasets.demand_dataset import DemandDataset
from repro.net.prefix import Prefix
from repro.parallel.chunks import map_chunks
from repro.world.build import World
from repro.world.geo import haversine_km

#: Degrees of geographic spread for client draw (roughly country-sized
#: for cellular clients, metro-sized for fixed ones).
_CELLULAR_SPREAD_DEG = 12.0
_FIXED_SPREAD_DEG = 0.8


class AffinityRecord(NamedTuple):
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
    """Generate affinities for every demand-active access-network subnet.

    The demand rows are drawn in contiguous chunks, one per CPU
    (:func:`repro.parallel.chunks.map_chunks`); the records are the
    same for every split.
    """
    operator_resolvers, public_resolvers = deploy_resolvers(world)
    public_by_service: Dict[str, List[Resolver]] = {}
    for resolver in public_resolvers:
        public_by_service.setdefault(resolver.service, []).append(resolver)
    public_pools = [
        (public_by_service[service], weight)
        for service, weight in normalized_popularity().items()
    ]
    resolver_table = [
        *public_resolvers, *chain.from_iterable(operator_resolvers.values())
    ]
    resolver_index = {id(r): index for index, r in enumerate(resolver_table)}
    plans = world.topology.plans
    plan_of_prefix = world.allocation.by_prefix
    rows = demand.subnets()
    seed_text = world.seed_text(f"{seed_salt}:")

    def draw(start: int, stop: int) -> Tuple[array, ...]:
        """Rows ``[start, stop)`` as columns: position, record count and
        client location per subnet, then resolver index and DU per
        record."""
        positions, counts = array("q"), array("q")
        latitudes, longitudes = array("d"), array("d")
        record_resolvers, record_dus = array("q"), array("d")
        for position in range(start, stop):
            subnet_demand = rows[position]
            asn = subnet_demand.asn
            resolvers = operator_resolvers.get(asn)
            if not resolvers:
                continue  # not an access network
            plan = plans[asn]
            subnet = subnet_demand.subnet
            subnet_plan = plan_of_prefix.get(subnet)
            if subnet_plan is None:
                continue
            rng = random.Random(seed_text + str(subnet))
            before = len(record_dus)
            cellular_client = subnet_plan.is_cellular
            country = world.geography.get(subnet_plan.country)
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
                        record_resolvers.append(resolver_index[id(resolver)])
                        record_dus.append(du)

            operator_du = subnet_demand.du - public_du
            candidates = [r for r in resolvers if r.policy.serves(cellular_client)]
            if not candidates:
                candidates = resolvers
            splits = [rng.random() + 0.2 for _ in candidates]
            split_total = sum(splits)
            for resolver, split in zip(candidates, splits):
                du = operator_du * split / split_total
                if du > 0:
                    record_resolvers.append(resolver_index[id(resolver)])
                    record_dus.append(du)
            if len(record_dus) > before:
                positions.append(position)
                counts.append(len(record_dus) - before)
                latitudes.append(client_lat)
                longitudes.append(client_lon)
        return positions, counts, latitudes, longitudes, record_resolvers, record_dus

    # The records are built in C, by tuple.__new__ over zipped columns:
    # the rebuild is the serial part of a split, and a loop calling the
    # constructor per record took about 1.6 times as long.
    records: List[AffinityRecord] = []
    new_record = partial(tuple.__new__, AffinityRecord)
    for positions, counts, latitudes, longitudes, record_resolvers, record_dus in (
        map_chunks(draw, len(rows))
    ):
        subnet_rows = [rows[position] for position in positions]
        records.extend(map(new_record, zip(
            _per_record([row.subnet for row in subnet_rows], counts),
            _per_record([row.asn for row in subnet_rows], counts),
            _per_record(
                [plan_of_prefix[row.subnet].country for row in subnet_rows], counts
            ),
            map(resolver_table.__getitem__, record_resolvers),
            record_dus,
            _per_record(latitudes, counts),
            _per_record(longitudes, counts),
        )))
    return ResolverAffinity(records)


def _per_record(subnet_column: Iterable, counts: Iterable[int]) -> Iterator:
    """Each subnet's value repeated once per record of that subnet."""
    return chain.from_iterable(map(repeat, subnet_column, counts))


def _clamp_lat(latitude: float) -> float:
    return min(max(latitude, -90.0), 90.0)


def _wrap_lon(longitude: float) -> float:
    while longitude > 180.0:
        longitude -= 360.0
    while longitude < -180.0:
        longitude += 360.0
    return longitude
