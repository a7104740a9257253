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
from itertools import accumulate, chain, islice, repeat
from operator import sub
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
    """The affinity as columns; :class:`AffinityRecord` values are views.

    A *run* is a stretch of consecutive records of one client subnet,
    with its ASN, country and client location (``run_*`` columns).
    Run ``i`` holds records ``run_offsets[i]`` to ``run_offsets[i + 1]``
    (the last offset is the record count).  Each record is an index
    into ``resolver_table`` and its DU.  Records are built only when
    the affinity is read (iteration, :meth:`records_of_asns`); the
    analyses reduce over the columns.  ``resolver_services`` gives each
    table entry's public service as an index into ``service_names``
    (0, the empty name, for an operator resolver).
    """

    def __init__(self, records: Iterable[AffinityRecord] = ()) -> None:
        self.resolver_table: List[Resolver] = []
        self.run_subnets: List[Prefix] = []
        self.run_asns = array("q")
        self.run_countries: List[str] = []
        self.run_latitudes = array("d")
        self.run_longitudes = array("d")
        self.run_offsets = array("q", [0])
        self.record_resolvers = array("q")
        self.record_dus = array("d")
        table, index_of = self.resolver_table, {}
        run = None
        for record in records:
            resolver = record.resolver
            index = index_of.setdefault(resolver.resolver_id, len(table))
            if index == len(table):
                table.append(resolver)
            elif table[index] != resolver:
                raise ValueError(
                    f"two resolvers share the id {resolver.resolver_id!r}"
                )
            key = (record.subnet, record.asn, record.country,
                   record.client_latitude, record.client_longitude)
            if key != run:
                if run is not None:
                    self.run_offsets.append(len(self.record_dus))
                subnet, asn, country, latitude, longitude = run = key
                self.run_subnets.append(subnet)
                self.run_asns.append(asn)
                self.run_countries.append(country)
                self.run_latitudes.append(latitude)
                self.run_longitudes.append(longitude)
            self.record_resolvers.append(index)
            self.record_dus.append(record.du)
        if run is not None:
            self.run_offsets.append(len(self.record_dus))
        self._index()

    def _index(self) -> None:
        numbers: Dict[Optional[str], int] = {None: 0}
        self.resolver_services = array("q", [
            numbers.setdefault(resolver.service, len(numbers))
            for resolver in self.resolver_table
        ])
        self.service_names: List[str] = ["", *islice(numbers, 1, None)]
        # ASN -> its stretches of consecutive runs, as (start, stop) run
        # positions.  One AS's stretches interleave with other ASes',
        # so the positions keep any selection of ASes in stream order.
        self._by_asn: Dict[int, List[Tuple[int, int]]] = {}
        run_asn, start = None, 0
        for position, asn in enumerate(self.run_asns):
            if asn != run_asn:
                if position:
                    self._by_asn.setdefault(run_asn, []).append((start, position))
                run_asn, start = asn, position
        if self.run_asns:
            self._by_asn.setdefault(run_asn, []).append(
                (start, len(self.run_asns))
            )

    def __len__(self) -> int:
        return len(self.record_dus)

    def __iter__(self) -> Iterator[AffinityRecord]:
        return self._records(0, len(self.run_subnets))

    def run_ranges(
        self, asns: Optional[Collection[int]] = None
    ) -> List[Tuple[int, int]]:
        """``(start, stop)`` run positions of the given ASes (all runs
        for ``None``), in stream order."""
        if asns is None:
            return [(0, len(self.run_subnets))]
        return sorted({run for asn in asns for run in self._by_asn.get(asn, ())})

    def records_of_asn(self, asn: int) -> List[AffinityRecord]:
        return self.records_of_asns((asn,))

    def records_of_asns(self, asns: Collection[int]) -> List[AffinityRecord]:
        """Records of the given ASes, in stream order."""
        return list(chain.from_iterable(
            self._records(start, stop) for start, stop in self.run_ranges(asns)
        ))

    def _records(self, start: int, stop: int) -> Iterator[AffinityRecord]:
        """The records of runs ``[start, stop)``, built in C by
        ``tuple.__new__`` over zipped columns."""
        offsets = self.run_offsets
        counts = list(map(sub, offsets[start + 1:stop + 1], offsets[start:stop]))
        first, last = offsets[start], offsets[stop]
        return map(_new_record, zip(
            _per_run(self.run_subnets[start:stop], counts),
            _per_run(self.run_asns[start:stop], counts),
            _per_run(self.run_countries[start:stop], counts),
            map(self.resolver_table.__getitem__, self.record_resolvers[first:last]),
            self.record_dus[first:last],
            _per_run(self.run_latitudes[start:stop], counts),
            _per_run(self.run_longitudes[start:stop], counts),
        ))


_new_record = partial(tuple.__new__, AffinityRecord)


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

    affinity = ResolverAffinity()
    affinity.resolver_table.extend(resolver_table)
    offsets = affinity.run_offsets
    for positions, counts, latitudes, longitudes, record_resolvers, record_dus in (
        map_chunks(draw, len(rows))
    ):
        subnets = [rows[position].subnet for position in positions]
        affinity.run_subnets.extend(subnets)
        affinity.run_asns.extend([rows[position].asn for position in positions])
        affinity.run_countries.extend(
            [plan_of_prefix[subnet].country for subnet in subnets]
        )
        affinity.run_latitudes.extend(latitudes)
        affinity.run_longitudes.extend(longitudes)
        offsets.extend(islice(accumulate(counts, initial=offsets[-1]), 1, None))
        affinity.record_resolvers.extend(record_resolvers)
        affinity.record_dus.extend(record_dus)
    affinity._index()
    return affinity


def _per_run(run_column: Iterable, counts: Iterable[int]) -> Iterator:
    """Each run's value repeated once per record of that run."""
    return chain.from_iterable(map(repeat, run_column, counts))


def _clamp_lat(latitude: float) -> float:
    return min(max(latitude, -90.0), 90.0)


def _wrap_lon(longitude: float) -> float:
    while longitude > 180.0:
        longitude -= 360.0
    while longitude < -180.0:
        longitude += 360.0
    return longitude
