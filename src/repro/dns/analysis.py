"""DNS analyses of section 6.3.

All three analyses consume only observable inputs: the affinity map,
the DEMAND dataset weights embedded in it, and the *pipeline's* subnet
classification (never world truth), mirroring how the paper combines
its datasets.

They reduce over the affinity's columns: each subnet run's label is
looked up once.  The per-resolver and per-service sums are
``group_sum`` kernel calls, which add in stream order like a
per-record ``+=`` loop; the other sums are such loops.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import groupby
from typing import Collection, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.columnar.backend import get_kernels
from repro.core.classifier import ClassificationResult
from repro.dns.affinity import ResolverAffinity
from repro.world.geo import haversine_km


@dataclass(frozen=True)
class ResolverShare:
    """Cellular/fixed demand split observed at one resolver."""

    resolver_id: str
    asn: Optional[int]
    cellular_du: float
    fixed_du: float

    @property
    def total_du(self) -> float:
        return self.cellular_du + self.fixed_du

    @property
    def cellular_fraction(self) -> float:
        """0 = fixed-only resolver, 1 = cellular-only (Figure 9 x-axis)."""
        total = self.total_du
        return self.cellular_du / total if total > 0 else 0.0

    @property
    def is_shared(self) -> bool:
        """Serves meaningful demand from both customer classes."""
        return 0.02 < self.cellular_fraction < 0.98


def resolver_cellular_fractions(
    affinity: ResolverAffinity,
    classification: ClassificationResult,
    asns: Optional[Set[int]] = None,
    include_public: bool = False,
) -> List[ResolverShare]:
    """Per-resolver cellular demand fractions (Figure 9).

    ``asns`` restricts to client subnets of the given ASes (the paper
    evaluates resolvers of the 392 mixed cellular ASes); their records
    come from the affinity's per-AS index, in stream order, so shares,
    sums and resolver order match a filtered scan of every record.
    """
    resolvers, dus = affinity.record_resolvers, affinity.record_dus
    offsets = affinity.run_offsets
    groups, cellular_dus, fixed_dus = array("q"), array("d"), array("d")
    for start, stop, cellular in _label_stretches(affinity, classification, asns):
        first, last = offsets[start], offsets[stop]
        groups.extend(resolvers[first:last])
        # The other class gets +0.0 per record, which leaves its
        # non-negative sums bit for bit as if the record were skipped.
        own, other = (
            (cellular_dus, fixed_dus) if cellular else (fixed_dus, cellular_dus)
        )
        own.extend(dus[first:last])
        other.frombytes(bytes(8 * (last - first)))
    kernels = get_kernels()
    ids, cellular_sums = kernels.group_sum(groups, cellular_dus)
    _, fixed_sums = kernels.group_sum(groups, fixed_dus)
    table = affinity.resolver_table
    return [
        ResolverShare(
            resolver_id=resolver.resolver_id,
            asn=resolver.asn,
            cellular_du=cellular_du,
            fixed_du=fixed_du,
        )
        for resolver, cellular_du, fixed_du in zip(
            map(table.__getitem__, ids), cellular_sums, fixed_sums
        )
        if include_public or not resolver.is_public
    ]


def _label_stretches(
    affinity: ResolverAffinity,
    classification: ClassificationResult,
    asns: Optional[Collection[int]],
) -> Iterator[Tuple[int, int, bool]]:
    """``(start, stop, cellular)`` stretches of consecutive runs of the
    given ASes (every AS for ``None``) that share a label, in stream
    order.  Each run's label is looked up once."""
    labels = classification.labels.get
    subnets = affinity.run_subnets
    for start, stop in affinity.run_ranges(asns):
        for cellular, same in groupby([labels(s, False) for s in subnets[start:stop]]):
            run = start + len(list(same))
            yield start, run, cellular
            start = run


def shared_resolver_fraction(shares: Iterable[ResolverShare]) -> float:
    """Fraction of resolvers shared between classes (paper: ~60%)."""
    shares = list(shares)
    if not shares:
        raise ValueError("no resolver shares")
    return sum(1 for share in shares if share.is_shared) / len(shares)


@dataclass(frozen=True)
class PublicDNSUsage:
    """Figure 10 bar: one operator's demand split by public service."""

    asn: int
    country: str
    total_du: float
    by_service: Dict[str, float]

    @property
    def public_fraction(self) -> float:
        if self.total_du <= 0:
            return 0.0
        return sum(self.by_service.values()) / self.total_du

    def service_fraction(self, service: str) -> float:
        if self.total_du <= 0:
            return 0.0
        return self.by_service.get(service, 0.0) / self.total_du


def public_dns_usage(
    affinity: ResolverAffinity,
    classification: ClassificationResult,
    asns: Iterable[int],
) -> Dict[int, PublicDNSUsage]:
    """Public DNS usage among *cellular* client demand, per operator."""
    kernels = get_kernels()
    service_of, names = affinity.resolver_services, affinity.service_names
    resolvers, dus = affinity.record_resolvers, affinity.record_dus
    offsets, countries = affinity.run_offsets, affinity.run_countries
    result: Dict[int, PublicDNSUsage] = {}
    for asn in asns:
        cellular_resolvers, cellular_dus = array("q"), array("d")
        country = ""
        for start, stop, cellular in _label_stretches(affinity, classification, (asn,)):
            if cellular:
                first, last = offsets[start], offsets[stop]
                cellular_resolvers.extend(resolvers[first:last])
                cellular_dus.extend(dus[first:last])
                country = countries[stop - 1]
        total = 0.0
        for du in cellular_dus:
            total += du
        ids, sums = kernels.group_sum(
            kernels.take(service_of, cellular_resolvers), cellular_dus
        )
        result[asn] = PublicDNSUsage(
            asn=asn,
            country=country,
            total_du=total,
            by_service={names[i]: du for i, du in zip(ids, sums) if i},
        )
    return result


@dataclass(frozen=True)
class DistanceReport:
    """Demand-weighted client->resolver distances for one operator."""

    asn: int
    country: str
    cellular_km: float
    fixed_km: float

    @property
    def asymmetry(self) -> float:
        """How many times farther cellular clients sit (>= 1 when farther)."""
        if self.fixed_km <= 0:
            return float("inf") if self.cellular_km > 0 else 1.0
        return self.cellular_km / self.fixed_km


def resolver_distance_report(
    affinity: ResolverAffinity,
    classification: ClassificationResult,
    asn: int,
) -> DistanceReport:
    """Distance asymmetry for one mixed operator (the Brazil case)."""
    table = affinity.resolver_table
    resolvers, dus = affinity.record_resolvers, affinity.record_dus
    offsets, countries = affinity.run_offsets, affinity.run_countries
    latitudes, longitudes = affinity.run_latitudes, affinity.run_longitudes
    cellular_sum = cellular_weight = 0.0
    fixed_sum = fixed_weight = 0.0
    country = ""
    for start, stop, cellular in _label_stretches(affinity, classification, (asn,)):
        for run in range(start, stop):
            first, last = offsets[run], offsets[run + 1]
            for resolver, du in zip(
                map(table.__getitem__, resolvers[first:last]), dus[first:last]
            ):
                if resolver.is_public:
                    continue
                country = countries[run]
                distance = haversine_km(
                    latitudes[run], longitudes[run],
                    resolver.latitude, resolver.longitude,
                )
                if cellular:
                    cellular_sum += distance * du
                    cellular_weight += du
                else:
                    fixed_sum += distance * du
                    fixed_weight += du
    return DistanceReport(
        asn=asn,
        country=country,
        cellular_km=cellular_sum / cellular_weight if cellular_weight else 0.0,
        fixed_km=fixed_sum / fixed_weight if fixed_weight else 0.0,
    )
