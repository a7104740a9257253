"""DNS analyses of section 6.3.

All three analyses consume only observable inputs: the affinity map,
the DEMAND dataset weights embedded in it, and the *pipeline's* subnet
classification (never world truth), mirroring how the paper combines
its datasets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from repro.core.classifier import ClassificationResult
from repro.dns.affinity import ResolverAffinity


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
