"""Tests for the DNS substrate: resolvers, affinities, analyses."""

import pytest

from repro.core.classifier import SubnetClassifier
from repro.core.ratios import RatioRecord, RatioTable
from repro.dns.affinity import AffinityRecord, ResolverAffinity, build_affinity
from repro.dns.analysis import (
    public_dns_usage,
    resolver_cellular_fractions,
    resolver_distance_report,
    shared_resolver_fraction,
)
from repro.dns.public import (
    PUBLIC_SERVICES,
    PublicDNSService,
    normalized_popularity,
    service_by_name,
)
from repro.dns.resolvers import Resolver, ServingPolicy, deploy_resolvers
from repro.net.asn import ASType
from repro.net.prefix import Prefix


class TestPublicServices:
    def test_table(self):
        names = {service.name for service in PUBLIC_SERVICES}
        assert names == {"GoogleDNS", "OpenDNS", "Level3"}
        assert service_by_name()["GoogleDNS"].addresses[0] == "8.8.8.8"

    def test_popularity_normalized(self):
        weights = normalized_popularity()
        assert sum(weights.values()) == pytest.approx(1.0)
        assert weights["GoogleDNS"] > weights["OpenDNS"] > weights["Level3"]

    def test_validation(self):
        with pytest.raises(ValueError):
            PublicDNSService("X", (), popularity=1)
        with pytest.raises(ValueError):
            PublicDNSService("X", ("1.2.3.4",), popularity=0)
        with pytest.raises(ValueError):
            PublicDNSService("X", ("not-an-ip",), popularity=1)


class TestResolverRecords:
    def test_operator_or_public_exclusive(self):
        with pytest.raises(ValueError):
            Resolver("x", asn=1, service="GoogleDNS", country="US",
                     latitude=0, longitude=0)
        with pytest.raises(ValueError):
            Resolver("x", asn=None, service=None, country=None,
                     latitude=0, longitude=0)

    def test_policy_serves(self):
        assert ServingPolicy.SHARED.serves(True)
        assert ServingPolicy.SHARED.serves(False)
        assert ServingPolicy.CELLULAR_ONLY.serves(True)
        assert not ServingPolicy.CELLULAR_ONLY.serves(False)
        assert ServingPolicy.FIXED_ONLY.serves(False)
        assert not ServingPolicy.FIXED_ONLY.serves(True)


class TestDeployment:
    def test_access_networks_get_resolvers(self, tiny_world):
        by_asn, public = deploy_resolvers(tiny_world)
        access_asns = {
            p.record.asn
            for p in tiny_world.topology.plans.values()
            if p.record.as_type.is_access
        }
        assert set(by_asn) == access_asns
        for resolvers in by_asn.values():
            assert 2 <= len(resolvers) <= 6
        assert len(public) == sum(len(s.addresses) for s in PUBLIC_SERVICES)

    def test_mixed_ases_have_varied_policies(self, tiny_world):
        by_asn, _ = deploy_resolvers(tiny_world)
        mixed_asns = [
            p.record.asn
            for p in tiny_world.topology.plans.values()
            if p.record.as_type is ASType.CELLULAR_MIXED
        ]
        policies = {
            resolver.policy
            for asn in mixed_asns
            for resolver in by_asn[asn]
        }
        assert ServingPolicy.SHARED in policies
        assert ServingPolicy.CELLULAR_ONLY in policies

    def test_cellular_clients_always_have_a_resolver(self, tiny_world):
        by_asn, _ = deploy_resolvers(tiny_world)
        for resolvers in by_asn.values():
            assert any(r.policy.serves(True) for r in resolvers)

    def test_deterministic(self, tiny_world):
        a, _ = deploy_resolvers(tiny_world)
        b, _ = deploy_resolvers(tiny_world)
        for asn in a:
            assert [r.resolver_id for r in a[asn]] == [
                r.resolver_id for r in b[asn]
            ]
            assert [r.policy for r in a[asn]] == [r.policy for r in b[asn]]


class TestAffinity:
    def test_demand_conserved_per_access_subnet(self, lab):
        affinity = lab.affinity
        from collections import defaultdict

        per_subnet = defaultdict(float)
        for record in affinity:
            per_subnet[record.subnet] += record.du
        # Each access-network subnet's DU is split, never lost.
        checked = 0
        for subnet, du in per_subnet.items():
            assert du == pytest.approx(lab.demand.du_of(subnet), rel=1e-6)
            checked += 1
        assert checked > 1000

    def test_policies_honored(self, lab):
        affinity = lab.affinity
        for record in affinity:
            if record.resolver.is_public:
                continue
            truth = lab.world.allocation.by_prefix[record.subnet]
            assert record.resolver.policy.serves(truth.is_cellular)

    def test_public_fraction_tracks_profiles(self, lab):
        # Algerian carriers push ~97% of cellular demand to public DNS;
        # U.S. carriers under 2%.
        usage_by_country = {}
        classification = lab.result.classification
        for country in ("DZ", "US"):
            asns = [
                asn
                for asn, profile in lab.result.operators.items()
                if profile.country == country
            ]
            usage = public_dns_usage(lab.affinity, classification, asns)
            totals = [u.public_fraction for u in usage.values() if u.total_du > 0]
            usage_by_country[country] = sum(totals) / len(totals)
        assert usage_by_country["DZ"] > 0.6
        assert usage_by_country["US"] < 0.1

    def test_distances_computable(self, lab):
        for record in lab.affinity:
            distance = record.distance_km
            if record.resolver.is_public:
                assert distance is None
            else:
                assert distance is not None and distance >= 0


class TestAnalyses:
    def test_resolver_fractions_bounded(self, lab):
        shares = resolver_cellular_fractions(
            lab.affinity, lab.result.classification
        )
        assert shares
        for share in shares:
            assert 0.0 <= share.cellular_fraction <= 1.0

    def test_shared_fraction_in_mixed_ases(self, lab):
        mixed = {a for a, p in lab.result.operators.items() if p.is_mixed}
        shares = resolver_cellular_fractions(
            lab.affinity, lab.result.classification, asns=mixed
        )
        # Paper: ~60% of mixed-network resolvers are shared.
        assert 0.4 <= shared_resolver_fraction(shares) <= 0.8

    def test_shared_fraction_empty_raises(self):
        with pytest.raises(ValueError):
            shared_resolver_fraction([])

    def test_distance_asymmetry_in_mixed_carriers(self, lab):
        mixed = [
            p for p in lab.result.operators.values()
            if p.is_mixed and p.country == "BR"
        ]
        assert mixed
        target = max(mixed, key=lambda p: p.cellular_du)
        report = resolver_distance_report(
            lab.affinity, lab.result.classification, target.asn
        )
        assert report.cellular_km > report.fixed_km
        assert report.asymmetry > 2


def share_rows(shares):
    return [(s.resolver_id, s.asn, s.cellular_du, s.fixed_du) for s in shares]


def reference_fractions(affinity, classification, asns, include_public):
    """Figure 9's shares from one filtered scan of every record."""
    cellular, fixed, meta = {}, {}, {}
    for record in affinity:
        if asns is not None and record.asn not in asns:
            continue
        if record.resolver.is_public and not include_public:
            continue
        key = record.resolver.resolver_id
        meta[key] = record.resolver.asn
        side = cellular if classification.is_cellular(record.subnet) else fixed
        side[key] = side.get(key, 0.0) + record.du
    return [
        (key, meta[key], cellular.get(key, 0.0), fixed.get(key, 0.0))
        for key in meta
    ]


class TestAgainstReferenceLoop:
    """Exact floats against plain per-record loops: unobserved client
    subnets, public resolvers on and off, and an AS restriction that
    leaves out one cellular AS."""

    @pytest.fixture()
    def edges(self):
        def resolver(rid, asn=None, service=None):
            return Resolver(rid, asn=asn, service=service,
                            country="US" if asn else None,
                            latitude=40.0, longitude=-75.0)

        own1, own3 = resolver("r1", asn=1), resolver("r3", asn=3)
        google = resolver("google", service="GoogleDNS")
        level3 = resolver("level3", service="Level3")
        rows = [
            ("10.2.0.0/24", 1, own1, 5.17, True),
            ("10.2.1.0/24", 1, own1, 3.89, False),
            ("10.2.2.0/24", 1, google, 0.73, True),
            ("10.2.3.0/24", 3, own3, 0.51, True),
            ("10.2.4.0/24", 3, level3, 0.97, True),
            ("10.2.5.0/24", 3, own3, 0.61, False),
            ("10.2.6.0/24", 1, own1, 0.31, None),  # unobserved
            ("10.2.7.0/24", 3, google, 0.43, None),  # unobserved
            ("10.2.8.0/24", 5, own1, 0.29, True),
        ]
        affinity = ResolverAffinity(
            AffinityRecord(Prefix.parse(text), asn, "US", res, du, 40.1, -75.1)
            for text, asn, res, du, _ in rows
        )
        classification = SubnetClassifier(0.5).classify(
            RatioTable(
                RatioRecord(Prefix.parse(text), asn, "US", 10,
                            10 if cellular else 0, 10)
                for text, asn, _, _, cellular in rows
                if cellular is not None
            )
        )
        return affinity, classification

    @pytest.mark.parametrize("include_public", [False, True])
    @pytest.mark.parametrize("asns", [None, frozenset({1, 5})])
    def test_resolver_cellular_fractions(self, edges, asns, include_public):
        affinity, classification = edges
        shares = resolver_cellular_fractions(
            affinity, classification, asns=asns, include_public=include_public
        )
        assert share_rows(shares) == reference_fractions(
            affinity, classification, asns, include_public
        )
        assert shares

    def test_public_dns_usage(self, edges):
        affinity, classification = edges
        usage = public_dns_usage(affinity, classification, [1, 3, 5])
        for asn in (1, 3, 5):
            total, by_service = 0.0, {}
            for record in affinity.records_of_asn(asn):
                if not classification.is_cellular(record.subnet):
                    continue
                total += record.du
                if record.resolver.is_public:
                    service = record.resolver.service
                    by_service[service] = by_service.get(service, 0.0) + record.du
            assert usage[asn].total_du == total
            assert usage[asn].by_service == by_service
        assert usage[3].by_service == {"Level3": 0.97}


class TestAsnSubsetOnInterleavedRuns:
    """An ``asns`` subset reads only those ASes' records, yet returns
    the full scan's list, order included, although each AS's records
    come in several runs interleaved with other ASes'."""

    @pytest.fixture(scope="class")
    def subsets(self, lab):
        runs, previous = {}, None
        for record in lab.affinity:
            if record.asn != previous:
                runs[record.asn] = runs.get(record.asn, 0) + 1
                previous = record.asn
        mixed = {a for a, p in lab.result.operators.items() if p.is_mixed}
        reentrant = {asn for asn, count in runs.items() if count > 1}
        assert mixed & reentrant
        # Every fifth AS in stream order, plus ASes with public DNS use
        # in several countries, so public resolvers span many ASes.
        spread = set(list(runs)[::5]) | {
            asn for asn, p in lab.result.operators.items()
            if p.country in ("DZ", "IN", "US")
        }
        return {"mixed": mixed, "spread": spread, "reentrant": reentrant}

    @pytest.mark.parametrize("include_public", [False, True])
    @pytest.mark.parametrize("subset", ["mixed", "spread"])
    def test_matches_full_scan(self, lab, subsets, subset, include_public):
        asns = subsets[subset]
        classification = lab.result.classification
        shares = resolver_cellular_fractions(
            lab.affinity, classification, asns=asns,
            include_public=include_public,
        )
        expected = reference_fractions(
            lab.affinity, classification, asns, include_public
        )
        assert share_rows(shares) == expected
        assert len(expected) > 20
        if include_public:
            assert any(asn is None for _, asn, _, _ in expected)

    def test_records_of_asns_keep_stream_order(self, lab, subsets):
        asns = subsets["spread"]
        selected = lab.affinity.records_of_asns(asns)
        assert selected == [r for r in lab.affinity if r.asn in asns]
        asn = min(subsets["reentrant"])
        assert lab.affinity.records_of_asn(asn) == [
            r for r in lab.affinity if r.asn == asn
        ]
