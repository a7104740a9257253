"""The census's column reductions against their old row loops.

Figures 2, 6 and 9-12, Tables 2, 4 and 8, the vantage point, the
industry comparison and the key findings reduce over the resolver
affinity's, the ratio table's, the labels' and the demand dataset's
columns with the ``slot_ids`` and ``group_sum`` kernels.  Each reduction must return what its per-record ``+=`` loop
(``tests/row_oracle.py``) returns, floats bit for bit and keys in the
same order, on both array backends and on the labs of seeds 1-3.
Results are compared by ``repr``, so a float that moved by one ulp,
a ``-0.0`` or a reordered dict fails.
"""

from __future__ import annotations

import io
import random

import pytest

from repro.analysis.continent import continent_demand, subnets_by_continent
from repro.analysis.country import country_demand_stats
from repro.analysis.coverage import beacon_coverage
from repro.analysis.industry import byte_share_report
from repro.analysis.operators import case_study_distribution
from repro.cdn.platform import PlatformDeployment, ServerRegion, deploy_platform
from repro.core.classifier import SubnetClassifier
from repro.core.ratios import RatioRecord, RatioTable
from repro.datasets.beacon_dataset import BeaconDataset, SubnetBeaconCounts
from repro.datasets.demand_dataset import DemandDataset
from repro.dns.affinity import AffinityRecord, ResolverAffinity
from repro.dns.analysis import (
    public_dns_usage,
    resolver_cellular_fractions,
    resolver_distance_report,
)
from repro.dns.resolvers import Resolver
from repro.lab import Lab
from repro.net.prefix import Prefix
from repro.world.geo import default_geography
from tests import row_oracle as oracle
from tests.conftest import SHARED_SEED

SEEDS = (1, 2, 3)


@pytest.fixture(scope="module", params=SEEDS, ids=lambda seed: f"seed{seed}")
def seeded(request, lab):
    """A scale-0.005 lab with its affinity and the selections to test."""
    if request.param == SHARED_SEED:
        seeded_lab = lab
    else:
        seeded_lab = Lab.create(scale=0.005, seed=request.param)
    result = seeded_lab.result
    affinity = seeded_lab.affinity
    mixed = {a for a, p in result.operators.items() if p.is_mixed}
    in_stream = list(dict.fromkeys(affinity.run_asns))
    absent = max(in_stream) + 1
    assert not affinity.records_of_asn(absent)
    selections = {
        "all": None,
        "mixed": mixed,
        # Every fifth AS in stream order: many re-entrant runs.
        "spread": set(in_stream[::5]),
        "no-records": {absent},
        "empty": set(),
    }
    return seeded_lab, selections


def same(new, old):
    assert repr(new) == repr(old)


@pytest.mark.parametrize("include_public", [False, True])
@pytest.mark.parametrize(
    "selection", ["all", "mixed", "spread", "no-records", "empty"]
)
def test_resolver_cellular_fractions(seeded, array_backend, selection, include_public):
    lab, selections = seeded
    asns = selections[selection]
    args = (lab.affinity, lab.result.classification)
    shares = resolver_cellular_fractions(
        *args, asns=asns, include_public=include_public
    )
    same(shares, oracle.resolver_cellular_fractions(
        *args, asns=asns, include_public=include_public
    ))
    assert bool(shares) == (selection not in ("no-records", "empty"))


def test_public_dns_usage(seeded, array_backend):
    lab, selections = seeded
    args = (lab.affinity, lab.result.classification)
    asns = [*sorted(selections["mixed"]), *selections["no-records"]]
    usage = public_dns_usage(*args, asns)
    same(usage, oracle.public_dns_usage(*args, asns))
    assert any(row.by_service for row in usage.values())
    assert public_dns_usage(*args, []) == {}


def test_resolver_distance_report(seeded, array_backend):
    lab, selections = seeded
    args = (lab.affinity, lab.result.classification)
    for asn in [*sorted(selections["mixed"]), *selections["no-records"]]:
        same(
            resolver_distance_report(*args, asn),
            oracle.resolver_distance_report(*args, asn),
        )


@pytest.mark.parametrize("exclude", [None, frozenset()], ids=["CN-out", "none-out"])
@pytest.mark.parametrize("restrict", ["none", "accepted", "empty"])
def test_country_and_continent_demand(seeded, array_backend, restrict, exclude):
    lab, _ = seeded
    result = lab.result
    asns = {"none": None, "accepted": set(result.operators), "empty": set()}[restrict]
    args = (result.classification, lab.demand, lab.world.geography)
    kwargs = {"restrict_to_asns": asns}
    if exclude is not None:
        kwargs["exclude_countries"] = exclude
    same(
        country_demand_stats(*args, **kwargs),
        oracle.country_demand_stats(*args, **kwargs),
    )
    same(continent_demand(*args, **kwargs), oracle.continent_demand(*args, **kwargs))


def test_demand_sums_do_not_follow_label_order(array_backend):
    """Labels listed in another order than the demand rows: the
    cellular rows are summed in demand order all the same."""
    rng = random.Random(27)
    countries = ["US", "GH", "ID", "FR", "BR", "IN"]
    rows = [
        (Prefix(4, (10 << 24) + (i << 8), 24), 1 + i % 7, rng.choice(countries),
         rng.randrange(1, 10 ** 6, 2))
        for i in range(300)
    ]
    demand = DemandDataset.from_request_totals(rows)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    classification = SubnetClassifier(0.5).classify(RatioTable(
        RatioRecord(subnet, asn, iso2, 10, 10 if rng.random() < 0.6 else 0, 10)
        for subnet, asn, iso2, _ in shuffled
    ))
    geography = default_geography()
    for restrict in (None, {1, 2, 3, 5}):
        args = (classification, demand, geography)
        same(
            country_demand_stats(*args, restrict_to_asns=restrict),
            oracle.country_demand_stats(*args, restrict_to_asns=restrict),
        )
        same(
            continent_demand(*args, restrict_to_asns=restrict),
            oracle.continent_demand(*args, restrict_to_asns=restrict),
        )


def test_resolver_ids_are_unique_in_the_table(seeded):
    lab, _ = seeded
    table = lab.affinity.resolver_table
    assert len({r.resolver_id for r in table}) == len(table)


def test_records_rebuild_the_same_columns(seeded):
    """The record constructor and the generator's column appends agree."""
    lab, _ = seeded
    affinity = lab.affinity
    records = list(affinity)
    assert len(records) == len(affinity)
    rebuilt = ResolverAffinity(records)
    assert list(rebuilt) == records
    for column in ("run_subnets", "run_asns", "run_countries", "run_latitudes",
                   "run_longitudes", "run_offsets", "record_dus"):
        assert getattr(rebuilt, column) == getattr(affinity, column), column
    assert [rebuilt.resolver_table[i] for i in rebuilt.record_resolvers] == [
        affinity.resolver_table[i] for i in affinity.record_resolvers
    ]


def test_demand_columns_follow_every_write(lab):
    """``_add`` keeps the columns for generated and loaded datasets."""
    stream = io.StringIO()
    lab.demand.dump(stream)
    stream.seek(0)
    for demand in (lab.demand, DemandDataset.load(stream)):
        records = list(demand)
        assert list(demand.position) == [r.subnet for r in records]
        assert list(demand.position.values()) == list(range(len(records)))
        assert [demand.country_names[c] for c in demand.country_codes] == [
            r.country for r in records
        ]
        assert list(demand.asns) == [r.asn for r in records]
        assert list(demand.dus) == [r.du for r in records]
        assert len(set(demand.country_names)) == len(demand.country_names)


class TestHandBuiltAffinity:
    """A subnet whose records sit in two non-adjacent runs, an AS with
    two stretches, public and operator resolvers, and a subnet the
    classifier never saw."""

    @staticmethod
    def resolver(rid, asn=None, service=None, latitude=40.0):
        return Resolver(rid, asn=asn, service=service,
                        country="US" if asn else None,
                        latitude=latitude, longitude=-75.0)

    @pytest.fixture()
    def edges(self):
        own1 = self.resolver("r1", asn=1)
        own2 = self.resolver("r2", asn=1, latitude=10.0)
        own3 = self.resolver("r3", asn=3)
        google = self.resolver("google", service="GoogleDNS")
        level3 = self.resolver("level3", service="Level3")
        a, b = Prefix.parse("10.3.0.0/24"), Prefix.parse("10.3.1.0/24")
        c, d = Prefix.parse("10.3.2.0/24"), Prefix.parse("10.3.3.0/24")
        rows = [
            (a, 1, own1, 5.17), (a, 1, google, 0.73), (a, 1, own2, 1.13),
            (b, 1, own2, 3.89), (b, 1, level3, 0.37),
            (c, 3, own3, 0.51), (c, 3, level3, 0.97),
            (a, 1, own1, 0.61), (a, 1, google, 0.29),  # a's second run
            (d, 1, own1, 0.31),  # unobserved
        ]
        affinity = ResolverAffinity(
            AffinityRecord(subnet, asn, "US", res, du, 30.0 + asn, -70.0)
            for subnet, asn, res, du in rows
        )
        classification = SubnetClassifier(0.5).classify(RatioTable([
            RatioRecord(a, 1, "US", 10, 10, 10),
            RatioRecord(b, 1, "US", 10, 0, 10),
            RatioRecord(c, 3, "US", 10, 9, 10),
        ]))
        return affinity, classification, rows

    def test_runs_and_records(self, edges):
        affinity, _, rows = edges
        a, b, c, d = (Prefix.parse(f"10.3.{i}.0/24") for i in range(4))
        assert affinity.run_subnets == [a, b, c, a, d]
        assert list(affinity.run_offsets) == [0, 3, 5, 7, 9, 10]
        assert affinity.run_ranges({1}) == [(0, 2), (3, 5)]
        assert [(r.subnet, r.asn, r.resolver, r.du) for r in affinity] == rows
        assert affinity.records_of_asn(3) == [r for r in affinity if r.asn == 3]
        assert len(affinity.resolver_table) == 5

    @pytest.mark.parametrize("include_public", [False, True])
    @pytest.mark.parametrize("asns", [None, {1}, {3}, {1, 3}, {7}, set()])
    def test_reductions(self, edges, array_backend, asns, include_public):
        affinity, classification, _ = edges
        same(
            resolver_cellular_fractions(
                affinity, classification, asns=asns, include_public=include_public
            ),
            oracle.resolver_cellular_fractions(
                affinity, classification, asns=asns, include_public=include_public
            ),
        )
        selected = sorted(asns or ())
        same(
            public_dns_usage(affinity, classification, selected),
            oracle.public_dns_usage(affinity, classification, selected),
        )
        for asn in selected:
            same(
                resolver_distance_report(affinity, classification, asn),
                oracle.resolver_distance_report(affinity, classification, asn),
            )

    def test_empty_affinity(self, edges, array_backend):
        _, classification, _ = edges
        empty = ResolverAffinity()
        assert len(empty) == 0 and list(empty) == []
        assert resolver_cellular_fractions(empty, classification) == []
        assert public_dns_usage(empty, classification, [1])[1].total_du == 0.0
        report = resolver_distance_report(empty, classification, 1)
        assert (report.cellular_km, report.fixed_km, report.country) == (0.0, 0.0, "")

    def test_two_resolvers_may_not_share_an_id(self):
        subnet = Prefix.parse("10.3.0.0/24")
        records = [
            AffinityRecord(subnet, 1, "US", self.resolver("r1", asn=1), 1.0, 0.0, 0.0),
            AffinityRecord(subnet, 1, "US", self.resolver("r1", asn=2), 1.0, 0.0, 0.0),
        ]
        with pytest.raises(ValueError, match="r1"):
            ResolverAffinity(records)


# ---- Figure 2, Tables 2 and 4, the vantage point, industry, Figure 6 -----

RESTRICTS = ["none", "accepted"]
EXCLUDES = [frozenset({"CN"}), frozenset()]


def census_reductions(classification, ratios, beacons, demand, geography,
                      platform, asns, case_asns):
    """Every new census reduction next to its old loop, by ``repr``."""
    for family in (4, 6):
        for weights in (None, demand):
            same(
                ratios.bucket_fractions(family, demand=weights),
                oracle.bucket_fractions(ratios.records(family), demand=weights),
            )
    same(beacons.family_counts(), oracle.family_counts(beacons.keys()))
    same(demand.family_counts(), oracle.family_counts(demand.position))
    for family in (None, 4, 6):
        same(
            beacon_coverage(beacons, demand, family),
            oracle.beacon_coverage(beacons, demand, family),
        )
    same(platform.service_report(demand), oracle.service_report(platform, demand))
    assert (len(set(demand.asns)), len(demand.country_names)) == (
        oracle.observed_ases_and_countries(demand)
    )
    for restrict in (None, asns):
        same(
            subnets_by_continent(classification, geography, restrict),
            oracle.subnets_by_continent(classification, geography, restrict),
        )
        for exclude in EXCLUDES:
            same(
                byte_share_report(classification, demand, restrict, exclude),
                oracle.byte_share_report(classification, demand, restrict, exclude),
            )
    for asn in case_asns:
        for family in (4, 6):
            try:
                expected = oracle.case_study_distribution(
                    classification, demand, asn, family
                )
            except ValueError:
                with pytest.raises(ValueError):
                    case_study_distribution(classification, demand, asn, family)
                continue
            same(
                case_study_distribution(classification, demand, asn, family),
                expected,
            )


def test_census_reductions(seeded, array_backend):
    lab, selections = seeded
    result = lab.result
    census_reductions(
        result.classification, result.ratios, lab.beacons, lab.demand,
        lab.world.geography, deploy_platform(lab.world), set(result.operators),
        sorted(selections["mixed"])[:8],
    )


class TestHandBuiltCensus:
    """Ratio subnets with no demand row, a demand subnet without beacon
    data, a country outside the geography, two countries served by one
    region, and countries that first appear out of routing order."""

    @pytest.fixture()
    def census(self):
        p = Prefix.parse
        geography = default_geography()
        # Demand rows: XX (unknown), then GH before US, though US's
        # region is listed first; DE and FR share the Frankfurt region.
        demand_rows = [
            (p("10.9.0.0/24"), 7, "XX", 37),
            (p("10.9.1.0/24"), 7, "GH", 101),
            (p("2001:db8:1::/48"), 8, "FR", 13),
            (p("10.9.2.0/24"), 8, "US", 59),
            (p("10.9.3.0/24"), 9, "DE", 7),
            (p("10.9.4.0/24"), 9, "CN", 29),
            (p("2001:db8:2::/48"), 7, "GH", 3),
            (p("10.9.5.0/24"), 8, "FR", 17),  # no beacon data
        ]
        demand = DemandDataset.from_request_totals(demand_rows)
        ratio_rows = [
            (p("10.9.6.0/24"), 7, "GH", 10, 10),  # no demand row
            (p("10.9.1.0/24"), 7, "GH", 10, 9),
            (p("2001:db8:1::/48"), 8, "FR", 9, 0),
            (p("10.9.0.0/24"), 7, "XX", 11, 11),
            (p("10.9.2.0/24"), 8, "US", 7, 1),
            (p("2001:db8:3::/48"), 9, "DE", 5, 5),  # no demand row
            (p("10.9.3.0/24"), 9, "DE", 13, 7),
            (p("10.9.4.0/24"), 9, "CN", 3, 3),
            (p("2001:db8:2::/48"), 7, "GH", 4, 1),
        ]
        ratios = RatioTable(
            RatioRecord(subnet, asn, iso2, api, cell, api + 1)
            for subnet, asn, iso2, api, cell in ratio_rows
        )
        beacons = BeaconDataset("2016-12")
        for subnet, asn, iso2, api, cell in ratio_rows:
            beacons.add_counts(SubnetBeaconCounts(subnet, asn, iso2, api + 1, api, cell))
        platform = PlatformDeployment(
            [
                ServerRegion("us-1", "US", 38.9, -77.0, 10, 1),
                ServerRegion("eu-1", "DE", 50.1, 8.7, 10, 2),
                ServerRegion("af-1", "GH", 5.6, -0.2, 10, 3),
            ],
            geography,
        )
        return ratios, beacons, demand, geography, platform

    def test_reductions(self, census, array_backend):
        ratios, beacons, demand, geography, platform = census
        classification = SubnetClassifier(0.5).classify(ratios)
        assert list(platform.service_report(demand).demand_by_region) == [
            "af-1", "eu-1", "us-1"
        ]
        census_reductions(
            classification, ratios, beacons, demand, geography, platform,
            {7, 9}, [7, 8, 9, 10],
        )

    def test_no_rows_of_a_family(self, array_backend):
        ratios = RatioTable([RatioRecord(Prefix.parse("10.0.0.0/24"), 1, "US", 4, 1, 4)])
        for weights in (None, DemandDataset.from_request_totals(
            [(Prefix.parse("10.0.0.0/24"), 1, "US", 5)]
        )):
            with pytest.raises(ValueError, match="no IPv6 ratio records"):
                ratios.bucket_fractions(6, demand=weights)
        unrelated = DemandDataset.from_request_totals(
            [(Prefix.parse("10.0.1.0/24"), 1, "US", 5)]
        )
        with pytest.raises(ValueError, match="no weight"):
            ratios.bucket_fractions(4, demand=unrelated)
        with pytest.raises(ValueError, match="no weight"):
            oracle.bucket_fractions(ratios.records(4), demand=unrelated)
