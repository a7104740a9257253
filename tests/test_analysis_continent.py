"""Unit tests for continent-level analyses (Tables 4, 6, 8)."""

import pytest

from repro.analysis.continent import (
    DEFAULT_DEMAND_EXCLUSIONS,
    ases_by_continent,
    continent_demand,
    global_cellular_fraction,
    subnets_by_continent,
)
from repro.core.classifier import SubnetClassifier
from repro.core.mixed import OperatorClass, OperatorProfile
from repro.core.ratios import RatioRecord, RatioTable
from repro.datasets.demand_dataset import DemandDataset
from repro.net.prefix import Prefix
from repro.world.geo import Continent, default_geography


def p(text):
    return Prefix.parse(text)


@pytest.fixture()
def geography():
    return default_geography()


@pytest.fixture()
def classification():
    table = RatioTable(
        [
            RatioRecord(p("10.0.0.0/24"), 1, "US", 10, 10, 10),
            RatioRecord(p("10.0.1.0/24"), 1, "US", 10, 0, 10),
            RatioRecord(p("10.0.2.0/24"), 2, "GH", 10, 10, 10),
            RatioRecord(p("2001:db8::/48"), 3, "JP", 10, 10, 10),
            RatioRecord(p("10.0.3.0/24"), 9, "CN", 10, 10, 10),
        ]
    )
    return SubnetClassifier(0.5).classify(table)


@pytest.fixture()
def demand():
    return DemandDataset.from_request_totals(
        [
            (p("10.0.0.0/24"), 1, "US", 500),
            (p("10.0.1.0/24"), 1, "US", 400),
            (p("10.0.2.0/24"), 2, "GH", 50),
            (p("2001:db8::/48"), 3, "JP", 30),
            (p("10.0.3.0/24"), 9, "CN", 20),
        ]
    )


class TestSubnetCensus:
    def test_counts(self, classification, geography):
        census = subnets_by_continent(classification, geography)
        assert census[Continent.NORTH_AMERICA].cellular_slash24 == 1
        assert census[Continent.NORTH_AMERICA].active_slash24 == 2
        assert census[Continent.AFRICA].cellular_slash24 == 1
        assert census[Continent.ASIA].cellular_slash48 == 1
        assert census[Continent.NORTH_AMERICA].pct_active_ipv4 == 0.5

    def test_restriction(self, classification, geography):
        census = subnets_by_continent(
            classification, geography, restrict_to_asns={2}
        )
        assert census[Continent.NORTH_AMERICA].cellular_slash24 == 0
        assert census[Continent.AFRICA].cellular_slash24 == 1
        # Active counts are unaffected by the restriction.
        assert census[Continent.NORTH_AMERICA].active_slash24 == 2


class TestASCensus:
    def test_counts_and_average(self, geography):
        profiles = [
            OperatorProfile(1, "US", 1, 1, 1, 1, 1, OperatorClass.DEDICATED),
            OperatorProfile(2, "US", 1, 1, 1, 1, 1, OperatorClass.MIXED),
            OperatorProfile(3, "CA", 1, 1, 1, 1, 1, OperatorClass.MIXED),
            OperatorProfile(4, "GH", 1, 1, 1, 1, 1, OperatorClass.DEDICATED),
        ]
        census = ases_by_continent(profiles, geography)
        na = census[Continent.NORTH_AMERICA]
        assert na.as_count == 3
        assert na.average_per_country == pytest.approx(1.5)
        assert census[Continent.AFRICA].as_count == 1
        assert census[Continent.EUROPE].as_count == 0
        assert census[Continent.EUROPE].average_per_country == 0.0


class TestContinentDemand:
    def test_china_excluded_by_default(self, classification, demand, geography):
        rows = continent_demand(classification, demand, geography)
        asia = rows[Continent.ASIA]
        # JP only: CN's demand is dropped from both cellular and total.
        assert asia.total_du == pytest.approx(demand.du_of(p("2001:db8::/48")))

    def test_fractions(self, classification, demand, geography):
        rows = continent_demand(classification, demand, geography)
        na = rows[Continent.NORTH_AMERICA]
        assert na.cellular_fraction == pytest.approx(5 / 9)
        assert rows[Continent.AFRICA].cellular_fraction == pytest.approx(1.0)
        shares = sum(r.global_cellular_share for r in rows.values())
        assert shares == pytest.approx(1.0)

    def test_restriction_drops_foreign_asns(
        self, classification, demand, geography
    ):
        rows = continent_demand(
            classification, demand, geography, restrict_to_asns={2, 3}
        )
        assert rows[Continent.NORTH_AMERICA].cellular_du == 0.0
        assert rows[Continent.AFRICA].cellular_du > 0

    def test_global_fraction(self, classification, demand, geography):
        rows = continent_demand(classification, demand, geography)
        value = global_cellular_fraction(rows)
        # Cellular: US 500 + GH 50 + JP 30 = 580 of 980 (CN excluded).
        assert value == pytest.approx(580 / 980)

    def test_subscribers_attached(self, classification, demand, geography):
        rows = continent_demand(classification, demand, geography)
        assert rows[Continent.ASIA].subscribers_m > 0
        # China excluded from the subscriber denominator too.
        total_asia = sum(
            country.subscribers_m
            for country in geography.by_continent(Continent.ASIA)
        )
        assert rows[Continent.ASIA].subscribers_m < total_asia

    def test_demand_per_subscriber(self, classification, demand, geography):
        rows = continent_demand(classification, demand, geography)
        na = rows[Continent.NORTH_AMERICA]
        expected = na.cellular_du / (na.subscribers_m * 1000)
        assert na.demand_per_1000_subscribers == pytest.approx(expected)


# ---- edge cases against a plain per-record reference loop ---------------

#: Every aggregation edge at once: two cellular ASes per continent for
#: the restriction to leave one out, an excluded country (CN), a country
#: outside the geography (ZZ) and demand on subnets the classifier never
#: observed.  Odd request counts make the Demand Units inexact floats,
#: so a changed order of additions shows up as a changed sum.
EDGE_RATIOS = [
    ("10.1.0.0/24", 1, "US", 10, 10),
    ("10.1.1.0/24", 1, "US", 10, 0),
    ("10.1.2.0/24", 7, "CA", 10, 9),
    ("10.1.3.0/24", 2, "GH", 10, 10),
    ("10.1.4.0/24", 4, "DE", 10, 8),
    ("10.1.5.0/24", 5, "BR", 10, 10),
    ("2001:db8:1::/48", 3, "JP", 10, 10),
    ("2001:db8:2::/48", 8, "IN", 10, 10),
    ("10.1.6.0/24", 9, "CN", 10, 10),
    ("10.1.7.0/24", 6, "ZZ", 10, 10),
]
EDGE_DEMAND = [
    ("10.1.0.0/24", 1, "US", 517),
    ("10.1.1.0/24", 1, "US", 389),
    ("10.1.2.0/24", 7, "CA", 73),
    ("10.1.3.0/24", 2, "GH", 51),
    ("10.1.4.0/24", 4, "DE", 97),
    ("10.1.5.0/24", 5, "BR", 61),
    ("2001:db8:1::/48", 3, "JP", 31),
    ("2001:db8:2::/48", 8, "IN", 43),
    ("10.1.6.0/24", 9, "CN", 23),
    ("10.1.7.0/24", 6, "ZZ", 19),
    # Unobserved: demand the classifier has no label for.
    ("10.1.8.0/24", 1, "US", 211),
    ("10.1.9.0/24", 10, "FR", 37),
    ("2001:db8:3::/48", 3, "JP", 29),
]
#: ``None``, and a set that leaves out the cellular ASes 3 (JP) and 7 (CA).
RESTRICTIONS = [None, frozenset({1, 2, 4, 5, 6, 8, 9, 10})]


@pytest.fixture()
def edge_classification():
    return SubnetClassifier(0.5).classify(
        RatioTable(
            RatioRecord(p(text), asn, country, api, cellular, api)
            for text, asn, country, api, cellular in EDGE_RATIOS
        )
    )


@pytest.fixture()
def edge_demand():
    return DemandDataset.from_request_totals(
        (p(text), asn, country, requests)
        for text, asn, country, requests in EDGE_DEMAND
    )


def reference_continent_demand(classification, demand, geography, restrict):
    cellular = {c: 0.0 for c in Continent}
    total = {c: 0.0 for c in Continent}
    for record in demand:
        if record.country in DEFAULT_DEMAND_EXCLUSIONS:
            continue
        country = geography.find(record.country)
        if country is None:
            continue
        total[country.continent] += record.du
        if not classification.is_cellular(record.subnet):
            continue
        if restrict is not None and record.asn not in restrict:
            continue
        cellular[country.continent] += record.du
    subscribers = {c: 0.0 for c in Continent}
    for country in geography:
        if country.iso2 not in DEFAULT_DEMAND_EXCLUSIONS:
            subscribers[country.continent] += country.subscribers_m
    return cellular, total, subscribers


def reference_subnet_census(classification, geography, restrict):
    counts = {c: [0, 0, 0, 0] for c in Continent}
    for subnet, cellular in classification.labels.items():
        record = classification.records[subnet]
        country = geography.find(record.country)
        if country is None:
            continue
        if cellular and restrict is not None:
            cellular = record.asn in restrict
        row = counts[country.continent]
        offset = 0 if subnet.family == 4 else 1
        row[2 + offset] += 1
        if cellular:
            row[offset] += 1
    return counts


class TestAgainstReferenceLoop:
    @pytest.mark.parametrize("restrict", RESTRICTIONS)
    def test_continent_demand(
        self, edge_classification, edge_demand, geography, restrict
    ):
        rows = continent_demand(
            edge_classification, edge_demand, geography, restrict_to_asns=restrict
        )
        cellular, total, subscribers = reference_continent_demand(
            edge_classification, edge_demand, geography, restrict
        )
        assert list(rows) == list(Continent)
        for continent, row in rows.items():
            assert row.cellular_du == cellular[continent]
            assert row.total_du == total[continent]
            assert row.subscribers_m == subscribers[continent]
            assert row.global_cellular_du == sum(cellular.values())
        # The edges are really exercised: CN, ZZ and the unobserved
        # subnets carry demand, and the restriction removes some.
        assert total[Continent.ASIA] < sum(
            r.du for r in edge_demand if r.country in ("JP", "IN", "CN")
        )
        if restrict is not None:
            assert rows[Continent.ASIA].cellular_du < rows[Continent.ASIA].total_du

    @pytest.mark.parametrize("restrict", RESTRICTIONS)
    def test_subnets_by_continent(self, edge_classification, geography, restrict):
        census = subnets_by_continent(
            edge_classification, geography, restrict_to_asns=restrict
        )
        expected = reference_subnet_census(edge_classification, geography, restrict)
        assert list(census) == list(Continent)
        for continent, row in census.items():
            assert [
                row.cellular_slash24,
                row.cellular_slash48,
                row.active_slash24,
                row.active_slash48,
            ] == expected[continent]
