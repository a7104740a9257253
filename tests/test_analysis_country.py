"""Unit tests for country-level analyses (Figures 11 and 12)."""

import pytest

from repro.analysis.continent import DEFAULT_DEMAND_EXCLUSIONS
from repro.analysis.country import (
    country_demand_stats,
    frontier_countries,
    top_countries_by_continent,
    top_country_share,
)
from repro.core.classifier import SubnetClassifier
from repro.core.ratios import RatioRecord, RatioTable
from repro.datasets.demand_dataset import DemandDataset
from repro.net.prefix import Prefix
from repro.world.geo import Continent, default_geography


def p(text):
    return Prefix.parse(text)


@pytest.fixture()
def setup():
    table = RatioTable(
        [
            RatioRecord(p("10.0.0.0/24"), 1, "US", 10, 10, 10),
            RatioRecord(p("10.0.1.0/24"), 1, "US", 10, 0, 10),
            RatioRecord(p("10.0.2.0/24"), 2, "GH", 10, 10, 10),
            RatioRecord(p("10.0.3.0/24"), 3, "FR", 10, 0, 10),
        ]
    )
    classification = SubnetClassifier(0.5).classify(table)
    demand = DemandDataset.from_request_totals(
        [
            (p("10.0.0.0/24"), 1, "US", 600),
            (p("10.0.1.0/24"), 1, "US", 300),
            (p("10.0.2.0/24"), 2, "GH", 50),
            (p("10.0.3.0/24"), 3, "FR", 50),
        ]
    )
    return classification, demand, default_geography()


class TestCountryStats:
    def test_fractions(self, setup):
        classification, demand, geography = setup
        stats = country_demand_stats(classification, demand, geography)
        assert stats["US"].cellular_fraction == pytest.approx(2 / 3)
        assert stats["GH"].cellular_fraction == 1.0
        assert stats["FR"].cellular_fraction == 0.0
        shares = sum(row.global_cellular_share for row in stats.values())
        assert shares == pytest.approx(1.0)

    def test_top_country_share(self, setup):
        classification, demand, geography = setup
        stats = country_demand_stats(classification, demand, geography)
        assert top_country_share(stats, 1) == pytest.approx(60_000 / 65_000)
        assert top_country_share(stats, 10) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            top_country_share(stats, 0)

    def test_top_by_continent(self, setup):
        classification, demand, geography = setup
        stats = country_demand_stats(classification, demand, geography)
        grouped = top_countries_by_continent(stats, count=3)
        assert grouped[Continent.NORTH_AMERICA][0].iso2 == "US"
        assert grouped[Continent.AFRICA][0].iso2 == "GH"
        with pytest.raises(ValueError):
            top_countries_by_continent(stats, count=0)

    def test_frontier(self, setup):
        classification, demand, geography = setup
        stats = country_demand_stats(classification, demand, geography)
        frontier = frontier_countries(stats, min_fraction=0.9, min_share=0.5)
        iso = {row.iso2 for row in frontier}
        assert iso == {"US", "GH"}  # US by share, GH by fraction
        # Sorted by global cellular share descending.
        assert frontier[0].iso2 == "US"

    def test_restriction(self, setup):
        classification, demand, geography = setup
        stats = country_demand_stats(
            classification, demand, geography, restrict_to_asns={2}
        )
        assert stats["US"].cellular_du == 0.0
        assert stats["GH"].cellular_du > 0


class TestAgainstReferenceLoop:
    """Exact floats against a plain per-record loop, on every edge: an
    excluded country (CN), a country outside the geography (ZZ),
    unobserved subnets, and a restriction leaving out a cellular AS."""

    @pytest.fixture()
    def edges(self):
        table = RatioTable(
            [
                RatioRecord(p("10.1.0.0/24"), 1, "US", 10, 10, 10),
                RatioRecord(p("10.1.1.0/24"), 1, "US", 10, 0, 10),
                RatioRecord(p("10.1.2.0/24"), 3, "US", 10, 9, 10),
                RatioRecord(p("10.1.3.0/24"), 2, "GH", 10, 10, 10),
                RatioRecord(p("2001:db8:1::/48"), 4, "JP", 10, 10, 10),
                RatioRecord(p("10.1.4.0/24"), 9, "CN", 10, 10, 10),
                RatioRecord(p("10.1.5.0/24"), 6, "ZZ", 10, 10, 10),
            ]
        )
        demand = DemandDataset.from_request_totals(
            [
                (p("10.1.0.0/24"), 1, "US", 517),
                (p("10.1.1.0/24"), 1, "US", 389),
                (p("10.1.2.0/24"), 3, "US", 73),
                (p("10.1.3.0/24"), 2, "GH", 51),
                (p("2001:db8:1::/48"), 4, "JP", 31),
                (p("10.1.4.0/24"), 9, "CN", 23),
                (p("10.1.5.0/24"), 6, "ZZ", 19),
                (p("10.1.6.0/24"), 1, "US", 211),
                (p("10.1.7.0/24"), 5, "FR", 37),
            ]
        )
        return SubnetClassifier(0.5).classify(table), demand, default_geography()

    @staticmethod
    def reference(classification, demand, geography, restrict):
        cellular, total = {}, {}
        for record in demand:
            if record.country in DEFAULT_DEMAND_EXCLUSIONS:
                continue
            if geography.find(record.country) is None:
                continue
            total[record.country] = total.get(record.country, 0.0) + record.du
            if not classification.is_cellular(record.subnet):
                continue
            if restrict is not None and record.asn not in restrict:
                continue
            cellular[record.country] = (
                cellular.get(record.country, 0.0) + record.du
            )
        return cellular, total

    @pytest.mark.parametrize("restrict", [None, frozenset({1, 2, 4, 5, 6, 9})])
    def test_country_demand_stats(self, edges, restrict):
        classification, demand, geography = edges
        stats = country_demand_stats(
            classification, demand, geography, restrict_to_asns=restrict
        )
        cellular, total = self.reference(
            classification, demand, geography, restrict
        )
        assert list(stats) == list(total) == ["US", "GH", "JP", "FR"]
        for iso2, row in stats.items():
            assert row.total_du == total[iso2]
            assert row.cellular_du == cellular.get(iso2, 0.0)
            assert row.global_cellular_du == sum(cellular.values())
            assert row.continent is geography.get(iso2).continent
