"""Unit tests for cellular ratio computation."""

import pytest

from repro.core.ratios import RatioRecord, RatioTable
from repro.datasets.beacon_dataset import BeaconDataset, SubnetBeaconCounts
from repro.datasets.demand_dataset import DemandDataset
from repro.net.prefix import Prefix
from tests import row_oracle as oracle


def record(subnet="10.0.0.0/24", api=10, cell=5, asn=1, country="US", hits=None):
    return RatioRecord(
        subnet=Prefix.parse(subnet),
        asn=asn,
        country=country,
        api_hits=api,
        cellular_hits=cell,
        hits=hits if hits is not None else api * 2,
    )


def dataset_with(*counts):
    beacons = BeaconDataset("2016-12")
    for entry in counts:
        beacons.add_counts(entry)
    return beacons


class TestRatioRecord:
    def test_ratio(self):
        assert record(api=4, cell=1).ratio == 0.25

    def test_family(self):
        assert record().family == 4
        assert record(subnet="2001:db8::/48").family == 6


class TestRatioTable:
    def test_from_beacons(self):
        beacons = dataset_with(
            SubnetBeaconCounts(Prefix.parse("10.0.0.0/24"), 1, "US", 20, 10, 9),
            SubnetBeaconCounts(Prefix.parse("10.0.1.0/24"), 1, "US", 20, 0, 0),
        )
        table = RatioTable.from_beacons(beacons)
        # Subnets without API hits cannot have a ratio and are dropped.
        assert len(table) == 1
        assert table.get(Prefix.parse("10.0.0.0/24")).ratio == 0.9

    def test_min_api_hits_filter(self):
        beacons = dataset_with(
            SubnetBeaconCounts(Prefix.parse("10.0.0.0/24"), 1, "US", 20, 3, 3),
            SubnetBeaconCounts(Prefix.parse("10.0.1.0/24"), 1, "US", 20, 10, 0),
        )
        table = RatioTable.from_beacons(beacons, min_api_hits=5)
        assert len(table) == 1
        with pytest.raises(ValueError):
            RatioTable.from_beacons(beacons, min_api_hits=0)

    def test_rejects_zero_api_records(self):
        with pytest.raises(ValueError):
            RatioTable([record(api=0, cell=0)])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            RatioTable([record(), record()])

    def test_family_views(self):
        table = RatioTable([record(), record(subnet="2001:db8::/48")])
        assert len(table.records(4)) == 1
        assert len(table.records(6)) == 1
        assert len(table.records()) == 2


class TestDistributions:
    def test_ratio_cdf(self):
        table = RatioTable(
            [
                record("10.0.0.0/24", api=10, cell=0),
                record("10.0.1.0/24", api=10, cell=10),
            ]
        )
        cdf = table.ratio_cdf(4)
        assert cdf.evaluate(0.0) == 0.5
        assert cdf.evaluate(1.0) == 1.0
        with pytest.raises(ValueError):
            table.ratio_cdf(6)

    def test_demand_weighted_cdf(self):
        table = RatioTable(
            [
                record("10.0.0.0/24", api=10, cell=0),
                record("10.0.1.0/24", api=10, cell=10),
            ]
        )
        demand = DemandDataset.from_request_totals(
            [
                (Prefix.parse("10.0.0.0/24"), 1, "US", 900),
                (Prefix.parse("10.0.1.0/24"), 1, "US", 100),
            ]
        )
        cdf = table.demand_weighted_cdf(4, demand)
        assert cdf.evaluate(0.0) == pytest.approx(0.9)

    def test_bucket_fractions(self):
        table = RatioTable(
            [
                record("10.0.0.0/24", api=100, cell=1),   # low
                record("10.0.1.0/24", api=100, cell=50),  # intermediate
                record("10.0.2.0/24", api=100, cell=99),  # high
                record("10.0.3.0/24", api=100, cell=0),   # low
            ]
        )
        buckets = table.bucket_fractions(4)
        assert buckets["low"] == 0.5
        assert buckets["intermediate"] == 0.25
        assert buckets["high"] == 0.25
        assert sum(buckets.values()) == pytest.approx(1.0)

    def test_bucket_validation(self):
        table = RatioTable([record()])
        with pytest.raises(ValueError):
            table.bucket_fractions(4, low=0.9, high=0.1)
        with pytest.raises(ValueError, match="no IPv6 ratio records"):
            table.bucket_fractions(6)

    def test_bucket_fractions_over_records_in_hand(self):
        # The table's column split must equal the per-record loop over
        # one family's records (tests/row_oracle.py), weights and all.
        rows = [
            record("10.0.0.0/24", api=7, cell=1),
            record("2001:db8::/48", api=9, cell=9),
            record("10.0.1.0/24", api=13, cell=6),
            record("10.0.2.0/24", api=11, cell=11),
            record("10.0.3.0/24", api=5, cell=0),
        ]
        table = RatioTable(rows)
        demand = DemandDataset.from_request_totals(
            [
                (Prefix.parse("10.0.0.0/24"), 1, "US", 37),
                (Prefix.parse("10.0.1.0/24"), 1, "US", 101),
                (Prefix.parse("10.0.2.0/24"), 1, "US", 13),
                (Prefix.parse("2001:db8::/48"), 1, "US", 7),
            ]
        )
        for family in (4, 6):
            records = table.records(family)
            for weights in (None, demand):
                assert oracle.bucket_fractions(records, demand=weights) == (
                    table.bucket_fractions(family, demand=weights)
                )
