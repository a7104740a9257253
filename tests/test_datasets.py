"""Unit tests for dataset containers: BEACON, DEMAND, ground truth, CAIDA."""

import io

import pytest

from repro.cdn.logs import BeaconHit
from repro.cdn.netinfo import ConnectionType
from repro.datasets.beacon_dataset import BeaconDataset, SubnetBeaconCounts
from repro.datasets.caida import ASClassificationDataset
from repro.datasets.demand_dataset import (
    DEMAND_UNIT_TOTAL,
    DemandDataset,
    du_to_fraction,
    fraction_to_du,
)
from repro.datasets.groundtruth import carrier_archetypes, ground_truth_for_asn
from repro.net.asn import CAIDAClass
from repro.net.prefix import Prefix
from repro.world.population import Browser


def counts(subnet="10.0.0.0/24", hits=10, api=5, cell=3, asn=1, country="US"):
    return SubnetBeaconCounts(Prefix.parse(subnet), asn, country, hits, api, cell)


class TestSubnetBeaconCounts:
    def test_ratio(self):
        assert counts().cellular_ratio == pytest.approx(0.6)
        assert counts(api=0, cell=0).cellular_ratio is None

    def test_noncellular(self):
        assert counts().noncellular_hits == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            counts(hits=1, api=5)
        with pytest.raises(ValueError):
            counts(api=2, cell=3)

    def test_json_round_trip(self):
        original = counts()
        restored = SubnetBeaconCounts.from_json(original.to_json())
        assert restored.subnet == original.subnet
        assert restored.cellular_hits == original.cellular_hits


class TestBeaconDataset:
    def test_add_and_merge(self):
        dataset = BeaconDataset("2016-12")
        dataset.add_counts(counts())
        dataset.add_counts(counts(hits=4, api=2, cell=2))
        merged = dataset.get(Prefix.parse("10.0.0.0/24"))
        assert merged.hits == 14
        assert merged.cellular_hits == 5

    def test_merge_conflicting_metadata_rejected(self):
        dataset = BeaconDataset("2016-12")
        dataset.add_counts(counts(asn=1))
        with pytest.raises(ValueError):
            dataset.add_counts(counts(asn=2))

    def test_observe_hit(self):
        dataset = BeaconDataset("2016-12")
        dataset.observe_hit(Prefix.parse("10.0.0.0/24"), 1, "US",
                            Browser.CHROME_MOBILE, True, True)
        dataset.observe_hit(Prefix.parse("10.0.0.0/24"), 1, "US",
                            Browser.SAFARI_IOS, False, False)
        entry = dataset.get(Prefix.parse("10.0.0.0/24"))
        assert (entry.hits, entry.api_hits, entry.cellular_hits) == (2, 1, 1)
        assert dataset.browser_counts[Browser.CHROME_MOBILE] == (1, 1)
        assert dataset.browser_counts[Browser.SAFARI_IOS] == (1, 0)

    def test_observe_hit_rejects_impossible(self):
        dataset = BeaconDataset("2016-12")
        with pytest.raises(ValueError):
            dataset.observe_hit(Prefix.parse("10.0.0.0/24"), 1, "US",
                                Browser.CHROME_MOBILE, False, True)

    def test_observe_hit_refusal_leaves_no_trace(self):
        dataset = BeaconDataset("2016-12")
        with pytest.raises(ValueError, match="cellular label without API"):
            dataset.observe_hit(Prefix.parse("10.0.0.0/24"), 1, "US",
                                Browser.CHROME_MOBILE, False, True)
        assert len(dataset) == 0 and dataset.browser_counts == {}

    def test_from_hits_pins_first_seen_order_metadata_and_browsers(self):
        def hit(subnet, asn, country, browser, conn=None):
            prefix = Prefix.parse(subnet)
            return BeaconHit(
                month="2016-12", family=prefix.family,
                address=prefix.nth_address(1), subnet=prefix, asn=asn,
                country=country, browser=browser,
                api_enabled=conn is not None, connection_type=conn,
            )

        cell, wifi = ConnectionType.CELLULAR, ConnectionType.WIFI
        dataset = BeaconDataset.from_hits("2016-12", [
            hit("10.0.1.0/24", 7, "DE", Browser.SAFARI_IOS),
            hit("2001:db8::/48", 9, "JP", Browser.CHROME_MOBILE, cell),
            hit("10.0.0.0/24", 8, "US", Browser.CHROME_MOBILE, wifi),
            # Later metadata for a known subnet counts toward the first.
            hit("10.0.1.0/24", 99, "FR", Browser.CHROME_DESKTOP, cell),
        ])
        assert [str(c.subnet) for c in dataset] == [
            "10.0.1.0/24", "2001:db8::/48", "10.0.0.0/24",
        ]
        first = dataset.get(Prefix.parse("10.0.1.0/24"))
        assert (first.asn, first.country) == (7, "DE")
        assert (first.hits, first.api_hits, first.cellular_hits) == (2, 1, 1)
        assert list(dataset.browser_counts.items()) == [
            (Browser.SAFARI_IOS, (1, 0)),
            (Browser.CHROME_MOBILE, (2, 2)),
            (Browser.CHROME_DESKTOP, (1, 1)),
        ]

    def test_hits_by_asn(self):
        dataset = BeaconDataset("2016-12")
        dataset.add_counts(counts(asn=1))
        dataset.add_counts(counts(subnet="10.0.1.0/24", asn=1))
        dataset.add_counts(counts(subnet="10.0.2.0/24", asn=2))
        assert dataset.hits_by_asn() == {1: 20, 2: 10}

    def test_family_filter(self):
        dataset = BeaconDataset("2016-12")
        dataset.add_counts(counts())
        dataset.add_counts(counts(subnet="2001:db8::/48"))
        assert len(dataset.subnets(4)) == 1
        assert len(dataset.subnets(6)) == 1

    def test_dump_load_round_trip(self):
        dataset = BeaconDataset("2016-12")
        dataset.add_counts(counts())
        dataset.observe_browser_batch(Browser.CHROME_MOBILE, 100, 40)
        buffer = io.StringIO()
        dataset.dump(buffer)
        buffer.seek(0)
        restored = BeaconDataset.load(buffer)
        assert restored.month == "2016-12"
        assert restored.browser_counts[Browser.CHROME_MOBILE] == (100, 40)
        assert restored.get(Prefix.parse("10.0.0.0/24")).hits == 10

    def test_load_rejects_missing_header(self):
        with pytest.raises(ValueError):
            BeaconDataset.load(io.StringIO(""))


class TestDemandDataset:
    def test_from_request_totals_normalizes(self):
        dataset = DemandDataset.from_request_totals(
            [
                (Prefix.parse("10.0.0.0/24"), 1, "US", 300),
                (Prefix.parse("10.0.1.0/24"), 2, "DE", 100),
            ]
        )
        assert dataset.total_du == pytest.approx(DEMAND_UNIT_TOTAL)
        assert dataset.du_of(Prefix.parse("10.0.0.0/24")) == pytest.approx(75_000)

    def test_zero_request_subnets_dropped(self):
        dataset = DemandDataset.from_request_totals(
            [
                (Prefix.parse("10.0.0.0/24"), 1, "US", 10),
                (Prefix.parse("10.0.1.0/24"), 1, "US", 0),
            ]
        )
        assert len(dataset) == 1

    def test_rejections(self):
        with pytest.raises(ValueError):
            DemandDataset.from_request_totals([])
        with pytest.raises(ValueError):
            DemandDataset.from_request_totals(
                [(Prefix.parse("10.0.0.0/24"), 1, "US", -5)]
            )
        with pytest.raises(ValueError):
            DemandDataset(window_days=0)

    def test_du_conversions(self):
        assert fraction_to_du(0.01) == pytest.approx(1000)  # 1% = 1000 DU
        assert du_to_fraction(1000) == pytest.approx(0.01)

    def test_dump_load_round_trip(self):
        dataset = DemandDataset.from_request_totals(
            [(Prefix.parse("10.0.0.0/24"), 1, "US", 10)], window_days=7
        )
        buffer = io.StringIO()
        dataset.dump(buffer)
        buffer.seek(0)
        restored = DemandDataset.load(buffer)
        assert restored.window_days == 7
        assert restored.du_of(Prefix.parse("10.0.0.0/24")) == pytest.approx(
            DEMAND_UNIT_TOTAL
        )


class TestGroundTruth:
    def test_archetypes(self, world):
        carriers = carrier_archetypes(world)
        assert set(carriers) == {"Carrier A", "Carrier B", "Carrier C"}
        assert carriers["Carrier A"].mixed
        assert not carriers["Carrier B"].mixed
        assert carriers["Carrier B"].country == "US"
        assert carriers["Carrier C"].mixed

    def test_labels_match_world_truth(self, world):
        truth = carrier_archetypes(world)["Carrier A"]
        for prefix in truth.cellular[:50]:
            assert world.truth_is_cellular(prefix) is True
        for prefix in truth.fixed[:50]:
            assert world.truth_is_cellular(prefix) is False

    def test_truth_trie(self, world):
        truth = carrier_archetypes(world)["Carrier B"]
        trie = truth.truth_trie(4)
        cellular_v4 = [p for p in truth.cellular if p.family == 4]
        assert len(trie) == len(cellular_v4) + len(
            [p for p in truth.fixed if p.family == 4]
        )
        if cellular_v4:
            assert trie.get(cellular_v4[0]) is True

    def test_ground_truth_for_unknown_asn(self, world):
        with pytest.raises(KeyError):
            ground_truth_for_asn(world, 999_999_999)


class TestCAIDA:
    def test_cellular_never_misclassified(self, world):
        dataset = ASClassificationDataset.from_world(world)
        for asn in world.truth_cellular_asns():
            assert dataset.is_access(asn)

    def test_unknown_rate_applied(self, world):
        dataset = ASClassificationDataset.from_world(world, unknown_rate=0.5)
        non_cellular = [
            record.asn
            for record in world.topology.registry
            if not record.is_cellular
        ]
        missing = sum(1 for asn in non_cellular if asn not in dataset)
        assert missing / len(non_cellular) == pytest.approx(0.5, abs=0.1)

    def test_unlisted_is_unknown(self, world):
        dataset = ASClassificationDataset.from_world(world)
        assert dataset.class_of(999_999_999) is CAIDAClass.UNKNOWN
        assert not dataset.is_access(999_999_999)

    def test_rate_validation(self, world):
        with pytest.raises(ValueError):
            ASClassificationDataset.from_world(world, unknown_rate=1.0)
