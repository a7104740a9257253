"""Unit tests for AS-level identification and the filtering rules."""

from dataclasses import replace

import pytest

from repro.core.asn_classifier import (
    ASFilterConfig,
    ExclusionReason,
    aggregate_candidates,
    identify_cellular_ases,
)
from repro.core.classifier import SubnetClassifier
from repro.core.ratios import RatioRecord, RatioTable
from repro.datasets.beacon_dataset import BeaconDataset, SubnetBeaconCounts
from repro.datasets.caida import ASClassificationDataset
from repro.datasets.demand_dataset import DemandDataset
from repro.net.asn import CAIDAClass
from repro.net.prefix import Prefix


def p(text):
    return Prefix.parse(text)


def build_inputs():
    """Three ASes: a real carrier, a low-demand stray, a proxy.

    AS 1 (carrier):   2 cellular subnets, high demand, many hits.
    AS 2 (stray):     1 cellular-looking subnet, negligible demand.
    AS 3 (proxy):     cellular-looking, high demand, but Content class.
    AS 4 (fixed ISP): no cellular subnets -> never a candidate.
    """
    beacons = BeaconDataset("2016-12")
    rows = [
        ("10.0.0.0/24", 1, 500, 100, 95),
        ("10.0.1.0/24", 1, 500, 100, 90),
        ("10.0.2.0/24", 1, 500, 100, 2),   # carrier's fixed-side subnet
        ("20.0.0.0/24", 2, 50, 10, 8),
        ("30.0.0.0/24", 3, 800, 200, 150),
        ("40.0.0.0/24", 4, 900, 100, 1),
    ]
    for subnet, asn, hits, api, cell in rows:
        beacons.add_counts(
            SubnetBeaconCounts(p(subnet), asn, "US", hits, api, cell)
        )
    demand = DemandDataset.from_request_totals(
        [
            (p("10.0.0.0/24"), 1, "US", 3_000_000),
            (p("10.0.1.0/24"), 1, "US", 2_000_000),
            (p("10.0.2.0/24"), 1, "US", 1_000_000),
            (p("10.0.9.0/24"), 1, "US", 500_000),  # demand-only (proxy-like)
            (p("20.0.0.0/24"), 2, "US", 5),        # ~0.05 DU -> rule 1
            (p("30.0.0.0/24"), 3, "US", 2_000_000),
            (p("40.0.0.0/24"), 4, "US", 1_500_000),
        ]
    )
    ratios = RatioTable.from_beacons(beacons)
    classification = SubnetClassifier(0.5).classify(ratios)
    classes = ASClassificationDataset(
        {
            1: CAIDAClass.TRANSIT_ACCESS,
            2: CAIDAClass.TRANSIT_ACCESS,
            3: CAIDAClass.CONTENT,
            4: CAIDAClass.TRANSIT_ACCESS,
        }
    )
    return classification, demand, beacons, classes


class TestAggregation:
    def test_candidates_are_ases_with_cellular_subnets(self):
        classification, demand, beacons, _ = build_inputs()
        candidates = aggregate_candidates(classification, demand, beacons)
        assert set(candidates) == {1, 2, 3}

    def test_carrier_aggregates(self):
        classification, demand, beacons, _ = build_inputs()
        carrier = aggregate_candidates(classification, demand, beacons)[1]
        assert len(carrier.cellular_subnets) == 2
        assert carrier.total_subnets == 3  # observed beacon subnets
        assert carrier.beacon_hits == 1500
        # Cellular demand counts only detected cellular subnets.
        assert carrier.cellular_du == pytest.approx(
            demand.du_of(p("10.0.0.0/24")) + demand.du_of(p("10.0.1.0/24"))
        )
        # Total demand includes demand-only subnets (10.0.9.0).
        expected_total = sum(
            demand.du_of(p(f"10.0.{i}.0/24")) for i in (0, 1, 2, 9)
        )
        assert carrier.total_du == pytest.approx(expected_total)

    def test_fractions(self):
        classification, demand, beacons, _ = build_inputs()
        carrier = aggregate_candidates(classification, demand, beacons)[1]
        assert 0 < carrier.cellular_fraction_of_demand < 1
        assert carrier.cellular_subnet_fraction == pytest.approx(2 / 3)

    def test_empty_classification(self):
        classification, demand, beacons, _ = build_inputs()
        classification = replace(classification, labels={
            subnet: False for subnet in classification.labels
        })
        assert aggregate_candidates(classification, demand, beacons) == {}


class TestFiltering:
    def test_rules_fire_in_order(self):
        classification, demand, beacons, classes = build_inputs()
        result = identify_cellular_ases(
            classification, demand, beacons,
            classes, ASFilterConfig(min_beacon_hits=100),
        )
        assert set(result.accepted) == {1}
        assert result.excluded[2] is ExclusionReason.LOW_CELLULAR_DEMAND
        assert result.excluded[3] is ExclusionReason.NON_ACCESS_CLASS

    def test_rule2_hits(self):
        classification, demand, beacons, classes = build_inputs()
        result = identify_cellular_ases(
            classification, demand, beacons,
            classes, ASFilterConfig(min_cellular_du=0.0, min_beacon_hits=100),
        )
        # With rule 1 disabled, the stray falls to rule 2 instead.
        assert result.excluded[2] is ExclusionReason.LOW_BEACON_HITS

    def test_rule3_optional(self):
        classification, demand, beacons, classes = build_inputs()
        result = identify_cellular_ases(
            classification, demand, beacons, classes,
            ASFilterConfig(min_beacon_hits=100, require_access_class=False),
        )
        assert 3 in result.accepted

    def test_no_classes_dataset_skips_rule3(self):
        classification, demand, beacons, _ = build_inputs()
        result = identify_cellular_ases(
            classification, demand, beacons, None,
            ASFilterConfig(min_beacon_hits=100),
        )
        assert 3 in result.accepted

    def test_filter_summary_accounting(self):
        classification, demand, beacons, classes = build_inputs()
        result = identify_cellular_ases(
            classification, demand, beacons,
            classes, ASFilterConfig(min_beacon_hits=100),
        )
        rows = result.filter_summary()
        assert len(rows) == 3
        assert rows[-1][2] == result.accepted_count
        total_filtered = sum(filtered for _, filtered, _ in rows)
        assert total_filtered == len(result.excluded)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ASFilterConfig(min_cellular_du=-1)
        with pytest.raises(ValueError):
            ASFilterConfig(min_beacon_hits=-1)
