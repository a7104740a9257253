"""Unit tests for the threshold subnet classifier."""

import dataclasses

import pytest

from repro.core.classifier import ClassificationResult, SubnetClassifier
from repro.core.ratios import RatioRecord, RatioTable
from repro.net.prefix import Prefix


def record(subnet, api, cell, asn=1, country="US"):
    return RatioRecord(Prefix.parse(subnet), asn, country, api, cell, api)


def table(*records):
    return RatioTable(records)


class TestSubnetClassifier:
    def test_threshold_is_inclusive(self):
        classifier = SubnetClassifier(threshold=0.5)
        assert classifier.is_cellular(record("10.0.0.0/24", 10, 5))
        assert not classifier.is_cellular(record("10.0.1.0/24", 10, 4))

    def test_min_api_hits_gate(self):
        classifier = SubnetClassifier(threshold=0.5, min_api_hits=5)
        assert not classifier.is_cellular(record("10.0.0.0/24", 4, 4))
        assert classifier.is_cellular(record("10.0.0.0/24", 5, 5))

    def test_validation(self):
        with pytest.raises(ValueError):
            SubnetClassifier(threshold=0.0)
        with pytest.raises(ValueError):
            SubnetClassifier(threshold=1.5)
        with pytest.raises(ValueError):
            SubnetClassifier(min_api_hits=0)

    def test_classify_table(self):
        result = SubnetClassifier(0.5).classify(
            table(
                record("10.0.0.0/24", 10, 9),
                record("10.0.1.0/24", 10, 1),
            )
        )
        assert result.is_cellular(Prefix.parse("10.0.0.0/24"))
        assert not result.is_cellular(Prefix.parse("10.0.1.0/24"))
        assert len(result) == 2

    def test_result_keeps_the_input_table(self):
        ratios = table(record("10.0.0.0/24", 10, 9))
        result = SubnetClassifier(0.5).classify(ratios)
        assert result.table is ratios
        assert list(result.records.values()) == list(ratios)


class TestClassificationResult:
    @pytest.fixture()
    def result(self):
        return SubnetClassifier(0.5).classify(
            table(
                record("10.0.0.0/24", 10, 9, asn=1),
                record("10.0.1.0/24", 10, 8, asn=1),
                record("10.0.2.0/24", 10, 0, asn=2),
                record("2001:db8::/48", 10, 10, asn=3),
            )
        )

    def test_unobserved_defaults_fixed(self, result):
        assert not result.is_cellular(Prefix.parse("99.0.0.0/24"))

    def test_cellular_subnets_by_family(self, result):
        assert len(result.cellular_subnets(4)) == 2
        assert len(result.cellular_subnets(6)) == 1
        assert len(result.cellular_subnets()) == 3
        assert result.cellular_count(4) == 2

    def test_cellular_set(self, result):
        assert Prefix.parse("10.0.0.0/24") in result.cellular_set()
        assert Prefix.parse("10.0.2.0/24") not in result.cellular_set()

    def test_fraction_of_active(self, result):
        assert result.cellular_fraction_of_active(4) == pytest.approx(2 / 3)
        assert result.cellular_fraction_of_active(6) == 1.0

    def test_fraction_requires_observations(self):
        empty = ClassificationResult(threshold=0.5, labels={}, records={})
        with pytest.raises(ValueError):
            empty.cellular_fraction_of_active(4)

    def test_asns_with_cellular(self, result):
        assert result.asns_with_cellular() == {1: 2, 3: 1}

    def test_replace_rebuilds_the_label_column(self, result):
        flipped = {subnet: not label for subnet, label in result.labels.items()}
        changed = dataclasses.replace(result, labels=flipped)
        assert changed.label_column.tolist() == [int(v) for v in flipped.values()]
        assert result.label_column.tolist() == [1, 1, 0, 1]
        assert list(changed.table) == list(result.table)

    def test_fields_cannot_be_assigned(self, result):
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.labels = {}
