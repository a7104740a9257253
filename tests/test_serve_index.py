"""The LPM query engine: lookups, query parsing, AS enrichment."""

from __future__ import annotations

import pytest

from repro.core.confidence import Verdict
from repro.core.ratios import RatioRecord, RatioTable
from repro.net.addr import parse_ip
from repro.net.prefix import Prefix
from repro.serve.index import ClassificationIndex


def _table() -> RatioTable:
    return RatioTable(
        [
            RatioRecord(
                subnet=Prefix.parse("10.1.2.0/24"), asn=100, country="DE",
                api_hits=80, cellular_hits=76, hits=120,
            ),
            RatioRecord(
                subnet=Prefix.parse("10.1.3.0/24"), asn=100, country="DE",
                api_hits=50, cellular_hits=2, hits=90,
            ),
            RatioRecord(
                subnet=Prefix.parse("2001:db8:1::/48"), asn=200, country="JP",
                api_hits=40, cellular_hits=30, hits=60,
            ),
        ]
    )


@pytest.fixture()
def index() -> ClassificationIndex:
    return ClassificationIndex.build(_table())


class TestLookups:
    def test_address_longest_prefix_match(self, index):
        family, address = parse_ip("10.1.2.77")
        entry = index.lookup_address(family, address)
        assert str(entry.subnet) == "10.1.2.0/24"
        assert entry.cellular is True
        assert entry.ratio == pytest.approx(76 / 80)

    def test_ipv6_lookup(self, index):
        family, address = parse_ip("2001:db8:1::42")
        entry = index.lookup_address(family, address)
        assert str(entry.subnet) == "2001:db8:1::/48"
        assert entry.asn == 200

    def test_unknown_address_is_a_miss(self, index):
        family, address = parse_ip("192.0.2.1")
        assert index.lookup_address(family, address) is None

    def test_prefix_query_uses_covering_entry(self, index):
        entry = index.lookup_prefix(Prefix.parse("10.1.2.128/25"))
        assert str(entry.subnet) == "10.1.2.0/24"

    def test_prefix_query_not_answered_by_fragment(self, index):
        # /16 is only partially covered by stored /24s: no answer.
        assert index.lookup_prefix(Prefix.parse("10.1.0.0/16")) is None

    def test_len_counts_entries(self, index):
        assert len(index) == 3


class TestTextQueries:
    def test_address_query(self, index):
        result = index.query("10.1.3.9")
        assert result.matched and result.error is None
        assert result.entry.cellular is False

    def test_cidr_query(self, index):
        result = index.query("10.1.2.0/24")
        assert result.matched
        assert result.entry.confidence in set(Verdict)

    def test_malformed_query_reports_error(self, index):
        result = index.query("not-an-address")
        assert not result.matched
        assert result.error

    def test_empty_query(self, index):
        assert index.query("   ").error == "empty query"

    def test_batch_preserves_order(self, index):
        answers = index.batch(["10.1.2.1", "garbage", "10.1.3.1"])
        assert [a.matched for a in answers] == [True, False, True]

    def test_to_dict_carries_the_paper_facts(self, index):
        payload = index.query("10.1.2.1").to_dict()
        assert payload["ok"] and payload["matched"]
        assert payload["subnet"] == "10.1.2.0/24"
        assert payload["asn"] == 100
        assert payload["cellular"] is True
        assert payload["confidence"] == "cellular"
        low, high = payload["interval"]
        assert 0 <= low <= payload["ratio"] <= high <= 1

    def test_to_dict_for_error(self, index):
        payload = index.query("zzz").to_dict()
        assert payload["ok"] is False and "error" in payload


class TestEnrichment:
    """With demand + AS context, entries carry the paper's AS verdicts."""

    @pytest.fixture(scope="class")
    def rich_index(self, tiny_world, beacon_hits):
        from repro.cdn.demand import DemandGenerator
        from repro.datasets.caida import ASClassificationDataset
        from repro.stream import StreamEngine, WindowPolicy

        engine = StreamEngine(policy=WindowPolicy(window_events=4096))
        engine.ingest_many(beacon_hits)
        demand = DemandGenerator(tiny_world).build_dataset()
        return ClassificationIndex.build(
            engine.ratio_table(),
            demand=demand,
            as_classes=ASClassificationDataset.from_world(tiny_world),
            hits_by_asn=engine.hits_by_asn(),
        )

    def test_some_entries_carry_as_verdicts(self, rich_index):
        verdicts = {
            entry.as_verdict
            for entry in rich_index.entries()
            if entry.as_verdict is not None
        }
        assert verdicts, "AS pipeline attached no verdicts at all"
        assert verdicts <= {
            "dedicated", "mixed",
            "excluded:rule1_low_cellular_demand",
            "excluded:rule2_low_beacon_hits",
            "excluded:rule3_non_access_class",
        }

    def test_demand_share_serialized(self, rich_index):
        for entry in rich_index.entries():
            if entry.demand_du:
                payload = rich_index.query(str(entry.subnet)).to_dict()
                assert payload["demand_du"] > 0
                assert 0 < payload["demand_share"] < 1
                return
        pytest.fail("no entry carried demand")
