"""Tests for the RUM beacon generator.

The key contract: the fast aggregated path (``summarize``) and the
hit-level path (``iter_hits``) realize the same probability model.
"""

import pytest

from repro.cdn.beacon import BeaconConfig, BeaconGenerator
from repro.datasets.beacon_dataset import BeaconDataset
from repro.world.build import WorldParams, build_world


@pytest.fixture(scope="module")
def small_world():
    return build_world(WorldParams(seed=11, scale=0.002, background_as_count=200))


@pytest.fixture(scope="module")
def generator(small_world):
    return BeaconGenerator(
        small_world, BeaconConfig(demand_hits=150_000, base_hits=20)
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BeaconConfig(demand_hits=-1)
        with pytest.raises(ValueError):
            BeaconConfig(base_hits=-0.1)


class TestVolumeModel:
    def test_no_coverage_no_hits(self, small_world, generator):
        covered = [s for s in small_world.subnets() if s.beacon_coverage == 0]
        assert covered
        for subnet in covered[:20]:
            assert generator.mean_hits(subnet) == 0.0

    def test_demand_increases_hits(self, small_world, generator):
        subnets = sorted(
            (s for s in small_world.subnets() if s.beacon_coverage >= 1.0),
            key=lambda s: s.demand_weight,
        )
        assert generator.mean_hits(subnets[-1]) > generator.mean_hits(subnets[0])


class TestSummarize:
    def test_counts_consistent(self, generator):
        dataset = generator.summarize()
        assert len(dataset) > 0
        for counts in dataset:
            assert 0 <= counts.cellular_hits <= counts.api_hits <= counts.hits

    def test_proxy_subnets_absent(self, small_world, generator):
        dataset = generator.summarize()
        for subnet in small_world.subnets():
            if subnet.proxy_like:
                assert dataset.get(subnet.prefix) is None

    def test_browser_counters_match_totals(self, generator):
        dataset = generator.summarize()
        hits = sum(h for h, _ in dataset.browser_counts.values())
        assert hits == dataset.total_hits
        api = sum(a for _, a in dataset.browser_counts.values())
        assert api == dataset.total_api_hits

    def test_deterministic(self, small_world):
        config = BeaconConfig(demand_hits=50_000, base_hits=10)
        a = BeaconGenerator(small_world, config).summarize()
        b = BeaconGenerator(small_world, config).summarize()
        assert len(a) == len(b)
        for counts in a:
            other = b.get(counts.subnet)
            assert other is not None
            assert (counts.hits, counts.api_hits, counts.cellular_hits) == (
                other.hits, other.api_hits, other.cellular_hits,
            )


class TestHitLevelPath:
    def test_hits_carry_valid_addresses(self, small_world):
        generator = BeaconGenerator(
            small_world, BeaconConfig(demand_hits=5_000, base_hits=1)
        )
        seen = 0
        for hit in generator.iter_hits():
            assert hit.subnet.contains_address(hit.family, hit.address)
            seen += 1
            if seen > 500:
                break
        assert seen > 100

    def test_agrees_with_summarize_statistically(self, small_world):
        config = BeaconConfig(demand_hits=150_000, base_hits=20)
        summarized = BeaconGenerator(small_world, config).summarize()
        generator = BeaconGenerator(small_world, config)
        from_hits = BeaconDataset.from_hits(
            config.month, generator.iter_hits()
        )
        # Same volume model, independent randomness: totals within 5%.
        assert from_hits.total_hits == pytest.approx(
            summarized.total_hits, rel=0.05
        )
        assert from_hits.api_share() == pytest.approx(
            summarized.api_share(), rel=0.15
        )
        # Cellular label mass agrees too.
        cell_a = sum(c.cellular_hits for c in summarized)
        cell_b = sum(c.cellular_hits for c in from_hits)
        assert cell_b == pytest.approx(cell_a, rel=0.1)


class TestAPIShare:
    def test_api_share_near_model(self, small_world):
        config = BeaconConfig(demand_hits=150_000, base_hits=20)
        dataset = BeaconGenerator(small_world, config).summarize()
        # Generated share tracks the population model's analytic value
        # (the exact value depends on the cellular hit weight).
        assert 0.08 <= dataset.api_share() <= 0.20
