"""Integration: hit-level JSONL ingestion feeds the pipeline.

A real deployment streams raw beacon hits; this test writes hit-level
JSONL, streams it back, folds it into a BEACON dataset, and checks the
result matches folding the generator's hits directly.
"""

import io

import pytest

from repro.cdn.beacon import BeaconConfig, BeaconGenerator
from repro.cdn.logs import BeaconHit, read_jsonl, write_jsonl
from repro.datasets.beacon_dataset import BeaconDataset
from repro.world.build import WorldParams, build_world


@pytest.fixture(scope="module")
def generator():
    world = build_world(WorldParams(seed=17, scale=0.0015,
                                    background_as_count=100))
    return BeaconGenerator(world, BeaconConfig(demand_hits=40_000, base_hits=6))


class TestHitIngestion:
    def test_jsonl_stream_matches_direct_aggregation(self, generator):
        buffer = io.StringIO()
        count = write_jsonl(generator.iter_hits(), buffer)
        assert count > 1_000

        buffer.seek(0)
        streamed = BeaconDataset.from_hits(
            "2016-12", read_jsonl(buffer, BeaconHit)
        )
        direct = BeaconDataset.from_hits("2016-12", generator.iter_hits())
        # The JSONL round trip loses nothing: same subnets in the same
        # first-seen order, same counts and metadata, same browsers.
        assert list(streamed) == list(direct)
        assert list(streamed.browser_counts.items()) == list(
            direct.browser_counts.items()
        )
        assert streamed.total_hits == count

    def test_wrong_month_rejected(self, generator):
        hits = list(generator.iter_hits())
        with pytest.raises(ValueError):
            BeaconDataset.from_hits("2015-01", hits[:10])

    def test_streamed_dataset_classifies(self, generator):
        from repro.core.classifier import SubnetClassifier
        from repro.core.ratios import RatioTable

        dataset = BeaconDataset.from_hits("2016-12", generator.iter_hits())
        table = RatioTable.from_beacons(dataset)
        result = SubnetClassifier().classify(table)
        assert result.cellular_count(4) > 0
