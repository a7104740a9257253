"""Benchmark: JSONL ingestion throughput under corruption.

Measures ``BeaconDataset.load`` at 0%, 1%, and 10% corrupt-line rates
(skip policy) plus a raw no-policy parse loop as the baseline, to show
the policy layer costs little on the clean path and degrades
gracefully -- not catastrophically -- on dirty data.
"""

from __future__ import annotations

import io
import time

import pytest

from repro.datasets.beacon_dataset import BeaconDataset, SubnetBeaconCounts
from repro.runtime.policies import IngestPolicy

SUBNETS = 50_000


def _dump_text(corrupt_rate: float) -> "tuple[str, int]":
    """A BEACON dump with ``corrupt_rate`` of record lines mangled."""
    corrupt_every = int(1 / corrupt_rate) if corrupt_rate else 0
    lines = ['{"month":"2016-12","browsers":{}}']
    corrupted = 0
    for index in range(1, SUBNETS + 1):
        if corrupt_every and index % corrupt_every == 0:
            lines.append(f'{{"subnet":"corrupt-{index}"')
            corrupted += 1
        else:
            mid, low = divmod(index, 250)
            hi, mid = divmod(mid, 250)
            lines.append(
                f'{{"subnet":"{hi + 1}.{mid}.{low}.0/24",'
                f'"asn":{index % 97 + 1},'
                f'"country":"US","hits":9,"api":4,"cell":2}}'
            )
    return "\n".join(lines) + "\n", corrupted


def _timed_load(load, label: str, lines: int):
    """Run ``load`` once and print its lines/s; return its result."""
    started = time.perf_counter()
    result = load()
    seconds = time.perf_counter() - started
    print(f"\n{label}: {lines:,} lines in {seconds * 1000:.0f} ms "
          f"({lines / seconds:,.0f} lines/s)")
    return result


@pytest.mark.parametrize("corrupt_rate", [0.0, 0.01, 0.10],
                         ids=["clean", "1pct", "10pct"])
def test_ingestion_throughput_with_policy(corrupt_rate):
    text, corrupted = _dump_text(corrupt_rate)

    def load():
        policy = IngestPolicy.skip()
        dataset = BeaconDataset.load(io.StringIO(text), policy=policy)
        return dataset, policy

    dataset, policy = _timed_load(
        load, f"skip policy @ {100 * corrupt_rate:g}% corrupt", SUBNETS
    )
    assert len(dataset) == SUBNETS - corrupted
    assert policy.stats.rejected_lines == corrupted


def test_ingestion_throughput_raw_baseline():
    """The pre-policy load loop: parse + merge, zero error handling.

    This replicates what ``BeaconDataset.load`` did before the policy
    layer existed.  Compare against the ``clean`` case above to read
    off the policy layer's overhead on the clean path (target: <10%).
    """
    import json

    text, _ = _dump_text(0.0)

    def load():
        stream = io.StringIO(text)
        header = json.loads(stream.readline())
        dataset = BeaconDataset(month=header["month"])
        for line in stream:
            line = line.strip()
            if line:
                dataset.add_counts(SubnetBeaconCounts.from_json(line))
        return dataset

    dataset = _timed_load(load, "raw baseline (no policy)", SUBNETS)
    assert len(dataset) == SUBNETS
