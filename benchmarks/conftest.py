"""Fixtures for the perf gates.

One lab (world + datasets + pipeline output) is shared across every
gate, so a gate times its own workload, not world generation.  Each
gate asserts its own floor or ceiling and prints what it measured
(run with ``-s`` to see it); end-to-end numbers with a committed
baseline come from ``perfbench/``.
"""

from __future__ import annotations

import pytest

from repro.lab import Lab

LAB_SCALE = 0.005
LAB_SEED = 1


@pytest.fixture(scope="session")
def lab() -> Lab:
    instance = Lab.create(scale=LAB_SCALE, seed=LAB_SEED)
    # Materialize every cached stage up front so gates time their
    # workload, not generation.
    instance.result
    instance.affinity
    instance.carriers
    return instance


@pytest.fixture(scope="session")
def beacon_hits():
    """~32k per-hit beacon events (the stream/ingest bench workload)."""
    from repro.cdn.beacon import BeaconConfig, BeaconGenerator
    from repro.world.build import WorldParams, build_world

    world = build_world(
        WorldParams(seed=3, scale=0.002, background_as_count=400)
    )
    config = BeaconConfig(month="2017-01", demand_hits=6000, base_hits=2.0)
    return list(BeaconGenerator(world, config).iter_hits())
