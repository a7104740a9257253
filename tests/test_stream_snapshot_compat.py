"""Stream snapshots written by earlier engines stay loadable, byte for byte.

``tests/golden/stream/`` holds format-version-1 snapshots written by
an earlier engine after 600 events of :func:`compat_events` (window of
250 events, so two windows closed and a 100-event open window): one
tumbling, one decayed by 0.5.  Today's engine must load each, write it
back unchanged, write the same bytes itself from the same events, and
resume from it to the same table as an uninterrupted drain.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.cdn.logs import BeaconHit
from repro.cdn.netinfo import ConnectionType
from repro.net.prefix import Prefix
from repro.stream import StreamEngine, WindowPolicy, skip_events
from repro.world.population import Browser

GOLDEN = Path(__file__).parent / "golden" / "stream"
SNAPSHOT_EVENTS = 600
TOTAL_EVENTS = 1000
CASES = [("tumbling", 1.0), ("decay-0.5", 0.5)]


def compat_events(count: int):
    """Seeded, conflict-free hits over 24 /24s and 8 /48s."""
    rng = random.Random(2017)
    subnets = [
        (Prefix.make(4, 0x0A000000 + (i << 8), 24), 64500 + i % 5, "DE")
        for i in range(24)
    ] + [
        (Prefix.make(6, (0x20010DB8 << 96) + (i << 80), 48), 64600 + i % 3, "JP")
        for i in range(8)
    ]
    browsers = list(Browser)
    for _ in range(count):
        subnet, asn, country = rng.choice(subnets)
        api = rng.random() < 0.6
        conn = None
        if api:
            conn = (
                ConnectionType.CELLULAR if rng.random() < 0.5
                else ConnectionType.WIFI
            )
        yield BeaconHit(
            month="2017-01", family=subnet.family,
            address=subnet.nth_address(1), subnet=subnet, asn=asn,
            country=country, browser=rng.choice(browsers),
            api_enabled=api, connection_type=conn,
        )


def _policy(decay: float) -> WindowPolicy:
    return WindowPolicy(window_events=250, decay=decay)


def _dumps(engine: StreamEngine) -> str:
    return json.dumps(engine.to_snapshot(), separators=(",", ":"))


@pytest.mark.parametrize("name,decay", CASES)
def test_golden_snapshot_loads_and_writes_back_unchanged(name, decay):
    path = GOLDEN / f"snapshot-{name}.json"
    engine = StreamEngine.load_snapshot(path)
    assert engine.policy == _policy(decay)
    assert engine.state.window_fill == 100 and engine.windows_advanced == 2
    assert _dumps(engine) == path.read_text()


@pytest.mark.parametrize("name,decay", CASES)
def test_same_events_write_the_golden_bytes(name, decay):
    engine = StreamEngine(policy=_policy(decay))
    engine.ingest_many(compat_events(SNAPSHOT_EVENTS))
    assert _dumps(engine) == (GOLDEN / f"snapshot-{name}.json").read_text()


@pytest.mark.parametrize("name,decay", CASES)
def test_resume_from_golden_equals_fresh_drain(name, decay):
    fresh = StreamEngine(policy=_policy(decay))
    fresh.ingest_many(compat_events(TOTAL_EVENTS))
    resumed = StreamEngine.load_snapshot(GOLDEN / f"snapshot-{name}.json")
    resumed.ingest_many(
        skip_events(compat_events(TOTAL_EVENTS), resumed.events_consumed)
    )
    assert resumed.events_consumed == TOTAL_EVENTS
    assert resumed.ratio_table() == fresh.ratio_table()
    assert resumed.hits_by_asn() == fresh.hits_by_asn()
    assert _dumps(resumed) == _dumps(fresh)
