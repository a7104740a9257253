"""Benchmark: the resource plane costs < 5% on the hot path.

The resource observability plane is continuous by design -- a
:class:`ResourceSampler` polling ``/proc`` once a second and (when the
operator asks) a :class:`SamplingProfiler` walking every thread's
stack at ~100Hz.  Both are daemon threads that never touch the hot
path directly, so their steady-state tax on the fused ingest+classify
kernels (batch build -> ``spot_batch`` -> group-accumulate, the
columnar core's tentpole workload) must be negligible.

The overhead arm times the workload with *both* threads live at
aggressive rates (sampler at 20Hz -- 20x the production default --
profiler at the default 100Hz); the plain arm times the identical
workload with neither.  Rounds are interleaved plain/resourced so
clock drift and CPU frequency changes land on both arms, and each arm
is best-of-``ROUNDS`` to suppress scheduler noise -- the same protocol
as bench_obs_overhead.py, whose 5% ceiling this plane inherits.

The second pin is the reason the plane exists: a streamed ~1M-event
run through :class:`StreamEngine` must hold **flat RSS** -- windows
close, state resets, nothing accumulates.  The sampler's own peak-RSS
watermarks are the measurement instrument, so this doubles as an
end-to-end proof that the watermarks say something true.
"""

from __future__ import annotations

import random
import time

from repro.columnar import ops
from repro.columnar.backend import active_backend_name
from repro.columnar.batch import BeaconBatch
from repro.obs.metrics import reset_global_registry
from repro.obs.resources import ResourceSampler, read_statm
from repro.obs.sampler import SamplingProfiler
from repro.stream import StreamEngine, WindowPolicy

import pytest

#: Maximum tolerated (resourced / plain) wall-clock ratio.
OVERHEAD_CEILING = 1.05
#: Rounds per arm; the minimum is compared.
ROUNDS = 5
#: Rows per fused ingest+classify round.
N_ROWS = 131_072
#: Events streamed for the flat-RSS proof.
STREAM_EVENTS = 1_000_000
#: RSS drift allowed between the warm baseline and the end of the
#: streamed run.  Generous against allocator jitter, tight against a
#: real per-event leak (even 64 bytes/event would blow it 8x over).
RSS_DRIFT_CEILING = 48 * 1024 * 1024


def _synthetic_rows(n: int):
    """Census-shaped beacon rows (mixed v4/v6, duplicates, skew)."""
    rng = random.Random(20170831)
    rows, keys = [], []
    for i in range(n):
        if keys and rng.random() < 0.3:
            family, value, length = keys[rng.randrange(len(keys))]
        else:
            if rng.random() < 0.25:
                family, length = 6, 48
                value = rng.randrange(0, 2 ** 128) & ~((1 << 80) - 1)
            else:
                family, length = 4, 24
                value = rng.randrange(0, 2 ** 32) & ~0xFF
            keys.append((family, value, length))
        api = rng.randrange(0, 40)
        rows.append(
            (
                i, family, value, length, rng.randrange(1, 70000), "US",
                api + rng.randrange(0, 15), api, rng.randrange(0, api + 1),
            )
        )
    return rows


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def test_sampler_and_profiler_overhead():
    backend = active_backend_name()
    rows = _synthetic_rows(N_ROWS)

    def workload():
        batch = BeaconBatch.from_rows(rows, backend)
        spot, _partial = ops.spot_batch(batch, 3, 0.5)
        ops.group_accumulate_beacons(spot.batch)

    reset_global_registry()
    workload()  # warm caches/imports outside the timed region
    plain = resourced = float("inf")
    try:
        for _ in range(ROUNDS):
            plain = min(plain, _timed(workload))
            sampler = ResourceSampler()
            profiler = SamplingProfiler()
            sampler.install()
            sampler.start(interval_s=0.05)
            assert profiler.start(), "profiler slot must be free"
            try:
                resourced = min(resourced, _timed(workload))
            finally:
                profiler.stop()
                sampler.stop()
                sampler.uninstall()
            assert profiler.wakeups > 0, "profiler never sampled"
            assert sampler.samples_taken > 0, "sampler never sampled"
    finally:
        reset_global_registry()
    ratio = resourced / plain if plain > 0 else 1.0
    print(
        f"\nfused ingest+classify[{backend}]: resourced "
        f"{resourced * 1000:.1f} ms vs plain {plain * 1000:.1f} ms "
        f"({ratio:.3f}x)"
    )
    assert ratio < OVERHEAD_CEILING


@pytest.mark.skipif(
    read_statm("/proc/self/statm") is None, reason="needs /proc RSS"
)
def test_streamed_million_events_hold_flat_rss(beacon_hits):
    """~1M events through the stream engine must not grow RSS.

    The same ~32k-hit batch is replayed through one engine until a
    million events have been ingested; windows close and reset along
    the way, so the working set is bounded by construction.  RSS is
    read through the ResourceSampler itself -- the drift pin and the
    watermark plumbing verify each other.
    """
    reset_global_registry()
    sampler = ResourceSampler()
    engine = StreamEngine(policy=WindowPolicy(window_events=8192))
    passes = max(1, STREAM_EVENTS // len(beacon_hits))
    try:
        engine.ingest_many(beacon_hits)  # warm pass: allocator settles
        baseline = sampler.sample_once()["rss_bytes"]
        peak = baseline
        for _ in range(passes):
            engine.ingest_many(beacon_hits)
            peak = max(peak, sampler.sample_once()["rss_bytes"])
        final = sampler.sample_once()["rss_bytes"]
    finally:
        reset_global_registry()
    events = len(beacon_hits) * (passes + 1)
    drift = final - baseline
    print(
        f"\nstream {events:,} events: rss {baseline / 2**20:.1f} -> "
        f"{final / 2**20:.1f} MiB (peak {peak / 2**20:.1f} MiB, "
        f"drift {drift / 2**20:+.1f} MiB, ceiling "
        f"{RSS_DRIFT_CEILING / 2**20:.0f} MiB)"
    )
    assert events >= STREAM_EVENTS
    assert drift < RSS_DRIFT_CEILING
