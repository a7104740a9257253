"""Generating in world-order chunks gives the serial bytes.

:func:`repro.parallel.chunks.map_chunks` runs the first chunk of the
BEACON, DEMAND and resolver-affinity loops in process and the others in
forked children.  Every split, a child that dies and a process that may
use one CPU must all give the digests pinned in
``tests/test_generation_digests.py``, and no call may leave a child
behind.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cdn.beacon
import repro.cdn.demand
import repro.dns.affinity
from repro.cdn.beacon import BeaconGenerator
from repro.cdn.demand import DemandGenerator
from repro.datasets.demand_dataset import DemandDataset
from repro.dns.affinity import build_affinity
from repro.lab import Lab
from repro.parallel import chunks as chunking
from tests.test_generation_digests import (
    EXPECTED,
    affinity_digest,
    beacon_digest,
    demand_digest,
)

ROOT = Path(__file__).resolve().parent.parent
GENERATOR_MODULES = (repro.cdn.beacon, repro.cdn.demand, repro.dns.affinity)


def split_into(monkeypatch, chunks):
    """Make every generator split its loop into ``chunks`` chunks."""
    monkeypatch.setattr(chunking, "available_cpus", lambda: chunks)
    monkeypatch.setattr(chunking, "MIN_CHUNK_ITEMS", 1)


@pytest.fixture(
    scope="module",
    params=sorted(EXPECTED),
    ids=lambda key: f"scale{key[0]}-seed{key[1]}",
)
def world_lab(request):
    """(key, lab, the serial ``browser_counts`` key order)."""
    scale, seed = request.param
    lab = Lab.create(scale=scale, seed=seed)
    lab.demand  # the affinity input
    with pytest.MonkeyPatch.context() as patch:
        split_into(patch, 1)
        beacons = BeaconGenerator(lab.world, lab.beacon_config).summarize()
    return request.param, lab, list(beacons.browser_counts)


def generate(lab):
    """(beacon, demand, affinity) digests and the browser key order."""
    beacons = BeaconGenerator(lab.world, lab.beacon_config).summarize()
    demand = DemandDataset.from_request_totals(
        DemandGenerator(lab.world, lab.demand_config).request_totals(),
        window_days=lab.demand_config.days,
    )
    affinity = build_affinity(lab.world, lab.demand)
    digests = (beacon_digest(beacons), demand_digest(demand), affinity_digest(affinity))
    return digests, list(beacons.browser_counts)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Counts the forks made in this process."""
    made = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return made


@pytest.mark.parametrize("chunks", [1, 2, 3])
def test_every_split_gives_the_serial_bytes(world_lab, chunks, monkeypatch, forks):
    key, lab, serial_browsers = world_lab
    split_into(monkeypatch, chunks)
    digests, browsers = generate(lab)
    assert_no_children()
    assert digests == EXPECTED[key]
    assert browsers == serial_browsers
    # Three generators, each forking a child per chunk after the first.
    assert len(forks) == 3 * (chunks - 1)


def test_mix_first_use_crosses_chunks(world_lab, monkeypatch):
    # In process, so a split fine enough that some chunks use one mix
    # only costs no forks: the browser counters keep first-use order.
    key, lab, _ = world_lab
    split_into(monkeypatch, 500)
    monkeypatch.setattr(
        repro.cdn.beacon,
        "map_chunks",
        lambda compute, count: [compute(*b) for b in chunking.chunk_bounds(count)],
    )
    beacons = BeaconGenerator(lab.world, lab.beacon_config).summarize()
    assert beacon_digest(beacons) == EXPECTED[key][0]


def _chunks_run_by(monkeypatch, fail):
    """Make every generator's chunks run ``fail`` in a forked child;
    returns the ``(start, stop)`` of each chunk computed in process."""
    parent = os.getpid()
    here = []
    real_map = chunking.map_chunks

    def map_chunks(compute, count):
        def compute_or_fail(start, stop):
            if os.getpid() != parent:
                fail()
            here.append((start, stop))
            return compute(start, stop)

        return real_map(compute_or_fail, count)

    for module in GENERATOR_MODULES:
        monkeypatch.setattr(module, "map_chunks", map_chunks)
    return here


def test_a_failed_child_is_recomputed_in_process(world_lab, monkeypatch, forks):
    key, lab, _ = world_lab
    split_into(monkeypatch, 2)
    here = _chunks_run_by(monkeypatch, lambda: os._exit(1))
    digests, _ = generate(lab)
    assert_no_children()
    assert digests == EXPECTED[key]
    assert len(forks) == 3
    # Each generator ran both of its chunks here: its own and the dead child's.
    assert len(here) == 6


def test_a_failing_parent_chunk_stops_its_children(world_lab, monkeypatch):
    _, lab, _ = world_lab
    split_into(monkeypatch, 3)
    real_chunk = BeaconGenerator._summarize_chunk

    def fail_first(self, mixes, start, stop):
        if start == 0:
            raise RuntimeError("chunk failed")
        return real_chunk(self, mixes, start, stop)

    monkeypatch.setattr(BeaconGenerator, "_summarize_chunk", fail_first)
    with pytest.raises(RuntimeError, match="chunk failed"):
        BeaconGenerator(lab.world, lab.beacon_config).summarize()
    assert_no_children()


ONE_CPU = """
import json, os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

def no_fork():
    raise AssertionError("forked with one CPU")

os.fork = no_fork
from repro.lab import Lab
from tests.test_generation_split import generate

lab = Lab.create(scale=float(sys.argv[1]), seed=int(sys.argv[2]))
print(json.dumps(generate(lab)[0]))
"""


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity"
)
def test_one_cpu_generates_in_process(world_lab):
    (scale, seed), _, _ = world_lab
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    completed = subprocess.run(
        [sys.executable, "-c", ONE_CPU, str(scale), str(seed)],
        capture_output=True, text=True, timeout=300, env=env, cwd=ROOT,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert tuple(json.loads(completed.stdout)) == EXPECTED[(scale, seed)]


class TestChunkBounds:
    @pytest.mark.parametrize("count, chunks", [(0, 1), (1, 3), (10, 3), (10, 10), (7, 2)])
    def test_tiles_the_range_in_order(self, count, chunks, monkeypatch):
        split_into(monkeypatch, chunks)
        bounds = chunking.chunk_bounds(count)
        assert bounds[0][0] == 0 and bounds[-1][1] == count
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        assert len(bounds) == max(1, min(chunks, count))

    def test_one_chunk_per_cpu_above_the_floor(self, monkeypatch):
        monkeypatch.setattr(chunking, "available_cpus", lambda: 4)
        floor = chunking.MIN_CHUNK_ITEMS
        assert len(chunking.chunk_bounds(floor - 1)) == 1
        assert len(chunking.chunk_bounds(2 * floor)) == 2
        assert len(chunking.chunk_bounds(100 * floor)) == 4
