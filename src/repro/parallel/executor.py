"""Shard execution: forked workers when they help, in-process when not.

A :class:`ShardPlan` resolves the user's ``--workers`` request against
the hardware: multiprocessing only pays off when there are actual
cores to run on, so the plan clamps the worker count to the CPUs this
process may use (``sched_getaffinity`` under cgroup limits).  On a
one-core box ``--workers 4`` therefore degrades to the deterministic
in-process path instead of paying fork-and-pickle overhead for
nothing -- "as fast as the hardware allows" cuts both ways.

Both execution modes run the *same* shard functions over the *same*
partitions and collect results in submission order, which is why the
differential suite can assert serial ≡ in-process-sharded ≡
process-sharded for any worker and shard count.  Tests force processes
with ``force_processes=True`` so the fork path is exercised even on
single-core CI runners.

**Recompute, never retry.**  The processes come from
:func:`repro.parallel.chunks.fork_map`: the shards are tiled into one
contiguous group per worker, this process runs the first group and a
forked child each other one.  Shards are pure functions of their
rows, so a group whose child fails is simply recomputed here, and a
shard that fails here too raises its own exception -- an explicit
refusal, never a silently wrong answer.  ``shard_retries_total``
counts the shards recomputed, and the default alert set watches its
rate (``shard-retry-storm``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.obs.metrics import BATCH_STAGE_BUCKETS, MeterCache, instrument
from repro.obs.trace import get_tracer
from repro.parallel.chunks import available_cpus, fork_map, split_bounds
from repro.runtime.faults import fault_point

_A = TypeVar("_A")
_R = TypeVar("_R")

#: Executor telemetry (``repro.obs``), recorded parent-side per shard.
#: Queue wait relies on ``time.perf_counter`` being ``CLOCK_MONOTONIC``
#: on Linux -- the same clock across local processes -- so a child's
#: start reading minus the parent's submit reading is real delay.
_EXEC_METER = MeterCache(
    lambda: (
        instrument(
            "histogram", "shard_wall_seconds",
            "per-shard compute time measured inside the worker",
            bounds=BATCH_STAGE_BUCKETS,
        ),
        instrument(
            "histogram", "shard_queue_wait_seconds",
            "delay between shard submission and worker start",
        ),
        instrument(
            "counter", "shards_executed_total",
            "shard function invocations (all executor modes)",
        ),
        instrument(
            "counter", "shard_retries_total",
            "shards recomputed in the parent after their worker failed",
        ),
        instrument(
            "labeled_gauge", "rss_peak_bytes",
            "peak resident set observed per pipeline stage",
            label="stage",
        ),
    )
)


@dataclass(frozen=True)
class ShardPlan:
    """Resolved execution shape for one sharded stage."""

    #: What the caller asked for (kept for logs and manifests).
    requested_workers: int
    #: Workers the executor will actually use (clamped to hardware).
    workers: int
    #: Number of prefix-hash partitions.
    shards: int
    #: Bypass the hardware clamp (tests exercising the fork path).
    force_processes: bool = False

    @classmethod
    def plan(
        cls,
        workers: int = 1,
        shards: Optional[int] = None,
        force_processes: bool = False,
    ) -> "ShardPlan":
        """Resolve a worker request into an executable plan.

        ``shards`` defaults to the requested worker count so ``--workers
        N`` shards the keyspace N ways; pass it explicitly to decouple
        partition count from parallelism (any combination must produce
        identical results -- the differential suite checks exactly
        that).
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        effective = workers if force_processes else min(workers, available_cpus())
        resolved_shards = shards if shards is not None else effective
        if resolved_shards < 1:
            raise ValueError("shards must be >= 1")
        return cls(
            requested_workers=workers,
            workers=effective,
            shards=resolved_shards,
            force_processes=force_processes,
        )

    @property
    def is_serial(self) -> bool:
        """True when the plan degenerates to the plain serial pipeline."""
        return self.shards == 1 and self.workers == 1


def _worker_rss_bytes() -> float:
    """The calling process's RSS right now (worker-side measurement)."""
    from repro.obs.resources import read_statm, rusage_snapshot

    statm = read_statm("/proc/self/statm")
    if statm is not None:
        return float(statm[0])
    return float(rusage_snapshot()["maxrss_bytes"])


def _timed_call(
    args: Tuple[Callable[[_A], _R], _A, int]
) -> Tuple[float, float, float, _R]:
    """Run one shard function: (started, elapsed, rss_bytes, result).

    The elapsed time is measured *inside* the worker, so per-shard
    timings reflect shard compute, not waiting.  ``started`` is the
    worker's ``perf_counter`` reading at invocation -- on Linux that
    clock is ``CLOCK_MONOTONIC``, shared across local processes, so the
    parent can subtract its own submit reading to get queue wait and
    place the shard on the run's trace timeline.  ``rss_bytes`` is the
    worker's resident size right after the shard returns -- a child
    cannot write the parent's registry, so the parent folds it into
    the ``rss_peak_bytes{stage=shard.<fn>}`` watermark for it.  The
    shard index feeds the ``executor.shard`` injection point (a no-op
    without a fault plan).
    """
    fn, arg, index = args
    fault_point("executor.shard", index=index)
    started = time.perf_counter()
    result = fn(arg)
    elapsed = time.perf_counter() - started
    return started, elapsed, _worker_rss_bytes(), result


class ShardExecutor:
    """Maps a shard function over partitions under a :class:`ShardPlan`.

    Results always come back in shard order regardless of completion
    order -- merges must never depend on scheduling.

    Every mapped shard is observed (``repro.obs``): wall time and
    queue wait land in the parent's global registry, and each shard
    becomes a child span of whatever span is active at ``map`` time --
    children cannot record into the parent's telemetry themselves, so
    the executor does it for them from the returned timings.
    """

    def __init__(self, plan: ShardPlan) -> None:
        self.plan = plan

    def map(
        self, fn: Callable[[_A], _R], shard_args: Sequence[_A]
    ) -> List[Tuple[float, _R]]:
        """Run ``fn`` over every shard argument; ordered (secs, result)s.

        The shards are tiled into one contiguous group per worker; with
        one group (a serial plan or a single shard) nothing forks.  A
        child pickles back its results, never ``fn`` or its arguments.
        """
        jobs = [(fn, arg, index) for index, arg in enumerate(shard_args)]

        def run(bounds: Tuple[int, int]):
            return [_timed_call(job) for job in jobs[slice(*bounds)]]

        def recompute(bounds: Tuple[int, int]):
            _EXEC_METER.resolve()[3].inc(bounds[1] - bounds[0])
            return run(bounds)

        groups = split_bounds(len(jobs), min(self.plan.workers, len(jobs)))
        submitted = time.perf_counter()
        raw = [
            call for group in fork_map(run, groups, recompute) for call in group
        ]
        self._observe(fn, raw, submitted)
        return [
            (elapsed, result)
            for _started, elapsed, _rss, result in raw
        ]

    def _observe(
        self,
        fn: Callable,
        raw: Sequence[Tuple[float, float, float, _R]],
        submitted: float,
    ) -> None:
        """Record shard metrics + spans from worker-side timings."""
        wall, queue_wait, executed, _retries, watermarks = _EXEC_METER.resolve()
        tracer = get_tracer()
        fn_name = getattr(fn, "__name__", str(fn))
        stage = f"shard.{fn_name.lstrip('_')}"
        for index, (started, elapsed, rss_bytes, _result) in enumerate(raw):
            executed.inc()
            wall.observe(elapsed)
            queue_wait.observe(max(0.0, started - submitted))
            if rss_bytes > 0:
                watermarks.set_max(stage, rss_bytes)
            tracer.add_span(
                stage,
                started,
                elapsed,
                shard=index,
                workers=self.plan.workers,
            )
