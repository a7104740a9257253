"""Shard execution: process pool when it helps, in-process when not.

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
process-pool-sharded for any worker and shard count.  Tests force the
pool with ``force_processes=True`` so the pickle path is exercised
even on single-core CI runners.

**Self-healing.**  The pool path no longer dies with its workers.
Each shard is submitted individually and tracked:

* a shard that raises a retryable error (``TransientError``,
  ``OSError``, an injected fault) is resubmitted with bounded
  exponential backoff, up to ``max_retries`` attempts per shard;
* ``BrokenProcessPool`` (a SIGKILL'd or OOM'd worker) rebuilds the
  pool and resubmits *only the incomplete shards* -- safe because the
  parent restores dataset order by index and shard functions are pure;
* ``shard_timeout_s`` bounds each shard's submission-to-completion
  wall clock; a hung worker is reclaimed by rebuilding the pool and
  the timed-out shard retried against its budget;
* ``hedge=True`` duplicate-submits stragglers (shards running far
  past the completed median); the first result wins, and purity makes
  either copy's answer identical.

Recovery is observable: ``shard_retries_total``,
``shard_timeouts_total``, ``shard_pool_rebuilds_total`` and
``shard_hedges_total`` land on the global registry, and the default
alert set watches the retry rate (``shard-retry-storm``).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.obs.metrics import BATCH_STAGE_BUCKETS, MeterCache, instrument
from repro.obs.trace import get_tracer
from repro.runtime.faults import (
    InjectedFault,
    active_plan,
    fault_point,
    pool_initializer,
)
from repro.runtime.guard import TransientError

_A = TypeVar("_A")
_R = TypeVar("_R")

#: Exceptions a shard attempt may be retried on.  Anything else is a
#: deterministic bug: retrying it would burn the budget to reproduce
#: the same traceback, so it propagates unchanged on first sight.
RETRYABLE = (TransientError, InjectedFault, OSError)

#: Extra pool rebuilds tolerated beyond the per-shard retry budget --
#: a crash dooms every pending future without naming its culprit, so
#: rebuilds carry their own bound instead of charging innocent shards.
_EXTRA_REBUILDS = 2

#: Poll tick for the completion loop (also the timeout-check cadence).
_WAIT_TICK_S = 0.05

#: Executor telemetry (``repro.obs``), recorded parent-side per shard.
#: Queue wait relies on ``time.perf_counter`` being ``CLOCK_MONOTONIC``
#: on Linux -- the same clock across local processes -- so a child's
#: start reading minus the parent's submit reading is real pool delay.
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
            "shard attempts resubmitted after a failure or timeout",
        ),
        instrument(
            "counter", "shard_timeouts_total",
            "shards that exceeded their wall-clock budget",
        ),
        instrument(
            "counter", "shard_pool_rebuilds_total",
            "process pools rebuilt after a broken/hung worker",
        ),
        instrument(
            "counter", "shard_hedges_total",
            "straggler shards duplicate-submitted (hedging)",
        ),
        instrument(
            "labeled_gauge", "rss_peak_bytes",
            "peak resident set observed per pipeline stage",
            label="stage",
        ),
    )
)


class ShardExecutionError(RuntimeError):
    """A shard could not be completed within its retry/rebuild budget."""


def available_cpus() -> int:
    """CPUs this process may actually schedule on."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # non-Linux fallback
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class ShardPlan:
    """Resolved execution shape for one sharded stage."""

    #: What the caller asked for (kept for logs and manifests).
    requested_workers: int
    #: Workers the executor will actually use (clamped to hardware).
    workers: int
    #: Number of prefix-hash partitions.
    shards: int
    #: Bypass the hardware clamp (tests exercising the pickle path).
    force_processes: bool = False
    #: Per-shard submission-to-completion budget (None = unbounded).
    shard_timeout_s: Optional[float] = None
    #: Retry budget per shard (failures and timeouts each count one).
    max_retries: int = 2
    #: Duplicate-submit stragglers; first result wins.
    hedge: bool = False
    #: Base of the exponential retry backoff (0.05, 0.1, 0.2, ...).
    backoff_s: float = 0.05

    @classmethod
    def plan(
        cls,
        workers: int = 1,
        shards: Optional[int] = None,
        force_processes: bool = False,
        shard_timeout_s: Optional[float] = None,
        max_retries: int = 2,
        hedge: bool = False,
        backoff_s: float = 0.05,
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
        if shard_timeout_s is not None and shard_timeout_s <= 0:
            raise ValueError("shard_timeout_s must be > 0")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        effective = workers if force_processes else min(workers, available_cpus())
        resolved_shards = shards if shards is not None else effective
        if resolved_shards < 1:
            raise ValueError("shards must be >= 1")
        return cls(
            requested_workers=workers,
            workers=effective,
            shards=resolved_shards,
            force_processes=force_processes,
            shard_timeout_s=shard_timeout_s,
            max_retries=max_retries,
            hedge=hedge,
            backoff_s=backoff_s,
        )

    @property
    def is_serial(self) -> bool:
        """True when the plan degenerates to the plain serial pipeline."""
        return self.shards == 1 and self.workers == 1

    @property
    def use_processes(self) -> bool:
        return self.workers > 1


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

    Module-level so it pickles into pool workers; the elapsed time is
    measured *inside* the worker, so per-shard timings reflect shard
    compute, not queueing.  ``started`` is the worker's
    ``perf_counter`` reading at invocation -- on Linux that clock is
    ``CLOCK_MONOTONIC``, shared across local processes, so the parent
    can subtract its own submit reading to get queue wait and place
    the shard on the run's trace timeline.  ``rss_bytes`` is the
    worker's resident size right after the shard returns -- pool
    workers cannot write the parent's registry, so the parent folds it
    into the ``rss_peak_bytes{stage=shard.<fn>}`` watermark for them.
    The shard index feeds the ``executor.shard`` injection point (a
    no-op without a fault plan).
    """
    fn, arg, index = args
    fault_point("executor.shard", index=index)
    started = time.perf_counter()
    result = fn(arg)
    elapsed = time.perf_counter() - started
    return started, elapsed, _worker_rss_bytes(), result


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down hard: cancel queued work, kill live workers.

    A hung worker ignores ``shutdown`` forever; killing the processes
    is the only way to reclaim its slot, and shard purity makes the
    lost work resubmittable.
    """
    # Read the workers first: shutdown() drops the pool's reference to
    # them, and a hung worker would then outlive the pool.
    processes = list((getattr(pool, "_processes", None) or {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except TypeError:  # pragma: no cover -- cancel_futures needs py3.9+
        pool.shutdown(wait=False)
    for process in processes:
        try:
            process.kill()
        except Exception:  # noqa: BLE001 -- already-dead workers
            pass


class ShardExecutor:
    """Maps a shard function over partitions under a :class:`ShardPlan`.

    Results always come back in shard order regardless of completion
    order -- merges must never depend on scheduling.

    Every mapped shard is observed (``repro.obs``): wall time and
    queue wait land in the parent's global registry, and each shard
    becomes a child span of whatever span is active at ``map`` time --
    pool workers cannot record into the parent's telemetry themselves,
    so the executor does it for them from the returned timings.
    """

    def __init__(self, plan: ShardPlan) -> None:
        self.plan = plan

    def map(
        self, fn: Callable[[_A], _R], shard_args: Sequence[_A]
    ) -> List[Tuple[float, _R]]:
        """Run ``fn`` over every shard argument; ordered (secs, result)s.

        ``fn`` must be a module-level callable and its arguments and
        results picklable (compact rows) when the plan uses processes.
        """
        jobs = [(fn, arg, index) for index, arg in enumerate(shard_args)]
        submitted = time.perf_counter()
        if not self.plan.use_processes or len(jobs) <= 1:
            raw = [self._run_inline(job) for job in jobs]
        else:
            raw = self._run_pool(jobs)
        self._observe(fn, raw, submitted)
        return [
            (elapsed, result)
            for _started, elapsed, _rss, result in raw
        ]

    # ---- in-process path -------------------------------------------------

    def _run_inline(
        self, job: Tuple[Callable[[_A], _R], _A, int]
    ) -> Tuple[float, float, float, _R]:
        """One shard with the same bounded retry budget as the pool."""
        attempts = 0
        while True:
            try:
                return _timed_call(job)
            except RETRYABLE as exc:
                attempts += 1
                _EXEC_METER.resolve()[3].inc()
                if attempts > self.plan.max_retries:
                    raise ShardExecutionError(
                        f"shard {job[2]} failed after {attempts} attempts: "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
                self._backoff(attempts)

    def _backoff(self, attempt: int) -> None:
        delay = min(1.0, self.plan.backoff_s * (2.0 ** (attempt - 1)))
        if delay > 0:
            time.sleep(delay)

    # ---- process-pool path -----------------------------------------------

    def _new_pool(self, jobs: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=min(self.plan.workers, jobs),
            # Re-arm the active fault plan inside each worker so chaos
            # drills reach the worker-side injection points.
            initializer=pool_initializer,
            initargs=(active_plan(),),
        )

    def _run_pool(
        self, jobs: List[Tuple[Callable[[_A], _R], _A, int]]
    ) -> List[Tuple[float, float, float, _R]]:
        plan = self.plan
        meter = _EXEC_METER.resolve()
        retries, timeouts, rebuilds_meter, hedges_meter = meter[3:7]
        tracer = get_tracer()

        results: Dict[int, Tuple[float, float, float, _R]] = {}
        attempts: Dict[int, int] = {index: 0 for _f, _a, index in jobs}
        by_index = {index: job for job in jobs for index in (job[2],)}
        rebuilds = 0
        max_rebuilds = plan.max_retries + _EXTRA_REBUILDS

        pool = self._new_pool(len(jobs))
        primary: Dict[int, object] = {}
        hedges: Dict[object, int] = {}
        started_at: Dict[int, float] = {}
        hedged: set = set()

        def submit(index: int) -> None:
            primary[index] = pool.submit(_timed_call, by_index[index])
            started_at[index] = time.perf_counter()

        def charge(index: int, counter, why: str, cause=None) -> None:
            """One retry against the shard's budget; raise when spent."""
            attempts[index] += 1
            counter.inc()
            if attempts[index] > plan.max_retries:
                raise ShardExecutionError(
                    f"shard {index} {why} after {attempts[index]} attempts"
                    + (f": {type(cause).__name__}: {cause}" if cause else "")
                ) from cause

        def rebuild(incomplete_hint: str) -> None:
            nonlocal pool, rebuilds
            rebuilds += 1
            rebuilds_meter.inc()
            if rebuilds > max_rebuilds:
                raise ShardExecutionError(
                    f"gave up after {rebuilds} pool rebuilds "
                    f"({incomplete_hint}); workers keep dying"
                )
            tracer.add_span(
                "shard.pool_rebuild", time.perf_counter(), 0.0,
                rebuilds=rebuilds, reason=incomplete_hint,
            )
            _kill_pool(pool)
            pool = self._new_pool(len(jobs))
            primary.clear()
            hedges.clear()
            hedged.clear()
            for index in by_index:
                if index not in results:
                    submit(index)

        try:
            for index in by_index:
                submit(index)
            while len(results) < len(jobs):
                waiting = set(primary.values()) | set(hedges)
                if not waiting:
                    rebuild("no live futures")
                    continue
                done, _pending = wait(
                    waiting, timeout=_WAIT_TICK_S,
                    return_when=FIRST_COMPLETED,
                )
                broken = False
                for future in done:
                    index = hedges.pop(future, None)
                    if index is None:
                        index = next(
                            (i for i, f in primary.items() if f is future),
                            None,
                        )
                        if index is None:
                            continue
                        del primary[index]
                    try:
                        value = future.result()
                    except BrokenProcessPool:
                        broken = True
                        continue
                    except RETRYABLE as exc:
                        if index in results:
                            continue  # the twin already answered
                        charge(index, retries, "failed", exc)
                        self._backoff(attempts[index])
                        submit(index)
                        continue
                    if index not in results:
                        results[index] = value
                if broken:
                    rebuild(
                        f"{len(jobs) - len(results)} shards incomplete"
                    )
                    continue
                if plan.shard_timeout_s is not None:
                    now = time.perf_counter()
                    expired = [
                        index for index, begun in started_at.items()
                        if index not in results and index in primary
                        and now - begun > plan.shard_timeout_s
                    ]
                    if expired:
                        for index in expired:
                            charge(index, timeouts, "timed out")
                            retries.inc()
                        # The worker may be wedged; only a rebuild
                        # reclaims its slot.  Completed shards stay
                        # completed -- only the stragglers resubmit.
                        rebuild(
                            f"shards {sorted(expired)} over "
                            f"{plan.shard_timeout_s:g}s budget"
                        )
                        continue
                if plan.hedge and results:
                    self._maybe_hedge(
                        pool, primary, hedges, hedged, started_at,
                        results, by_index, hedges_meter,
                    )
        finally:
            _kill_pool(pool)
        return [results[index] for _f, _a, index in jobs]

    @staticmethod
    def _maybe_hedge(
        pool, primary, hedges, hedged, started_at, results, by_index,
        hedges_meter,
    ) -> None:
        """Duplicate-submit shards running far past the typical time."""
        finished = sorted(
            elapsed for _s, elapsed, _rss, _r in results.values()
        )
        typical = finished[len(finished) // 2]
        cutoff = max(4.0 * typical, 0.1)
        now = time.perf_counter()
        for index in list(primary):
            if index in results or index in hedged:
                continue
            if now - started_at[index] <= cutoff:
                continue
            hedged.add(index)
            hedges_meter.inc()
            hedges[pool.submit(_timed_call, by_index[index])] = index

    def _observe(
        self,
        fn: Callable,
        raw: Sequence[Tuple[float, float, float, _R]],
        submitted: float,
    ) -> None:
        """Record shard metrics + spans from worker-side timings."""
        meter = _EXEC_METER.resolve()
        wall, queue_wait, executed = meter[:3]
        watermarks = meter[7]
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
