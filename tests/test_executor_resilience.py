"""Self-healing shard executor: retries, rebuilds, timeouts, hedging.

Every scenario asserts the executor's core contract under injected
faults: the ordered results are identical to a fault-free serial run,
or the run fails loudly with :class:`ShardExecutionError` -- never a
silently wrong answer.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.parallel.executor import (
    ShardExecutionError,
    ShardExecutor,
    ShardPlan,
    _kill_pool,
)
from repro.runtime.faults import FaultPlan, FaultSpec, chaos


def _square(value: int) -> int:
    return value * value


ARGS = [1, 2, 3, 4]
EXPECTED = [1, 4, 9, 16]


def _results(executor: ShardExecutor) -> list:
    return [result for _elapsed, result in executor.map(_square, ARGS)]


class TestShardPlanValidation:
    def test_defaults(self):
        plan = ShardPlan.plan(workers=2, shards=4)
        assert plan.max_retries == 2
        assert plan.shard_timeout_s is None
        assert not plan.hedge

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shard_timeout_s": 0},
            {"shard_timeout_s": -1.0},
            {"max_retries": -1},
            {"backoff_s": -0.1},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            ShardPlan.plan(workers=2, **kwargs)


class TestInlineRetries:
    def test_transient_error_is_retried(self):
        plan = FaultPlan(name="t", faults=[
            FaultSpec(name="flake", site="executor.shard", kind="error",
                      at=2, times=2),
        ])
        executor = ShardExecutor(ShardPlan.plan(workers=1, max_retries=3,
                                                backoff_s=0.0))
        with chaos(plan):
            assert _results(executor) == EXPECTED

    def test_budget_exhaustion_raises(self):
        plan = FaultPlan(name="t", faults=[
            FaultSpec(name="flake", site="executor.shard", kind="error",
                      at=1, times=10),
        ])
        executor = ShardExecutor(ShardPlan.plan(workers=1, max_retries=1,
                                                backoff_s=0.0))
        with chaos(plan):
            with pytest.raises(ShardExecutionError, match="shard 1"):
                _results(executor)


class TestPoolSelfHealing:
    def _pool_executor(self, **kwargs) -> ShardExecutor:
        kwargs.setdefault("max_retries", 3)
        kwargs.setdefault("backoff_s", 0.0)
        return ShardExecutor(
            ShardPlan.plan(workers=2, force_processes=True, **kwargs)
        )

    def test_worker_crash_is_recovered(self, tmp_path):
        """SIGKILL'd worker -> pool rebuild -> resubmit -> identical."""
        plan = FaultPlan(name="t", faults=[
            FaultSpec(name="die", site="executor.shard",
                      kind="worker_crash", at=1, times=1),
        ])
        executor = self._pool_executor()
        with chaos(plan, state_dir=tmp_path / "state"):
            assert _results(executor) == EXPECTED

    def test_worker_flake_is_retried(self, tmp_path):
        plan = FaultPlan(name="t", faults=[
            FaultSpec(name="flake", site="executor.shard", kind="error",
                      at=3, times=2),
        ])
        executor = self._pool_executor()
        with chaos(plan, state_dir=tmp_path / "state"):
            assert _results(executor) == EXPECTED

    def test_hung_worker_times_out_and_recovers(self, tmp_path):
        """A 30s hang against a 1s budget: killed, resubmitted, done."""
        plan = FaultPlan(name="t", faults=[
            FaultSpec(name="hang", site="executor.shard",
                      kind="worker_hang", at=0, times=1, delay_s=30.0),
        ])
        executor = self._pool_executor(shard_timeout_s=1.0)
        with chaos(plan, state_dir=tmp_path / "state"):
            assert _results(executor) == EXPECTED

    def test_pool_budget_exhaustion_raises(self, tmp_path):
        plan = FaultPlan(name="t", faults=[
            FaultSpec(name="flake", site="executor.shard", kind="error",
                      at=0, times=20),
        ])
        executor = self._pool_executor(max_retries=1)
        with chaos(plan, state_dir=tmp_path / "state"):
            with pytest.raises(ShardExecutionError):
                _results(executor)

    def test_hedged_slow_shard_still_identical(self, tmp_path):
        """Hedging may race twin attempts; exactly one result survives."""
        plan = FaultPlan(name="t", faults=[
            FaultSpec(name="slow", site="executor.shard",
                      kind="slow_shard", at=0, times=1, delay_s=0.5),
        ])
        executor = self._pool_executor(hedge=True)
        with chaos(plan, state_dir=tmp_path / "state"):
            assert _results(executor) == EXPECTED

    def test_kill_pool_kills_a_hung_worker(self):
        """The hung worker dies with its pool instead of sleeping on as
        a child of this process."""
        pool = ProcessPoolExecutor(max_workers=1)
        pool.submit(time.sleep, 30)
        workers = list(pool._processes.values())
        assert workers
        _kill_pool(pool)
        for worker in workers:
            worker.join(timeout=5)
            assert not worker.is_alive()

    def test_fault_free_pool_matches_serial(self):
        executor = self._pool_executor()
        assert _results(executor) == EXPECTED
