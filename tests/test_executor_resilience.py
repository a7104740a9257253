"""The shard executor's fork-map contract: recompute, never retry.

A group of shards whose forked child fails is recomputed in the
parent, so the ordered results are identical to a fault-free serial
run; a shard that fails in the parent too raises its own exception --
never a silently wrong answer, and never a child left behind.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.obs.metrics import global_registry
from repro.parallel.executor import ShardExecutor, ShardPlan
from repro.runtime.faults import FaultPlan, FaultSpec, InjectedFault, chaos


def _square(value: int) -> int:
    return value * value


ARGS = [1, 2, 3, 4]
EXPECTED = [1, 4, 9, 16]


def _results(executor: ShardExecutor) -> list:
    return [result for _elapsed, result in executor.map(_square, ARGS)]


def _recomputed() -> int:
    registry = global_registry()
    if "shard_retries_total" not in registry.names():
        return 0
    return registry.get("shard_retries_total").value


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestShardPlanValidation:
    def test_defaults(self):
        plan = ShardPlan.plan(workers=2, shards=4)
        assert [field.name for field in dataclasses.fields(plan)] == [
            "requested_workers", "workers", "shards", "force_processes",
        ]
        assert plan.shards == 4 and not plan.force_processes

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shard_timeout_s": 1.0},
            {"max_retries": 3},
            {"hedge": True},
            {"backoff_s": 0.1},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        """The retry, timeout and hedge knobs are gone, not ignored."""
        with pytest.raises(TypeError):
            ShardPlan.plan(workers=2, **kwargs)


class TestPoolSelfHealing:
    """Two forked workers over four shards: this process runs shards
    0-1, a child runs shards 2-3."""

    def _pool_executor(self) -> ShardExecutor:
        return ShardExecutor(ShardPlan.plan(workers=2, force_processes=True))

    def _fault(self, kind: str, at: int, times: int) -> FaultPlan:
        return FaultPlan(name="t", faults=[
            FaultSpec(name="f", site="executor.shard", kind=kind,
                      at=at, times=times),
        ])

    def test_worker_crash_is_recovered(self, tmp_path):
        """SIGKILL'd child -> its shards recomputed here -> identical."""
        before = _recomputed()
        with chaos(self._fault("worker_crash", 2, 1), state_dir=tmp_path / "state"):
            assert _results(self._pool_executor()) == EXPECTED
        assert _recomputed() - before == 2
        _assert_no_children()

    def test_worker_flake_is_retried(self, tmp_path):
        """A shard that raises once in its child is recomputed here."""
        with chaos(self._fault("error", 3, 1), state_dir=tmp_path / "state"):
            assert _results(self._pool_executor()) == EXPECTED
        _assert_no_children()

    def test_shard_failing_in_child_and_parent_propagates(self, tmp_path):
        """Raised in the child, raised again when recomputed here: the
        shard's own exception ends the map, and every child is reaped."""
        plan = self._fault("error", 3, 2)
        with chaos(plan, state_dir=tmp_path / "state"):
            with pytest.raises(InjectedFault, match="^f$"):
                _results(self._pool_executor())
        _assert_no_children()

    def test_fault_free_pool_matches_serial(self):
        assert _results(self._pool_executor()) == EXPECTED
        serial = ShardExecutor(ShardPlan.plan(workers=1, shards=4))
        assert _results(serial) == EXPECTED
        _assert_no_children()
