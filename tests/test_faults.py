"""The fault-injection plane: plans, firing, determinism, overhead."""

from __future__ import annotations

import json

import pytest

from repro.runtime.faults import (
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    InjectedFault,
    KNOWN_SITES,
    _claim_fire,
    _prf,
    active_plan,
    chaos,
    default_fault_plan,
    fault_point,
    injected_counts,
    load_fault_plan,
    maybe_chaotic,
)


class TestFaultSpec:
    def test_valid_spec_roundtrip(self):
        spec = FaultSpec.from_dict(
            {"name": "x", "site": "executor.shard", "kind": "stall",
             "at": 3, "times": 2, "delay_s": 0.1, "probability": 0.5}
        )
        assert spec.at == 3 and spec.times == 2

    @pytest.mark.parametrize(
        "raw,fragment",
        [
            ({"site": "s", "kind": "stall"}, "missing 'name'"),
            ({"name": "x", "kind": "stall"}, "missing 'site'"),
            ({"name": "x", "site": "s"}, "missing 'kind'"),
            ({"name": "x", "site": "s", "kind": "nope"}, "unknown kind"),
            ({"name": "x", "site": "s", "kind": "stall", "typo": 1},
             "unknown keys"),
            ({"name": "x", "site": "s", "kind": "stall", "times": 0},
             "times must be"),
            ({"name": "x", "site": "s", "kind": "stall",
              "probability": 1.5}, "probability"),
            # Kinds the executor no longer heals (no timeout, no hedge).
            ({"name": "x", "site": "s", "kind": "worker_hang"}, "unknown kind"),
            ({"name": "x", "site": "s", "kind": "slow_shard"}, "unknown kind"),
        ],
    )
    def test_bad_specs_rejected(self, raw, fragment):
        with pytest.raises(FaultPlanError, match=fragment):
            FaultSpec.from_dict(raw)

    def test_default_plan_sites_are_known(self):
        plan = default_fault_plan()
        assert plan.faults
        for spec in plan.faults:
            assert spec.site in KNOWN_SITES
        names = [spec.name for spec in plan.faults]
        assert len(names) == len(set(names))


class TestPlanLoading:
    def test_json_plan(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "plan": {"name": "p", "seed": 3},
            "faults": [
                {"name": "a", "site": "executor.shard", "kind": "stall"},
            ],
        }))
        plan = load_fault_plan(path)
        assert plan.name == "p" and plan.seed == 3
        assert plan.faults[0].name == "a"

    def test_toml_plan(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "plan.toml"
        path.write_text(
            '[plan]\nname = "t"\nseed = 9\n\n'
            '[[faults]]\nname = "a"\nsite = "serve.request"\n'
            'kind = "error"\ntimes = 2\n'
        )
        plan = load_fault_plan(path)
        assert plan.name == "t" and plan.seed == 9
        assert plan.faults[0].times == 2

    @pytest.mark.parametrize(
        "payload,fragment",
        [
            ("{not json", "bad JSON"),
            ("[]", "'faults' array"),
            ('{"faults": []}', "empty"),
            ('{"faults": [{"name": "a", "site": "s", "kind": "stall"},'
             '{"name": "a", "site": "s", "kind": "stall"}]}',
             "duplicate"),
        ],
    )
    def test_bad_plan_files(self, tmp_path, payload, fragment):
        path = tmp_path / "plan.json"
        path.write_text(payload)
        with pytest.raises(FaultPlanError, match=fragment):
            load_fault_plan(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FaultPlanError, match="cannot read"):
            load_fault_plan(tmp_path / "nope.json")

    def test_for_sites_filters(self):
        plan = default_fault_plan()
        sub = plan.for_sites("executor.")
        assert sub.faults and all(
            spec.site.startswith("executor.") for spec in sub.faults
        )
        assert sub.seed == plan.seed


class TestFiring:
    def test_inactive_fault_point_is_a_noop(self):
        assert active_plan() is None
        fault_point("executor.shard", index=0)  # must not raise

    def test_error_fault_fires_then_exhausts(self):
        plan = FaultPlan(name="t", faults=[
            FaultSpec(name="boom", site="x.y", kind="error", times=2),
        ])
        with chaos(plan):
            with pytest.raises(InjectedFault):
                fault_point("x.y")
            with pytest.raises(InjectedFault):
                fault_point("x.y")
            fault_point("x.y")  # budget spent: no longer fires
            assert injected_counts(plan) == {"boom": 2}
        assert active_plan() is None

    def test_at_matches_only_its_index(self):
        plan = FaultPlan(name="t", faults=[
            FaultSpec(name="boom", site="x.y", kind="error", at=2),
        ])
        with chaos(plan):
            fault_point("x.y", index=0)
            fault_point("x.y", index=1)
            with pytest.raises(InjectedFault):
                fault_point("x.y", index=2)

    def test_state_dir_bounds_across_activations(self, tmp_path):
        """Mark files persist: a 'new process' cannot re-fire."""
        plan = FaultPlan(name="t", faults=[
            FaultSpec(name="boom", site="x.y", kind="error", times=1),
        ])
        with chaos(plan, state_dir=tmp_path / "state"):
            with pytest.raises(InjectedFault):
                fault_point("x.y")
        # Same plan re-activated (as a pool worker would): already spent.
        with chaos(plan, state_dir=tmp_path / "state"):
            fault_point("x.y")
            assert injected_counts(plan) == {"boom": 1}

    def test_worker_crash_downgrades_in_parent(self):
        """A crash fault outside a pool worker must not SIGKILL us."""
        plan = FaultPlan(name="t", faults=[
            FaultSpec(name="die", site="x.y", kind="worker_crash"),
        ])
        with chaos(plan):
            with pytest.raises(InjectedFault, match="in-process"):
                fault_point("x.y")

    def test_torn_write_truncates_file(self, tmp_path):
        victim = tmp_path / "data.json"
        victim.write_bytes(b"A" * 100)
        plan = FaultPlan(name="t", faults=[
            FaultSpec(name="tear", site="x.y", kind="torn_write"),
        ])
        with chaos(plan):
            fault_point("x.y", path=victim)
        assert victim.read_bytes() == b"A" * 50

    def test_prf_is_deterministic(self):
        a = _prf(7, "fault", 3)
        assert a == _prf(7, "fault", 3)
        assert 0.0 <= a < 1.0
        assert a != _prf(8, "fault", 3)

    def test_probability_zero_never_fires(self):
        plan = FaultPlan(name="t", seed=1, faults=[
            FaultSpec(name="never", site="x.y", kind="error",
                      probability=0.0, times=None),
        ])
        with chaos(plan):
            for index in range(50):
                fault_point("x.y", index=index)

    def test_claim_fire_unbounded(self):
        plan = FaultPlan(name="t")
        spec = FaultSpec(name="n", site="s", kind="stall", times=None)
        assert _claim_fire(plan, spec) and _claim_fire(plan, spec)


class TestStreamWrapper:
    def test_maybe_chaotic_returns_original_when_inactive(self):
        events = [1, 2, 3]
        assert maybe_chaotic(events) is events

    def test_maybe_chaotic_returns_original_without_source_faults(self):
        events = [1, 2, 3]
        plan = FaultPlan(name="t", faults=[
            FaultSpec(name="a", site="executor.shard", kind="stall"),
        ])
        with chaos(plan):
            assert maybe_chaotic(events) is events

    def test_chaotic_wrapper_preserves_events(self):
        events = list(range(10))
        plan = FaultPlan(name="t", faults=[
            FaultSpec(name="boom", site="stream.source", kind="error",
                      at=5, times=1),
        ])
        with chaos(plan):
            wrapped = maybe_chaotic(iter(events))
            assert wrapped is not events
            seen = []
            with pytest.raises(InjectedFault):
                for event in wrapped:
                    seen.append(event)
            assert seen == [0, 1, 2, 3, 4]
