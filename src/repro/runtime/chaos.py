"""The chaos drill: run a fault plan end-to-end and prove recovery.

:func:`run_chaos` takes a :class:`~repro.runtime.faults.FaultPlan`,
partitions it by injection-site prefix into four *drills* --
executor, cache, stream, serve -- and runs each attacked layer under
its sub-plan, checking the chaos plane's core contract:

    every chaos run produces **bit-identical census output** to the
    fault-free run, or sheds load **explicitly** -- never silently
    wrong.

Concretely:

- **executor** -- the sharded pipeline runs under worker SIGKILLs and
  flaky shards, each healed by recomputing the failed worker's shards
  in the parent; its census CSV must equal the serial fault-free
  bytes.
- **cache** -- a torn shard write is planted at store time; the next
  fetch must detect it (digest verify), quarantine the entry, and
  regenerate datasets whose census equals the baseline.
- **stream** -- a mid-stream stall must not change windowed state
  (engine snapshots byte-equal), and a torn snapshot file must be
  *detected* on reload (``SnapshotError``) with a clean re-drain
  producing identical state.
- **serve** -- under a request stall + bounded admission queue, the
  service sheds with explicit ``overloaded`` responses; under
  repeated index-rebuild failures the breaker opens and queries are
  answered ``stale=true`` from the last good index.

The executor drill is bracketed by deterministic alert-engine
samples (manual timestamps, the replay trick the alerting tests use)
so the report can assert the ``shard-retry-storm`` rule both *fired*
during chaos and *resolved* after -- observability of recovery is
part of the contract, not a bonus.

Faults whose sites match no drill are reported as uninjected rather
than silently dropped.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.cdn.beacon import BeaconConfig
from repro.obs.alerts import AlertEngine, default_rules, episodes
from repro.obs.metrics import global_registry, instrument
from repro.obs.timeseries import scrape_registry
from repro.runtime.faults import (
    FaultPlan,
    chaos,
    injected_counts,
    maybe_chaotic,
)

#: Lab shape for the drills: small enough to finish in seconds, big
#: enough that every default-plan fault index exists (4 shards, >1000
#: stream events).
_DRILL_SCALE = 0.002
_DRILL_SEED = 1
_DRILL_BACKGROUND_AS = 400
_DRILL_BEACONS = BeaconConfig(month="2017-01", demand_hits=6000, base_hits=2.0)
_DRILL_WORKERS = 3
_DRILL_SHARDS = 4


@dataclass
class DrillResult:
    """Outcome of one layer's drill."""

    drill: str
    #: Names of the plan faults this drill armed.
    faults: List[str]
    #: Ground-truth firings per fault (from the plan ledger).
    injected: Dict[str, int] = field(default_factory=dict)
    #: Differential proof: chaos output byte-identical to fault-free.
    identical: Optional[bool] = None
    #: The layer healed / degraded explicitly (never silently wrong).
    recovered: bool = False
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.recovered and self.identical is not False

    def to_dict(self) -> Dict:
        return {
            "drill": self.drill,
            "faults": self.faults,
            "injected": self.injected,
            "identical": self.identical,
            "recovered": self.recovered,
            "ok": self.ok,
            "detail": self.detail,
        }


@dataclass
class ChaosReport:
    """Everything ``cellspot chaos`` prints and CI asserts on."""

    plan: str
    seed: int
    drills: List[DrillResult] = field(default_factory=list)
    #: Fault names in the plan that no drill armed (unknown sites).
    unmatched_faults: List[str] = field(default_factory=list)
    #: shard-retry-storm episode summary (fired + resolved).
    retry_alert: Dict = field(default_factory=dict)
    #: serve-p99-latency rule state after the drills ("ok" expected).
    p99_state: str = ""

    @property
    def ok(self) -> bool:
        return all(drill.ok for drill in self.drills) and not self.unmatched_faults

    def to_dict(self) -> Dict:
        return {
            "plan": self.plan,
            "seed": self.seed,
            "ok": self.ok,
            "drills": [drill.to_dict() for drill in self.drills],
            "unmatched_faults": self.unmatched_faults,
            "retry_alert": self.retry_alert,
            "p99_state": self.p99_state,
        }

    def render(self) -> str:
        lines = [f"chaos plan {self.plan!r} (seed {self.seed})"]
        for drill in self.drills:
            injected = sum(drill.injected.values())
            status = "ok" if drill.ok else "FAILED"
            marker = "identical" if drill.identical else (
                "n/a" if drill.identical is None else "DIVERGED"
            )
            lines.append(
                f"  [{status}] {drill.drill}: {injected} fault(s) injected "
                f"({', '.join(drill.faults) or 'none'}); output {marker}; "
                f"{drill.detail}"
            )
        if self.retry_alert:
            lines.append(
                "  retry-storm alert: fired="
                f"{self.retry_alert.get('fired')} "
                f"resolved={self.retry_alert.get('resolved')}"
            )
        if self.p99_state:
            lines.append(f"  serve p99 SLO state: {self.p99_state}")
        if self.unmatched_faults:
            lines.append(
                f"  UNMATCHED faults (site typo?): {self.unmatched_faults}"
            )
        lines.append(f"verdict: {'ok' if self.ok else 'FAILED'}")
        return "\n".join(lines)


def _census_bytes(result, demand) -> bytes:
    """The canonical census CSV for one pipeline result."""
    from repro.core.export import CellularPrefixList

    out = StringIO()
    CellularPrefixList.from_classification(
        result.classification, demand=demand
    ).to_csv(out)
    return out.getvalue().encode("utf-8")


def _drill_lab(cache_dir=None):
    from repro.lab import Lab

    return Lab.create(
        scale=_DRILL_SCALE,
        seed=_DRILL_SEED,
        background_as_count=_DRILL_BACKGROUND_AS,
        beacon_config=_DRILL_BEACONS,
        cache_dir=cache_dir,
    )


def _run_executor_drill(
    sub: FaultPlan, lab, baseline: bytes, state_dir: Path
) -> DrillResult:
    """Sharded run under worker crash and flake faults."""
    names = [spec.name for spec in sub.faults]
    with chaos(sub, state_dir=state_dir):
        result = lab.spotter.run(
            lab.beacons,
            lab.demand,
            lab.as_classes,
            workers=_DRILL_WORKERS,
            shards=_DRILL_SHARDS,
            force_processes=True,
        )
        injected = injected_counts(sub)
    identical = _census_bytes(result, lab.demand) == baseline
    return DrillResult(
        drill="executor",
        faults=names,
        injected=injected,
        identical=identical,
        recovered=True,  # the run completed at all => failed shards recomputed
        detail="sharded census vs serial fault-free census",
    )


def _run_cache_drill(
    sub: FaultPlan, baseline: bytes, state_dir: Path
) -> DrillResult:
    """Torn cache write at store time, healed at fetch time."""
    names = [spec.name for spec in sub.faults]
    corruption = instrument(
        "counter", "dataset_cache_corruptions_total",
        "cache entries failing digest verification on fetch",
    )
    before = corruption.value
    with tempfile.TemporaryDirectory(prefix="chaos-cache-") as tmp:
        with chaos(sub, state_dir=state_dir):
            # Generates datasets and stores them; the torn-write fault
            # corrupts a shard file after its digest was recorded.
            torn_lab = _drill_lab(cache_dir=tmp)
            torn_census = _census_bytes(torn_lab.result, torn_lab.demand)
            injected = injected_counts(sub)
        # A second lab fetches the (corrupt) entry: the digest check
        # must quarantine it and regenerate identical datasets.
        healed_lab = _drill_lab(cache_dir=tmp)
        healed_census = _census_bytes(healed_lab.result, healed_lab.demand)
    detected = corruption.value > before
    identical = torn_census == baseline and healed_census == baseline
    return DrillResult(
        drill="cache",
        faults=names,
        injected=injected,
        identical=identical,
        recovered=detected,
        detail=(
            "corrupt entry quarantined and regenerated"
            if detected else "corruption was NOT detected on fetch"
        ),
    )


def _run_stream_drill(sub: FaultPlan, lab, state_dir: Path) -> DrillResult:
    """Mid-stream stall + torn snapshot file, both healed."""
    from repro.stream.engine import SnapshotError, StreamEngine, WindowPolicy
    from repro.stream.sources import generated_events

    names = [spec.name for spec in sub.faults]
    policy = WindowPolicy(window_events=4096, decay=1.0)
    events = list(generated_events(lab.world, lab.beacon_config))

    baseline_engine = StreamEngine(policy=policy)
    baseline_engine.ingest_many(iter(events))
    baseline_state = json.dumps(baseline_engine.to_snapshot(), sort_keys=True)

    detail = []
    with tempfile.TemporaryDirectory(prefix="chaos-stream-") as tmp:
        snap_path = Path(tmp) / "snap.json"
        with chaos(sub, state_dir=state_dir):
            chaotic_engine = StreamEngine(policy=policy)
            chaotic_engine.ingest_many(maybe_chaotic(iter(events)))
            # The snapshot save is followed by the torn-write fault.
            chaotic_engine.save_snapshot(snap_path)
            injected = injected_counts(sub)
        identical = (
            json.dumps(chaotic_engine.to_snapshot(), sort_keys=True)
            == baseline_state
        )
        torn_detected = True
        if any(spec.site == "stream.snapshot" for spec in sub.faults):
            try:
                StreamEngine.load_snapshot(snap_path)
            except SnapshotError:
                detail.append("torn snapshot detected on reload")
            else:
                torn_detected = False
                detail.append("torn snapshot loaded WITHOUT an error")
        # Recovery from the torn snapshot: start over from the source.
        redrained = StreamEngine(policy=policy)
        redrained.ingest_many(iter(events))
        identical = identical and (
            json.dumps(redrained.to_snapshot(), sort_keys=True)
            == baseline_state
        )
    return DrillResult(
        drill="stream",
        faults=names,
        injected=injected,
        identical=identical,
        recovered=torn_detected,
        detail="; ".join(detail) or "stall absorbed, state unchanged",
    )


def _run_serve_drill(sub: FaultPlan, lab, state_dir: Path) -> DrillResult:
    """Overload shedding + breaker-driven degraded answers."""
    from repro.net.addr import format_ip
    from repro.serve.service import CellSpotService, ServiceConfig
    from repro.stream.engine import StreamEngine, WindowPolicy
    from repro.stream.sources import generated_events

    names = [spec.name for spec in sub.faults]
    engine = StreamEngine(policy=WindowPolicy(window_events=4096, decay=1.0))
    engine.ingest_many(generated_events(lab.world, lab.beacon_config))
    service = CellSpotService(
        engine=engine,
        config=ServiceConfig(
            max_pending=2, breaker_failures=2, breaker_reset_s=60.0
        ),
    )
    hit = next(generated_events(lab.world, lab.beacon_config))
    address = format_ip(hit.family, hit.address)
    service.index()  # prime: degraded mode needs a last good index

    query = json.dumps({"op": "query", "q": address})
    requests = StringIO((query + "\n") * 12)
    responses = StringIO()
    with chaos(sub, state_dir=state_dir):
        # The stall fault holds request 0 while the reader floods the
        # bounded queue -> later requests must be shed, in order.
        service.serve_lines(requests, responses)
        # Repeated rebuild failures trip the breaker; the service keeps
        # answering from the last good index, marked stale.
        for _ in range(2):
            service.handle_request({"op": "refresh"})
        degraded_answer = service.handle_request(
            {"op": "query", "q": address}
        )
        injected = injected_counts(sub)
    answers = [
        json.loads(line) for line in responses.getvalue().splitlines()
    ]
    shed = [a for a in answers if a.get("overloaded")]
    served = [a for a in answers if a.get("ok")]
    stale = bool(degraded_answer.get("stale")) and bool(
        degraded_answer.get("ok")
    )
    recovered = (
        bool(shed) and bool(served) and service.degraded and stale
    )
    detail = (
        f"{len(shed)} shed / {len(served)} served of {len(answers)}; "
        f"degraded={service.degraded}, stale answer={stale}"
    )
    return DrillResult(
        drill="serve",
        faults=names,
        injected=injected,
        # Shedding is the *explicit* alternative to identical output.
        identical=None,
        recovered=recovered,
        detail=detail,
    )


def run_chaos(
    plan: FaultPlan,
    state_dir: Optional[Union[str, Path]] = None,
) -> ChaosReport:
    """Run every drill the plan's fault sites call for; full report.

    ``state_dir`` holds the cross-process firing ledger (required for
    worker-process faults); a temporary directory is used when omitted.
    """
    with tempfile.TemporaryDirectory(prefix="chaos-state-") as fallback:
        root = Path(state_dir) if state_dir is not None else Path(fallback)
        root.mkdir(parents=True, exist_ok=True)
        return _run_drills(plan, root)


def _run_drills(plan: FaultPlan, root: Path) -> ChaosReport:
    report = ChaosReport(plan=plan.name, seed=plan.seed)
    alert_engine = AlertEngine(rules=default_rules(), log_path=None)
    registry = global_registry()
    # The executor meters register lazily on first use; the rate rule
    # needs the counter present in the *baseline* sample too.
    instrument(
        "counter", "shard_retries_total",
        "shards recomputed in the parent after their worker failed",
    )

    def observe(ts: float) -> None:
        alert_engine.observe(scrape_registry(registry, clock=lambda: ts))

    lab = _drill_lab()
    baseline = _census_bytes(lab.result, lab.demand)

    matched: set = set()
    executor_sub = plan.for_sites("executor.")
    if executor_sub.faults:
        matched.update(spec.name for spec in executor_sub.faults)
        observe(0.0)
        report.drills.append(
            _run_executor_drill(
                executor_sub, lab, baseline, root / "executor"
            )
        )
        # Deterministic replay timestamps: the retry burst lands in the
        # 1s window after the drill, then a quiet window resolves it.
        observe(1.0)
        observe(2.0)
    cache_sub = plan.for_sites("cache.")
    if cache_sub.faults:
        matched.update(spec.name for spec in cache_sub.faults)
        report.drills.append(
            _run_cache_drill(cache_sub, baseline, root / "cache")
        )
    stream_sub = plan.for_sites("stream.")
    if stream_sub.faults:
        matched.update(spec.name for spec in stream_sub.faults)
        report.drills.append(
            _run_stream_drill(stream_sub, lab, root / "stream")
        )
    serve_sub = plan.for_sites("serve.")
    if serve_sub.faults:
        matched.update(spec.name for spec in serve_sub.faults)
        report.drills.append(
            _run_serve_drill(serve_sub, lab, root / "serve")
        )
        observe(3.0)
        observe(5.5)

    report.unmatched_faults = [
        spec.name for spec in plan.faults if spec.name not in matched
    ]
    storms = episodes(alert_engine.events, rule="shard-retry-storm")
    if storms:
        last = storms[-1]
        report.retry_alert = {
            "fired": bool(last.get("fired")),
            "resolved": last.get("ended") is not None,
            "peak_value": last.get("peak_value"),
        }
    elif executor_sub.faults:
        report.retry_alert = {"fired": False, "resolved": False}
    p99 = alert_engine.states.get("serve-p99-latency")
    report.p99_state = p99.state if p99 is not None else ""
    return report
