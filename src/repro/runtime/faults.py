"""Deterministic fault injection: the chaos plane's control surface.

The census pipeline must survive worker crashes, flaky shards, torn
writes, and overload; this module makes those failures *injectable on
demand* so the self-healing paths are exercised by tests and the
``cellspot chaos`` drill instead of waiting for production to find
them.  Design rules:

* **Plans are data.**  A :class:`FaultPlan` is loaded from TOML or
  JSON exactly like the alert rules (:func:`repro.obs.alerts.
  load_rules`): a top-level ``faults`` array of fault tables plus an
  optional ``plan`` table carrying ``name`` and ``seed``.  Unknown
  keys are rejected -- a typoed fault must fail loudly, not silently
  never fire.
* **Deterministic.**  A fault fires at an explicit site index
  (``at``) or via a seeded PRF over ``(seed, name, index)``
  (``probability``); there is no wall-clock or ``random`` state, so
  the same plan over the same workload injects the same faults in
  every process, every run.
* **Fire-once across processes.**  A SIGKILL'd worker loses its
  memory, so in-memory counters cannot bound firings.  An activated
  plan claims each firing by exclusively creating a mark file in its
  ``state_dir`` (``O_CREAT | O_EXCL`` -- atomic on POSIX), which both
  bounds ``times`` across every worker process and gives the chaos
  report its ground-truth injected count.
* **Free when off.**  :func:`fault_point` is a module-global ``None``
  check when no plan is active; per-event paths additionally gate the
  wrapper itself (:func:`maybe_chaotic`) so disabled injection costs
  nothing measurable (pinned < 2% by ``bench_chaos_overhead``).

Fault kinds and the layer expected to heal them:

=============== ==================== ================================
kind            typical site         healed by
=============== ==================== ================================
worker_crash    executor.shard       shard recomputed in the parent
torn_write      cache.store /        digest verify -> quarantine ->
                stream.snapshot      regenerate / SnapshotError
stall           stream.source /      bounded drain still completes /
                serve.ingest         admission control sheds load
error           serve.refresh        circuit breaker + stale answers
=============== ==================== ================================
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Union

_VALID_KINDS = (
    "worker_crash", "torn_write", "stall", "error",
)

#: Sites wired through the codebase (documented; plans may name any
#: string -- an unmatched site simply never fires, and ``cellspot
#: chaos`` reports it as uninjected).
KNOWN_SITES = (
    "executor.shard",
    "cache.store",
    "stream.snapshot",
    "stream.source",
    "serve.request",
    "serve.ingest",
    "serve.refresh",
    "scale.publish",
    "scale.dispatch",
    "scale.worker",
)


class FaultPlanError(ValueError):
    """A fault plan file (or fault dict) is malformed."""


class InjectedFault(RuntimeError):
    """An error deliberately raised by an active fault plan."""


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault: where, what, when, how often."""

    name: str
    site: str
    kind: str
    #: Fire only when the site's index equals this (None = any index).
    at: Optional[int] = None
    #: Total firings allowed across *all* processes (None = unbounded).
    times: Optional[int] = 1
    #: Sleep length for a ``stall``.
    delay_s: float = 0.05
    #: Seeded firing probability (1.0 = always when site/at match).
    probability: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise FaultPlanError("fault needs a non-empty name")
        if not self.site:
            raise FaultPlanError(f"fault {self.name!r}: needs a site")
        if self.kind not in _VALID_KINDS:
            raise FaultPlanError(
                f"fault {self.name!r}: unknown kind {self.kind!r} "
                f"(choose from {', '.join(_VALID_KINDS)})"
            )
        if self.times is not None and self.times < 1:
            raise FaultPlanError(
                f"fault {self.name!r}: times must be >= 1 (or omitted)"
            )
        if self.delay_s < 0:
            raise FaultPlanError(
                f"fault {self.name!r}: delay_s must be >= 0"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise FaultPlanError(
                f"fault {self.name!r}: probability must be in [0, 1]"
            )

    @classmethod
    def from_dict(cls, raw: Dict) -> "FaultSpec":
        if not isinstance(raw, dict):
            raise FaultPlanError(
                f"fault must be a table/object, got {raw!r}"
            )
        known = {
            "name", "site", "kind", "at", "times", "delay_s", "probability",
        }
        unknown = set(raw) - known
        if unknown:
            raise FaultPlanError(
                f"fault {raw.get('name', '?')!r}: unknown keys "
                f"{sorted(unknown)}"
            )
        for required in ("name", "site", "kind"):
            if required not in raw:
                raise FaultPlanError(
                    f"fault {raw.get('name', '?')!r}: missing {required!r}"
                )
        try:
            at = None if raw.get("at") is None else int(raw["at"])
            times = None if raw.get("times") is None else int(raw["times"])
            delay_s = float(raw.get("delay_s", 0.05))
            probability = float(raw.get("probability", 1.0))
        except (TypeError, ValueError) as exc:
            raise FaultPlanError(
                f"fault {raw.get('name', '?')!r}: non-numeric field: {exc}"
            ) from None
        return cls(
            name=str(raw["name"]),
            site=str(raw["site"]),
            kind=str(raw["kind"]),
            at=at,
            times=times,
            delay_s=delay_s,
            probability=probability,
        )


@dataclass
class FaultPlan:
    """A named, seeded set of fault specs (picklable for worker processes)."""

    name: str = "unnamed"
    seed: int = 0
    faults: List[FaultSpec] = field(default_factory=list)
    #: Cross-process firing ledger; bound at activation time.
    state_dir: Optional[str] = None

    def for_sites(self, prefix: str) -> "FaultPlan":
        """The sub-plan of faults whose site starts with ``prefix``."""
        return FaultPlan(
            name=self.name,
            seed=self.seed,
            faults=[f for f in self.faults if f.site.startswith(prefix)],
            state_dir=self.state_dir,
        )

    def sites(self) -> List[str]:
        return sorted({f.site for f in self.faults})


def load_fault_plan(path: Union[str, Path]) -> FaultPlan:
    """Parse a plan file: ``.toml`` (python >= 3.11) or ``.json``.

    Shared shape: a top-level ``faults`` array plus an optional
    ``plan`` table with ``name`` and ``seed``.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise FaultPlanError(
            f"cannot read fault plan {path}: {exc}"
        ) from exc
    if path.suffix == ".toml":
        try:
            import tomllib
        except ImportError:  # pragma: no cover -- py3.10 fallback
            raise FaultPlanError(
                f"{path}: TOML fault plans need python >= 3.11 (tomllib); "
                "use the JSON plan format instead"
            ) from None
        try:
            raw = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise FaultPlanError(f"{path}: bad TOML: {exc}") from None
    else:
        try:
            raw = json.loads(text)
        except ValueError as exc:
            raise FaultPlanError(f"{path}: bad JSON: {exc}") from None
    if not isinstance(raw, dict) or not isinstance(raw.get("faults"), list):
        raise FaultPlanError(f"{path}: expected a top-level 'faults' array")
    meta = raw.get("plan", {})
    if not isinstance(meta, dict):
        raise FaultPlanError(f"{path}: 'plan' must be a table/object")
    faults = [FaultSpec.from_dict(entry) for entry in raw["faults"]]
    if not faults:
        raise FaultPlanError(f"{path}: 'faults' array is empty")
    names = [fault.name for fault in faults]
    duplicates = {name for name in names if names.count(name) > 1}
    if duplicates:
        raise FaultPlanError(
            f"{path}: duplicate fault names {sorted(duplicates)}"
        )
    try:
        seed = int(meta.get("seed", 0))
    except (TypeError, ValueError):
        raise FaultPlanError(f"{path}: plan seed must be an integer") from None
    return FaultPlan(
        name=str(meta.get("name", path.stem)), seed=seed, faults=faults
    )


def default_fault_plan() -> FaultPlan:
    """The built-in smoke plan: one fault per healed layer.

    Exactly the fault set the differential acceptance names: a worker
    SIGKILL, a flaky shard, a torn cache write, a torn snapshot, a
    stream stall, and a serve-side overload stall plus a failing index
    refresh.
    """
    return FaultPlan(
        name="smoke",
        seed=7,
        faults=[
            FaultSpec(name="kill-shard-1", site="executor.shard",
                      kind="worker_crash", at=1, times=1),
            # Shard 3 raises once in its worker and is recomputed in the
            # parent (feeds the shard-retry-storm rule).
            FaultSpec(name="flake-shard-3", site="executor.shard",
                      kind="error", at=3, times=1),
            FaultSpec(name="tear-cache-shard-0", site="cache.store",
                      kind="torn_write", at=0, times=1),
            FaultSpec(name="tear-snapshot", site="stream.snapshot",
                      kind="torn_write", times=1),
            FaultSpec(name="stall-stream", site="stream.source",
                      kind="stall", at=1000, times=1, delay_s=0.2),
            FaultSpec(name="stall-first-request", site="serve.request",
                      kind="stall", at=0, times=1, delay_s=0.4),
            FaultSpec(name="fail-refresh", site="serve.refresh",
                      kind="error", times=3),
        ],
    )


# ---- activation ----------------------------------------------------------

#: The active plan; ``None`` keeps every fault_point a single global
#: load + compare (the disabled fast path the overhead bench pins).
_ACTIVE: Optional[FaultPlan] = None
#: In-memory firing ledger, used when the plan has no state_dir.
_LOCAL_FIRES: Dict[str, int] = {}
#: True in forked workers (worker_crash may SIGKILL only there).
_IS_WORKER = False


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE


def activate(
    plan: FaultPlan, state_dir: Optional[Union[str, Path]] = None
) -> FaultPlan:
    """Arm ``plan`` process-wide; returns it with ``state_dir`` bound.

    ``state_dir`` (created if missing) makes firing bounds hold across
    processes; without it the ledger is in-memory and per-process.
    """
    global _ACTIVE
    if state_dir is not None:
        plan.state_dir = str(state_dir)
    if plan.state_dir is not None:
        Path(plan.state_dir).mkdir(parents=True, exist_ok=True)
    _LOCAL_FIRES.clear()
    _ACTIVE = plan
    return plan


def deactivate() -> None:
    global _ACTIVE
    _ACTIVE = None
    _LOCAL_FIRES.clear()


@contextmanager
def chaos(
    plan: FaultPlan, state_dir: Optional[Union[str, Path]] = None
) -> Iterator[FaultPlan]:
    """``with chaos(plan): ...`` -- activate for a scope, then disarm."""
    activate(plan, state_dir=state_dir)
    try:
        yield plan
    finally:
        deactivate()


def mark_worker_process() -> None:
    """Flag this process as a worker (enables real SIGKILL)."""
    global _IS_WORKER
    _IS_WORKER = True


# ---- firing --------------------------------------------------------------

def _prf(seed: int, name: str, index: Optional[int]) -> float:
    """Seeded PRF in [0, 1): same inputs, same draw, every process."""
    payload = f"{seed}:{name}:{index}".encode("utf-8")
    draw = int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")
    return draw / 2.0 ** 64


def _claim_fire(plan: FaultPlan, spec: FaultSpec) -> bool:
    """Atomically claim one firing slot; False when ``times`` is spent."""
    if spec.times is None:
        return True
    if plan.state_dir is None:
        fired = _LOCAL_FIRES.get(spec.name, 0)
        if fired >= spec.times:
            return False
        _LOCAL_FIRES[spec.name] = fired + 1
        return True
    for slot in range(spec.times):
        mark = Path(plan.state_dir) / f"{spec.name}.fire{slot}"
        try:
            fd = os.open(str(mark), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.write(fd, f"{os.getpid()}\n".encode("utf-8"))
        os.close(fd)
        return True
    return False


def _tear(path: Union[str, Path]) -> None:
    """Simulate a torn write: keep only the first half of the file."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError:
        return
    path.write_bytes(data[: len(data) // 2])


def _execute(spec: FaultSpec, path: Optional[Union[str, Path]]) -> None:
    if spec.kind == "worker_crash":
        if _IS_WORKER:
            os.kill(os.getpid(), signal.SIGKILL)
        # In the parent (or serial mode) a SIGKILL would take down the
        # whole run -- the thing the chaos plane exists to prevent --
        # so the crash degrades to a raised fault.
        raise InjectedFault(f"{spec.name}: worker_crash (in-process)")
    if spec.kind == "stall":
        time.sleep(spec.delay_s)
        return
    if spec.kind == "torn_write":
        if path is not None:
            _tear(path)
        return
    raise InjectedFault(spec.name)


def fault_point(
    site: str,
    index: Optional[int] = None,
    path: Optional[Union[str, Path]] = None,
) -> None:
    """An injection point; a near-free no-op unless a plan is active.

    ``index`` is the site's deterministic sequence position (shard
    number, event ordinal, request ordinal...); ``path`` is the file a
    ``torn_write`` fault corrupts.
    """
    plan = _ACTIVE
    if plan is None:
        return
    for spec in plan.faults:
        if spec.site != site:
            continue
        if spec.at is not None and index != spec.at:
            continue
        if spec.probability < 1.0 and (
            _prf(plan.seed, spec.name, index) >= spec.probability
        ):
            continue
        if not _claim_fire(plan, spec):
            continue
        _observe_injection(spec, site, index)
        _execute(spec, path)


def _observe_injection(
    spec: FaultSpec, site: str, index: Optional[int]
) -> None:
    """Count the firing (metrics + structured log), never raising."""
    try:
        from repro.obs.metrics import instrument

        instrument(
            "counter", "faults_injected_total",
            "deliberate faults fired by the active FaultPlan",
        ).inc()
    except Exception:  # noqa: BLE001 -- injection must not need obs
        pass
    try:
        import logging

        from repro.runtime.logging import get_logger, log_event

        log_event(
            get_logger("runtime.faults"), logging.WARNING, "fault.injected",
            fault=spec.name, kind=spec.kind, site=site, index=index,
        )
    except Exception:  # noqa: BLE001
        pass


def chaotic_events(events: Iterable) -> Iterator:
    """Wrap an event iterable with per-event ``stream.source`` points.

    Only used when a plan is active (see :func:`maybe_chaotic`); the
    index passed to the fault point is the event ordinal, so a plan's
    ``at = 1000`` stalls exactly at the thousandth event everywhere.
    """
    for index, event in enumerate(events):
        fault_point("stream.source", index=index)
        yield event


def maybe_chaotic(events: Iterable) -> Iterable:
    """Per-event injection only when armed; the iterable itself when not.

    This is the zero-overhead contract for hot loops: with no active
    plan the caller gets its original iterable back -- not a wrapper
    generator -- so disabled chaos adds nothing per event.
    """
    plan = _ACTIVE
    if plan is None or not any(
        spec.site == "stream.source" for spec in plan.faults
    ):
        return events
    return chaotic_events(events)


def injected_counts(plan: FaultPlan) -> Dict[str, int]:
    """Ground-truth firings per fault name, read from the ledger."""
    counts = {spec.name: 0 for spec in plan.faults}
    if plan.state_dir is None:
        for name, fired in _LOCAL_FIRES.items():
            if name in counts:
                counts[name] = fired
        return counts
    state = Path(plan.state_dir)
    if not state.is_dir():
        return counts
    for mark in state.iterdir():
        stem, _, suffix = mark.name.rpartition(".fire")
        if stem in counts and suffix.isdigit():
            counts[stem] += 1
    return counts
