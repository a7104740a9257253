"""Declarative SLO / alert rules over scraped metric samples.

Rules are data (TOML or JSON), not code::

    [[rules]]
    name = "ingest-reject-budget"
    kind = "ratio"                      # rejected / read lines
    metric = "ingest_rejected_total"
    denominator = "ingest_lines_total"
    op = ">"
    threshold = 0.10
    for_s = 2.0                         # debounce: breach must hold
    description = "ingest reject rate above error budget"

Supported ``kind`` values:

- ``gauge``        -- the metric's current scalar value;
- ``counter``      -- the raw cumulative counter value;
- ``counter_rate`` -- per-second rate between consecutive samples
  (restart-aware: a negative delta rates the new raw value);
- ``ratio``        -- ``metric / denominator`` of two cumulative
  counters (e.g. reject rate), 0 when the denominator is 0;
- ``quantile``     -- a histogram's scraped quantile (``q`` is 0.5 or
  0.99, the two the time-series sample carries);
- ``skew``         -- fleet divergence over a *labelled* metric
  family: the ``metric{worker="N"}`` series (the serving plane's
  federated per-worker series) reduce to ``worst / median(rest)`` --
  how far the worst replica sits from the rest of the fleet.  Needs at
  least two replicas reporting; fewer is "no data", never a breach;
- ``memory_budget`` -- the worst (plain or labelled) value vs an
  absolute byte budget, or -- when ``percent`` is set -- that percent
  of the machine's total memory resolved at rule-build time (the
  given ``threshold`` stays as the absolute fallback off-Linux);
- ``rss_growth``   -- leak detector: the worst least-squares slope
  (bytes/s) over a trailing ``window_s``, per series (plain and
  labelled -- a single leaking worker pages like a latency skew).
  Reset-aware: a value *drop* (restart, ballast release, allocator
  trim) clears that series' history instead of producing a negative
  or poisoned slope.  Needs >= 3 points spanning at least half the
  window; less is "no data", never a breach.

**Evaluation.**  Every kind runs one path: *select* the rule's series
(the plain key; the labelled keys for ``skew``; both for
``memory_budget`` and ``rss_growth``), turn each series' scalar into
the rule's *value* (raw, over the denominator, the rate or the slope),
then *reduce* across series (``skew``: worst over the median of the
rest; every other kind: the max).  A series' scalar is its counter or
gauge value, or a histogram's ``q`` quantile for ``quantile`` and
``skew`` and its count otherwise; a null or malformed payload is no
data.  The two stateful kinds keep per-series points on
:attr:`AlertState.history`.

**State machine.**  Each rule is ``ok -> pending -> firing -> ok``:
a breach moves ok to *pending*; a breach sustained for ``for_s``
seconds moves pending to *firing*; the first non-breaching evaluation
resolves either state back to *ok*.  Every transition appends one
structured JSONL record -- joined to the run's observability
``trace_id`` -- to the alert log, so an episode ("drift score crossed
0.25 for 12s, then recovered") is reconstructable offline next to the
time-series files.

The engine evaluates *samples* (the dicts :mod:`repro.obs.timeseries`
scrapes), so the same rules run live (scraper callback), in tests
(synthetic samples), and offline (replayed through
:class:`~repro.obs.timeseries.TimeSeriesReader`).
"""

from __future__ import annotations

import json
import statistics
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.timeseries import counter_rate, payload_scalar
from repro.obs.trace import current_trace_id

STATE_OK = "ok"
STATE_PENDING = "pending"
STATE_FIRING = "firing"

_VALID_KINDS = (
    "gauge", "counter", "counter_rate", "ratio", "quantile", "skew",
    "memory_budget", "rss_growth",
)
_VALID_OPS = (">", ">=", "<", "<=")


class AlertRuleError(ValueError):
    """A rules file (or rule dict) is malformed."""


@dataclass(frozen=True)
class AlertRule:
    """One declarative SLO condition."""

    name: str
    metric: str
    kind: str = "gauge"
    op: str = ">"
    threshold: float = 0.0
    #: Debounce: the breach must hold this long before firing.
    for_s: float = 0.0
    #: Ratio denominator (``kind == "ratio"`` only).
    denominator: Optional[str] = None
    #: Histogram quantile (``kind == "quantile"``): 0.5 or 0.99.
    q: float = 0.99
    #: Memory budget as a percent of total memory (``memory_budget``
    #: only); resolved into ``threshold`` bytes at rule-build time.
    percent: Optional[float] = None
    #: Trailing window for the leak slope (``rss_growth`` only).
    window_s: float = 30.0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise AlertRuleError("rule needs a non-empty name")
        if self.kind not in _VALID_KINDS:
            raise AlertRuleError(
                f"rule {self.name!r}: unknown kind {self.kind!r} "
                f"(choose from {', '.join(_VALID_KINDS)})"
            )
        if self.op not in _VALID_OPS:
            raise AlertRuleError(
                f"rule {self.name!r}: unknown op {self.op!r}"
            )
        if self.for_s < 0:
            raise AlertRuleError(f"rule {self.name!r}: for_s must be >= 0")
        if self.kind == "ratio" and not self.denominator:
            raise AlertRuleError(
                f"rule {self.name!r}: kind 'ratio' needs a denominator"
            )
        if self.kind in ("quantile", "skew") and self.q not in (0.5, 0.99):
            raise AlertRuleError(
                f"rule {self.name!r}: scraped quantiles are 0.5 and 0.99, "
                f"not {self.q}"
            )
        if self.percent is not None:
            if self.kind != "memory_budget":
                raise AlertRuleError(
                    f"rule {self.name!r}: 'percent' only applies to "
                    f"kind 'memory_budget'"
                )
            if not 0 < self.percent <= 100:
                raise AlertRuleError(
                    f"rule {self.name!r}: percent must be in (0, 100]"
                )
            from repro.obs.resources import total_memory_bytes

            total = total_memory_bytes()
            if total:
                # Frozen dataclass: the resolved budget replaces the
                # absolute fallback threshold.
                object.__setattr__(
                    self, "threshold", total * self.percent / 100.0
                )
        if self.kind == "memory_budget" and self.threshold <= 0:
            raise AlertRuleError(
                f"rule {self.name!r}: memory_budget needs a positive "
                f"threshold (bytes) or a percent"
            )
        if self.kind == "rss_growth" and self.window_s <= 0:
            raise AlertRuleError(
                f"rule {self.name!r}: rss_growth needs window_s > 0"
            )

    def breaches(self, value: float) -> bool:
        if self.op == ">":
            return value > self.threshold
        if self.op == ">=":
            return value >= self.threshold
        if self.op == "<":
            return value < self.threshold
        return value <= self.threshold

    def condition(self) -> str:
        """Human-readable condition, e.g. ``rate(x) > 0.1 for 2s``."""
        if self.kind == "counter_rate":
            subject = f"rate({self.metric})"
        elif self.kind == "ratio":
            subject = f"{self.metric}/{self.denominator}"
        elif self.kind == "quantile":
            subject = f"p{int(self.q * 100)}({self.metric})"
        elif self.kind == "skew":
            subject = f"skew({self.metric})"
        elif self.kind == "rss_growth":
            subject = f"slope({self.metric}, {self.window_s:g}s)"
        elif self.kind == "memory_budget" and self.percent is not None:
            subject = f"{self.metric} ({self.percent:g}% of mem)"
        else:
            subject = self.metric
        clause = f"{subject} {self.op} {self.threshold:g}"
        if self.for_s > 0:
            clause += f" for {self.for_s:g}s"
        return clause

    @classmethod
    def from_dict(cls, raw: Dict) -> "AlertRule":
        if not isinstance(raw, dict):
            raise AlertRuleError(f"rule must be a table/object, got {raw!r}")
        known = {
            "name", "metric", "kind", "op", "threshold", "for_s",
            "denominator", "q", "percent", "window_s", "description",
        }
        unknown = set(raw) - known
        if unknown:
            raise AlertRuleError(
                f"rule {raw.get('name', '?')!r}: unknown keys "
                f"{sorted(unknown)}"
            )
        if "metric" not in raw:
            raise AlertRuleError(
                f"rule {raw.get('name', '?')!r}: missing 'metric'"
            )
        try:
            threshold = float(raw.get("threshold", 0.0))
            for_s = float(raw.get("for_s", 0.0))
            q = float(raw.get("q", 0.99))
            percent = (
                float(raw["percent"]) if raw.get("percent") is not None
                else None
            )
            window_s = float(raw.get("window_s", 30.0))
        except (TypeError, ValueError) as exc:
            raise AlertRuleError(
                f"rule {raw.get('name', '?')!r}: non-numeric field: {exc}"
            ) from None
        return cls(
            name=str(raw.get("name", "")),
            metric=str(raw["metric"]),
            kind=str(raw.get("kind", "gauge")),
            op=str(raw.get("op", ">")),
            threshold=threshold,
            for_s=for_s,
            denominator=raw.get("denominator"),
            q=q,
            percent=percent,
            window_s=window_s,
            description=str(raw.get("description", "")),
        )


def load_rules(path: Union[str, Path]) -> List[AlertRule]:
    """Parse a rules file: ``.toml`` (python >= 3.11) or ``.json``.

    Both formats share one shape: a top-level ``rules`` array of rule
    tables/objects.  TOML support degrades gracefully where
    ``tomllib`` is unavailable (python 3.10) with an actionable error.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise AlertRuleError(f"cannot read rules file {path}: {exc}") from exc
    if path.suffix == ".toml":
        try:
            import tomllib
        except ImportError:  # pragma: no cover -- py3.10 fallback
            raise AlertRuleError(
                f"{path}: TOML rules need python >= 3.11 (tomllib); "
                "use the JSON rule format instead"
            ) from None
        try:
            raw = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise AlertRuleError(f"{path}: bad TOML: {exc}") from None
    else:
        try:
            raw = json.loads(text)
        except ValueError as exc:
            raise AlertRuleError(f"{path}: bad JSON: {exc}") from None
    if not isinstance(raw, dict) or not isinstance(raw.get("rules"), list):
        raise AlertRuleError(f"{path}: expected a top-level 'rules' array")
    rules = [AlertRule.from_dict(entry) for entry in raw["rules"]]
    if not rules:
        raise AlertRuleError(f"{path}: 'rules' array is empty")
    names = [rule.name for rule in rules]
    duplicates = {name for name in names if names.count(name) > 1}
    if duplicates:
        raise AlertRuleError(f"{path}: duplicate rule names {sorted(duplicates)}")
    return rules


def default_rules() -> List[AlertRule]:
    """The built-in SLO set covering the instrumented layers."""
    return [
        AlertRule(
            name="ingest-reject-budget",
            kind="ratio",
            metric="ingest_rejected_total",
            denominator="ingest_lines_total",
            op=">",
            threshold=0.10,
            for_s=0.0,
            description="ingest reject rate above the 10% error budget",
        ),
        AlertRule(
            name="serve-p99-latency",
            kind="quantile",
            metric="query_latency_seconds",
            q=0.99,
            op=">",
            threshold=0.001,
            for_s=2.0,
            description="serve p99 above the 1ms SLO",
        ),
        AlertRule(
            name="cache-corruption",
            kind="counter",
            metric="dataset_cache_corruptions_total",
            op=">",
            threshold=0.0,
            description="any dataset cache entry quarantined on fetch",
        ),
        AlertRule(
            name="stream-window-lag",
            kind="gauge",
            metric="stream_window_lag_events",
            op=">",
            threshold=50_000,
            for_s=2.0,
            description="open-window backlog not closing",
        ),
        AlertRule(
            name="census-ratio-drift",
            kind="gauge",
            metric="census_ratio_psi",
            op=">",
            threshold=0.25,
            for_s=0.0,
            description="cellular-ratio distribution shifted vs baseline "
                        "(PSI above 0.25, the classic 'major shift' bar)",
        ),
        AlertRule(
            name="shard-retry-storm",
            kind="counter_rate",
            metric="shard_retries_total",
            op=">",
            threshold=0.5,
            for_s=0.0,
            description="shard executor recomputing faster than 1 shard "
                        "every 2s -- workers are failing in bulk",
        ),
        AlertRule(
            name="serving-plane-overload",
            kind="counter_rate",
            metric="scale_shed_total",
            op=">",
            threshold=0.5,
            for_s=0.0,
            description="serving plane shedding requests faster than 1 "
                        "every 2s -- admission bound or deadlines breached",
        ),
        AlertRule(
            name="serving-plane-p99",
            kind="quantile",
            metric="scale_request_latency_seconds",
            q=0.99,
            op=">",
            threshold=0.005,
            for_s=2.0,
            description="front-end request p99 above 5ms (queue wait + "
                        "IPC + lookup) -- the plane is saturating",
        ),
        AlertRule(
            name="worker-latency-skew",
            kind="skew",
            metric="scale_worker_query_latency_seconds",
            # The median, not the tail: a freshly respawned replica's
            # p99 over its first few hundred lookups is set by two or
            # three scheduler stalls and would page on noise; a sick
            # replica is slow on most lookups, so its median moves.
            q=0.5,
            op=">",
            threshold=4.0,
            for_s=1.0,
            description="one worker's median lookup latency diverging "
                        "4x from the rest of the fleet (federated "
                        "per-worker series) -- a sick replica, not "
                        "plane-wide load",
        ),
        AlertRule(
            name="memory-budget",
            kind="memory_budget",
            metric="process_rss_bytes",
            op=">",
            threshold=8 * 1024 ** 3,  # absolute fallback off-Linux
            percent=85.0,
            for_s=2.0,
            description="process (or any federated worker) RSS above "
                        "85% of total memory -- heading for the OOM "
                        "killer, shed or restart before it does",
        ),
        AlertRule(
            name="rss-growth",
            kind="rss_growth",
            metric="process_rss_bytes",
            op=">",
            threshold=16 * 1024 * 1024,  # bytes/s, sustained
            window_s=10.0,
            for_s=2.0,
            description="RSS climbing faster than 16MiB/s over the "
                        "trailing window on any process -- a leak, not "
                        "a working set (reset-aware: restarts and "
                        "releases clear the slope)",
        ),
    ]


@dataclass
class AlertState:
    """Live evaluation state for one rule."""

    rule: AlertRule
    state: str = STATE_OK
    #: Timestamp the current breach streak started (pending entry).
    breach_since: Optional[float] = None
    #: Most recent evaluated value.
    last_value: Optional[float] = None
    #: Timestamp of the most recent evaluation.
    last_ts: Optional[float] = None
    transitions: int = 0
    #: Per-series points of the stateful kinds, ``{sample key:
    #: [(ts, value), ...]}``: the last point for ``counter_rate``, the
    #: trailing window for ``rss_growth``.
    history: Dict[str, List] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "rule": self.rule.name,
            "state": self.state,
            "condition": self.rule.condition(),
            "value": self.last_value,
            "threshold": self.rule.threshold,
            "since": self.breach_since,
            "transitions": self.transitions,
            "description": self.rule.description,
        }


def _slope(points: List) -> Optional[float]:
    """Least-squares slope (units/s) of ``[(ts, value), ...]``."""
    if len(points) < 3:
        return None
    t0 = points[0][0]
    xs = [t - t0 for t, _ in points]
    ys = [v for _, v in points]
    n = len(points)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    denom = sum((x - mean_x) ** 2 for x in xs)
    if denom <= 0:
        return None
    return sum(
        (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
    ) / denom


def _series_value(
    state: AlertState,
    key: str,
    value: Optional[float],
    metrics: Dict,
    ts: float,
) -> Optional[float]:
    """One series' scalar as the rule's value (None = no data)."""
    rule = state.rule
    if rule.kind == "ratio":
        base = payload_scalar(metrics.get(rule.denominator))
        if value is None or base is None:
            return None
        return value / base if base > 0 else 0.0
    if rule.kind == "counter_rate":
        before = state.history.pop(key, None)
        if value is None:
            return None
        state.history[key] = [(ts, value)]
        if before is None:
            return None
        return counter_rate(before[-1], (ts, value))
    if rule.kind == "rss_growth" and value is not None:
        # Reset-aware: a value that *drops* had a restart or a release,
        # so the series starts over instead of rating negative growth.
        points = state.history.setdefault(key, [])
        if points and value < points[-1][1]:
            points.clear()
        points.append((ts, value))
        cutoff = ts - rule.window_s
        while len(points) > 1 and points[0][0] < cutoff:
            points.pop(0)
        # Demand at least half the window of evidence: three samples
        # seconds apart must not convict a process of leaking.
        if points[-1][0] - points[0][0] < rule.window_s / 2:
            return None
        return _slope(points)
    return value


def _evaluate(state: AlertState, sample: Dict, ts: float) -> Optional[float]:
    """One rule against one sample: select, value, reduce (None = no data).

    The one evaluation path of every kind (see the module docstring).
    """
    rule = state.rule
    metrics = sample.get("m", {})
    plain = rule.kind != "skew" and rule.metric in metrics
    keys = [rule.metric] if plain else []
    if rule.kind in ("skew", "memory_budget", "rss_growth"):
        prefix = rule.metric + "{"
        keys.extend(sorted(key for key in metrics if key.startswith(prefix)))
    q = rule.q if rule.kind in ("quantile", "skew") else None
    values = [
        value for value in (
            _series_value(
                state, key, payload_scalar(metrics[key], q), metrics, ts
            )
            for key in keys
        ) if value is not None
    ]
    if rule.kind == "counter_rate":
        # A series this sample lacks has no baseline for the next one.
        for key in set(state.history) - set(keys):
            del state.history[key]
    if rule.kind == "skew":
        if len(values) < 2:
            return None
        values.sort()
        baseline = statistics.median(values[:-1])
        return values[-1] / baseline if baseline > 0 else None
    return max(values) if values else None


class AlertEngine:
    """Evaluate rules over scraped samples; log state transitions.

    Wire it as a scraper callback (``scraper.subscribe(engine.observe)``)
    for live evaluation, or replay stored samples through
    :meth:`observe` for offline reconstruction.
    """

    def __init__(
        self,
        rules: Optional[List[AlertRule]] = None,
        log_path: Optional[Union[str, Path]] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        self.rules = list(rules) if rules is not None else default_rules()
        self.log_path = Path(log_path) if log_path is not None else None
        if self.log_path is not None:
            self.log_path.parent.mkdir(parents=True, exist_ok=True)
        self.trace_id = trace_id or current_trace_id()
        self.states: Dict[str, AlertState] = {
            rule.name: AlertState(rule=rule) for rule in self.rules
        }
        self.events: List[Dict] = []
        self._lock = threading.Lock()

    # ---- evaluation ------------------------------------------------------

    def observe(self, sample: Dict) -> List[Dict]:
        """Evaluate every rule against one sample; returns transitions."""
        ts = float(sample.get("ts", 0.0))
        emitted: List[Dict] = []
        with self._lock:
            for state in self.states.values():
                value = _evaluate(state, sample, ts)
                transition = self._advance(state, value, ts)
                if transition is not None:
                    emitted.append(transition)
        for event in emitted:
            self._append_log(event)
        return emitted

    def _advance(
        self, state: AlertState, value: Optional[float], ts: float
    ) -> Optional[Dict]:
        state.last_ts = ts
        if value is None:
            # No data is not a breach; keep the current state untouched
            # (a metric vanishing mid-run resolves on its next sample).
            return None
        state.last_value = value
        breaching = state.rule.breaches(value)
        previous = state.state
        if breaching:
            if state.state == STATE_OK:
                state.breach_since = ts
                state.state = (
                    STATE_FIRING if state.rule.for_s == 0 else STATE_PENDING
                )
            elif state.state == STATE_PENDING:
                since = (
                    state.breach_since
                    if state.breach_since is not None else ts
                )
                held = ts - since
                if held >= state.rule.for_s:
                    state.state = STATE_FIRING
        else:
            if state.state in (STATE_PENDING, STATE_FIRING):
                state.state = STATE_OK
                state.breach_since = None
        if state.state == previous:
            return None
        state.transitions += 1
        event = {
            "ts": ts,
            "rule": state.rule.name,
            "from": previous,
            "to": state.state,
            "value": value,
            "threshold": state.rule.threshold,
            "condition": state.rule.condition(),
            "trace_id": self.trace_id,
        }
        self.events.append(event)
        return event

    def _append_log(self, event: Dict) -> None:
        if self.log_path is None:
            return
        line = json.dumps(event, separators=(",", ":"))
        try:
            with self.log_path.open("a") as stream:
                stream.write(line)
                stream.write("\n")
                stream.flush()
        except OSError:
            pass  # a full disk must not kill evaluation

    # ---- views -----------------------------------------------------------

    def snapshot(self) -> List[Dict]:
        """Current state of every rule (for ``health`` / ``alerts`` ops)."""
        with self._lock:
            return [state.to_dict() for state in self.states.values()]

    def firing(self) -> List[Dict]:
        return [s for s in self.snapshot() if s["state"] == STATE_FIRING]

    def counts(self) -> Dict[str, int]:
        totals = {STATE_OK: 0, STATE_PENDING: 0, STATE_FIRING: 0}
        for state in self.snapshot():
            totals[state["state"]] += 1
        return totals


def read_alert_log(path: Union[str, Path]) -> List[Dict]:
    """Every parseable transition record in an alert log, in order."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError:
        return []
    events = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except ValueError:
            continue
        if isinstance(event, dict):
            events.append(event)
    return events


def episodes(events: List[Dict], rule: Optional[str] = None) -> List[Dict]:
    """Group transition records into firing episodes per rule.

    An episode opens when a rule leaves ``ok`` and closes when it
    returns; the result carries first/last timestamps, the peak value,
    and whether the episode actually fired (vs pending-then-resolved).
    """
    result: List[Dict] = []
    open_by_rule: Dict[str, Dict] = {}
    for event in events:
        name = event.get("rule")
        if rule is not None and name != rule:
            continue
        if name is None:
            continue
        current = open_by_rule.get(name)
        if current is None:
            current = {
                "rule": name,
                "started": event.get("ts"),
                "ended": None,
                "fired": False,
                "peak_value": event.get("value"),
                "trace_id": event.get("trace_id"),
                "transitions": [],
            }
            open_by_rule[name] = current
            result.append(current)
        current["transitions"].append(
            {"ts": event.get("ts"), "from": event.get("from"),
             "to": event.get("to"), "value": event.get("value")}
        )
        value = event.get("value")
        if value is not None and (
            current["peak_value"] is None or value > current["peak_value"]
        ):
            current["peak_value"] = value
        if event.get("to") == STATE_FIRING:
            current["fired"] = True
        if event.get("to") == STATE_OK:
            current["ended"] = event.get("ts")
            del open_by_rule[name]
    return result
