"""Census data-quality monitors: is the *measurement itself* drifting?

The paper's longitudinal claims (section 6 / section 8 future work)
rest on the cellular-ratio distribution and the classified set being
*stable* month over month; a production deployment of the pipeline
needs the converse signal -- "the census looks wrong" -- as a
first-class alert, not an offline analysis.  This module provides:

- :class:`RatioSketch` -- a streaming fixed-bin histogram over the
  [0, 1] cellular-ratio domain (mergeable, snapshot-able);
- :func:`population_stability_index` / :func:`ks_statistic` -- the two
  standard distribution-shift scores over a pair of sketches;
- :class:`CensusDriftMonitor` -- hooks the stream engine's
  window-close boundary: per closed window it sketches the window's
  per-subnet cellular ratios, scores PSI/KS against a baseline window,
  computes the classification churn rate vs the previous window, and
  exports everything as ordinary gauges -- so the
  :mod:`repro.obs.alerts` rules cover data drift exactly like any
  latency SLO;
- :func:`ratio_distribution_shift` -- the same scores for the batch
  world: month-over-month :mod:`repro.evolution` censuses.

PSI reading (the conventional bars): < 0.10 stable, 0.10-0.25 moderate
shift, > 0.25 major shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.obs.metrics import MeterCache, instrument

#: Fixed bin count over the [0, 1] ratio domain.  Ten equal bins is
#: the classic PSI decile layout; the ratio distribution is strongly
#: bimodal (fixed-line near 0, cellular near 1) so deciles separate
#: the modes cleanly.
RATIO_BINS = 10

#: Smoothing for empty bins in PSI (avoids log(0) blowups).
PSI_EPSILON = 1e-6

_DRIFT_METER = MeterCache(
    lambda: (
        instrument(
            "gauge", "census_ratio_psi",
            "population stability index of the latest window's "
            "cellular-ratio distribution vs baseline",
        ),
        instrument(
            "gauge", "census_ratio_ks",
            "KS distance of the latest window's cellular-ratio "
            "distribution vs baseline",
        ),
        instrument(
            "gauge", "census_churn_rate",
            "fraction of classified subnets flipping label between "
            "consecutive windows",
        ),
        instrument(
            "counter", "census_windows_scored_total",
            "closed windows scored by the drift monitor",
        ),
    )
)


class RatioSketch:
    """Streaming histogram over [0, 1] with ``RATIO_BINS`` equal bins."""

    __slots__ = ("counts", "total")

    def __init__(self, counts: Optional[Sequence[float]] = None) -> None:
        if counts is None:
            self.counts: List[float] = [0.0] * RATIO_BINS
        else:
            if len(counts) != RATIO_BINS:
                raise ValueError(
                    f"sketch needs {RATIO_BINS} bins, got {len(counts)}"
                )
            self.counts = [float(c) for c in counts]
        self.total = float(sum(self.counts))

    def add(self, ratio: float, weight: float = 1.0) -> None:
        if not 0.0 <= ratio <= 1.0:
            ratio = min(1.0, max(0.0, ratio))
        index = min(int(ratio * RATIO_BINS), RATIO_BINS - 1)
        self.counts[index] += weight
        self.total += weight

    def merge(self, other: "RatioSketch") -> None:
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.total += other.total

    def proportions(self) -> List[float]:
        if self.total <= 0:
            return [0.0] * RATIO_BINS
        return [count / self.total for count in self.counts]

    def to_dict(self) -> Dict:
        return {"counts": list(self.counts), "total": self.total}

    @classmethod
    def from_ratios(cls, ratios: Iterable[float]) -> "RatioSketch":
        sketch = cls()
        for ratio in ratios:
            sketch.add(ratio)
        return sketch

    def __len__(self) -> int:
        return int(self.total)


def population_stability_index(
    reference: RatioSketch, current: RatioSketch
) -> float:
    """PSI between two sketches (0 = identical; > 0.25 = major shift).

    Empty bins are smoothed with :data:`PSI_EPSILON` so a bin draining
    to zero scores a large-but-finite contribution instead of inf.
    Either sketch being empty scores 0 (no evidence, no drift claim).
    """
    if reference.total <= 0 or current.total <= 0:
        return 0.0
    score = 0.0
    for expected, actual in zip(
        reference.proportions(), current.proportions()
    ):
        e = max(expected, PSI_EPSILON)
        a = max(actual, PSI_EPSILON)
        score += (a - e) * math.log(a / e)
    return score


def ks_statistic(reference: RatioSketch, current: RatioSketch) -> float:
    """KS distance: max |CDF gap| between the two binned distributions."""
    if reference.total <= 0 or current.total <= 0:
        return 0.0
    gap = 0.0
    cdf_ref = 0.0
    cdf_cur = 0.0
    for expected, actual in zip(
        reference.proportions(), current.proportions()
    ):
        cdf_ref += expected
        cdf_cur += actual
        gap = max(gap, abs(cdf_ref - cdf_cur))
    return gap


def classification_churn(
    before: Set, after: Set, universe: Optional[int] = None
) -> float:
    """Fraction of the union that flipped label between two sets."""
    union = len(before | after) if universe is None else universe
    if union == 0:
        return 0.0
    return len(before ^ after) / union


@dataclass
class WindowDriftScore:
    """Drift verdict for one closed window."""

    window_seq: int
    psi: float
    ks: float
    churn_rate: float
    subnets: int

    def to_dict(self) -> Dict:
        return {
            "window": self.window_seq,
            "psi": self.psi,
            "ks": self.ks,
            "churn_rate": self.churn_rate,
            "subnets": self.subnets,
        }


@dataclass
class CensusDriftMonitor:
    """Per-window cellular-ratio drift scoring for the stream engine.

    Attach with :meth:`repro.stream.engine.StreamEngine.attach_monitor`;
    the engine calls :meth:`on_window_close` with the closing window's
    raw per-subnet counters *before* they are folded into the decayed
    aggregate, so scores describe fresh evidence, not history.

    The first ``baseline_windows`` closed windows are merged into the
    reference sketch; every later window is scored against it.  Scores
    surface three ways: the returned :class:`WindowDriftScore`, the
    ``census_*`` gauges on the global registry (alert-rule food), and
    :meth:`summary` (the ``health`` op / dashboard payload).
    """

    #: Classifier threshold used for the churn-rate label flip check.
    threshold: float = 0.5
    #: Ignore subnets with fewer API hits than this in a window.
    min_api_hits: int = 1
    #: Closed windows merged into the baseline before scoring starts.
    baseline_windows: int = 1
    #: Per-window sketch cap: windows tracking more subnets than this
    #: are scored from the first ``max_subnets_per_window`` entries.
    #: A 10-bin distribution estimate stabilizes long before that, and
    #: the cap keeps the window-close hook O(1) in window size -- the
    #: monitor rides the stream hot path and must fit the <5% budget
    #: ``bench_obs_overhead`` pins.  Set to 0 to sketch everything.
    max_subnets_per_window: int = 1024
    baseline: RatioSketch = field(default_factory=RatioSketch)
    _baseline_seen: int = 0
    _previous_cellular: Optional[Set] = None
    last_score: Optional[WindowDriftScore] = None
    history: List[WindowDriftScore] = field(default_factory=list)
    #: Bounded history (dashboard sparkline food).
    max_history: int = 256

    def on_window_close(self, window_seq: int, window_counts) -> (
        Optional[WindowDriftScore]
    ):
        """Score one closing window.

        ``window_counts`` is a mapping ``{subnet: counts}`` where each
        counts object carries ``api_hits`` and ``cellular_hits`` (the
        stream window's ``SubnetBeaconCounts``, in first-seen order).
        Returns None while the baseline is still accumulating.
        """
        sketch = RatioSketch()
        cellular: Set = set()
        items = window_counts.items()
        if self.max_subnets_per_window and (
            len(window_counts) > self.max_subnets_per_window
        ):
            items = islice(items, self.max_subnets_per_window)
        for subnet, counts in items:
            api = counts.api_hits
            if api < self.min_api_hits or api <= 0:
                continue
            ratio = counts.cellular_hits / api
            sketch.add(ratio)
            if ratio >= self.threshold:
                cellular.add(subnet)
        if self._baseline_seen < self.baseline_windows:
            self.baseline.merge(sketch)
            self._baseline_seen += 1
            self._previous_cellular = cellular
            return None
        psi = population_stability_index(self.baseline, sketch)
        ks = ks_statistic(self.baseline, sketch)
        churn = (
            classification_churn(self._previous_cellular, cellular)
            if self._previous_cellular is not None
            else 0.0
        )
        self._previous_cellular = cellular
        score = WindowDriftScore(
            window_seq=window_seq,
            psi=psi,
            ks=ks,
            churn_rate=churn,
            subnets=len(sketch),
        )
        self.last_score = score
        self.history.append(score)
        if len(self.history) > self.max_history:
            del self.history[: len(self.history) - self.max_history]
        psi_g, ks_g, churn_g, scored = _DRIFT_METER.resolve()
        psi_g.set(psi)
        ks_g.set(ks)
        churn_g.set(churn)
        scored.inc()
        return score

    @property
    def windows_scored(self) -> int:
        return len(self.history)

    def summary(self) -> Dict:
        """Dashboard / ``health``-op payload."""
        last = self.last_score
        return {
            "baseline_windows": self._baseline_seen,
            "baseline_subnets": len(self.baseline),
            "windows_scored": self.windows_scored,
            "last": last.to_dict() if last is not None else None,
            "recent_psi": [round(s.psi, 4) for s in self.history[-24:]],
        }


def ratio_distribution_shift(
    before_records, after_records
) -> Tuple[float, float]:
    """(PSI, KS) between two months' per-subnet ratio distributions.

    ``*_records`` are iterables of objects with a ``ratio`` attribute
    (``RatioRecord``); this is the batch-census twin of the streaming
    monitor, used by :mod:`repro.evolution` to score month-over-month
    drift with the exact same semantics the live alert rules use.
    """
    before = RatioSketch.from_ratios(r.ratio for r in before_records)
    after = RatioSketch.from_ratios(r.ratio for r in after_records)
    return (
        population_stability_index(before, after),
        ks_statistic(before, after),
    )
