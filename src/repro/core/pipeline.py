"""The end-to-end Cell Spotting pipeline.

:class:`CellSpotter` ties the stages together: BEACON ratios ->
subnet classification -> AS identification -> operator profiles.  It
consumes only observable datasets (BEACON, DEMAND, AS classes) and
never touches world ground truth, mirroring the paper's epistemic
position; validation utilities live separately in
:mod:`repro.core.validation`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.asn_classifier import (
    ASFilterConfig,
    ASFilterResult,
    identify_cellular_ases,
)
from repro.core.classifier import (
    DEFAULT_THRESHOLD,
    ClassificationResult,
    SubnetClassifier,
)
from repro.core.mixed import (
    DEDICATED_CFD_CUTOFF,
    OperatorProfile,
    operator_profiles,
)
from repro.core.ratios import RatioTable
from repro.datasets.beacon_dataset import BeaconDataset
from repro.datasets.caida import ASClassificationDataset
from repro.datasets.demand_dataset import DemandDataset


@dataclass
class CellSpotterResult:
    """Everything one pipeline run produces."""

    ratios: RatioTable
    classification: ClassificationResult
    as_result: ASFilterResult
    operators: Dict[int, OperatorProfile]
    #: Wall-clock seconds per stage, for the run manifest
    #: (:mod:`repro.runtime.manifest`) and perf triage.
    stage_timings: Dict[str, float] = field(default_factory=dict)

    @property
    def cellular_as_count(self) -> int:
        return len(self.operators)

    def cellular_subnet_count(self, family: int) -> int:
        return self.classification.cellular_count(family)


@dataclass(frozen=True)
class CellSpotter:
    """Configured Cell Spotting pipeline.

    >>> spotter = CellSpotter()           # paper defaults
    >>> # result = spotter.run(beacons, demand, as_classes)
    """

    threshold: float = DEFAULT_THRESHOLD
    min_api_hits: int = 1
    # default_factory, not a default instance: a shared mutable default
    # would alias one ASFilterConfig across every CellSpotter().
    as_filter: ASFilterConfig = field(default_factory=ASFilterConfig)
    dedicated_cutoff: float = DEDICATED_CFD_CUTOFF

    def run(
        self,
        beacons: BeaconDataset,
        demand: DemandDataset,
        as_classes: Optional[ASClassificationDataset] = None,
        workers: int = 1,
        shards: Optional[int] = None,
        force_processes: bool = False,
    ) -> CellSpotterResult:
        """Run all stages on observable datasets.

        Each stage's wall-clock time lands in
        ``CellSpotterResult.stage_timings`` so ``cellspot all`` can
        persist per-stage timings into its run manifest.

        ``workers`` > 1 or ``shards`` > 1 routes the run through the
        sharded pipeline (:mod:`repro.parallel`), which produces a
        result *equal* to the serial path -- the differential suite
        asserts exactly that.  ``force_processes`` bypasses the
        hardware clamp so tests exercise the process path even on
        single-core machines.
        """
        plan = None
        if workers != 1 or shards is not None or force_processes:
            from repro.parallel.executor import ShardPlan

            plan = ShardPlan.plan(
                workers=workers, shards=shards,
                force_processes=force_processes,
            )
        if plan is not None and not plan.is_serial:
            from repro.parallel.pipeline import run_sharded

            return run_sharded(self, beacons, demand, as_classes, plan=plan)
        timings: Dict[str, float] = {}

        def timed(stage: str, fn):
            # Lazy: core must stay importable without pulling obs at
            # module load (obs itself instruments layers above core).
            from repro.obs.trace import span

            started = time.perf_counter()
            with span(f"stage.{stage}"):
                value = fn()
            timings[stage] = time.perf_counter() - started
            return value

        ratios = timed(
            "ratios",
            lambda: RatioTable.from_beacons(
                beacons, min_api_hits=self.min_api_hits
            ),
        )
        classifier = SubnetClassifier(
            threshold=self.threshold, min_api_hits=self.min_api_hits
        )
        classification = timed(
            "classification", lambda: classifier.classify(ratios)
        )
        as_result = timed(
            "as_identification",
            lambda: identify_cellular_ases(
                classification, demand, beacons, as_classes, self.as_filter
            ),
        )
        operators = timed(
            "operator_profiles",
            lambda: operator_profiles(as_result, cutoff=self.dedicated_cutoff),
        )
        return CellSpotterResult(
            ratios=ratios,
            classification=classification,
            as_result=as_result,
            operators=operators,
            stage_timings=timings,
        )
