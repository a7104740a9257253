"""One-stop experiment harness: world -> datasets -> pipeline.

The paper's experiments all share the same scaffolding: generate a
world, collect one month of beacons and one week of demand, run the
Cell Spotting pipeline, and compare against planted ground truth.
:class:`Lab` packages that scaffolding so examples, tests, and
benchmarks stay small, and caches each stage so several experiments
can share one lab instance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from repro.cdn.beacon import BeaconConfig, BeaconGenerator
from repro.cdn.demand import DemandConfig, DemandGenerator
from repro.core.asn_classifier import ASFilterConfig
from repro.core.pipeline import CellSpotter, CellSpotterResult
from repro.obs.trace import span
from repro.datasets.beacon_dataset import BeaconDataset
from repro.datasets.caida import ASClassificationDataset
from repro.datasets.demand_dataset import DemandDataset
from repro.datasets.groundtruth import CarrierGroundTruth, carrier_archetypes
from repro.world.build import World, WorldParams, build_world

#: Beacon hit volume behind the paper's absolute "300 hits" filter
#: threshold (the RUM system collected several hundred million hits in
#: December 2016).  Rule 2's threshold scales with generated volume.
PAPER_BEACON_HITS = 6.0e8
#: The paper's rule-2 threshold at full volume.
PAPER_MIN_BEACON_HITS = 300


def scaled_filter_config(beacon_config: BeaconConfig) -> ASFilterConfig:
    """AS filter thresholds adjusted to the generated beacon volume.

    Rule 1's 0.1 DU threshold is already scale-free (Demand Units are
    normalized), but rule 2 counts raw hits, so its threshold shrinks
    with the simulated volume: at full paper volume it is exactly 300;
    at reduced volume it floors at "most of one well-sampled subnet's
    hits" (0.75 x the base hit rate), which keeps the rule meaningful
    -- an AS whose beacons amount to less than one ordinary subnet is
    exactly the bottom-percentile case the paper excludes.
    """
    ratio = beacon_config.demand_hits / PAPER_BEACON_HITS
    min_hits = max(
        2,
        round(0.75 * beacon_config.base_hits),
        round(PAPER_MIN_BEACON_HITS * ratio),
    )
    return ASFilterConfig(min_beacon_hits=min_hits)


@dataclass
class Lab:
    """A generated world plus lazily materialized datasets and results."""

    world: World
    beacon_config: BeaconConfig = field(default_factory=BeaconConfig)
    demand_config: DemandConfig = field(default_factory=DemandConfig)
    spotter: CellSpotter = field(default_factory=CellSpotter)
    #: Worker count for the pipeline run (1 = plain serial path).
    workers: int = 1
    #: Prefix-hash shard count (None = one shard per worker).
    shards: Optional[int] = None
    #: When set, datasets are fetched from / stored into this
    #: :class:`repro.parallel.cache.DatasetCache` directory instead of
    #: being regenerated on every run.
    cache_dir: Optional[Union[str, Path]] = None
    _beacons: Optional[BeaconDataset] = field(default=None, repr=False)
    _demand: Optional[DemandDataset] = field(default=None, repr=False)
    _as_classes: Optional[ASClassificationDataset] = field(default=None, repr=False)
    _result: Optional[CellSpotterResult] = field(default=None, repr=False)
    _carriers: Optional[Dict[str, CarrierGroundTruth]] = field(
        default=None, repr=False
    )
    _affinity: Optional[object] = field(default=None, repr=False)

    @classmethod
    def create(
        cls,
        scale: float = 0.005,
        seed: int = 0,
        background_as_count: int = 2000,
        beacon_config: Optional[BeaconConfig] = None,
        demand_config: Optional[DemandConfig] = None,
        spotter: Optional[CellSpotter] = None,
        workers: int = 1,
        shards: Optional[int] = None,
        cache_dir: Optional[Union[str, Path]] = None,
    ) -> "Lab":
        """Build a world and wrap it in a lab."""
        world = build_world(
            WorldParams(
                seed=seed, scale=scale, background_as_count=background_as_count
            )
        )
        beacon_config = beacon_config or BeaconConfig()
        if spotter is None:
            spotter = CellSpotter(as_filter=scaled_filter_config(beacon_config))
        return cls(
            world=world,
            beacon_config=beacon_config,
            demand_config=demand_config or DemandConfig(),
            spotter=spotter,
            workers=workers,
            shards=shards,
            cache_dir=cache_dir,
        )

    # ---- dataset cache ---------------------------------------------------

    def cache_params(self) -> Dict[str, object]:
        """Everything that determines dataset content, JSON-shaped.

        This is the :class:`~repro.parallel.cache.DatasetCache` key
        input: world knobs plus both generator configs.  Change any of
        them and the lab looks under a different key -- stale entries
        are unreachable by construction.
        """
        params = self.world.params
        return {
            "world": {
                "seed": params.seed,
                "scale": params.scale,
                "background_as_count": params.background_as_count,
            },
            "beacon": asdict(self.beacon_config),
            "demand": asdict(self.demand_config),
        }

    def _materialize_cached(self) -> None:
        """Fill both datasets from the cache, generating on a miss.

        A verified hit rebuilds the *identical* datasets (same
        iteration order, same digests) the generators would produce;
        a miss -- including a quarantined corrupt entry -- generates
        and stores them for next time.
        """
        from repro.parallel.cache import DatasetCache

        assert self.cache_dir is not None
        cache = DatasetCache(self.cache_dir)
        params = self.cache_params()
        key = cache.key_for(params)
        entry = cache.fetch(key)
        if entry is not None:
            with span("dataset.cache_load", key=key[:12]):
                self._beacons, self._demand = cache.load_datasets(entry)
            return
        with span("dataset.generate_beacons"):
            self._beacons = BeaconGenerator(
                self.world, self.beacon_config
            ).summarize()
        with span("dataset.generate_demand"):
            self._demand = DemandGenerator(
                self.world, self.demand_config
            ).build_dataset()
        with span("dataset.cache_store", key=key[:12]):
            cache.store(key, self._beacons, self._demand, params=params)

    # ---- datasets --------------------------------------------------------

    @property
    def beacons(self) -> BeaconDataset:
        """The month of BEACON data (generated once, then cached)."""
        if self._beacons is None:
            if self.cache_dir is not None:
                self._materialize_cached()
            else:
                with span("dataset.generate_beacons"):
                    self._beacons = BeaconGenerator(
                        self.world, self.beacon_config
                    ).summarize()
        return self._beacons

    @property
    def demand(self) -> DemandDataset:
        """The week of DEMAND data (generated once, then cached)."""
        if self._demand is None:
            if self.cache_dir is not None:
                self._materialize_cached()
            else:
                with span("dataset.generate_demand"):
                    self._demand = DemandGenerator(
                        self.world, self.demand_config
                    ).build_dataset()
        return self._demand

    @property
    def as_classes(self) -> ASClassificationDataset:
        """The CAIDA-style AS classification snapshot."""
        if self._as_classes is None:
            self._as_classes = ASClassificationDataset.from_world(self.world)
        return self._as_classes

    @property
    def carriers(self) -> Dict[str, CarrierGroundTruth]:
        """The three validation carriers (section 4.2 archetypes)."""
        if self._carriers is None:
            self._carriers = carrier_archetypes(self.world)
        return self._carriers

    # ---- pipeline ----------------------------------------------------------

    @property
    def result(self) -> CellSpotterResult:
        """The pipeline output on this lab's datasets (cached)."""
        if self._result is None:
            with span(
                "pipeline.run",
                workers=self.workers,
                shards=self.shards if self.shards is not None else self.workers,
            ):
                self._result = self.spotter.run(
                    self.beacons,
                    self.demand,
                    self.as_classes,
                    workers=self.workers,
                    shards=self.shards,
                )
        return self._result

    @property
    def affinity(self):
        """Client->resolver affinities over this lab's demand (cached)."""
        if self._affinity is None:
            from repro.dns.affinity import build_affinity

            self._affinity = build_affinity(self.world, self.demand)
        return self._affinity

    def rerun(self, spotter: CellSpotter) -> CellSpotterResult:
        """Run an alternative pipeline configuration on the same data
        (used by the ablation benchmarks); does not touch the cache."""
        return spotter.run(self.beacons, self.demand, self.as_classes)
