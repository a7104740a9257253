"""World assembly: geography + profiles -> topology -> allocation.

:func:`build_world` is the single entry point the examples, tests and
benchmarks use.  A :class:`World` bundles everything the CDN substrate
needs to generate logs, plus ground-truth accessors used *only* by
validation code (the identification pipeline itself never reads truth
labels).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.net.prefix import Prefix
from repro.net.trie import PrefixTrie
from repro.world.allocation import (
    AllocationModel,
    AllocationPlan,
    SubnetPlan,
    build_allocation,
)
from repro.world.geo import Geography, default_geography
from repro.world.population import PopulationModel, default_population
from repro.world.profiles import CountryProfile, default_profiles
from repro.world.topology import Topology, build_topology


@dataclass(frozen=True)
class WorldParams:
    """Knobs for world generation.

    ``scale`` multiplies the paper's full-scale subnet totals (1.0 =
    4.8M active /24s); ``background_as_count`` sizes the registry
    filler (full-scale equivalent ~45k ASes).
    """

    seed: int = 0
    scale: float = 0.01
    background_as_count: int = 2000

    def __post_init__(self) -> None:
        if not 0 < self.scale <= 1:
            raise ValueError("scale must be in (0, 1]")
        if self.background_as_count < 0:
            raise ValueError("background_as_count must be >= 0")


@dataclass
class World:
    """A fully generated synthetic Internet."""

    params: WorldParams
    geography: Geography
    profiles: Dict[str, CountryProfile]
    topology: Topology
    allocation: AllocationPlan
    population: PopulationModel
    _truth_tries: Dict[int, PrefixTrie] = field(default_factory=dict, repr=False)

    # ---- ground truth (validation only) --------------------------------

    def truth_trie(self, family: int) -> PrefixTrie:
        """Trie of all allocated subnets -> their :class:`SubnetPlan`."""
        if family not in self._truth_tries:
            trie = PrefixTrie(family)
            for subnet in self.allocation.of_family(family):
                trie.insert(subnet.prefix, subnet)
            self._truth_tries[family] = trie
        return self._truth_tries[family]

    def truth_is_cellular(self, prefix: Prefix) -> Optional[bool]:
        """Ground-truth label for a subnet key, or None if unallocated."""
        subnet = self.allocation.by_prefix.get(prefix)
        return subnet.is_cellular if subnet is not None else None

    def truth_cellular_asns(self) -> Set[int]:
        """Ground-truth cellular ASNs."""
        return self.topology.registry.cellular_asns()

    # ---- convenience views ---------------------------------------------

    def subnets(self) -> List[SubnetPlan]:
        return self.allocation.subnets

    def rng(self, purpose: str) -> random.Random:
        """A deterministic RNG namespaced under this world's seed."""
        return random.Random(f"{self.params.seed}:{purpose}")


def build_world(
    params: Optional[WorldParams] = None,
    geography: Optional[Geography] = None,
    profiles: Optional[Dict[str, CountryProfile]] = None,
    allocation_model: Optional[AllocationModel] = None,
    **overrides,
) -> World:
    """Build a world from ``params`` (or keyword overrides).

    Custom ``geography``/``profiles`` replace the built-in calibration
    (every profile must have a geography entry); omitting them gives
    the paper-calibrated defaults.

    >>> world = build_world(scale=0.002, seed=7)
    >>> len(world.subnets()) > 0
    True
    """
    if params is None:
        params = WorldParams(**overrides)
    elif overrides:
        raise TypeError("pass either params or keyword overrides, not both")
    geography = geography if geography is not None else default_geography()
    profiles = profiles if profiles is not None else default_profiles()
    topology = build_topology(
        geography,
        profiles,
        seed=params.seed,
        background_as_count=params.background_as_count,
    )
    allocation = build_allocation(
        geography,
        profiles,
        topology,
        scale=params.scale,
        seed=params.seed,
        model=allocation_model,
    )
    return World(
        params=params,
        geography=geography,
        profiles=profiles,
        topology=topology,
        allocation=allocation,
        population=default_population(),
    )
