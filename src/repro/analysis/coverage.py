"""BEACON-vs-DEMAND coverage analysis (section 3.2).

The beacon feed requires Javascript, so it reaches fewer subnets than
the platform-wide request logs: 73% of DEMAND's blocks in the paper,
but 92% of its demand, because the uncovered blocks are the low-demand
tail.  These helpers compute both coverage views plus the per-family
split the table2 experiment reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.datasets.beacon_dataset import BeaconDataset
from repro.datasets.demand_dataset import DemandDataset


@dataclass(frozen=True)
class CoverageReport:
    """How much of DEMAND the BEACON feed reaches."""

    demand_subnets: int
    covered_subnets: int
    total_du: float
    covered_du: float

    @property
    def subnet_coverage(self) -> float:
        """Fraction of demand-active subnets with beacon data (~0.73)."""
        if self.demand_subnets == 0:
            return 0.0
        return self.covered_subnets / self.demand_subnets

    @property
    def demand_coverage(self) -> float:
        """Demand-weighted coverage (~0.92)."""
        if self.total_du <= 0:
            return 0.0
        return self.covered_du / self.total_du

    @property
    def tail_bias(self) -> float:
        """Demand coverage minus subnet coverage.

        Positive values mean the uncovered blocks are low-demand --
        the paper's observation and the reason the census can lean on
        beacons despite incomplete reach.
        """
        return self.demand_coverage - self.subnet_coverage


def beacon_coverage(
    beacons: BeaconDataset,
    demand: DemandDataset,
    family: Optional[int] = None,
) -> CoverageReport:
    """Coverage of the DEMAND dataset by the BEACON dataset."""
    observed = beacons.keys()
    covered_subnets = 0
    covered_du = 0.0
    demand_subnets = 0
    total_du = 0.0
    # The position map's keys are the demand subnets in dataset order,
    # so both DU sums add in the order a scan of the records would.
    for subnet, du in zip(demand.position, demand.dus):
        if family is not None and subnet.family != family:
            continue
        demand_subnets += 1
        total_du += du
        if subnet in observed:
            covered_subnets += 1
            covered_du += du
    return CoverageReport(
        demand_subnets=demand_subnets,
        covered_subnets=covered_subnets,
        total_du=total_du,
        covered_du=covered_du,
    )
