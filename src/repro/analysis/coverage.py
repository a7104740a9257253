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

from repro.columnar.backend import get_kernels
from repro.columnar.ops import slot_counts
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
    """Coverage of the DEMAND dataset by the BEACON dataset.

    One slot per demand row -- (in the family, has beacon data) --
    over the demand dataset's columns; both DU sums add the family's
    rows in dataset order, as a scan of the records does.
    """
    kernels = get_kernels()
    observed = beacons.keys()
    covered = bytearray(map(observed.__contains__, demand.position))
    # Slot = 2 * family digit + covered.  Without a family every row's
    # family digit is 0; with one, digit 1 is the asked family.
    family_cuts = () if family is None else (family, family + 1)
    mine = 0 if family is None else 1
    slots = kernels.slot_ids([(demand.families, family_cuts), (covered, (1,))])
    in_family = [int(slot // 2 == mine) for slot in range(2 * len(family_cuts) + 2)]
    counts = slot_counts(slots)
    covered_sums = dict(zip(*kernels.group_sum(slots, demand.dus)))
    family_sums = dict(zip(*kernels.group_sum(
        kernels.take(in_family, slots), demand.dus
    )))
    return CoverageReport(
        demand_subnets=counts.get(2 * mine, 0) + counts.get(2 * mine + 1, 0),
        covered_subnets=counts.get(2 * mine + 1, 0),
        total_du=family_sums.get(1, 0.0),
        covered_du=covered_sums.get(2 * mine + 1, 0.0),
    )
