"""The BEACON dataset: per-subnet Network Information API label counts.

Aggregates RUM beacon hits by /24 (IPv4) and /48 (IPv6) subnet, exactly
the granularity at which section 4 computes cellular ratios.  The
dataset also keeps global per-browser API counters, which is all
Figure 1 needs.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import IO, Dict, Iterator, KeysView, List, Optional, Tuple

from repro.net.prefix import Prefix
from repro.world.population import Browser


@dataclass
class SubnetBeaconCounts:
    """Label counts for one subnet.

    ``hits`` counts all beacon hits, ``api_hits`` the subset carrying
    Network Information API data, and ``cellular_hits`` the API hits
    whose ConnectionType was cellular.
    """

    subnet: Prefix
    asn: int
    country: str
    hits: int = 0
    api_hits: int = 0
    cellular_hits: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not 0 <= self.cellular_hits <= self.api_hits <= self.hits:
            raise ValueError(
                f"{self.subnet}: need 0 <= cellular <= api <= hits, got "
                f"{self.cellular_hits}/{self.api_hits}/{self.hits}"
            )

    @property
    def noncellular_hits(self) -> int:
        """API hits with a non-cellular ConnectionType."""
        return self.api_hits - self.cellular_hits

    @property
    def cellular_ratio(self) -> Optional[float]:
        """Fraction of API hits labeled cellular; None without API data.

        This is the paper's core quantity (section 4.1).
        """
        if self.api_hits == 0:
            return None
        return self.cellular_hits / self.api_hits

    def to_json(self) -> str:
        return json.dumps(
            {
                "subnet": str(self.subnet),
                "asn": self.asn,
                "country": self.country,
                "hits": self.hits,
                "api": self.api_hits,
                "cell": self.cellular_hits,
            },
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, line: str) -> "SubnetBeaconCounts":
        raw = json.loads(line)
        return cls(
            subnet=Prefix.parse(raw["subnet"]),
            asn=raw["asn"],
            country=raw["country"],
            hits=raw["hits"],
            api_hits=raw["api"],
            cellular_hits=raw["cell"],
        )


def fold_hit(
    by_subnet: Dict[Prefix, SubnetBeaconCounts],
    subnet: Prefix,
    asn: int,
    country: str,
    api_enabled: bool,
    cellular_labeled: bool,
) -> None:
    """Fold one accepted beacon hit into per-subnet counts.

    The one per-hit counting path: the batch dataset
    (:meth:`BeaconDataset.observe_hit`) and the stream's windows
    (:class:`repro.stream.windows.WindowedSubnetState`) both call it.
    The first hit for a subnet pins its ``asn``/``country``; later
    hits with other metadata count toward that first entry.
    """
    if cellular_labeled and not api_enabled:
        raise ValueError("cellular label without API data")
    counts = by_subnet.get(subnet)
    if counts is None:
        counts = by_subnet[subnet] = SubnetBeaconCounts(subnet, asn, country)
    counts.hits += 1
    if api_enabled:
        counts.api_hits += 1
        if cellular_labeled:
            counts.cellular_hits += 1


class BeaconDataset:
    """All BEACON observations for one collection month.

    ``families`` holds each observed subnet's address family, in
    dataset order; every write that adds a subnet appends to it.
    """

    def __init__(self, month: str) -> None:
        self.month = month
        self._by_subnet: Dict[Prefix, SubnetBeaconCounts] = {}
        self.families = array("b")
        #: Global (hits, api_hits) per browser, for Figure 1.
        self.browser_counts: Dict[Browser, Tuple[int, int]] = {}

    def __len__(self) -> int:
        return len(self._by_subnet)

    def __contains__(self, subnet: Prefix) -> bool:
        return subnet in self._by_subnet

    def __iter__(self) -> Iterator[SubnetBeaconCounts]:
        return iter(self._by_subnet.values())

    def get(self, subnet: Prefix) -> Optional[SubnetBeaconCounts]:
        return self._by_subnet.get(subnet)

    def keys(self) -> KeysView[Prefix]:
        """The observed subnets (a live view; membership runs in C)."""
        return self._by_subnet.keys()

    def family_counts(self) -> Counter:
        """Observed subnets per address family, families in order of
        first appearance."""
        from repro.columnar.ops import slot_counts

        return Counter(slot_counts(self.families))

    def add_counts(self, counts: SubnetBeaconCounts) -> None:
        """Add (or merge) a subnet's counts."""
        counts.validate()
        existing = self._by_subnet.get(counts.subnet)
        if existing is None:
            self.families.append(counts.subnet.family)
            self._by_subnet[counts.subnet] = counts
            return
        if (existing.asn, existing.country) != (counts.asn, counts.country):
            raise ValueError(f"conflicting metadata for {counts.subnet}")
        existing.hits += counts.hits
        existing.api_hits += counts.api_hits
        existing.cellular_hits += counts.cellular_hits

    def observe_hit(
        self,
        subnet: Prefix,
        asn: int,
        country: str,
        browser: Browser,
        api_enabled: bool,
        cellular_labeled: bool,
    ) -> None:
        """Accumulate one beacon hit."""
        before = len(self._by_subnet)
        fold_hit(self._by_subnet, subnet, asn, country, api_enabled,
                 cellular_labeled)
        if len(self._by_subnet) != before:
            self.families.append(subnet.family)
        hits, api = self.browser_counts.get(browser, (0, 0))
        self.browser_counts[browser] = (hits + 1, api + (1 if api_enabled else 0))

    def observe_browser_batch(
        self, browser: Browser, hits: int, api_hits: int
    ) -> None:
        """Accumulate aggregated per-browser counters (fast path)."""
        if not 0 <= api_hits <= hits:
            raise ValueError("need 0 <= api_hits <= hits")
        prev_hits, prev_api = self.browser_counts.get(browser, (0, 0))
        self.browser_counts[browser] = (prev_hits + hits, prev_api + api_hits)

    @classmethod
    def from_hits(cls, month: str, hits) -> "BeaconDataset":
        """Aggregate an iterable of :class:`~repro.cdn.logs.BeaconHit`.

        The ingestion path a real deployment uses: raw per-page-load
        records stream in (e.g. via ``repro.cdn.logs.read_jsonl``) and
        fold into per-subnet counts without ever being held in memory.
        Hits from other months are rejected -- the BEACON dataset is a
        monthly collection.
        """
        dataset = cls(month=month)
        for hit in hits:
            if hit.month != month:
                raise ValueError(
                    f"hit from {hit.month} in a {month} collection"
                )
            dataset.observe_hit(
                subnet=hit.subnet,
                asn=hit.asn,
                country=hit.country,
                browser=hit.browser,
                api_enabled=hit.api_enabled,
                cellular_labeled=hit.is_cellular_labeled,
            )
        return dataset

    # ---- aggregate views -------------------------------------------------

    def subnets(self, family: Optional[int] = None) -> List[SubnetBeaconCounts]:
        """Subnets with any hits, optionally filtered by family."""
        if family is None:
            return list(self._by_subnet.values())
        return [
            counts
            for counts in self._by_subnet.values()
            if counts.subnet.family == family
        ]

    @property
    def total_hits(self) -> int:
        return sum(counts.hits for counts in self._by_subnet.values())

    @property
    def total_api_hits(self) -> int:
        return sum(counts.api_hits for counts in self._by_subnet.values())

    def hits_by_asn(self) -> Dict[int, int]:
        """Total beacon hits per ASN (AS filtering rule 2 input)."""
        totals: Dict[int, int] = {}
        for counts in self._by_subnet.values():
            totals[counts.asn] = totals.get(counts.asn, 0) + counts.hits
        return totals

    def api_share(self) -> float:
        """Fraction of hits with functional API data (Figure 1 total)."""
        hits = self.total_hits
        return self.total_api_hits / hits if hits else 0.0

    # ---- persistence -----------------------------------------------------

    def dump(self, stream: IO[str]) -> int:
        """Write the dataset as JSONL (header line + one line per subnet)."""
        header = {
            "month": self.month,
            "browsers": {
                browser.value: list(counts)
                for browser, counts in self.browser_counts.items()
            },
        }
        stream.write(json.dumps(header, separators=(",", ":")))
        stream.write("\n")
        count = 0
        for counts in self._by_subnet.values():
            stream.write(counts.to_json())
            stream.write("\n")
            count += 1
        return count

    @classmethod
    def load(
        cls, stream: IO[str], policy: Optional["IngestPolicy"] = None
    ) -> "BeaconDataset":
        """Read a dataset back from :meth:`dump` output.

        ``policy`` (:class:`repro.runtime.policies.IngestPolicy`)
        governs malformed record lines: the default strict policy
        raises :class:`~repro.runtime.policies.IngestFault` with line
        number and field context; ``skip`` / ``quarantine`` policies
        drop (and optionally sidecar) bad lines, subject to the
        policy's error budget.  A missing or malformed header is
        always fatal -- there is no dataset without one.
        """
        from repro.runtime.policies import IngestPolicy, line_error

        if policy is None:
            policy = IngestPolicy.strict()
        header_line = stream.readline()
        if not header_line.strip():
            raise ValueError("missing BEACON header line")
        try:
            header = json.loads(header_line)
            dataset = cls(month=header["month"])
            for name, (hits, api) in header.get("browsers", {}).items():
                dataset.browser_counts[Browser(name)] = (hits, api)
        except Exception as exc:
            raise ValueError(
                f"line 1: BeaconDataset header: {exc}"
            ) from exc
        for line_no, line in enumerate(stream, start=2):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                dataset.add_counts(SubnetBeaconCounts.from_json(stripped))
            except Exception as exc:  # noqa: BLE001 -- policy classifies
                policy.reject(
                    line_error(line_no, "SubnetBeaconCounts", stripped, exc),
                    line,
                )
                continue
            policy.accept()
        policy.finish()
        return dataset
