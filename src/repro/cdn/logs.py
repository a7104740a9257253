"""Log record types and JSONL round-trip.

Two record shapes mirror the CDN's two monitoring sources:
:class:`BeaconHit` for RUM beacon page loads (section 3.1) and
:class:`RequestRecord` for daily per-subnet platform request counts
(section 3.2).  Both serialize to one-JSON-object-per-line streams so
datasets can be written to disk and re-read without holding a world in
memory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Optional

from repro.net.addr import format_ip, parse_ip
from repro.net.prefix import Prefix
from repro.cdn.netinfo import ConnectionType
from repro.world.population import Browser


@dataclass(frozen=True)
class BeaconHit:
    """One RUM beacon page-load report.

    ``connection_type`` is None when the browser lacks the Network
    Information API (``api_enabled`` False) -- most hits at the study
    time, notably all of iOS.
    """

    month: str
    family: int
    address: int
    subnet: Prefix
    asn: int
    country: str
    browser: Browser
    api_enabled: bool
    connection_type: Optional[ConnectionType]

    def __post_init__(self) -> None:
        if self.api_enabled and self.connection_type is None:
            raise ValueError("API-enabled hit needs a connection type")
        if not self.api_enabled and self.connection_type is not None:
            raise ValueError("API-disabled hit cannot carry a connection type")

    @property
    def is_cellular_labeled(self) -> bool:
        """True when the hit carries a cellular ConnectionType."""
        return (
            self.connection_type is not None
            and self.connection_type.is_cellular
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "month": self.month,
                "ip": format_ip(self.family, self.address),
                "subnet": str(self.subnet),
                "asn": self.asn,
                "country": self.country,
                "browser": self.browser.value,
                "conn": (
                    self.connection_type.value
                    if self.connection_type is not None
                    else None
                ),
            },
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, line: str) -> "BeaconHit":
        raw = json.loads(line)
        family, address = parse_ip(raw["ip"])
        conn = raw.get("conn")
        return cls(
            month=raw["month"],
            family=family,
            address=address,
            subnet=Prefix.parse(raw["subnet"]),
            asn=raw["asn"],
            country=raw["country"],
            browser=Browser(raw["browser"]),
            api_enabled=conn is not None,
            connection_type=ConnectionType(conn) if conn is not None else None,
        )


@dataclass(frozen=True)
class RequestRecord:
    """Daily request count for one /24 or /48 subnet."""

    day: int
    subnet: Prefix
    asn: int
    country: str
    requests: int

    def __post_init__(self) -> None:
        if self.requests < 0:
            raise ValueError("request count must be non-negative")

    def to_json(self) -> str:
        return json.dumps(
            {
                "day": self.day,
                "subnet": str(self.subnet),
                "asn": self.asn,
                "country": self.country,
                "requests": self.requests,
            },
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, line: str) -> "RequestRecord":
        raw = json.loads(line)
        return cls(
            day=raw["day"],
            subnet=Prefix.parse(raw["subnet"]),
            asn=raw["asn"],
            country=raw["country"],
            requests=raw["requests"],
        )


def write_jsonl(records: Iterable, stream: IO[str]) -> int:
    """Write records with ``to_json`` methods as JSONL; returns count."""
    count = 0
    for record in records:
        stream.write(record.to_json())
        stream.write("\n")
        count += 1
    return count


def read_jsonl(
    stream: IO[str],
    record_type,
    policy: Optional["IngestPolicy"] = None,
    start_line: int = 1,
) -> Iterator:
    """Stream records back from JSONL, skipping blank lines.

    ``policy`` (an :class:`repro.runtime.policies.IngestPolicy`)
    decides what happens to lines that fail to parse or validate; the
    default is strict, which raises
    :class:`~repro.runtime.policies.IngestFault` carrying the line
    number, record type, offending field, and a snippet -- instead of
    the bare ``KeyError`` / ``JSONDecodeError`` of old.

    ``start_line`` is the 1-based number of the stream's first line
    (datasets with header lines pass 2).  Call ``policy.finish()``
    after exhausting the iterator to enforce the error budget on the
    final tally.
    """
    from repro.runtime.policies import IngestPolicy, line_error

    if policy is None:
        policy = IngestPolicy.strict()
    type_name = getattr(record_type, "__name__", str(record_type))
    try:
        for line_no, line in enumerate(stream, start=start_line):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = record_type.from_json(stripped)
            except Exception as exc:  # noqa: BLE001 -- policy classifies
                policy.reject(
                    line_error(line_no, type_name, stripped, exc), line
                )
                continue
            policy.accept()
            yield record
    finally:
        # Callers that stop short of policy.finish() (closed
        # generators) still get their tail batch of accepted-line
        # counts folded into the global ingest counters.
        policy.flush_metrics()
