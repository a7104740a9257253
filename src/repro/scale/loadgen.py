"""Heavy-tailed load generation against the serving plane.

Richter et al.'s CGN measurements (PAPERS.md) show client demand
concentrating on a small fraction of subnets -- the traffic shape
that exposes tail latency.  The generator reproduces it *empirically*:
queries are sampled from the latest published snapshot generation with
probability proportional to each subnet's recorded demand hits, so
the hottest /24s dominate exactly as the demand model says they do.
A slice of deliberate misses (TEST-NET-3 addresses) and covering-CIDR
queries keeps the non-hit paths warm, matching the single-process
bench's query mix.

Three phases, all deterministic under ``--seed``:

- *warmup* -- a small unmeasured burst (indices built, pages faulted);
- *throughput* -- closed-loop batched queries over ``concurrency``
  connections (the aggregate-q/s number);
- *overload* -- optional single-query burst at concurrency far above
  the plane's admission bound, counting the explicit ``overloaded``
  sheds it provokes (this is what drives the
  ``serving-plane-overload`` alert rule in CI).

Latency SLOs are *not* re-invented here: the plane records its own
request histogram, and the rules shipped in
:func:`repro.obs.alerts.default_rules` (or any TOML rules file) judge
it through the ordinary scraper -- an overloaded replica pages exactly
like a drifting census.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.columnar.mmaptable import open_mmap
from repro.net.addr import format_ip
from repro.scale.snapshot import SnapshotCatalog
from repro.serve.protocol import MAX_LINE_BYTES, dumps


# ---- query synthesis ------------------------------------------------------


def heavy_tail_queries(
    records: Sequence,
    count: int,
    seed: int = 1,
    miss_fraction: float = 0.08,
    cidr_fraction: float = 0.04,
) -> List[str]:
    """``count`` query strings, demand-hit weighted (heavy-tailed).

    ``records`` is any sequence of
    :class:`~repro.core.ratios.RatioRecord`; weights are each subnet's
    total ``hits``, so the sampled traffic concentrates the way the
    demand model concentrates.  ``miss_fraction`` of queries are
    guaranteed misses (TEST-NET-3), ``cidr_fraction`` are covering-CIDR
    lookups; the rest are addresses inside sampled subnets.
    """
    if not records:
        raise ValueError("cannot synthesize queries from an empty table")
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = random.Random(seed)
    weights = [max(float(record.hits), 1.0) for record in records]
    picks = rng.choices(range(len(records)), weights=weights, k=count)
    queries: List[str] = []
    for pick in picks:
        roll = rng.random()
        if roll < miss_fraction:
            queries.append(f"203.0.113.{rng.randrange(256)}")
            continue
        subnet = records[pick].subnet
        if roll < miss_fraction + cidr_fraction:
            queries.append(str(subnet))
            continue
        offset = rng.randrange(max(subnet.num_addresses, 1))
        queries.append(format_ip(subnet.family, subnet.nth_address(offset)))
    return queries


def queries_from_catalog(
    catalog_dir: Union[str, Path],
    count: int,
    seed: int = 1,
) -> List[str]:
    """Heavy-tailed queries sampled from the latest generation."""
    catalog = SnapshotCatalog(catalog_dir)
    info = catalog.latest()
    if info is None:
        raise ValueError(f"no snapshot generation published in {catalog_dir}")
    table = open_mmap(info.table_path)
    try:
        return heavy_tail_queries(table.records(), count, seed=seed)
    finally:
        table.close()


# ---- client ---------------------------------------------------------------


@dataclass
class PhaseReport:
    """Client-side outcome of one loadgen phase."""

    name: str
    requests: int = 0
    queries: int = 0
    shed: int = 0
    errors: int = 0
    #: Queries of requests answered ``{"ok": false}``: sent, not answered.
    error_queries: int = 0
    elapsed_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)

    def _percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile: the ``ceil(q * n)``-th smallest."""
        if not self.latencies_s:
            return None
        ordered = sorted(self.latencies_s)
        # Rounding first keeps float noise (0.07 * 100 = 7.000000000000001)
        # from bumping an exact rank up by one.
        rank = math.ceil(round(q * len(ordered), 9)) - 1
        return ordered[min(len(ordered) - 1, max(0, rank))]

    def as_dict(self) -> Dict:
        answered = self.queries - self.shed - self.error_queries
        return {
            "name": self.name,
            "requests": self.requests,
            "queries": self.queries,
            "shed": self.shed,
            "errors": self.errors,
            "elapsed_s": round(self.elapsed_s, 6),
            "queries_per_s": (
                round(answered / self.elapsed_s, 3)
                if self.elapsed_s > 0
                else 0.0
            ),
            "request_p50_s": self._percentile(0.50),
            "request_p99_s": self._percentile(0.99),
        }


def _connector(
    socket_path: Optional[Union[str, Path]],
    host: Optional[str],
    port: Optional[int],
):
    if socket_path is not None:
        return lambda: asyncio.open_unix_connection(
            str(socket_path), limit=MAX_LINE_BYTES
        )
    if port is None:
        raise ValueError("loadgen needs a socket path or a TCP port")
    return lambda: asyncio.open_connection(
        host or "127.0.0.1", port, limit=MAX_LINE_BYTES
    )


async def _drive_phase(
    connect,
    report: PhaseReport,
    queries: Sequence[str],
    concurrency: int,
    batch: int,
) -> None:
    """Closed-loop: ``concurrency`` connections, each request/response."""
    chunks: "asyncio.Queue[Optional[List[str]]]" = asyncio.Queue()
    for start in range(0, len(queries), batch):
        chunks.put_nowait(list(queries[start:start + batch]))
    for _ in range(concurrency):
        chunks.put_nowait(None)

    async def client() -> None:
        try:
            reader, writer = await connect()
        except OSError:
            report.errors += 1
            return
        try:
            while True:
                chunk = await chunks.get()
                if chunk is None:
                    return
                if len(chunk) == 1:
                    request = {"op": "query", "q": chunk[0]}
                else:
                    request = {"op": "query", "qs": chunk}
                line = dumps(request)
                started = time.perf_counter()
                try:
                    writer.write(line)
                    await writer.drain()
                    reply = await reader.readline()
                except (ConnectionError, OSError):
                    report.errors += 1
                    return
                elapsed = time.perf_counter() - started
                if not reply:
                    report.errors += 1
                    return
                report.requests += 1
                report.queries += len(chunk)
                report.latencies_s.append(elapsed)
                try:
                    payload = json.loads(reply)
                except ValueError:
                    report.errors += 1
                    report.error_queries += len(chunk)
                    continue
                if payload.get("overloaded"):
                    report.shed += len(chunk)
                elif payload.get("ok"):
                    for result in payload.get("results", []):
                        if result.get("overloaded"):
                            report.shed += 1
                else:
                    report.errors += 1
                    report.error_queries += len(chunk)
        finally:
            try:
                writer.close()
            except Exception:  # noqa: BLE001 -- teardown best effort
                pass

    started = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(concurrency)))
    report.elapsed_s = time.perf_counter() - started


async def run_loadgen(
    queries: Sequence[str],
    socket_path: Optional[Union[str, Path]] = None,
    host: Optional[str] = None,
    port: Optional[int] = None,
    concurrency: int = 8,
    batch: int = 32,
    warmup: int = 256,
    overload_queries: int = 0,
    overload_concurrency: int = 64,
) -> Dict:
    """Drive the plane through warmup / throughput / overload phases."""
    if concurrency < 1 or batch < 1:
        raise ValueError("concurrency and batch must be >= 1")
    connect = _connector(socket_path, host, port)
    phases: List[PhaseReport] = []

    if warmup:
        warm = PhaseReport("warmup")
        await _drive_phase(
            connect, warm, queries[:warmup], min(concurrency, 4), batch
        )
        phases.append(warm)

    throughput = PhaseReport("throughput")
    await _drive_phase(connect, throughput, queries, concurrency, batch)
    phases.append(throughput)

    if overload_queries:
        overload = PhaseReport("overload")
        await _drive_phase(
            connect,
            overload,
            queries[:overload_queries],
            overload_concurrency,
            1,
        )
        phases.append(overload)

    totals = {
        "queries": sum(phase.queries for phase in phases),
        "requests": sum(phase.requests for phase in phases),
        "shed": sum(phase.shed for phase in phases),
        "errors": sum(phase.errors for phase in phases),
    }
    report = {
        "ok": totals["errors"] == 0,
        "phases": [phase.as_dict() for phase in phases],
        "totals": totals,
        "throughput_queries_per_s": throughput.as_dict()["queries_per_s"],
    }
    return report


def write_report(report: Dict, path: Union[str, Path]) -> Path:
    """Persist a loadgen report as pretty JSON (atomic write)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    tmp.replace(path)
    return path
