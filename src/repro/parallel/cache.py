"""Digest-keyed on-disk dataset cache.

``cellspot all`` spends most of a repeat run re-synthesizing or
re-parsing the BEACON / DEMAND datasets it already built last time.
:class:`DatasetCache` short-circuits that: datasets are stored once as
prefix-hash-sharded **columnar** JSON files under a key derived from
the full generation parameters, and later runs either rebuild the
datasets from the shards (:meth:`DatasetCache.load_datasets`) or skip
materialization entirely via
:func:`repro.parallel.pipeline.run_from_entry`.

Design rules, in the order they matter:

* **Key = digest of parameters.**  The cache key is the SHA-256 of
  the canonical JSON of every input that determines dataset content
  (seed, scale, config dataclasses, format version).  Change any
  parameter and you get a different key -- a stale entry can never be
  returned for new parameters, it is simply never looked up.
* **meta.json is the commit point.**  Shard files are written (each
  atomically) *before* ``meta.json``; an entry without its meta file
  does not exist as far as :meth:`fetch` is concerned, so a crash
  mid-store leaves a miss, never a half-entry hit.
* **Verify, then trust.**  ``meta.json`` records the SHA-256 of every
  shard file; :meth:`fetch` re-hashes them and treats any mismatch or
  unreadable file as corruption.  Corrupt entries are quarantined --
  moved aside with a sidecar describing what failed, reusing the
  ingestion layer's quarantine format -- and reported as a miss so the
  caller regenerates.  A corrupt cache costs time, never correctness.
* **Columnar shards load fast, in bounded memory.**  Each shard file
  is JSONL of *record batches* -- one JSON object of parallel arrays
  per few thousand rows -- so a C-speed ``json.loads`` per batch
  replaces per-row parsing while readers (:func:`iter_shard_batches`)
  stream batch-at-a-time: peak allocation stays flat as shards grow,
  and the fused pipeline spots each batch with the columnar kernels
  (:mod:`repro.columnar`) as it decodes.
* **Bounded size, LRU eviction.**  With ``max_entries`` set, every
  successful :meth:`store` opportunistically calls :meth:`prune`,
  which drops the least-recently-*used* entries (``meta.json`` mtime,
  refreshed on every verified fetch) -- a long parameter sweep can no
  longer grow the cache without bound.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.datasets.beacon_dataset import BeaconDataset, SubnetBeaconCounts
from repro.datasets.demand_dataset import DemandDataset, SubnetDemand
from repro.net.prefix import Prefix
from repro.obs.metrics import MeterCache, instrument
from repro.runtime.checkpoint import atomic_write_text
from repro.runtime.faults import fault_point
from repro.runtime.policies import IngestError
from repro.runtime.quarantine import QuarantineSink
from repro.world.population import Browser

from repro.parallel.sharding import partition_beacons, partition_demand

#: Cache telemetry (``repro.obs``).  Cache operations are rare (a few
#: per run) so these record unbatched at the call sites.
_CACHE_METER = MeterCache(
    lambda: (
        instrument(
            "counter", "dataset_cache_hits_total",
            "verified dataset-cache fetches",
        ),
        instrument(
            "counter", "dataset_cache_misses_total",
            "dataset-cache fetches that found no usable entry",
        ),
        instrument(
            "counter", "dataset_cache_evictions_total",
            "entries removed by LRU pruning",
        ),
        instrument(
            "counter", "dataset_cache_corruptions_total",
            "entries quarantined after failing verification",
        ),
        instrument(
            "counter", "dataset_cache_stored_bytes_total",
            "bytes of shard + meta payload written by store()",
        ),
    )
)

#: Bump when the shard file layout changes; part of the cache key, so
#: old-format entries become unreachable instead of misread.
#: v2: shard files are JSONL of columnar record batches (one JSON
#: object of parallel arrays per line, at most ``SHARD_BATCH_ROWS``
#: rows each) so readers can stream with bounded peak memory.  A v1
#: file (one object, one line) is a valid single-batch v2 file.
CACHE_FORMAT_VERSION = 2

#: Rows per record-batch line in a shard file.  Small enough that one
#: decoded batch is a bounded allocation, large enough that the
#: per-line ``json.loads`` overhead stays negligible.
SHARD_BATCH_ROWS = 4096

#: Default partition count for stored entries (decoupled from worker
#: count -- any worker count can consume any shard count).
DEFAULT_SHARDS = 8

_BEACON_COLUMNS = (
    "idx", "family", "value", "length", "asn", "country",
    "hits", "api", "cell",
)
_DEMAND_COLUMNS = (
    "idx", "family", "value", "length", "asn", "country", "du",
)

META_NAME = "meta.json"
QUARANTINE_DIR = "quarantine"


class CacheCorruption(RuntimeError):
    """A cache entry failed verification (bad digest, missing file...)."""


def canonical_params_json(params: Mapping[str, object]) -> str:
    """Canonical JSON for key derivation (sorted keys, no whitespace)."""
    try:
        return json.dumps(params, sort_keys=True, separators=(",", ":"))
    except TypeError as exc:
        raise ValueError(f"cache params must be JSON-serializable: {exc}")


def cache_key(params: Mapping[str, object]) -> str:
    """SHA-256 cache key over canonical parameters + format version."""
    payload = canonical_params_json(
        {"format_version": CACHE_FORMAT_VERSION, "params": dict(params)}
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _verify_shard_digest(path: Union[str, Path], sha256_hex: str) -> None:
    """Chunked re-hash of a shard file against its recorded digest.

    Reads in fixed-size chunks so verification never loads the file
    whole; raises :class:`CacheCorruption` on any mismatch.
    """
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as stream:
            for chunk in iter(lambda: stream.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as exc:
        raise CacheCorruption(f"unreadable shard file {path}: {exc}") from exc
    actual = digest.hexdigest()
    if actual != sha256_hex:
        raise CacheCorruption(
            f"shard file {path} digest mismatch: "
            f"expected {sha256_hex[:12]}..., got {actual[:12]}..."
        )


def iter_shard_batches(
    path: Union[str, Path], sha256_hex: str
):
    """Stream the record batches of one shard file, digest-verified.

    Two passes over the file, neither holding it in memory: a chunked
    hash pass (integrity first -- a torn write must surface before any
    line is trusted), then a line-at-a-time parse pass yielding one
    column dict per record batch.  Peak allocation is one batch, not
    one shard, no matter how large the shard grows.

    Module-level and picklable-friendly so pool workers can call it
    directly; raises :class:`CacheCorruption` on any mismatch.
    """
    _verify_shard_digest(path, sha256_hex)
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                columns = json.loads(stripped)
            except ValueError as exc:
                raise CacheCorruption(
                    f"shard file {path} is not JSON: {exc}"
                ) from exc
            if not isinstance(columns, dict):
                raise CacheCorruption(
                    f"shard file {path}: expected a JSON object"
                )
            yield columns


def _columns_payload(
    rows: Sequence[tuple], names: Sequence[str]
) -> str:
    """Encode compact rows as JSONL record batches.

    One JSON object of parallel arrays per ``SHARD_BATCH_ROWS`` rows;
    an empty shard still writes one empty batch so readers always see
    the schema.
    """
    lines = []
    for start in range(0, max(len(rows), 1), SHARD_BATCH_ROWS):
        chunk = rows[start:start + SHARD_BATCH_ROWS]
        columns = {
            name: [row[position] for row in chunk]
            for position, name in enumerate(names)
        }
        lines.append(json.dumps(columns, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def _rows_from_columns(
    columns: Dict[str, list], names: Sequence[str], path: Union[str, Path]
) -> List[tuple]:
    """Decode a columnar object back into compact rows."""
    try:
        series = [columns[name] for name in names]
    except KeyError as exc:
        raise CacheCorruption(
            f"shard file {path} missing column {exc}"
        ) from None
    lengths = {len(column) for column in series}
    if len(lengths) > 1:
        raise CacheCorruption(
            f"shard file {path} has ragged columns: {sorted(lengths)}"
        )
    return list(zip(*series))


@dataclass(frozen=True)
class CacheEntry:
    """A verified, committed cache entry."""

    key: str
    directory: Path
    meta: Dict

    def _shard_files(self, stem: str) -> List[Tuple[str, str]]:
        files = self.meta["files"]
        return [
            (str(self.directory / name), files[name])
            for name in sorted(
                files,
                key=lambda n: int(n.rsplit("shard", 1)[1].split(".")[0]),
            )
            if name.startswith(stem)
        ]

    @property
    def shards(self) -> int:
        return int(self.meta["shards"])

    @property
    def beacon_shards(self) -> List[Tuple[str, str]]:
        """Ordered ``(path, sha256)`` pairs of the BEACON shard files."""
        return self._shard_files("beacon.")

    @property
    def demand_shards(self) -> List[Tuple[str, str]]:
        """Ordered ``(path, sha256)`` pairs of the DEMAND shard files."""
        return self._shard_files("demand.")

    @property
    def dataset_digests(self) -> Dict[str, str]:
        """Manifest-compatible digests of the datasets this entry holds."""
        return dict(self.meta.get("dataset_digests", {}))


class DatasetCache:
    """Directory of digest-keyed dataset entries.

    Layout::

        ROOT/<key>/meta.json            -- commit point + digests
        ROOT/<key>/beacon.shard<i>.json -- columnar BEACON partition i
        ROOT/<key>/demand.shard<i>.json -- columnar DEMAND partition i
        ROOT/quarantine/<key>.<stamp>/  -- corrupt entries, moved aside
        ROOT/quarantine/<key>.<stamp>.quarantine.jsonl -- why
    """

    def __init__(
        self,
        root: Union[str, Path],
        max_entries: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.root = Path(root)
        self.max_entries = max_entries

    # ---- keys --------------------------------------------------------------

    def key_for(self, params: Mapping[str, object]) -> str:
        return cache_key(params)

    def entry_dir(self, key: str) -> Path:
        return self.root / key

    # ---- store -------------------------------------------------------------

    def store(
        self,
        key: str,
        beacons: BeaconDataset,
        demand: DemandDataset,
        shards: int = DEFAULT_SHARDS,
        params: Optional[Mapping[str, object]] = None,
    ) -> CacheEntry:
        """Write both datasets under ``key``; returns the live entry.

        ``params``, when given, must hash to ``key`` -- a cheap guard
        against storing datasets under somebody else's key.  Shard
        files land first (each atomically); ``meta.json`` commits the
        entry last.
        """
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if params is not None and cache_key(params) != key:
            raise ValueError("params do not hash to the given cache key")
        from repro.runtime.manifest import dataset_digest

        directory = self.entry_dir(key)
        directory.mkdir(parents=True, exist_ok=True)
        files: Dict[str, str] = {}
        stored_bytes = 0

        def put(name: str, payload: str) -> None:
            nonlocal stored_bytes
            atomic_write_text(directory / name, payload)
            data = payload.encode("utf-8")
            stored_bytes += len(data)
            files[name] = hashlib.sha256(data).hexdigest()
            # Chaos hook: a torn-write fault truncates the shard file
            # *after* the hash was recorded, exactly the corruption the
            # fetch-time verifier must catch and quarantine.
            fault_point("cache.store", index=len(files) - 1,
                        path=directory / name)

        for index, part in enumerate(partition_beacons(beacons, shards)):
            put(
                f"beacon.shard{index}.json",
                _columns_payload(part, _BEACON_COLUMNS),
            )
        for index, part in enumerate(partition_demand(demand, shards)):
            put(
                f"demand.shard{index}.json",
                _columns_payload(part, _DEMAND_COLUMNS),
            )
        meta = {
            "format_version": CACHE_FORMAT_VERSION,
            "key": key,
            "shards": shards,
            "params": dict(params) if params is not None else None,
            "beacon": {
                "month": beacons.month,
                # A list, not an object: meta.json is written with
                # sort_keys, and browser-counter order must survive so
                # the rebuilt dataset dumps byte-identically.
                "browsers": [
                    [browser.value, hits, api]
                    for browser, (hits, api) in beacons.browser_counts.items()
                ],
            },
            "demand": {"window_days": demand.window_days},
            "dataset_digests": {
                "beacon": dataset_digest(beacons),
                "demand": dataset_digest(demand),
            },
            "files": files,
            "created_at": time.time(),
        }
        meta_payload = json.dumps(meta, indent=2, sort_keys=True)
        atomic_write_text(directory / META_NAME, meta_payload)
        stored_bytes += len(meta_payload.encode("utf-8"))
        _CACHE_METER.resolve()[4].inc(stored_bytes)
        if self.max_entries is not None:
            self.prune(self.max_entries)
        return CacheEntry(key=key, directory=directory, meta=meta)

    # ---- fetch -------------------------------------------------------------

    def fetch(self, key: str) -> Optional[CacheEntry]:
        """Look up a key; verified hit or ``None``.

        An absent entry is a clean miss.  A present-but-broken entry
        (unparsable meta, wrong key/version, missing shard file,
        digest mismatch) is quarantined and *also* reported as a miss:
        corruption must cost a rebuild, not a traceback.
        """
        hits, misses, _evictions, corruptions, _bytes = _CACHE_METER.resolve()
        directory = self.entry_dir(key)
        meta_path = directory / META_NAME
        if not meta_path.exists():
            misses.inc()
            return None
        try:
            entry = self._verify(key, directory, meta_path)
        except CacheCorruption as exc:
            self.quarantine(key, str(exc))
            corruptions.inc()
            misses.inc()
            return None
        self._touch(meta_path)
        hits.inc()
        return entry

    @staticmethod
    def _touch(meta_path: Path) -> None:
        """Refresh an entry's recency stamp (LRU bookkeeping).

        ``meta.json``'s mtime is the entry's last-used time; a
        best-effort ``utime`` on every verified hit keeps warm entries
        out of :meth:`prune`'s reach.
        """
        try:
            os.utime(meta_path, None)
        except OSError:
            pass  # read-only cache mounts still serve hits

    # ---- pruning -----------------------------------------------------------

    def entries_by_recency(self) -> List[Tuple[float, str]]:
        """Committed entries as ``(last_used, key)``, oldest first.

        Only directories with a ``meta.json`` count -- half-written
        entries (no commit point) and the quarantine area are
        invisible here, exactly as they are to :meth:`fetch`.
        """
        found: List[Tuple[float, str]] = []
        if not self.root.is_dir():
            return found
        for child in self.root.iterdir():
            if child.name == QUARANTINE_DIR or not child.is_dir():
                continue
            meta_path = child / META_NAME
            try:
                stamp = meta_path.stat().st_mtime
            except OSError:
                continue  # uncommitted entry: not prunable, not live
            found.append((stamp, child.name))
        found.sort()
        return found

    def prune(self, max_entries: Optional[int] = None) -> List[str]:
        """Evict least-recently-used entries beyond ``max_entries``.

        Returns the evicted keys, oldest first.  ``max_entries``
        defaults to the cache's configured bound; with neither set
        this is a no-op.  Eviction removes the entry directory
        outright (it is regenerable by construction); quarantined
        material is never touched.
        """
        limit = max_entries if max_entries is not None else self.max_entries
        if limit is None:
            return []
        if limit < 1:
            raise ValueError("max_entries must be >= 1")
        entries = self.entries_by_recency()
        excess = len(entries) - limit
        if excess <= 0:
            return []
        evicted: List[str] = []
        for _stamp, key in entries[:excess]:
            shutil.rmtree(self.entry_dir(key), ignore_errors=True)
            evicted.append(key)
        if evicted:
            _CACHE_METER.resolve()[2].inc(len(evicted))
        return evicted

    def _verify(self, key: str, directory: Path, meta_path: Path) -> CacheEntry:
        try:
            meta = json.loads(meta_path.read_text())
        except (OSError, ValueError) as exc:
            raise CacheCorruption(f"unreadable meta.json: {exc}") from exc
        if not isinstance(meta, dict):
            raise CacheCorruption("meta.json is not an object")
        if meta.get("format_version") != CACHE_FORMAT_VERSION:
            raise CacheCorruption(
                f"format version {meta.get('format_version')!r} != "
                f"{CACHE_FORMAT_VERSION}"
            )
        if meta.get("key") != key:
            raise CacheCorruption(
                f"entry claims key {str(meta.get('key'))[:12]}..., "
                f"directory says {key[:12]}..."
            )
        files = meta.get("files")
        if not isinstance(files, dict) or not files:
            raise CacheCorruption("meta.json lists no shard files")
        for name, recorded in files.items():
            path = directory / name
            try:
                data = path.read_bytes()
            except OSError as exc:
                raise CacheCorruption(
                    f"missing shard file {name}: {exc}"
                ) from exc
            actual = hashlib.sha256(data).hexdigest()
            if actual != recorded:
                raise CacheCorruption(
                    f"shard file {name} digest mismatch: expected "
                    f"{recorded[:12]}..., got {actual[:12]}..."
                )
        return CacheEntry(key=key, directory=directory, meta=meta)

    # ---- quarantine --------------------------------------------------------

    def quarantine(self, key: str, reason: str) -> Optional[Path]:
        """Move a broken entry aside and record why.

        The entry directory is renamed into ``ROOT/quarantine/`` with
        a timestamp (so repeated corruption of one key never
        collides), and a sidecar JSONL describes the failure in the
        ingestion layer's quarantine format.  Returns the quarantined
        directory, or ``None`` if there was nothing to move.
        """
        directory = self.entry_dir(key)
        if not directory.exists():
            return None
        stamp = time.strftime("%Y%m%dT%H%M%S")
        quarantine_root = self.root / QUARANTINE_DIR
        quarantine_root.mkdir(parents=True, exist_ok=True)
        target = quarantine_root / f"{key}.{stamp}"
        suffix = 0
        while target.exists():
            suffix += 1
            target = quarantine_root / f"{key}.{stamp}.{suffix}"
        directory.rename(target)
        with QuarantineSink(Path(f"{target}.quarantine.jsonl")) as sink:
            sink.write(
                IngestError(
                    line_no=0,
                    record_type="CacheEntry",
                    reason=reason,
                    field=key,
                ),
                raw_line=str(target),
            )
        return target

    # ---- materialization ---------------------------------------------------

    def load_datasets(
        self, entry: CacheEntry
    ) -> Tuple[BeaconDataset, DemandDataset]:
        """Rebuild full datasets from a cache entry.

        Rows are restored to original dataset order (leading index),
        so the rebuilt datasets are *identical* to the stored ones --
        same iteration order, same ``dataset_digest``.
        """
        beacon_rows: List[tuple] = []
        for path, sha in entry.beacon_shards:
            for columns in iter_shard_batches(path, sha):
                beacon_rows.extend(
                    _rows_from_columns(columns, _BEACON_COLUMNS, path)
                )
        beacon_rows.sort()
        meta_beacon = entry.meta["beacon"]
        beacons = BeaconDataset(month=meta_beacon["month"])
        for name, hits, api in meta_beacon.get("browsers", []):
            beacons.browser_counts[Browser(name)] = (hits, api)
        by_subnet = beacons._by_subnet
        for _idx, family, value, length, asn, country, hits, api, cell in (
            beacon_rows
        ):
            prefix = Prefix(family, value, length)
            by_subnet[prefix] = SubnetBeaconCounts(
                prefix, asn, country, hits, api, cell
            )
            beacons.families.append(family)

        demand_rows: List[tuple] = []
        for path, sha in entry.demand_shards:
            for columns in iter_shard_batches(path, sha):
                demand_rows.extend(
                    _rows_from_columns(columns, _DEMAND_COLUMNS, path)
                )
        demand_rows.sort()
        demand = DemandDataset(window_days=entry.meta["demand"]["window_days"])
        for _idx, family, value, length, asn, country, du in demand_rows:
            demand._add(SubnetDemand(Prefix(family, value, length), asn, country, du))
        return beacons, demand
