"""Snapshot generations: publish-side catalog, reader-side holder.

The serving plane moves a :class:`~repro.core.ratios.RatioTable` from
the builder process to N worker processes without copying it N times:
the builder writes an mmap snapshot (``gen-<n>.rt``, via
:func:`repro.columnar.mmaptable.save_mmap`) and then atomically swaps
the ``CURRENT`` pointer file to name it.  Both steps are
write-to-temp + ``rename``, so a reader sees either the previous
generation or the complete new one -- never a torn file.

Readers use :class:`IndexHolder`: poll the pointer, and when a new
generation appears, map it and build its
:class:`~repro.serve.index.ClassificationIndex` *before* swapping one
attribute reference.  The build is one pass over the snapshot's key
columns into per-(family, length) hash maps -- no trie, and no
per-entry work: entries and their encoded answers are made on first
hit, from the mapping, and memoised in that generation's index.
Queries grab the ``(generation, table, index)`` triple once and hold
plain Python references for the duration of a lookup, so the previous
mapping is unmapped only by garbage collection after its last
in-flight reader drops it -- no reader ever touches a freed page, and
no lock is held while an index builds.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.columnar.mmaptable import MmapRatioTable, open_mmap, save_mmap
from repro.core.classifier import DEFAULT_THRESHOLD
from repro.core.ratios import RatioTable
from repro.runtime.faults import fault_point
from repro.serve.index import ClassificationIndex

POINTER_NAME = "CURRENT"
_GEN_PATTERN = re.compile(r"^gen-(\d{6})\.rt$")


class CatalogError(RuntimeError):
    """The catalog pointer or a referenced snapshot is unusable."""


@dataclass(frozen=True)
class GenerationInfo:
    """One published snapshot generation."""

    number: int
    table_path: Path
    meta: Dict = field(default_factory=dict)


class SnapshotCatalog:
    """A directory of snapshot generations behind one pointer file.

    Layout::

        <root>/gen-000001.rt   mmap ratio-table snapshots
        <root>/gen-000002.rt
        <root>/CURRENT         JSON {"generation": 2, "table": ..., "meta": ...}

    ``publish`` writes the snapshot first (itself atomic), then swaps
    ``CURRENT`` with a temp-file rename.  Readers that race a publish
    see the old pointer or the new one, both naming complete files.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ---- publish side ----------------------------------------------------

    def _pointer_path(self) -> Path:
        return self.root / POINTER_NAME

    def generations(self) -> List[int]:
        """Generation numbers present on disk, ascending."""
        found = []
        for entry in self.root.iterdir():
            match = _GEN_PATTERN.match(entry.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def publish(
        self, table: RatioTable, meta: Optional[Dict] = None
    ) -> GenerationInfo:
        """Write ``table`` as the next generation and point at it."""
        latest = self.latest(missing_ok=True)
        number = (latest.number if latest is not None else 0) + 1
        name = f"gen-{number:06d}.rt"
        table_path = save_mmap(table, self.root / name)
        pointer = {
            "generation": number,
            "table": name,
            "meta": dict(meta or {}),
        }
        pointer_path = self._pointer_path()
        fault_point("scale.publish", index=number, path=pointer_path)
        tmp = pointer_path.with_name(pointer_path.name + ".tmp")
        tmp.write_text(json.dumps(pointer, separators=(",", ":")))
        os.replace(tmp, pointer_path)
        return GenerationInfo(
            number=number, table_path=table_path, meta=pointer["meta"]
        )

    def publish_engine(
        self, engine, min_api_hits: int, keep: int = 2
    ) -> GenerationInfo:
        """Publish a stream engine's ratio table, then prune to ``keep``.

        The generation's ``meta`` records the engine's progress:
        ``events`` consumed, ``windows`` advanced and the ``month``.
        """
        info = self.publish(
            engine.ratio_table(min_api_hits),
            meta={
                "events": engine.events_consumed,
                "windows": engine.windows_advanced,
                "month": engine.month,
            },
        )
        self.prune(keep=keep)
        return info

    def prune(self, keep: int = 2) -> List[Path]:
        """Delete generations older than the newest ``keep``.

        Safe against live readers: on Linux an unlinked file stays
        mapped until the last mapping goes away.  Returns the removed
        paths.
        """
        if keep < 1:
            raise ValueError("keep must be >= 1")
        removed = []
        for number in self.generations()[:-keep]:
            path = self.root / f"gen-{number:06d}.rt"
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            removed.append(path)
        return removed

    # ---- reader side -----------------------------------------------------

    def latest(self, missing_ok: bool = False) -> Optional[GenerationInfo]:
        """The generation ``CURRENT`` points at.

        Returns ``None`` when nothing was published yet.  A corrupt
        pointer or a pointer naming a missing snapshot raises
        :class:`CatalogError` (readers keep their previous generation;
        see :meth:`IndexHolder.poll`) -- unless ``missing_ok``, which
        treats *absence* as ``None`` but still surfaces corruption.
        """
        pointer_path = self._pointer_path()
        try:
            raw = pointer_path.read_text()
        except FileNotFoundError:
            return None
        try:
            pointer = json.loads(raw)
            number = int(pointer["generation"])
            name = str(pointer["table"])
        except (ValueError, KeyError, TypeError) as exc:
            raise CatalogError(
                f"{pointer_path}: corrupt generation pointer: {exc}"
            ) from exc
        table_path = self.root / name
        if not table_path.exists():
            if missing_ok:
                return None
            raise CatalogError(
                f"{pointer_path}: generation {number} names missing "
                f"snapshot {table_path}"
            )
        meta = pointer.get("meta")
        return GenerationInfo(
            number=number,
            table_path=table_path,
            meta=meta if isinstance(meta, dict) else {},
        )

    def wait_for_generation(
        self,
        timeout_s: float = 60.0,
        poll_interval_s: float = 0.05,
        minimum: int = 1,
    ) -> GenerationInfo:
        """Block until a generation ``>= minimum`` is published."""
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                info = self.latest()
            except CatalogError:
                info = None  # mid-publish torn pointer heals itself
            if info is not None and info.number >= minimum:
                return info
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"no snapshot generation >= {minimum} in {self.root} "
                    f"after {timeout_s:g}s"
                )
            time.sleep(poll_interval_s)


class IndexHolder:
    """A swap-safe, always-consistent view of the latest generation.

    ``refresh`` maps the new snapshot and builds the replacement
    :class:`ClassificationIndex` (its hash maps, read from the key
    columns) completely before publishing it to readers with a single
    attribute assignment (atomic under the GIL).  ``current()`` hands
    back the whole ``(generation, table, index)`` triple; as long as a
    reader holds it, the underlying mmap stays alive, so swaps can
    never free pages under an in-flight query -- nor under the index,
    which reads an entry from the mapping on its first hit.  The
    superseded mapping is reclaimed by garbage collection once its
    last reader finishes -- ``close()`` is deliberately never called
    on a table that readers may still hold.
    """

    def __init__(
        self,
        catalog: SnapshotCatalog,
        threshold: float = DEFAULT_THRESHOLD,
        min_api_hits: int = 1,
    ) -> None:
        self.catalog = catalog
        self.threshold = threshold
        self.min_api_hits = min_api_hits
        self._active: Optional[
            Tuple[GenerationInfo, MmapRatioTable, ClassificationIndex]
        ] = None

    @property
    def generation(self) -> int:
        """The served generation number (0 before the first refresh)."""
        active = self._active
        return active[0].number if active is not None else 0

    def current(
        self,
    ) -> Optional[Tuple[GenerationInfo, MmapRatioTable, ClassificationIndex]]:
        """The live triple; hold it for the duration of a query."""
        return self._active

    def refresh(self) -> bool:
        """Swap to the latest generation; True when a swap happened.

        Raises :class:`CatalogError` on a corrupt pointer and
        propagates snapshot-format errors; callers that must keep
        serving use :meth:`poll` instead.
        """
        info = self.catalog.latest()
        if info is None:
            return False
        active = self._active
        if active is not None and active[0].number == info.number:
            return False
        table = open_mmap(info.table_path)
        index = ClassificationIndex.build(
            table,
            demand=None,
            threshold=self.threshold,
            min_api_hits=self.min_api_hits,
        )
        # Build fully *then* swap: readers see the old triple or the
        # new one, never a half-built index.
        self._active = (info, table, index)
        return True

    def poll(self) -> bool:
        """Best-effort refresh: swallow publish races, keep serving."""
        try:
            return self.refresh()
        except (CatalogError, OSError, ValueError):
            return False
