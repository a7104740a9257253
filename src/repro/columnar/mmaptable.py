"""mmap-backed :class:`~repro.core.ratios.RatioTable` snapshots.

``save_mmap`` lays a ratio table out as fixed-width little-endian
columns in one file; ``open_mmap`` maps it back as a
:class:`MmapRatioTable` whose lookups binary-search the mapped columns
directly.  Because the table is just read-only pages, pool workers
that receive one **share** it: pickling transfers only the path
(:meth:`MmapRatioTable.__reduce__`), each worker re-maps the file, and
the OS page cache backs every process with the same physical memory --
no per-worker copy of the records, no pickle cost proportional to the
table.

On-disk layout (offsets in bytes, all integers little-endian)::

    header   magic ``CSPOTRT1`` (8s), version u32, reserved u32,
             count u64, blob_len u64                        -- 32 bytes
    columns  8 arrays of ``count`` 8-byte values, in order:
             family i64, value_hi u64, value_lo u64, length i64,
             asn i64, api i64, cell i64, hits i64
    offsets  country string offsets, ``count + 1`` u64
    blob     country strings, UTF-8, back to back

Rows are stored in canonical subnet order ``(family, value, length)``
so lookups can bisect; iteration also yields canonical order (the
order ``ops.group_accumulate_beacons`` groups subnets in).  Counts
must fit in int64 -- tables that promoted past 2**63 refuse to
snapshot rather than wrap.
"""

from __future__ import annotations

import mmap
import os
import struct
import sys
import math
from array import array
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.core.ratios import RatioRecord, RatioTable
from repro.net.prefix import Prefix

MAGIC = b"CSPOTRT1"
VERSION = 1
_HEADER = struct.Struct("<8sIIQQ")
_I64_MAX = 2 ** 63 - 1
_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Column name -> (memoryview cast code, signed?) in file order.
_COLUMNS = (
    ("family", "q"),
    ("value_hi", "Q"),
    ("value_lo", "Q"),
    ("length", "q"),
    ("asn", "q"),
    ("api", "q"),
    ("cell", "q"),
    ("hits", "q"),
)


def _require_little_endian() -> None:
    # memoryview.cast reads native order; the format pins little.
    if sys.byteorder != "little":
        raise RuntimeError(
            "mmap ratio snapshots require a little-endian platform"
        )


def save_mmap(table: RatioTable, path: Union[str, Path]) -> Path:
    """Write ``table`` as an mmap snapshot; returns the path."""
    _require_little_endian()
    path = Path(path)
    records = sorted(
        table,
        key=lambda r: (r.subnet.family, r.subnet.value, r.subnet.length),
    )
    for record in records:
        if max(record.api_hits, record.cellular_hits, record.hits) > _I64_MAX:
            raise ValueError(
                f"{record.subnet}: counts exceed the int64 snapshot range"
            )
    count = len(records)
    blob = bytearray()
    offsets = [0]
    for record in records:
        blob.extend(record.country.encode("utf-8"))
        offsets.append(len(blob))

    def column(values, code: str) -> bytes:
        return struct.pack(f"<{count}{code}", *values)

    body = bytearray()
    body += column((r.subnet.family for r in records), "q")
    body += column((r.subnet.value >> 64 for r in records), "Q")
    body += column((r.subnet.value & _MASK64 for r in records), "Q")
    body += column((r.subnet.length for r in records), "q")
    body += column((r.asn for r in records), "q")
    body += column((r.api_hits for r in records), "q")
    body += column((r.cellular_hits for r in records), "q")
    body += column((r.hits for r in records), "q")
    body += struct.pack(f"<{count + 1}Q", *offsets)
    body += bytes(blob)

    header = _HEADER.pack(MAGIC, VERSION, 0, count, len(blob))
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as stream:
        stream.write(header)
        stream.write(bytes(body))
        stream.flush()
    tmp.replace(path)
    return path


def open_mmap(path: Union[str, Path]) -> "MmapRatioTable":
    """Map a snapshot written by :func:`save_mmap`."""
    _require_little_endian()
    path = Path(path)
    with open(path, "rb") as stream:
        if os.fstat(stream.fileno()).st_size < _HEADER.size:
            # mmap refuses zero-length files before our own checks run.
            raise ValueError(f"{path} is not a ratio snapshot: truncated")
        mapped = mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ)
    try:
        if mapped.size() < _HEADER.size:
            raise ValueError(f"{path} is not a ratio snapshot: truncated")
        magic, version, _reserved, count, blob_len = _HEADER.unpack_from(
            mapped, 0
        )
        if magic != MAGIC:
            raise ValueError(f"{path} is not a ratio snapshot: bad magic")
        if version != VERSION:
            raise ValueError(
                f"{path}: unsupported snapshot version {version}"
            )
        expected = (
            _HEADER.size
            + len(_COLUMNS) * 8 * count
            + (count + 1) * 8
            + blob_len
        )
        if mapped.size() != expected:
            raise ValueError(
                f"{path} is not a ratio snapshot: size mismatch"
            )
    except Exception:
        mapped.close()
        raise
    return MmapRatioTable(path, mapped, count, blob_len)


class MmapRatioTable(RatioTable):
    """A :class:`RatioTable` served from read-only mapped pages.

    Lookups bisect the mapped key columns; records materialize lazily
    (one :class:`RatioRecord` per touched row).  Pickling transfers
    only the path, so process pools re-map instead of copying.
    """

    def __init__(
        self, path: Path, mapped: mmap.mmap, count: int, blob_len: int
    ) -> None:
        self._path = Path(path)
        self._mapped = mapped
        self._count = count
        view = memoryview(mapped)
        offset = _HEADER.size
        self._cols: Dict[str, memoryview] = {}
        for name, code in _COLUMNS:
            self._cols[name] = view[offset:offset + 8 * count].cast(code)
            offset += 8 * count
        self._offsets = view[offset:offset + 8 * (count + 1)].cast("Q")
        offset += 8 * (count + 1)
        self._blob = view[offset:offset + blob_len]
        self._materialized: Optional[Dict[Prefix, RatioRecord]] = None

    # -- pickling / lifecycle ------------------------------------------------

    def __reduce__(self):
        # Workers re-open the file: the kernel shares the pages.
        return (open_mmap, (str(self._path),))

    def close(self) -> None:
        """Release the mapping (lookups become invalid)."""
        self._cols = {}
        self._offsets = None  # type: ignore[assignment]
        self._blob = None  # type: ignore[assignment]
        self._materialized = None
        self._mapped.close()

    @property
    def path(self) -> Path:
        return self._path

    # -- row access ----------------------------------------------------------

    def _key_at(self, row: int):
        cols = self._cols
        return (
            cols["family"][row],
            cols["value_hi"][row],
            cols["value_lo"][row],
            cols["length"][row],
        )

    def subnet_keys(self) -> Iterator[Tuple[int, int, int]]:
        """``(family, value, length)`` of every row, in row order, read
        from the key columns alone (no record is materialized)."""
        cols = self._cols
        for family, high, low, length in zip(
            cols["family"].tolist(),
            cols["value_hi"].tolist(),
            cols["value_lo"].tolist(),
            cols["length"].tolist(),
        ):
            yield family, (high << 64) | low, length

    def record_at(self, row: int) -> RatioRecord:
        """The record stored in ``row`` (canonical order)."""
        cols = self._cols
        value = (cols["value_hi"][row] << 64) | cols["value_lo"][row]
        prefix = Prefix(cols["family"][row], value, cols["length"][row])
        country = bytes(
            self._blob[self._offsets[row]:self._offsets[row + 1]]
        ).decode("utf-8")
        return RatioRecord(
            subnet=prefix,
            asn=cols["asn"][row],
            country=country,
            api_hits=cols["api"][row],
            cellular_hits=cols["cell"][row],
            hits=cols["hits"][row],
        )

    def _find(self, subnet: Prefix) -> int:
        """Binary search; -1 when absent."""
        target = (
            subnet.family,
            subnet.value >> 64,
            subnet.value & _MASK64,
            subnet.length,
        )
        lo, hi = 0, self._count
        while lo < hi:
            mid = (lo + hi) // 2
            if self._key_at(mid) < target:
                lo = mid + 1
            else:
                hi = mid
        if lo < self._count and self._key_at(lo) == target:
            return lo
        return -1

    # -- row columns ---------------------------------------------------------
    #
    # The RatioTable columns, read from the mapped columns on each
    # access: opening a snapshot does no per-row work.

    @property
    def families(self) -> memoryview:
        return self._cols["family"]

    @property
    def asns(self) -> memoryview:
        return self._cols["asn"]

    @property
    def ratio_values(self) -> array:
        cols = self._cols
        return array("d", [
            cell / api if api else math.nan
            for cell, api in zip(cols["cell"], cols["api"])
        ])

    @property
    def country_codes(self) -> array:
        code_of: Dict[bytes, int] = {}
        return array("q", (
            code_of.setdefault(text, len(code_of)) for text in self._countries()
        ))

    @property
    def country_names(self) -> List[str]:
        return [text.decode("utf-8") for text in dict.fromkeys(self._countries())]

    def _countries(self) -> Iterator[bytes]:
        """Each row's UTF-8 country, in row order."""
        blob, offsets = bytes(self._blob), self._offsets.tolist()
        return map(blob.__getitem__, map(slice, offsets, offsets[1:]))

    # -- RatioTable surface --------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __contains__(self, subnet: Prefix) -> bool:
        return self._find(subnet) >= 0

    def __iter__(self) -> Iterator[RatioRecord]:
        for row in range(self._count):
            yield self.record_at(row)

    def get(self, subnet: Prefix) -> Optional[RatioRecord]:
        row = self._find(subnet)
        return self.record_at(row) if row >= 0 else None

    def records(self, family: Optional[int] = None) -> List[RatioRecord]:
        if family is None:
            return [self.record_at(row) for row in range(self._count)]
        return [record for record in self if record.family == family]

    @property
    def _by_subnet(self) -> Dict[Prefix, RatioRecord]:
        """Materialized view, built once on first use (``__eq__`` and
        any code reaching for the dict directly)."""
        if self._materialized is None:
            self._materialized = {
                record.subnet: record for record in self
            }
        return self._materialized
