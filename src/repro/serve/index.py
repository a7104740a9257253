"""The queryable classification index (longest-prefix match).

Consumers of the census (CDN mapping, per-AS policy engines) ask point
questions -- *"is this client address cellular, with what
confidence?"* -- not for a monthly table.  :class:`ClassificationIndex`
answers them from a :class:`~repro.core.ratios.RatioTable` (live from
the stream engine, from a batch run, or an mmap snapshot generation),
returning everything the paper knows about the covering subnet:

- the cellular ratio and its supporting counts,
- the label at the operating threshold (paper: 0.5),
- the Wilson-interval confidence tier
  (:mod:`repro.core.confidence`: cellular / fixed / uncertain),
- the owning AS with its dedicated/mixed verdict when demand data is
  available (:mod:`repro.core.mixed`),
- the subnet's demand share in DU and as a fraction of global demand.

The index is one hash map per (family, prefix length), keyed by the
prefix's network bits (``value >> (bits - length)``) and holding the
table row.  Longest-prefix match probes the lengths present, longest
first: at the paper's /24 and /48 granularity that is one dict lookup
per query.  Address queries probe every length; CIDR queries probe only
lengths up to their own, giving the most-specific *covering* prefix, so
a /16 query is answered by the /8 entry that actually contains it,
never by a /24 fragment inside it.

Building the maps reads only the subnet keys (for an
:class:`~repro.columnar.mmaptable.MmapRatioTable`, straight from its
key columns).  An entry's :class:`IndexEntry` -- Wilson interval,
labels, demand -- and its compact JSON encoding are built on the
entry's first hit and memoised for the life of the index, which the
heavy-tailed query mix (most queries land on an already-answered
subnet) turns into a cache that is nearly always warm.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.columnar.mmaptable import MmapRatioTable
from repro.core.asn_classifier import ASFilterConfig, identify_cellular_ases
from repro.core.classifier import DEFAULT_THRESHOLD, SubnetClassifier
from repro.core.confidence import ConfidentClassifier, Verdict
from repro.core.mixed import DEDICATED_CFD_CUTOFF, operator_profiles
from repro.core.ratios import RatioRecord, RatioTable
from repro.datasets.demand_dataset import DemandDataset, du_to_fraction
from repro.net.addr import IPV4_BITS, IPV6_BITS, parse_ip
from repro.net.prefix import Prefix
from repro.serve.protocol import compact

_BITS = {4: IPV4_BITS, 6: IPV6_BITS}
#: Encoded answer of a query no stored prefix covers, after its query.
_MISS_TAIL = ',"ok":true,"matched":false}'
#: What follows the query of a hit, before the entry's answer fields.
_HIT_HEAD = ',"ok":true,"matched":true,'
#: What follows the query of an unanswerable one, before its error.
_ERROR_HEAD = ',"ok":false,"error":'


@dataclass(frozen=True)
class IndexEntry:
    """Everything the index knows about one subnet."""

    subnet: Prefix
    asn: int
    country: str
    hits: float
    api_hits: float
    cellular_hits: float
    ratio: float
    cellular: bool
    confidence: Verdict
    interval_low: float
    interval_high: float
    demand_du: Optional[float]
    as_verdict: Optional[str]

    def answer(self) -> Dict[str, object]:
        """The answer fields of a query that matched this entry."""
        payload: Dict[str, object] = {
            "subnet": str(self.subnet),
            "asn": self.asn,
            "country": self.country,
            "ratio": round(self.ratio, 6),
            "cellular": self.cellular,
            "confidence": self.confidence.value,
            "interval": [
                round(self.interval_low, 6),
                round(self.interval_high, 6),
            ],
            "hits": self.hits,
            "api_hits": self.api_hits,
        }
        if self.demand_du is not None:
            payload["demand_du"] = round(self.demand_du, 6)
            payload["demand_share"] = round(du_to_fraction(self.demand_du), 9)
        if self.as_verdict is not None:
            payload["as_verdict"] = self.as_verdict
        return payload


@dataclass(frozen=True)
class QueryResult:
    """One answered (or unanswerable) query."""

    query: str
    matched: bool
    error: Optional[str] = None
    entry: Optional[IndexEntry] = None

    def to_dict(self) -> Dict:
        payload: Dict[str, object] = {"query": self.query, "ok": self.error is None}
        if self.error is not None:
            payload["error"] = self.error
            return payload
        payload["matched"] = self.matched
        if self.matched and self.entry is not None:
            payload.update(self.entry.answer())
        return payload


#: Per family: ``(length, shift, {network bits: row})``, longest first.
Levels = Dict[int, List[Tuple[int, int, Dict[int, int]]]]


class ClassificationIndex:
    """Per-(family, length) hash maps over a ratio table's rows, with
    lazily built, memoised entries and encoded answers."""

    def __init__(
        self,
        levels: Levels,
        entry_count: int,
        entry_at: Callable[[int], IndexEntry],
        threshold: float,
    ) -> None:
        self._levels = levels
        self._entry_at = entry_at
        self._entries: List[Optional[IndexEntry]] = [None] * entry_count
        self._tails: List[Optional[str]] = [None] * entry_count
        self.threshold = threshold
        self.entry_count = entry_count

    def __len__(self) -> int:
        return self.entry_count

    # ---- construction ----------------------------------------------------

    @classmethod
    def build(
        cls,
        ratios: RatioTable,
        demand: Optional[DemandDataset] = None,
        threshold: float = DEFAULT_THRESHOLD,
        min_api_hits: int = 1,
        as_classes=None,
        filter_config: Optional[ASFilterConfig] = None,
        hits_by_asn: Optional[Mapping[int, float]] = None,
        dedicated_cutoff: float = DEDICATED_CFD_CUTOFF,
    ) -> "ClassificationIndex":
        """Index a ratio table (plus optional demand).

        With ``demand`` (and ``hits_by_asn`` -- live AS hit totals
        from the stream engine), the paper's AS pipeline runs too and
        every entry carries its AS's dedicated/mixed verdict; without
        it, entries carry subnet-level facts only.  An mmap table must
        stay open while the index serves: entries are read from it on
        first hit.
        """
        classifier = SubnetClassifier(
            threshold=threshold, min_api_hits=min_api_hits
        )
        confident = ConfidentClassifier(threshold=threshold)

        as_verdicts: Dict[int, str] = {}
        if demand is not None and hits_by_asn is not None:
            classification = classifier.classify(ratios)
            as_result = identify_cellular_ases(
                classification,
                demand,
                as_classes=as_classes,
                config=filter_config,
                hits_by_asn=hits_by_asn,
            )
            for asn, profile in operator_profiles(
                as_result, cutoff=dedicated_cutoff
            ).items():
                as_verdicts[asn] = profile.operator_class.value
            for asn, reason in as_result.excluded.items():
                as_verdicts[asn] = f"excluded:{reason.value}"

        record_at: Callable[[int], RatioRecord]
        if isinstance(ratios, MmapRatioTable):
            keys: Iterable[Tuple[int, int, int]] = ratios.subnet_keys()
            record_at = ratios.record_at
        else:
            records = list(ratios)
            keys = (
                (r.subnet.family, r.subnet.value, r.subnet.length)
                for r in records
            )
            record_at = records.__getitem__

        maps: Dict[Tuple[int, int], Dict[int, int]] = {}
        count = 0
        for row, (family, value, length) in enumerate(keys):
            table = maps.get((family, length))
            if table is None:
                table = maps[(family, length)] = {}
            table[value >> (_BITS[family] - length)] = row
            count += 1
        levels: Levels = {4: [], 6: []}
        for (family, length), table in sorted(
            maps.items(), key=lambda item: -item[0][1]
        ):
            levels[family].append((length, _BITS[family] - length, table))

        def entry_at(row: int) -> IndexEntry:
            record = record_at(row)
            label = confident.label(record)
            return IndexEntry(
                subnet=record.subnet,
                asn=record.asn,
                country=record.country,
                hits=record.hits,
                api_hits=record.api_hits,
                cellular_hits=record.cellular_hits,
                ratio=record.ratio,
                cellular=classifier.is_cellular(record),
                confidence=label.verdict,
                interval_low=label.interval_low,
                interval_high=label.interval_high,
                demand_du=(
                    demand.du_of(record.subnet) if demand is not None else None
                ),
                as_verdict=as_verdicts.get(record.asn),
            )

        return cls(levels, count, entry_at, threshold)

    # ---- rows --------------------------------------------------------------

    def _row(self, family: int, address: int, max_length: int) -> int:
        """Row of the longest stored prefix of length <= ``max_length``
        containing ``address``; -1 when none does."""
        for length, shift, table in self._levels.get(family, ()):
            if length <= max_length:
                row = table.get(address >> shift)
                if row is not None:
                    return row
        return -1

    def _match(self, text: str) -> int:
        """Row answering a stripped textual query (-1: a miss).

        Raises :class:`ValueError` (``AddressError`` included) for
        queries that are not an address or a CIDR block.
        """
        if not text:
            raise ValueError("empty query")
        if "/" in text:
            prefix = Prefix.parse(text)
            return self._row(prefix.family, prefix.value, prefix.length)
        family, address = parse_ip(text)
        return self._row(family, address, IPV6_BITS)

    def _entry(self, row: int) -> IndexEntry:
        entry = self._entries[row]
        if entry is None:
            entry = self._entries[row] = self._entry_at(row)
        return entry

    def entries(self) -> Iterator[IndexEntry]:
        """Every entry, in table row order."""
        for row in range(self.entry_count):
            yield self._entry(row)

    # ---- queries ---------------------------------------------------------

    def lookup_address(self, family: int, address: int) -> Optional[IndexEntry]:
        """Longest-prefix match of one integer address."""
        row = self._row(family, address, IPV6_BITS)
        return self._entry(row) if row >= 0 else None

    def lookup_prefix(self, prefix: Prefix) -> Optional[IndexEntry]:
        """Most-specific stored prefix covering all of ``prefix``."""
        row = self._row(prefix.family, prefix.value, prefix.length)
        return self._entry(row) if row >= 0 else None

    def query(self, text: str) -> QueryResult:
        """Answer one textual query: an IP address or a CIDR block."""
        text = text.strip()
        try:
            row = self._match(text)
        except ValueError as exc:
            return QueryResult(query=text, matched=False, error=str(exc))
        if row < 0:
            return QueryResult(query=text, matched=False)
        return QueryResult(query=text, matched=True, entry=self._entry(row))

    def encode(self, text: str) -> str:
        """``query(text).to_dict()`` as compact JSON (the wire bytes).

        A hit joins the echoed query with the entry's memoised encoding
        of the rest of the answer, so a repeat hit on a subnet encodes
        nothing but its query text.
        """
        text = text.strip()
        try:
            row = self._match(text)
        except ValueError as exc:
            tail = _ERROR_HEAD + encode_basestring_ascii(str(exc)) + "}"
        else:
            if row < 0:
                tail = _MISS_TAIL
            else:
                tail = self._tails[row]
                if tail is None:
                    answer = compact(self._entry(row).answer())
                    tail = self._tails[row] = _HIT_HEAD + answer[1:]
        # json.dumps(str) is encode_basestring_ascii(str) by definition.
        return '{"query":' + encode_basestring_ascii(text) + tail

    @staticmethod
    def is_error(encoded: str) -> bool:
        """Whether an :meth:`encode` answer refuses its query.

        The echoed query is an escaped JSON string, so the unescaped
        ``"ok":false`` can only be the answer's own field.
        """
        return _ERROR_HEAD in encoded

    def batch(self, queries: Iterable[str]) -> List[QueryResult]:
        """Answer many queries in order (the batch-query API)."""
        return [self.query(text) for text in queries]
