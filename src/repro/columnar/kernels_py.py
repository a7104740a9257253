"""Pure-Python columnar kernels over :mod:`array`-module buffers.

The fallback backend -- and the readable twin the numpy kernels are
proven against.  Every function here is the *specification*: the
property suite (``tests/test_columnar_kernels.py``) asserts the numpy
backend produces bit-identical outputs for arbitrary seeded batches,
so any behavior not reproduced by both backends is a bug by
definition.

Column kinds:

* signed 64-bit integers -- ``array('q')``, silently promoted to a
  plain ``list`` of Python ints when a value exceeds the int64 range
  (arbitrary precision beats wrapping);
* unsigned 64-bit integers -- ``array('Q')`` (the split halves of
  128-bit prefix values always fit);
* float64 -- ``array('d')``;
* strings -- plain ``list`` objects, handled by the batch layer.

Grouping is stable-lexicographic-sort based: :func:`lex_argsort` +
:func:`group_bounds` produce a permutation and run boundaries that the
``segment_*`` kernels consume.  Stability is load-bearing -- it is
what makes each group's head its first-seen row and keeps a shard's
rows in dataset order, exactly as the serial per-row loops see them.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import List, Sequence, Tuple

NAME = "python"

_I64_MIN = -(2 ** 63)
_I64_MAX = 2 ** 63 - 1


# ---- column constructors ---------------------------------------------------

def int_col(values) -> Sequence[int]:
    """Signed 64-bit column; promotes to Python ints on overflow."""
    try:
        return array("q", values)
    except OverflowError:
        return [int(v) for v in values]


def u64_col(values) -> Sequence[int]:
    """Unsigned 64-bit column (prefix value halves, mmap offsets)."""
    return array("Q", values)


def float_col(values) -> Sequence[float]:
    """Float64 column (demand units)."""
    return array("d", values)


def index_col(values) -> Sequence[int]:
    """Row-index column (always int64-safe)."""
    return array("q", values)


def to_list(col) -> list:
    """Materialize a column as a plain Python list."""
    return list(col)


def length(col) -> int:
    return len(col)


def concat(cols: Sequence) -> Sequence:
    """Concatenate same-kind columns (the zero-copy shard merge).

    Mixed ``array``/promoted-``list`` inputs degrade to one list --
    exactness over compactness.
    """
    cols = list(cols)
    nonempty = [col for col in cols if len(col)]
    if not nonempty:
        # Preserve the kind of an all-empty concat (float stays float).
        return cols[0] if cols else array("q")
    cols = nonempty
    if all(isinstance(col, array) for col in cols):
        kinds = {col.typecode for col in cols}
        if len(kinds) == 1:
            merged = array(cols[0].typecode)
            for col in cols:
                merged.extend(col)
            return merged
    merged_list: list = []
    for col in cols:
        merged_list.extend(col)
    return merged_list


def take(col, indices) -> Sequence:
    """Gather ``col[i]`` for every index (order-restoring merges)."""
    if isinstance(col, array):
        return array(col.typecode, (col[i] for i in indices))
    return [col[i] for i in indices]


def take_list(items: list, indices) -> list:
    """Gather from a plain Python list (strings, labels) by index."""
    return [items[i] for i in indices]


# ---- grouping --------------------------------------------------------------

def lex_argsort(keys: Sequence[Sequence[int]]) -> List[int]:
    """Stable permutation sorting rows by ``keys`` (first = primary).

    Equal keys keep their original relative order -- the property the
    first-seen group heads rest on.
    """
    if not keys:
        return []
    n = len(keys[0])
    return sorted(range(n), key=lambda i: tuple(key[i] for key in keys))


def group_bounds(
    keys: Sequence[Sequence[int]], perm: Sequence[int]
) -> List[int]:
    """Start offsets (into ``perm``) of each run of equal keys."""
    starts: List[int] = []
    previous = None
    for position, row in enumerate(perm):
        current = tuple(key[row] for key in keys)
        if current != previous:
            starts.append(position)
            previous = current
    return starts


def _segments(perm: Sequence[int], starts: Sequence[int]):
    for g, start in enumerate(starts):
        stop = starts[g + 1] if g + 1 < len(starts) else len(perm)
        yield start, stop


def segment_sum_int(
    col, perm: Sequence[int], starts: Sequence[int]
) -> List[int]:
    """Exact per-group integer sums (Python ints never wrap)."""
    sums: List[int] = []
    for start, stop in _segments(perm, starts):
        total = 0
        for position in range(start, stop):
            total += col[perm[position]]
        sums.append(total)
    return sums


def segment_first(col, perm: Sequence[int], starts: Sequence[int]) -> list:
    """First (stable-order) value of each group."""
    return [col[perm[start]] for start in starts]


def group_sum(groups, weights) -> Tuple[List[int], List[float]]:
    """Per-group float sums, each added up in row order from ``0.0``.

    ``groups`` holds non-negative group ids, ``weights`` one float per
    row.  Returns ``(ids, sums)`` with the groups in order of first
    appearance: keys and bits equal a ``sums[g] = sums.get(g, 0.0) + w``
    loop over the rows, which is what this is.
    """
    sums: dict = {}
    for group, weight in zip(groups, weights):
        sums[group] = sums.get(group, 0.0) + weight
    return list(sums), list(sums.values())


def slot_ids(parts) -> Sequence[int]:
    """Mixed-radix slot id per row from ``(column, cuts)`` parts.

    A part's digit is the number of its ascending ``cuts`` at or below
    the row's value (``bisect_right``), so it runs from 0 to
    ``len(cuts)``; the first part is the most significant.  An int
    column of digits ``0..k-1`` passes through with ``cuts=range(1, k)``.
    ``parts`` holds at least one part, all columns of one length.
    """
    columns = [column for column, _ in parts]
    cut_lists = [list(cuts) for _, cuts in parts]
    ids = array("q")
    for values in zip(*columns):
        slot = 0
        for value, cuts in zip(values, cut_lists):
            slot = slot * (len(cuts) + 1) + bisect_right(cuts, value)
        ids.append(slot)
    return ids


# ---- shard hashing ---------------------------------------------------------

def shard_index(
    family, value_hi, value_lo, lengths, shards: int
) -> Sequence[int]:
    """Per-row shard assignment, defined by the scalar hash.

    Delegates to :func:`repro.parallel.sharding.stable_shard_index`
    row by row -- the twin *is* the pinned on-disk assignment; the
    numpy backend must vectorize to exactly these values.
    """
    from repro.parallel.sharding import stable_shard_index

    out = array("q")
    for f, hi, lo, ln in zip(family, value_hi, value_lo, lengths):
        out.append(stable_shard_index(f, (hi << 64) | lo, ln, shards))
    return out


# ---- the fused ingest/classify kernel --------------------------------------

def spot(
    asn, hits, api, cell, min_api_hits: int, threshold: float
) -> Tuple[Sequence[int], List[bool], List[int], List[int]]:
    """Ratio + label + per-AS hit rollup for one record batch.

    Returns ``(keep, labels, uniq_asns, asn_hits)``:

    * ``keep`` -- indices of rows with ``api >= min_api_hits`` (batch
      order preserved);
    * ``labels`` -- ``cell / api >= threshold`` per kept row, the same
      float expression the serial classifier evaluates;
    * ``uniq_asns`` / ``asn_hits`` -- per-AS beacon-hit totals over
      *all* rows (AS filtering counts hits regardless of API
      coverage), ascending by ASN.
    """
    keep = array("q")
    labels: List[bool] = []
    totals: dict = {}
    for row in range(len(asn)):
        a = asn[row]
        totals[a] = totals.get(a, 0) + hits[row]
        api_count = api[row]
        if api_count >= min_api_hits:
            keep.append(row)
            labels.append(cell[row] / api_count >= threshold)
    uniq = sorted(totals)
    return keep, labels, uniq, [totals[a] for a in uniq]
