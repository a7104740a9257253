"""numpy columnar kernels -- the fast backend.

Bit-identical to :mod:`repro.columnar.kernels_py` by contract (the
property suite enforces it); every deviation risk is handled
explicitly:

* **Integer width.**  Count columns load as ``int64``; values outside
  the int64 range promote the whole column to ``object`` dtype
  (Python ints inside an ndarray -- exact, slower, rare).  Segment
  sums pre-check the worst-case magnitude (``max |v| * longest run``)
  and redo the reduction over ``object`` when an int64 sum could
  wrap: counts near ``2**63`` must cost speed, never precision.
* **Float division.**  ``cell / api`` vectorizes as float64 only while
  both operands are exactly representable (``<= 2**53``); beyond that
  the kernel falls back to Python's correctly-rounded big-int
  division, which is what the serial classifier computes.
* **Sort stability.**  ``np.lexsort`` is stable, so grouping
  permutations match the twin's ``sorted`` exactly.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

NAME = "numpy"

_I64_MIN = -(2 ** 63)
_I64_MAX = 2 ** 63 - 1
#: Largest integer exactly representable as float64; division operands
#: beyond it take the exact scalar path.
_FLOAT_EXACT = 2 ** 53

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
_AVA_C1 = np.uint64(0xFF51AFD7ED558CCD)
_AVA_C2 = np.uint64(0xC4CEB9FE1A85EC53)
_SHIFT33 = np.uint64(33)


# ---- column constructors ---------------------------------------------------

def int_col(values) -> np.ndarray:
    """Signed 64-bit column; object-dtype promotion on overflow."""
    if isinstance(values, np.ndarray):
        if values.dtype == np.int64:
            return values
        try:
            return values.astype(np.int64)
        except OverflowError:
            return values.astype(object)
    values = values if isinstance(values, list) else list(values)
    try:
        # fromiter skips the intermediate buffer np.asarray(list) builds.
        return np.fromiter(values, dtype=np.int64, count=len(values))
    except OverflowError:
        return np.asarray([int(v) for v in values], dtype=object)


def u64_col(values) -> np.ndarray:
    """Unsigned 64-bit column (prefix value halves)."""
    if isinstance(values, np.ndarray) and values.dtype == np.uint64:
        return values
    values = values if isinstance(values, list) else list(values)
    return np.fromiter(values, dtype=np.uint64, count=len(values))


def float_col(values) -> np.ndarray:
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return values
    values = values if isinstance(values, list) else list(values)
    return np.fromiter(values, dtype=np.float64, count=len(values))


def index_col(values) -> np.ndarray:
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        return values
    values = values if isinstance(values, list) else list(values)
    return np.fromiter(values, dtype=np.int64, count=len(values))


def to_list(col) -> list:
    """Materialize as Python scalars (ints/floats, never np scalars)."""
    if isinstance(col, np.ndarray):
        return col.tolist()
    return list(col)


def length(col) -> int:
    return len(col)


def concat(cols: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate columns; mixed int64/object degrades to object."""
    cols = list(cols)
    nonempty = [col for col in cols if len(col)]
    if not nonempty:
        return cols[0] if cols else np.empty(0, dtype=np.int64)
    if len(nonempty) == 1:
        return nonempty[0]
    dtypes = {col.dtype for col in nonempty}
    if len(dtypes) > 1:
        return np.concatenate([col.astype(object) for col in nonempty])
    return np.concatenate(nonempty)


def take(col, indices) -> np.ndarray:
    return np.asarray(col)[np.asarray(indices, dtype=np.intp)]


def take_list(items: list, indices) -> list:
    """Gather from a plain Python list (strings, labels) by index.

    An object-array gather beats a per-row ``items[i]`` loop by ~10x
    on batch-sized inputs.
    """
    if not len(indices):
        return []
    arr = np.asarray(items, dtype=object)
    return arr[np.asarray(indices, dtype=np.intp)].tolist()


# ---- grouping --------------------------------------------------------------

def lex_argsort(keys: Sequence[np.ndarray]) -> np.ndarray:
    """Stable permutation by ``keys`` (first = primary)."""
    if not keys:
        return np.empty(0, dtype=np.intp)
    # np.lexsort treats the *last* key as primary; reverse to match
    # the twin's tuple comparison order.
    return np.lexsort(tuple(reversed([np.asarray(k) for k in keys])))


def group_bounds(
    keys: Sequence[np.ndarray], perm: np.ndarray
) -> np.ndarray:
    """Start offsets (into ``perm``) of each run of equal keys."""
    n = len(perm)
    if n == 0:
        return np.empty(0, dtype=np.intp)
    changed = np.zeros(n, dtype=bool)
    changed[0] = True
    for key in keys:
        ordered = np.asarray(key)[perm]
        changed[1:] |= ordered[1:] != ordered[:-1]
    return np.flatnonzero(changed)


def _segment_lengths(n: int, starts: np.ndarray) -> np.ndarray:
    ends = np.empty(len(starts), dtype=np.int64)
    ends[:-1] = starts[1:]
    ends[-1] = n
    return ends - starts


def segment_sum_int(col, perm, starts) -> List[int]:
    """Exact per-group integer sums (promotes before int64 can wrap)."""
    starts = np.asarray(starts, dtype=np.intp)
    if len(starts) == 0:
        return []
    ordered = np.asarray(col)[np.asarray(perm, dtype=np.intp)]
    if ordered.dtype == object:
        return [int(v) for v in np.add.reduceat(ordered, starts)]
    longest = int(_segment_lengths(len(ordered), starts).max())
    peak = int(np.abs(ordered).max()) if len(ordered) else 0
    if longest and peak and peak > _I64_MAX // longest:
        # An int64 reduction could wrap; redo exactly over Python ints.
        return [
            int(v) for v in np.add.reduceat(ordered.astype(object), starts)
        ]
    return [int(v) for v in np.add.reduceat(ordered, starts)]


def segment_first(col, perm, starts) -> list:
    starts = np.asarray(starts, dtype=np.intp)
    if len(starts) == 0:
        return []
    ordered = np.asarray(col)[np.asarray(perm, dtype=np.intp)]
    return ordered[starts].tolist()


def group_sum(groups, weights) -> Tuple[List[int], List[float]]:
    """Per-group float sums in row order; groups in first-appearance order.

    ``np.bincount`` adds each row's weight into its group's bin, row by
    row from ``0.0`` -- the twin's ``+=`` loop, bit for bit.  ``np.sum``
    would not do: its pairwise reduction rounds in another order.  The
    ids index the bins, so they must be small non-negative ints.
    """
    groups = np.asarray(groups, dtype=np.intp)
    rows = len(groups)
    if not rows:
        return [], []
    sums = np.bincount(groups, weights=np.asarray(weights, dtype=np.float64))
    # Each group's first row, without the sort np.unique would make.
    firsts = np.full(len(sums), rows, dtype=np.intp)
    np.minimum.at(firsts, groups, np.arange(rows))
    ids = np.flatnonzero(firsts < rows)
    ids = ids[np.argsort(firsts[ids])]
    return ids.tolist(), sums[ids].tolist()


def slot_ids(parts) -> np.ndarray:
    """Mixed-radix slot id per row from ``(column, cuts)`` parts.

    Same contract as the twin: each digit is ``searchsorted(cuts,
    value, side="right")``, the number of cuts at or below the value.
    Integer digits compare exactly against float cuts below ``2**53``.
    """
    ids = None
    for column, cuts in parts:
        cuts = np.asarray(list(cuts))
        digits = np.searchsorted(cuts, np.asarray(column), side="right")
        ids = digits if ids is None else ids * (len(cuts) + 1) + digits
    return ids


# ---- shard hashing ---------------------------------------------------------

def shard_index(family, value_hi, value_lo, lengths, shards: int):
    """Vectorized FNV-1a + avalanche shard assignment.

    Reproduces :func:`repro.parallel.sharding.stable_shard_index`
    exactly: same part order ``(family, value & 2**64-1, value >> 64,
    length)``, same mod-2**64 wrap, same finalizer -- pinned by the
    property suite against the scalar implementation.
    """
    if shards <= 0:
        raise ValueError("need at least one shard")
    n = len(family)
    if shards == 1:
        return np.zeros(n, dtype=np.int64)
    h = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    parts = (
        np.asarray(family).astype(np.uint64),
        np.asarray(value_lo, dtype=np.uint64),
        np.asarray(value_hi, dtype=np.uint64),
        np.asarray(lengths).astype(np.uint64),
    )
    for part in parts:
        h = (h ^ part) * _FNV_PRIME
    h ^= h >> _SHIFT33
    h *= _AVA_C1
    h ^= h >> _SHIFT33
    h *= _AVA_C2
    h ^= h >> _SHIFT33
    return (h % np.uint64(shards)).astype(np.int64)


# ---- the fused ingest/classify kernel --------------------------------------

def spot(
    asn, hits, api, cell, min_api_hits: int, threshold: float
) -> Tuple[np.ndarray, List[bool], List[int], List[int]]:
    """Ratio + label + per-AS hit rollup for one record batch.

    Same contract as the twin: ``(keep, labels, uniq_asns, asn_hits)``
    with labels evaluating the serial classifier's float expression.
    """
    asn = np.asarray(asn)
    hits_arr = np.asarray(hits)
    api_arr = np.asarray(api)
    cell_arr = np.asarray(cell)

    order = np.argsort(asn, kind="stable")
    sorted_asn = asn[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_asn[1:] != sorted_asn[:-1]))
    ) if len(sorted_asn) else np.empty(0, dtype=np.intp)
    uniq = sorted_asn[starts].tolist() if len(starts) else []
    asn_hits = segment_sum_int(hits_arr, order, starts)

    keep = np.flatnonzero(api_arr >= min_api_hits)
    kept_api = api_arr[keep]
    kept_cell = cell_arr[keep]
    if len(keep) == 0:
        labels: List[bool] = []
    elif (
        kept_api.dtype == object
        or kept_cell.dtype == object
        or int(np.max(kept_api)) > _FLOAT_EXACT
    ):
        # Past 2**53 the float64 cast rounds before dividing; Python's
        # big-int division rounds once, like the serial classifier.
        labels = [
            c / a >= threshold
            for c, a in zip(kept_cell.tolist(), kept_api.tolist())
        ]
    else:
        ratio = kept_cell.astype(np.float64) / kept_api.astype(np.float64)
        labels = (ratio >= threshold).tolist()
    return keep, labels, uniq, asn_hits
