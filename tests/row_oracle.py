"""The frozen row-wise oracle (the third arm of the columnar contract).

The equivalence contract of the columnar core is three-way::

    kernels_np  ==  kernels_py  ==  row-wise oracle (this module)

The first two are columnar (``repro.columnar``); this module is the
frozen *row-wise* semantics they both must reproduce --
dict-accumulation loops written the way the pre-columnar pipeline
wrote them (the old per-row ``_spot_shard`` worker, the per-subnet
totals dict, the per-hit dataset fold).
It lives with the tests because nothing in the program calls it: the
kernel suite (``tests/test_columnar_kernels.py``) and
``benchmarks/bench_columnar_core.py`` compare against it, so the
kernels are checked against an implementation too simple to be wrong
in the same way twice.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.net.prefix import Prefix

#: Compact beacon row: (idx, family, value, length, asn, country,
#: hits, api, cell) -- the tuple shape of repro.parallel.sharding.
BeaconRow = Tuple[int, int, int, int, int, str, int, int, int]


def spot_rows(
    rows: Iterable[BeaconRow], min_api_hits: int, threshold: float
) -> Tuple[List[tuple], Dict[int, int]]:
    """Per-row ratio + label stage, exactly as the pre-columnar
    ``_spot_shard`` worker ran it.

    Returns kept rows with the label appended, plus the per-AS
    beacon-hit totals over *all* rows (insertion order = first seen).
    """
    out: List[tuple] = []
    hits_by_asn: Dict[int, int] = {}
    for idx, family, value, length, asn, country, hits, api, cell in rows:
        hits_by_asn[asn] = hits_by_asn.get(asn, 0) + hits
        if api >= min_api_hits:
            out.append(
                (
                    idx,
                    family,
                    value,
                    length,
                    asn,
                    country,
                    hits,
                    api,
                    cell,
                    cell / api >= threshold,
                )
            )
    return out, hits_by_asn


def accumulate_rows(rows: Iterable[BeaconRow]) -> List[BeaconRow]:
    """Dict-based group accumulation by subnet key, canonical order.

    First-seen metadata and ``idx``; ``hits``/``api``/``cell`` summed
    as exact Python ints; groups sorted by ``(family, value, length)``.
    """
    groups: Dict[Tuple[int, int, int], list] = {}
    for idx, family, value, length, asn, country, hits, api, cell in rows:
        key = (family, value, length)
        current = groups.get(key)
        if current is None:
            groups[key] = [idx, family, value, length, asn, country,
                           hits, api, cell]
            continue
        current[6] += hits
        current[7] += api
        current[8] += cell
    return sorted((tuple(g) for g in groups.values()),
                  key=lambda r: (r[1], r[2], r[3]))


def fold_hits(hits) -> Tuple[Dict[Prefix, tuple], Dict[object, Tuple[int, int]]]:
    """Per-hit dict fold of beacon hits, the pre-columnar way.

    Returns ``{subnet: (asn, country, hits, api, cell)}`` and
    ``{browser: (hits, api)}``, both in first-seen order; the first
    hit for a subnet pins its metadata.
    """
    subnets: Dict[Prefix, list] = {}
    browsers: Dict[object, Tuple[int, int]] = {}
    for hit in hits:
        api = 1 if hit.api_enabled else 0
        cell = 1 if hit.api_enabled and hit.is_cellular_labeled else 0
        current = subnets.setdefault(hit.subnet, [hit.asn, hit.country, 0, 0, 0])
        current[2] += 1
        current[3] += api
        current[4] += cell
        seen, seen_api = browsers.get(hit.browser, (0, 0))
        browsers[hit.browser] = (seen + 1, seen_api + api)
    return {k: tuple(v) for k, v in subnets.items()}, browsers


def duplicate_key(
    keys: Iterable[Tuple[int, int, int]]
) -> Optional[Tuple[int, int, int]]:
    """Key at the first repeat in iteration order (seen-set loop)."""
    seen = set()
    for key in keys:
        if key in seen:
            return key
        seen.add(key)
    return None
