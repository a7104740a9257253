"""Dataset generation is pinned to its bytes.

The BEACON, DEMAND and resolver-affinity generators draw every subnet
from its own seeded ``random.Random``; any change to a seed string or to
the order of draws changes the datasets, and with them every figure.
These digests were taken before the generators' inner loops were
rewritten for speed, so a faster generator must still produce exactly
these rows, in this order.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cdn.demand import DemandGenerator
from repro.dns.affinity import build_affinity
from repro.lab import Lab

#: (scale, seed) -> sha256 of (beacons, demand, affinity).
EXPECTED = {
    (0.002, 1): (
        "0f50d140d7849ff28444c2f09673db8fe443c9e67f0fe7c829e652c04b73f826",
        "64380596b6f09df70e8d31875ac6237816aad8e63e3284fc41f6ae3d126b9054",
        "1a8d89cf8510485c0fe86b93d6468f7a702ce3b3e0d208cafbf07618bc79b3ba",
    ),
    (0.002, 7): (
        "00ab75525d3a6033cb76683ac393edebc80db1b804d919323f967fdc100d03e9",
        "30f240347a2e2b0b8d56d34789ff6eb8a86db58ca29677ef371dfcaa9949475c",
        "2104ec7f025ed500a3b1c0be12bfe59302f06c6390aa55f72749f0d663be42db",
    ),
}


def _sha256(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def beacon_digest(beacons) -> str:
    """Rows in iteration order, then the browser counters in key order."""
    rows = (
        f"{c.subnet}|{c.asn}|{c.country}|{c.hits}|{c.api_hits}|{c.cellular_hits}"
        for c in beacons
    )
    browsers = (
        f"{browser.value}|{hits}|{api_hits}"
        for browser, (hits, api_hits) in beacons.browser_counts.items()
    )
    return _sha256([beacons.month, *rows, *browsers])


def demand_digest(demand) -> str:
    return _sha256(
        f"{d.subnet}|{d.asn}|{d.country}|{d.du!r}" for d in demand
    )


def affinity_digest(affinity) -> str:
    return _sha256(
        f"{r.subnet}|{r.asn}|{r.country}|{r.resolver.resolver_id}|{r.du!r}"
        f"|{r.client_latitude!r}|{r.client_longitude!r}"
        for r in affinity
    )


@pytest.fixture(
    scope="module",
    params=sorted(EXPECTED),
    ids=lambda key: f"scale{key[0]}-seed{key[1]}",
)
def generated(request):
    scale, seed = request.param
    lab = Lab.create(scale=scale, seed=seed)
    return request.param, lab


def test_beacon_bytes(generated):
    key, lab = generated
    assert beacon_digest(lab.beacons) == EXPECTED[key][0]


def test_demand_bytes(generated):
    key, lab = generated
    assert demand_digest(lab.demand) == EXPECTED[key][1]


def test_affinity_bytes(generated):
    key, lab = generated
    affinity = build_affinity(lab.world, lab.demand)
    assert affinity_digest(affinity) == EXPECTED[key][2]


def test_request_totals_sum_the_daily_records(generated):
    _, lab = generated
    generator = DemandGenerator(lab.world, lab.demand_config)
    summed = {}
    for record in generator.iter_records():
        entry = summed.setdefault(
            record.subnet, [record.subnet, record.asn, record.country, 0]
        )
        entry[3] += record.requests
    totals = [list(row) for row in generator.request_totals()]
    assert totals == list(summed.values())
    assert len(totals) == len(lab.demand)
