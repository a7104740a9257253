"""Differential: the index's per-length hash-map LPM against PrefixTrie.

:class:`~repro.net.trie.PrefixTrie` is the oracle.  Random nested
prefix sets (the default route, host routes, parents shadowed by
stored children) are indexed both from an in-heap ratio table and from
its mmap snapshot, and every address and covering-CIDR query must find
the same prefix the trie finds.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.columnar.mmaptable import open_mmap, save_mmap
from repro.core.ratios import RatioRecord, RatioTable
from repro.net.addr import format_ip
from repro.net.prefix import Prefix
from repro.net.trie import PrefixTrie
from repro.serve.index import ClassificationIndex

BITS = {4: 32, 6: 128}


@st.composite
def nested_case(draw, family):
    """A nested prefix set and queries around it, for one family."""
    bits = BITS[family]
    # A few anchors; prefixes and queries are anchors with their low
    # bits flipped, so stored prefixes nest and queries land near them.
    anchors = draw(
        st.lists(st.integers(0, (1 << bits) - 1), min_size=1, max_size=4)
    )

    def near(anchor_bits: int):
        anchor = draw(st.sampled_from(anchors))
        flip = draw(st.integers(0, (1 << anchor_bits) - 1))
        return anchor ^ flip

    lengths = st.one_of(
        st.sampled_from([0, bits // 4, bits // 2, bits - 8, bits - 1, bits]),
        st.integers(0, bits),
    )
    prefixes = {
        Prefix.make(family, near(draw(st.integers(0, bits))), draw(lengths))
        for _ in range(draw(st.integers(1, 24)))
    }
    addresses = [
        near(draw(st.integers(0, bits))) for _ in range(draw(st.integers(1, 24)))
    ]
    cidrs = [
        Prefix.make(family, near(draw(st.integers(0, bits))), draw(lengths))
        for _ in range(draw(st.integers(1, 12)))
    ]
    return sorted(prefixes), addresses, cidrs


def _table(prefixes) -> RatioTable:
    return RatioTable(
        RatioRecord(
            subnet=prefix, asn=64500 + n, country="ZZ",
            api_hits=10 + n, cellular_hits=n % 11, hits=20 + n,
        )
        for n, prefix in enumerate(prefixes)
    )


def _oracle(prefixes):
    tries = {4: PrefixTrie(4), 6: PrefixTrie(6)}
    for prefix in prefixes:
        tries[prefix.family].insert(prefix, prefix)
    return tries


def _found(match):
    return None if match is None else match[0]


def _subnet(entry):
    return None if entry is None else entry.subnet


def _check(*cases) -> None:
    """One table holding every case's prefixes; each case's queries."""
    prefixes = sorted(p for case in cases for p in case[0])
    table = _table(prefixes)
    tries = _oracle(prefixes)
    with tempfile.TemporaryDirectory() as tmp:
        mapped = open_mmap(save_mmap(table, Path(tmp) / "t.rt"))
        for index in (
            ClassificationIndex.build(table),
            ClassificationIndex.build(mapped),
        ):
            assert len(index) == len(prefixes)
            assert sorted(e.subnet for e in index.entries()) == prefixes
            for case_prefixes, addresses, cidrs in cases:
                family = case_prefixes[0].family
                trie = tries[family]
                for address in addresses:
                    expected = _found(trie.longest_match(family, address))
                    assert _subnet(index.lookup_address(family, address)) == expected
                    result = index.query(format_ip(family, address))
                    assert result.error is None
                    assert result.matched == (expected is not None)
                    assert _subnet(result.entry) == expected
                for cidr in cidrs:
                    expected = _found(trie.match_prefix(cidr))
                    assert _subnet(index.lookup_prefix(cidr)) == expected
                    assert _subnet(index.query(str(cidr)).entry) == expected
                    # Host bits in the query text are masked off.
                    spelled = f"{format_ip(family, cidr.last_address)}/{cidr.length}"
                    assert _subnet(index.query(spelled).entry) == expected
        mapped.close()


_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@_SETTINGS
@given(nested_case(4))
def test_ipv4_lpm_matches_trie(case):
    _check(case)


@_SETTINGS
@given(nested_case(6))
def test_ipv6_lpm_matches_trie(case):
    _check(case)


@settings(_SETTINGS, max_examples=50)
@given(nested_case(4), nested_case(6))
def test_mixed_families_match_trie(v4, v6):
    _check(v4, v6)


def test_default_route_host_route_and_shadowed_parent():
    prefixes = [
        Prefix.parse("0.0.0.0/0"),
        Prefix.parse("10.0.0.0/8"),
        Prefix.parse("10.1.0.0/16"),  # shadowed inside by the /24
        Prefix.parse("10.1.2.0/24"),
        Prefix.parse("10.1.2.7/32"),
        Prefix.parse("::/0"),
        Prefix.parse("2001:db8::/32"),
        Prefix.parse("2001:db8::1/128"),
    ]
    index = ClassificationIndex.build(_table(prefixes))
    answers = {
        "10.1.2.7": "10.1.2.7/32",
        "10.1.2.8": "10.1.2.0/24",
        "10.1.3.1": "10.1.0.0/16",
        "10.9.9.9": "10.0.0.0/8",
        "192.0.2.1": "0.0.0.0/0",
        "10.1.2.0/25": "10.1.2.0/24",
        "10.1.0.0/16": "10.1.0.0/16",
        "10.0.0.0/7": "0.0.0.0/0",
        "0.0.0.0/0": "0.0.0.0/0",
        "2001:db8::1": "2001:db8::1/128",
        "2001:db8::2": "2001:db8::/32",
        "2001:db9::1": "::/0",
        "2001:db8::/31": "::/0",
    }
    for query, subnet in answers.items():
        result = index.query(query)
        assert result.matched, query
        assert str(result.entry.subnet) == subnet, query


def test_family_without_entries_misses():
    index = ClassificationIndex.build(_table([Prefix.parse("10.0.0.0/8")]))
    assert index.query("2001:db8::1").matched is False
    assert index.query("2001:db8::/32").matched is False
    assert index.lookup_address(6, 1) is None
