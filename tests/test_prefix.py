"""Unit tests for repro.net.prefix."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.addr import AddressError, format_ip
from repro.net.prefix import Prefix, slash24_of, slash48_of, subnet_key


class TestConstruction:
    def test_make_masks_host_bits(self):
        prefix = Prefix.make(4, (192 << 24) | 0xFFFF, 24)
        assert str(prefix) == "192.0.255.0/24"

    def test_parse_round_trip(self):
        for text in ("10.0.0.0/8", "192.0.2.0/24", "2001:db8::/48", "::/0"):
            assert str(Prefix.parse(text)) == text

    def test_parse_bare_address_is_host_prefix(self):
        assert Prefix.parse("10.0.0.1").length == 32
        assert Prefix.parse("::1").length == 128

    def test_equal_spellings_hash_equal(self):
        assert Prefix.parse("10.0.0.5/8") == Prefix.parse("10.255.0.0/8")
        assert hash(Prefix.parse("10.0.0.5/8")) == hash(Prefix.parse("10.0.0.0/8"))

    @pytest.mark.parametrize("bad", ["10.0.0.0/33", "10.0.0.0/-1", "::/129"])
    def test_rejects_bad_lengths(self, bad):
        with pytest.raises(AddressError):
            Prefix.parse(bad)

    def test_rejects_garbage_length(self):
        with pytest.raises(AddressError):
            Prefix.parse("10.0.0.0/abc")


class TestGeometry:
    def test_num_addresses(self):
        assert Prefix.parse("10.0.0.0/24").num_addresses == 256
        assert Prefix.parse("10.0.0.0/32").num_addresses == 1

    def test_first_last_address(self):
        prefix = Prefix.parse("10.0.1.0/24")
        assert prefix.first_address == (10 << 24) | (1 << 8)
        assert prefix.last_address == prefix.first_address + 255

    def test_contains_address(self):
        prefix = Prefix.parse("10.0.1.0/24")
        assert prefix.contains_address(4, prefix.first_address)
        assert prefix.contains_address(4, prefix.last_address)
        assert not prefix.contains_address(4, prefix.last_address + 1)
        assert not prefix.contains_address(6, prefix.first_address)

    def test_contains_prefix(self):
        big = Prefix.parse("10.0.0.0/8")
        small = Prefix.parse("10.1.2.0/24")
        assert big.contains_prefix(small)
        assert not small.contains_prefix(big)
        assert big.contains_prefix(big)

    def test_overlaps(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("10.200.0.0/16")
        c = Prefix.parse("11.0.0.0/8")
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)

    def test_supernet(self):
        assert str(Prefix.parse("10.1.2.0/24").supernet(8)) == "10.0.0.0/8"
        with pytest.raises(AddressError):
            Prefix.parse("10.0.0.0/8").supernet(16)

    def test_subnets(self):
        subs = list(Prefix.parse("10.0.0.0/23").subnets(24))
        assert [str(s) for s in subs] == ["10.0.0.0/24", "10.0.1.0/24"]
        with pytest.raises(AddressError):
            next(Prefix.parse("10.0.0.0/24").subnets(23))

    def test_nth_address_bounds(self):
        prefix = Prefix.parse("10.0.0.0/24")
        assert prefix.nth_address(0) == prefix.first_address
        assert prefix.nth_address(255) == prefix.last_address
        with pytest.raises(AddressError):
            prefix.nth_address(256)

    def test_key_bits(self):
        assert Prefix.parse("128.0.0.0/1").key_bits() == "1"
        assert Prefix.parse("0.0.0.0/0").key_bits() == ""
        assert len(Prefix.parse("2001:db8::/48").key_bits()) == 48


def _prefixes():
    """Masked prefixes of both families at every length."""
    v4 = st.builds(
        Prefix.make,
        st.just(4),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=32),
    )
    v6 = st.builds(
        Prefix.make,
        st.just(6),
        st.integers(min_value=0, max_value=(1 << 128) - 1),
        st.integers(min_value=0, max_value=128),
    )
    return st.one_of(v4, v6)


class TestValueContract:
    """What subnet-keyed dicts, sorted outputs and the goldens rely on.

    Set iteration order follows the hash, and every digest and golden
    snapshot follows set and sort order, so these pin the behaviour the
    outputs were computed with.
    """

    @given(_prefixes())
    def test_hash_is_the_field_tuple_hash(self, prefix):
        assert hash(prefix) == hash((prefix.family, prefix.value, prefix.length))

    @given(st.lists(_prefixes(), max_size=30))
    def test_sorting_is_field_tuple_order(self, prefixes):
        as_tuples = [(p.family, p.value, p.length) for p in prefixes]
        assert [
            (p.family, p.value, p.length) for p in sorted(prefixes)
        ] == sorted(as_tuples)

    def test_sorting_spans_families_and_lengths(self):
        texts = ["2001:db8::/48", "10.0.0.0/8", "::/0", "10.0.0.0/24", "9.0.0.0/8"]
        assert [str(p) for p in sorted(Prefix.parse(t) for t in texts)] == [
            "9.0.0.0/8", "10.0.0.0/8", "10.0.0.0/24", "::/0", "2001:db8::/48",
        ]

    def test_repr(self):
        assert repr(Prefix.parse("10.0.1.0/24")) == (
            "Prefix(family=4, value=167772416, length=24)"
        )
        assert repr(Prefix.parse("::/0")) == "Prefix(family=6, value=0, length=0)"

    @given(_prefixes())
    def test_pickle_round_trip(self, prefix):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(prefix, protocol=protocol))
            assert again == prefix and type(again) is Prefix
            assert hash(again) == hash(prefix)

    @given(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=32),
    )
    def test_make_and_parse_mask_host_bits(self, value, length):
        prefix = Prefix.make(4, value, length)
        host_bits = (1 << (32 - length)) - 1
        assert prefix.value & host_bits == 0
        assert prefix.value == value & ~host_bits & 0xFFFFFFFF
        assert Prefix.parse(f"{format_ip(4, value)}/{length}") == prefix

    def test_equals_the_plain_field_tuple(self):
        # Deliberate: the type is tuple-backed, so a prefix and its field
        # tuple are interchangeable as dict and set keys.
        prefix = Prefix.parse("10.0.1.0/24")
        assert prefix == (4, 167772416, 24)
        assert (4, 167772416, 24) in {prefix}
        assert {prefix: 1}[(4, 167772416, 24)] == 1


class TestAggregationKeys:
    def test_slash24_of(self):
        address = (192 << 24) | (168 << 16) | (5 << 8) | 77
        assert str(slash24_of(address)) == "192.168.5.0/24"

    def test_slash48_of(self):
        address = (0x20010DB8 << 96) | 12345
        assert str(slash48_of(address)) == "2001:db8::/48"

    def test_subnet_key_dispatch(self):
        assert subnet_key(4, 0).length == 24
        assert subnet_key(6, 0).length == 48
        with pytest.raises(AddressError):
            subnet_key(9, 0)

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_slash24_contains_source(self, address):
        assert slash24_of(address).contains_address(4, address)

    @given(st.integers(min_value=0, max_value=(1 << 128) - 1))
    def test_slash48_contains_source(self, address):
        assert slash48_of(address).contains_address(6, address)


@given(
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=32),
    st.integers(min_value=0, max_value=32),
)
def test_supernet_always_contains(value, length, shorter):
    prefix = Prefix.make(4, value, length)
    if shorter <= length:
        assert prefix.supernet(shorter).contains_prefix(prefix)


@given(st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_parse_str_round_trip(value):
    prefix = Prefix.make(4, value, 24)
    assert Prefix.parse(str(prefix)) == prefix
