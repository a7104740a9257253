"""The :class:`Prefix` value type and the paper's aggregation keys.

Cell Spotting aggregates every observation to /24 blocks for IPv4 and
/48 blocks for IPv6 (section 3.2), arguing those granularities are
homogeneous with respect to access technology.  :func:`slash24_of` and
:func:`slash48_of` produce those canonical keys from raw addresses;
:func:`subnet_key` dispatches on family.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.net.addr import (
    IPV4_BITS,
    IPV6_BITS,
    AddressError,
    format_ip,
    parse_ip,
)

#: Aggregation granularity used by the paper for each family.
PAPER_GRANULARITY = {4: 24, 6: 48}


class Prefix(NamedTuple):
    """An immutable CIDR prefix: address family, network bits, length.

    ``value`` holds only the network bits (host bits are forced to zero
    by :meth:`make`), so two textual spellings of the same block compare
    and hash equal.

    The type is tuple-backed, so every subnet-keyed dict and set in
    the system hashes and compares prefixes in C.  Set iteration
    orders, and through them the golden outputs and digests, depend on
    ``hash(p) == hash((p.family, p.value, p.length))``; sorting is
    field-tuple order.  One deliberate consequence: a prefix also
    compares equal to the plain tuple ``(family, value, length)``.
    """

    family: int
    value: int
    length: int

    @classmethod
    def make(cls, family: int, value: int, length: int) -> "Prefix":
        """Build a prefix, masking off host bits and validating bounds."""
        bits = _family_bits(family)
        if not 0 <= length <= bits:
            raise AddressError(f"prefix length {length} out of range for IPv{family}")
        mask = _netmask(bits, length)
        return cls(family, value & mask, length)

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"192.0.2.0/24"`` or ``"2001:db8::/48"``.

        A bare address parses as a host prefix (/32 or /128), and host
        bits are masked off:

        >>> str(Prefix.parse("192.0.2.77/24"))
        '192.0.2.0/24'
        >>> Prefix.parse("2001:db8::1").length
        128
        """
        addr_text, sep, len_text = text.partition("/")
        family, value = parse_ip(addr_text)
        if not sep:
            return cls.make(family, value, _family_bits(family))
        try:
            length = int(len_text)
        except ValueError:
            raise AddressError(f"bad prefix length in {text!r}") from None
        return cls.make(family, value, length)

    @property
    def bits(self) -> int:
        """Total address bits for this family (32 or 128)."""
        return _family_bits(self.family)

    @property
    def num_addresses(self) -> int:
        """Number of addresses covered by this prefix."""
        return 1 << (self.bits - self.length)

    @property
    def first_address(self) -> int:
        """Lowest address in the block (the network address)."""
        return self.value

    @property
    def last_address(self) -> int:
        """Highest address in the block."""
        return self.value | ((1 << (self.bits - self.length)) - 1)

    def contains_address(self, family: int, address: int) -> bool:
        """True if the integer ``address`` of ``family`` is inside this block."""
        if family != self.family:
            return False
        return self.value <= address <= self.last_address

    def contains_prefix(self, other: "Prefix") -> bool:
        """True if ``other`` is equal to or nested inside this prefix."""
        return (
            other.family == self.family
            and other.length >= self.length
            and (other.value & _netmask(self.bits, self.length)) == self.value
        )

    def overlaps(self, other: "Prefix") -> bool:
        """True if the two blocks share any address."""
        return self.contains_prefix(other) or other.contains_prefix(self)

    def supernet(self, length: int) -> "Prefix":
        """The enclosing prefix of the given (shorter or equal) length."""
        if length > self.length:
            raise AddressError(
                f"supernet length {length} longer than /{self.length}"
            )
        return Prefix.make(self.family, self.value, length)

    def subnets(self, length: int):
        """Yield the sub-blocks of the given (longer or equal) length."""
        if length < self.length:
            raise AddressError(f"subnet length {length} shorter than /{self.length}")
        step = 1 << (self.bits - length)
        for value in range(self.value, self.last_address + 1, step):
            yield Prefix(self.family, value, length)

    def nth_address(self, offset: int) -> int:
        """The integer address at ``offset`` within the block."""
        if not 0 <= offset < self.num_addresses:
            raise AddressError(
                f"offset {offset} outside /{self.length} block"
            )
        return self.value + offset

    def key_bits(self) -> str:
        """The prefix as a bit-string key (used by the radix trie)."""
        if self.length == 0:
            return ""
        return format(self.value >> (self.bits - self.length), f"0{self.length}b")

    def __str__(self) -> str:
        return f"{format_ip(self.family, self.value)}/{self.length}"


def _family_bits(family: int) -> int:
    if family == 4:
        return IPV4_BITS
    if family == 6:
        return IPV6_BITS
    raise AddressError(f"unknown address family: {family}")


def _netmask(bits: int, length: int) -> int:
    if length == 0:
        return 0
    return ((1 << length) - 1) << (bits - length)


def slash24_of(address: int) -> Prefix:
    """The /24 aggregation key of an IPv4 integer address."""
    return Prefix(4, address & 0xFFFFFF00, 24)


def slash48_of(address: int) -> Prefix:
    """The /48 aggregation key of an IPv6 integer address."""
    mask = ((1 << 48) - 1) << 80
    return Prefix(6, address & mask, 48)


def subnet_key(family: int, address: int) -> Prefix:
    """The paper's aggregation key (/24 or /48) for an address."""
    if family == 4:
        return slash24_of(address)
    if family == 6:
        return slash48_of(address)
    raise AddressError(f"unknown address family: {family}")
