"""IPv4/IPv6 address parsing and formatting.

Addresses are represented as plain ``int`` values paired with a family
(4 or 6).  The integer form is what the rest of the library stores and
hashes -- log generation and subnet aggregation touch millions of
addresses, so we avoid per-address object allocation entirely and only
materialize strings at I/O boundaries.

The formatter for IPv6 follows RFC 5952: lowercase hex, longest run of
zero groups (length >= 2) compressed with ``::``, leftmost run winning
ties.
"""

from __future__ import annotations

IPV4_BITS = 32
IPV6_BITS = 128
_IPV4_MAX = (1 << IPV4_BITS) - 1
_IPV6_MAX = (1 << IPV6_BITS) - 1


class AddressError(ValueError):
    """Raised when an address or prefix string cannot be parsed."""


def parse_ipv4(text: str) -> int:
    """Parse dotted-quad IPv4 ``text`` into an integer.

    >>> parse_ipv4("192.0.2.1")
    3221225985
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressError(f"IPv4 address needs 4 octets: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit() or (len(part) > 1 and part[0] == "0"):
            raise AddressError(f"bad IPv4 octet {part!r} in {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"IPv4 octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_ipv4(value: int) -> str:
    """Format integer ``value`` as dotted-quad IPv4.

    >>> format_ipv4(3221225985)
    '192.0.2.1'
    """
    if not 0 <= value <= _IPV4_MAX:
        raise AddressError(f"IPv4 integer out of range: {value}")
    return (
        f"{value >> 24}.{(value >> 16) & 0xFF}."
        f"{(value >> 8) & 0xFF}.{value & 0xFF}"
    )


def parse_ipv6(text: str) -> int:
    """Parse an IPv6 address (with optional ``::`` compression) to an int.

    Embedded IPv4 tails (``::ffff:192.0.2.1``) are supported.

    >>> parse_ipv6("2001:db8::1") == 0x20010db8_00000000_00000000_00000001
    True
    """
    if text.count("::") > 1:
        raise AddressError(f"multiple '::' in {text!r}")
    head_text, sep, tail_text = text.partition("::")
    # An embedded IPv4 tail may only terminate the whole address.
    head = _parse_ipv6_groups(head_text, text, allow_embedded=not sep)
    tail = _parse_ipv6_groups(tail_text, text, allow_embedded=True) if sep else []
    if sep:
        missing = 8 - len(head) - len(tail)
        if missing < 1:
            raise AddressError(f"'::' expands to nothing in {text!r}")
        groups = head + [0] * missing + tail
    else:
        groups = head
    if len(groups) != 8:
        raise AddressError(f"IPv6 address needs 8 groups: {text!r}")
    value = 0
    for group in groups:
        value = (value << 16) | group
    return value


def _parse_ipv6_groups(chunk: str, original: str, allow_embedded: bool) -> list:
    """Parse one side of a ``::`` split into a list of 16-bit ints."""
    if not chunk:
        return []
    groups = []
    parts = chunk.split(":")
    for index, part in enumerate(parts):
        if "." in part:
            if not allow_embedded or index != len(parts) - 1:
                raise AddressError(f"embedded IPv4 not last in {original!r}")
            v4 = parse_ipv4(part)
            groups.append(v4 >> 16)
            groups.append(v4 & 0xFFFF)
            continue
        if not part or len(part) > 4:
            raise AddressError(f"bad IPv6 group {part!r} in {original!r}")
        try:
            groups.append(int(part, 16))
        except ValueError:
            raise AddressError(
                f"bad IPv6 group {part!r} in {original!r}"
            ) from None
    return groups


def format_ipv6(value: int) -> str:
    """Format integer ``value`` as RFC 5952 canonical IPv6 text.

    >>> format_ipv6(0x20010db8_00000000_00000000_00000001)
    '2001:db8::1'
    """
    if not 0 <= value <= _IPV6_MAX:
        raise AddressError(f"IPv6 integer out of range: {value}")
    groups = [(value >> shift) & 0xFFFF for shift in range(112, -16, -16)]
    best_start, best_len = -1, 0
    run_start, run_len = -1, 0
    for index, group in enumerate(groups):
        if group == 0:
            if run_start < 0:
                run_start, run_len = index, 0
            run_len += 1
            if run_len > best_len:
                best_start, best_len = run_start, run_len
        else:
            run_start, run_len = -1, 0
    if best_len < 2:
        return ":".join(format(group, "x") for group in groups)
    head = ":".join(format(g, "x") for g in groups[:best_start])
    tail = ":".join(format(g, "x") for g in groups[best_start + best_len:])
    return f"{head}::{tail}"


def parse_ip(text: str):
    """Parse ``text`` as IPv4 or IPv6, returning ``(family, value)``.

    >>> parse_ip("10.0.0.1")
    (4, 167772161)
    """
    if ":" in text:
        return 6, parse_ipv6(text)
    return 4, parse_ipv4(text)


def format_ip(family: int, value: int) -> str:
    """Format an integer address of the given family (4 or 6)."""
    if family == 4:
        return format_ipv4(value)
    if family == 6:
        return format_ipv6(value)
    raise AddressError(f"unknown address family: {family}")
