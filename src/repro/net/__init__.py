"""Address, prefix, and AS machinery underlying the Cell Spotting pipeline.

The paper operates on /24 IPv4 and /48 IPv6 aggregates ("subnets") and on
autonomous systems.  This package provides the value types and containers
those analyses are built on:

- :mod:`repro.net.addr` -- IPv4/IPv6 parsing, formatting, and integer
  representation of addresses.
- :mod:`repro.net.prefix` -- the :class:`~repro.net.prefix.Prefix` value
  type, plus the /24 and /48 aggregation keys used throughout the paper.
- :mod:`repro.net.trie` -- a binary radix trie with longest-prefix match,
  used for ground-truth lookups and prefix aggregation.
- :mod:`repro.net.asn` -- AS records and AS type taxonomy.
"""
