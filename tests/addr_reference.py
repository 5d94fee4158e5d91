"""Readable ``ipaddress`` restatements of the integer prefix arithmetic in
:mod:`repro.addr`, kept as oracles: each builds address objects where the
library masks integers.  ``tests/test_fastpath_equivalence.py`` and
``tests/test_properties.py`` hold the library to them;
``benchmarks/test_bench_hotpath.py`` times ``prefix_key`` against
``prefix_key_int``.
"""

from __future__ import annotations

import ipaddress


def truncate_address(address, bits):
    """Zero every bit of ``address`` beyond the first ``bits``.

    >>> str(truncate_address("192.0.2.77", 24))
    '192.0.2.0'
    """
    addr = ipaddress.ip_address(address)
    width = 32 if addr.version == 4 else 128
    if not 0 <= bits <= width:
        raise ValueError(f"prefix length {bits} out of range for IPv{addr.version}")
    mask = ((1 << bits) - 1) << (width - bits) if bits else 0
    # Rebuild with the explicit class: ip_address(int) would guess IPv4
    # for any value below 2**32.
    if addr.version == 4:
        return ipaddress.IPv4Address(int(addr) & mask)
    return ipaddress.IPv6Address(int(addr) & mask)


def prefix_key(address, bits):
    """A hashable key identifying the ``bits``-long prefix of ``address``:
    (version, bits, truncated integer)."""
    addr = ipaddress.ip_address(address)
    return (addr.version, bits, int(truncate_address(addr, bits)))


def prefix_text(address, bits):
    """Presentation form ``network/bits`` of the covering prefix."""
    return f"{truncate_address(address, bits)}/{bits}"
