"""IP address and prefix utilities shared across the library.

Mostly thin, well-tested wrappers over :mod:`ipaddress` that implement the
prefix arithmetic the ECS machinery needs: truncating an address to *n*
significant bits, computing prefix keys for cache/scope indexing, sampling
addresses inside a prefix, and an address allocator that hands out
non-overlapping subnets deterministically.
"""

from __future__ import annotations

import ipaddress
import random
from functools import lru_cache
from typing import Iterator, Tuple, Union

IPAddress = Union[ipaddress.IPv4Address, ipaddress.IPv6Address]
IPNetwork = Union[ipaddress.IPv4Network, ipaddress.IPv6Network]
_NETWORKS = (ipaddress.IPv4Network, ipaddress.IPv6Network)

# ---------------------------------------------------------------------------
# Integer-native fast lane
#
# The replay and cache hot paths call prefix arithmetic once per simulated
# query; constructing an ``ipaddress`` object each time dominates their
# profile.  The primitives below work on plain ``(version, int)`` pairs with
# precomputed mask tables, and an LRU-interned parse cache absorbs the
# repeated client-address strings every trace contains.  Each fast function
# is pinned byte-for-byte to its readable reference implementation further
# down this module by ``tests/test_fastpath_equivalence.py``.

#: ``MASKS4[bits]`` is the 32-bit netmask keeping the first ``bits`` bits.
MASKS4: Tuple[int, ...] = tuple(
    ((1 << b) - 1) << (32 - b) if b else 0 for b in range(33))
#: ``MASKS6[bits]`` is the 128-bit netmask keeping the first ``bits`` bits.
MASKS6: Tuple[int, ...] = tuple(
    ((1 << b) - 1) << (128 - b) if b else 0 for b in range(129))

#: Mask table per address family, indexed by version.
_MASKS_BY_VERSION = {4: MASKS4, 6: MASKS6}


@lru_cache(maxsize=65536)
def _parse_addr_str(address: str) -> Tuple[int, int]:
    """Parse a textual address into ``(version, int)``, LRU-interned."""
    addr = ipaddress.ip_address(address)
    return addr.version, int(addr)


def parse_addr(address: Union[str, IPAddress]) -> Tuple[int, int]:
    """``(version, integer value)`` of an address, cached for strings.

    The hot-path entry point: trace records carry addresses as strings, and
    real traces repeat the same clients constantly, so the string parse is
    memoized.  Address objects are converted directly (no cache needed —
    both fields are O(1) accessors).
    """
    if isinstance(address, str):
        return _parse_addr_str(address)
    return address.version, int(address)


def truncate_int(version: int, value: int, bits: int) -> int:
    """Integer form of :func:`truncate_address`: mask ``value`` to ``bits``.

    Pure shift/mask arithmetic via the precomputed per-family tables.
    Raises :class:`ValueError` for a prefix length outside the family
    width, matching the reference implementation.
    """
    try:
        if bits < 0:
            raise IndexError
        return value & _MASKS_BY_VERSION[version][bits]
    except (IndexError, KeyError):
        raise ValueError(
            f"prefix length {bits} out of range for IPv{version}") from None


def prefix_key_int(version: int, value: int,
                   bits: int) -> Tuple[int, int, int]:
    """Integer-native :func:`prefix_key`: no address objects constructed.

    Returns the identical ``(version, bits, truncated-integer)`` tuple the
    reference produces, so the two are interchangeable as dict keys.
    """
    return (version, bits, truncate_int(version, value, bits))


def ipv4_int(address: str) -> int:
    """The integer of an IPv4 address; for anything else, raises what
    ``ipaddress.IPv4Address`` raises."""
    try:
        version, value = parse_addr(address)
    except ValueError:
        version = 0
    if version != 4:
        value = int(ipaddress.IPv4Address(address))
    return value


def truncate_address(address: Union[str, IPAddress], bits: int) -> IPAddress:
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


def prefix_key(address: Union[str, IPAddress], bits: int) -> Tuple[int, int, int]:
    """A hashable key identifying the ``bits``-long prefix of ``address``.

    The key is (version, bits, truncated-integer); two addresses share a key
    iff they fall in the same prefix.
    """
    addr = ipaddress.ip_address(address)
    return (addr.version, bits, int(truncate_address(addr, bits)))


def prefix_text(address: Union[str, IPAddress], bits: int) -> str:
    """Presentation form ``network/bits`` of the covering prefix."""
    return f"{truncate_address(address, bits)}/{bits}"


def same_prefix(a: Union[str, IPAddress], b: Union[str, IPAddress],
                bits: int) -> bool:
    """True if ``a`` and ``b`` fall in the same ``bits``-long prefix."""
    version_a, value_a = parse_addr(a)
    version_b, value_b = parse_addr(b)
    if version_a != version_b:
        return False
    return truncate_int(version_a, value_a, bits) \
        == truncate_int(version_b, value_b, bits)


def random_address_in(network: Union[str, IPNetwork],
                      rng: random.Random) -> IPAddress:
    """A uniformly random host address inside ``network``."""
    net = ipaddress.ip_network(network, strict=False)
    lo = int(net.network_address)
    span = net.num_addresses
    return ipaddress.ip_address(lo + rng.randrange(span))


def host_in(network: Union[str, IPNetwork], index: int) -> IPAddress:
    """The ``index``-th address of ``network`` (deterministic placement)."""
    net = ipaddress.ip_network(network, strict=False)
    if not 0 <= index < net.num_addresses:
        raise ValueError(f"{network} has no host index {index}")
    return ipaddress.ip_address(int(net.network_address) + index)


def address_text(version: int, value: int) -> str:
    """Presentation form of an integer address: ``str(ip_address(value))``
    of the family, with no object built for IPv4."""
    if version == 4:
        return f"{value >> 24}.{value >> 16 & 255}.{value >> 8 & 255}." \
            f"{value & 255}"
    return str(ipaddress.IPv6Address(value))


@lru_cache(maxsize=4096)
def address_kind(address: Union[str, IPAddress]) -> str:
    """How the interpreter's ``ipaddress`` classifies ``address``, asked
    once per distinct address: the first of ``"loopback"``,
    ``"link-local"``, ``"private"``, ``"unspecified"`` and ``"multicast"``
    that applies, else ``"public"``."""
    addr = ipaddress.ip_address(address)
    for kind, special in (("loopback", addr.is_loopback),
                          ("link-local", addr.is_link_local),
                          ("private", addr.is_private),
                          ("unspecified", addr.is_unspecified),
                          ("multicast", addr.is_multicast)):
        if special:
            return kind
    return "public"


def is_routable(address: Union[str, IPAddress]) -> bool:
    """False for loopback / link-local / private / unspecified addresses."""
    return address_kind(address) == "public"


class AddressAllocator:
    """Deterministically hands out non-overlapping subnets of a supernet.

    >>> alloc = AddressAllocator("10.0.0.0/8")
    >>> str(alloc.subnet(16))
    '10.0.0.0/16'
    >>> str(alloc.subnet(24))
    '10.1.0.0/24'
    """

    def __init__(self, supernet: Union[str, IPNetwork]):
        self._supernet = supernet if isinstance(supernet, _NETWORKS) \
            else ipaddress.ip_network(supernet, strict=False)
        self.version = self._supernet.version
        self._width = 32 if self.version == 4 else 128
        self._cursor = int(self._supernet.network_address)
        self._end = self._cursor + self._supernet.num_addresses

    def allocate(self, prefixlen: int) -> int:
        """Allocate the next free subnet of the requested length; return
        the integer of its network address."""
        if prefixlen < self._supernet.prefixlen:
            raise ValueError(f"/{prefixlen} larger than supernet {self._supernet}")
        if prefixlen > self._width:
            raise ValueError(f"/{prefixlen} longer than the {self._width} "
                             f"bits of an IPv{self.version} address")
        size = 1 << (self._width - prefixlen)
        # Align the cursor to the subnet size.
        start = (self._cursor + size - 1) & ~(size - 1)
        if start + size > self._end:
            raise ValueError(f"supernet {self._supernet} exhausted")
        self._cursor = start + size
        return start

    def subnet(self, prefixlen: int) -> IPNetwork:
        """Allocate the next free subnet of the requested length."""
        return type(self._supernet)((self.allocate(prefixlen), prefixlen))

    def subnets(self, prefixlen: int, count: int) -> Iterator[IPNetwork]:
        """Allocate ``count`` subnets of the same length."""
        for _ in range(count):
            yield self.subnet(prefixlen)

    @property
    def supernet(self) -> IPNetwork:
        return self._supernet
