"""IP addresses for the whole library: parse, format, mask, classify.

The one module that imports :mod:`ipaddress`.  It imports nothing from
``repro``, so the DNS codec (``repro.dnslib``) and the simulated internet
(``repro.net``) both build on it.  An address travels as a
``(version, int)`` pair: text is parsed once per distinct string, masked
with precomputed per-family tables, and turned back into text once per
distinct integer.  Every memo here is a bounded ``lru_cache``, and
:func:`clear_address_caches` empties them all.
"""

from __future__ import annotations

import ipaddress
from functools import lru_cache
from typing import Iterator, Tuple, Union

IPAddress = Union[ipaddress.IPv4Address, ipaddress.IPv6Address]
IPNetwork = Union[ipaddress.IPv4Network, ipaddress.IPv6Network]
_ADDRESSES = (ipaddress.IPv4Address, ipaddress.IPv6Address)
_NETWORKS = (ipaddress.IPv4Network, ipaddress.IPv6Network)
#: The interpreter's address class per IP version.
_ADDRESS_OF_VERSION = {4: ipaddress.IPv4Address, 6: ipaddress.IPv6Address}

#: ``MASKS4[bits]`` is the 32-bit netmask keeping the first ``bits`` bits.
MASKS4: Tuple[int, ...] = tuple(
    ((1 << b) - 1) << (32 - b) if b else 0 for b in range(33))
#: ``MASKS6[bits]`` is the 128-bit netmask keeping the first ``bits`` bits.
MASKS6: Tuple[int, ...] = tuple(
    ((1 << b) - 1) << (128 - b) if b else 0 for b in range(129))

#: Mask table per address family, indexed by version.
_MASKS_BY_VERSION = {4: MASKS4, 6: MASKS6}

#: The kinds :func:`is_routable` refuses: the paper's §8.1 prefixes.
_UNROUTABLE = frozenset(("loopback", "link-local", "private"))


@lru_cache(maxsize=65536)
def parse_text(address: str) -> Tuple[int, int]:
    """``(version, integer value)`` of a textual address, memoized per
    distinct string; raises what ``ipaddress.ip_address`` raises."""
    addr = ipaddress.ip_address(address)
    return addr.version, int(addr)


def parse_addr(address: Union[str, IPAddress, int, bytes]) -> Tuple[int, int]:
    """``(version, integer value)`` of an address; raises what
    ``ipaddress.ip_address`` raises.

    The hot-path entry point: trace records and A/AAAA records carry
    addresses as text, and the same few recur constantly, so the text
    parse is memoized.  An address object gives its two fields directly;
    anything else (an integer, packed octets) goes to ``ip_address``.
    """
    if isinstance(address, str):
        return parse_text(address)
    if not isinstance(address, _ADDRESSES):
        address = ipaddress.ip_address(address)
    return address.version, int(address)


def parse_version(address: str, version: int) -> int:
    """The integer of ``address`` read as an IPv``version`` address; for
    anything else, raises what that family's ``ipaddress`` class raises."""
    try:
        got, value = parse_text(address)
    except ValueError:
        got = 0
    if got != version:
        value = int(_ADDRESS_OF_VERSION[version](address))
    return value


def parse_network(network: Union[str, IPNetwork]) -> Tuple[int, int, int]:
    """``(version, integer of the network address, prefix length)`` of a
    network in any form ``ipaddress.ip_network`` takes; host bits are
    cleared."""
    net = _network(network)
    return net.version, int(net.network_address), net.prefixlen


def _network(network: Union[str, IPNetwork]) -> IPNetwork:
    if isinstance(network, _NETWORKS):
        return network
    return ipaddress.ip_network(network, strict=False)


@lru_cache(maxsize=4096)
def address_text(version: int, value: int) -> str:
    """Presentation form of an integer address: ``str(ip_address(value))``
    of the family, with no object built for IPv4."""
    if version == 4:
        return f"{value >> 24}.{value >> 16 & 255}.{value >> 8 & 255}." \
            f"{value & 255}"
    return str(ipaddress.IPv6Address(value))


def truncate_int(version: int, value: int, bits: int) -> int:
    """Mask ``value`` to its first ``bits`` bits.

    Pure shift/mask arithmetic via the precomputed per-family tables.
    Raises :class:`ValueError` for a prefix length outside the family
    width or an unknown version.
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
    """A hashable key identifying the ``bits``-long prefix of an address:
    ``(version, bits, truncated integer)``; two addresses share a key iff
    they fall in the same prefix."""
    return (version, bits, truncate_int(version, value, bits))


def same_prefix(a: Union[str, IPAddress], b: Union[str, IPAddress],
                bits: int) -> bool:
    """True if ``a`` and ``b`` fall in the same ``bits``-long prefix."""
    version_a, value_a = parse_addr(a)
    version_b, value_b = parse_addr(b)
    if version_a != version_b:
        return False
    return truncate_int(version_a, value_a, bits) \
        == truncate_int(version_b, value_b, bits)


def host_in(network: Union[str, IPNetwork], index: int) -> IPAddress:
    """The ``index``-th address of ``network`` (deterministic placement)."""
    net = _network(network)
    if not 0 <= index < net.num_addresses:
        raise ValueError(f"{network} has no host index {index}")
    return ipaddress.ip_address(int(net.network_address) + index)


@lru_cache(maxsize=4096)
def _kind(version: int, value: int) -> str:
    addr = _ADDRESS_OF_VERSION[version](value)
    for kind, special in (("loopback", addr.is_loopback),
                          ("link-local", addr.is_link_local),
                          ("private", addr.is_private),
                          ("unspecified", addr.is_unspecified),
                          ("multicast", addr.is_multicast)):
        if special:
            return kind
    return "public"


def address_kind(address: Union[str, IPAddress]) -> str:
    """How the interpreter's ``ipaddress`` classifies ``address``, asked
    once per distinct address: the first of ``"loopback"``,
    ``"link-local"``, ``"private"``, ``"unspecified"`` and ``"multicast"``
    that applies, else ``"public"``."""
    return _kind(*parse_addr(address))


def is_routable(version: int, value: int) -> bool:
    """The routability rule of the paper's §8.1, for the CDN's Table 2
    fallback and the privacy count alike: False for loopback, link-local
    and private (RFC 1918, ULA, ...) addresses, True for every other,
    multicast included."""
    return _kind(version, value) not in _UNROUTABLE


def clear_address_caches() -> None:
    """Empty every address memo: the text parse, the integer formatter
    and the classification (benchmarks/tests hook)."""
    for memo in (parse_text, address_text, _kind):
        memo.cache_clear()


class AddressAllocator:
    """Deterministically hands out non-overlapping subnets of a supernet.

    >>> alloc = AddressAllocator("10.0.0.0/8")
    >>> str(alloc.subnet(16))
    '10.0.0.0/16'
    >>> str(alloc.subnet(24))
    '10.1.0.0/24'
    """

    def __init__(self, supernet: Union[str, IPNetwork]):
        self._supernet = _network(supernet)
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
