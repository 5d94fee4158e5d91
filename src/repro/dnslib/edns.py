"""EDNS0 (RFC 6891) options, including the ECS option (RFC 7871).

The star of this module is :class:`EcsOption`, the edns-client-subnet option
whose behavior across resolvers is the subject of the reproduced paper.  Its
wire codec implements RFC 7871 section 6 exactly: two-octet family, one-octet
source prefix length, one-octet scope prefix length, then
``ceil(source_prefix_length / 8)`` address octets whose bits beyond the
source prefix MUST be zero.
"""

from __future__ import annotations

import ipaddress
import math
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Type, Union

from .constants import ECS_FAMILY_IPV4, ECS_FAMILY_IPV6, EdnsOptionCode
from .errors import BadEcsError, BadOptionError, TruncatedMessageError
from .rdata import address_int

IPAddress = Union[ipaddress.IPv4Address, ipaddress.IPv6Address]

# Precompiled wire structs (format parsed once, not per call).
_ECS_HEADER = struct.Struct("!HBB")
_OPTION_HEADER = struct.Struct("!HH")

#: IP version -> (ECS family, RFC 7871 default source prefix length,
#: address width in bits, address class).
_FAMILY_OF_VERSION = {
    4: (ECS_FAMILY_IPV4, 24, 32, ipaddress.IPv4Address),
    6: (ECS_FAMILY_IPV6, 56, 128, ipaddress.IPv6Address),
}


class EdnsOption:
    """Base class for EDNS0 options carried in the OPT pseudo-record."""

    code: int

    def to_wire(self) -> bytes:
        """The option payload (not including the code/length header)."""
        raise NotImplementedError

    @classmethod
    def from_wire(cls, data: bytes) -> "EdnsOption":
        raise NotImplementedError


@dataclass(frozen=True)
class GenericOption(EdnsOption):
    """An EDNS option the codec does not model, kept as opaque bytes."""

    code_value: int
    data: bytes

    @property
    def code(self) -> int:  # type: ignore[override]
        return self.code_value

    def to_wire(self) -> bytes:
        return self.data

    @classmethod
    def from_wire(cls, data: bytes) -> "GenericOption":
        return cls(0, data)


@dataclass(frozen=True)
class CookieOption(EdnsOption):
    """DNS cookie (RFC 7873); modeled because busy resolvers send it."""

    client_cookie: bytes
    server_cookie: bytes = b""
    code = EdnsOptionCode.COOKIE

    def to_wire(self) -> bytes:
        if len(self.client_cookie) != 8:
            raise BadOptionError("client cookie must be 8 octets")
        if self.server_cookie and not 8 <= len(self.server_cookie) <= 32:
            raise BadOptionError("server cookie must be 8..32 octets")
        return self.client_cookie + self.server_cookie

    @classmethod
    def from_wire(cls, data: bytes) -> "CookieOption":
        if len(data) < 8:
            raise BadOptionError("cookie option shorter than 8 octets")
        return cls(data[:8], data[8:])


@dataclass(frozen=True)
class EcsOption(EdnsOption):
    """The edns-client-subnet option (RFC 7871).

    ``address`` always holds a full IPv4/IPv6 address object whose bits
    beyond ``source_prefix_length`` are zero; the wire form carries only the
    significant octets.

    >>> opt = EcsOption.from_client_address("192.0.2.77", 24)
    >>> opt.network().with_prefixlen
    '192.0.2.0/24'
    >>> EcsOption.from_wire(opt.to_wire()) == opt
    True
    """

    family: int
    source_prefix_length: int
    scope_prefix_length: int
    address: IPAddress
    code = EdnsOptionCode.ECS

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_client_address(cls, address: Union[str, IPAddress],
                            source_prefix_length: Optional[int] = None,
                            scope_prefix_length: int = 0) -> "EcsOption":
        """Build a query-side ECS option from a client address.

        ``source_prefix_length`` defaults to the RFC-recommended truncation:
        24 bits for IPv4 and 56 bits for IPv6.  Bits beyond the source prefix
        are zeroed as the RFC requires.  Text is parsed once per distinct
        string (``rdata.address_int``); an address object gives its version
        and integer and is never turned back into text.
        """
        if isinstance(address, str):
            version, value = address_int(address)
        else:
            if not isinstance(address, (ipaddress.IPv4Address,
                                        ipaddress.IPv6Address)):
                address = ipaddress.ip_address(address)
            version, value = address.version, int(address)
        family, default, maxbits, address_class = _FAMILY_OF_VERSION[version]
        source = default if source_prefix_length is None \
            else source_prefix_length
        if not 0 <= source <= maxbits:
            raise BadEcsError(f"source prefix length {source} out of range for family")
        # Built from the masked integer with the explicit class:
        # ``ip_address(int)`` would guess IPv4 for any value below 2**32.
        shift = maxbits - source
        return cls(family, source, scope_prefix_length,
                   address_class(value >> shift << shift))

    # -- semantics ---------------------------------------------------------

    def max_bits(self) -> int:
        """Address bit width for this option's family (32 or 128)."""
        if self.family == ECS_FAMILY_IPV4:
            return 32
        if self.family == ECS_FAMILY_IPV6:
            return 128
        raise BadEcsError(f"unknown ECS family {self.family}")

    def network(self) -> Union[ipaddress.IPv4Network, ipaddress.IPv6Network]:
        """The client subnet as an ``ip_network`` at the source prefix length."""
        return ipaddress.ip_network((self.address, self.source_prefix_length),
                                    strict=False)

    def scope_network(self) -> Union[ipaddress.IPv4Network, ipaddress.IPv6Network]:
        """The subnet at the *scope* prefix length (response-side semantics)."""
        return ipaddress.ip_network((self.address, self.scope_prefix_length),
                                    strict=False)

    def covers(self, client: Union[str, IPAddress], bits: Optional[int] = None) -> bool:
        """True if ``client`` falls inside this option's prefix.

        ``bits`` selects the prefix length to test at (defaults to the scope
        prefix length, which is what response caching uses).
        """
        addr = ipaddress.ip_address(client)
        if addr.version != (4 if self.family == ECS_FAMILY_IPV4 else 6):
            return False
        if bits is None:
            bits = self.scope_prefix_length
        net = ipaddress.ip_network((self.address, bits), strict=False)
        return addr in net

    def is_routable(self) -> bool:
        """False for loopback, link-local, and RFC1918/ULA client prefixes.

        Section 8.1 of the paper shows resolvers sending 127.0.0.1/32,
        127.0.0.0/24 and 169.254.252.0/24 prefixes; authoritative servers
        need this predicate to detect them.
        """
        addr = self.address
        return not (addr.is_loopback or addr.is_link_local or addr.is_private)

    def response_to(self, scope_prefix_length: int) -> "EcsOption":
        """The option an authoritative server echoes back with ``scope`` set.

        RFC 7871: family, source prefix and address must be copied from the
        query verbatim; only the scope prefix length changes.
        """
        return EcsOption(self.family, self.source_prefix_length,
                         scope_prefix_length, self.address)

    def matches_query(self, query_opt: "EcsOption") -> bool:
        """RFC 7871 section 7.3: response ECS must echo the query's
        family / source prefix / address or the client must discard it."""
        return (self.family == query_opt.family
                and self.source_prefix_length == query_opt.source_prefix_length
                and self.address == query_opt.address)

    # -- wire codec --------------------------------------------------------

    def to_wire(self) -> bytes:
        maxbits = self.max_bits()
        if not 0 <= self.source_prefix_length <= maxbits:
            raise BadEcsError(f"source prefix {self.source_prefix_length} exceeds "
                              f"family width {maxbits}")
        if not 0 <= self.scope_prefix_length <= maxbits:
            raise BadEcsError(f"scope prefix {self.scope_prefix_length} exceeds "
                              f"family width {maxbits}")
        nbytes = math.ceil(self.source_prefix_length / 8)
        packed = self.address.packed[:nbytes]
        # RFC 7871: bits beyond the source prefix MUST be zero on the wire.
        trailing = nbytes * 8 - self.source_prefix_length
        if trailing and packed:
            packed = packed[:-1] + bytes([packed[-1] & (0xFF << trailing) & 0xFF])
        return _ECS_HEADER.pack(self.family, self.source_prefix_length,
                                self.scope_prefix_length) + packed

    @classmethod
    def from_wire(cls, data: bytes) -> "EcsOption":
        data = bytes(data)
        if len(data) < 4:
            raise BadEcsError("ECS option shorter than 4 octets")
        family, source, scope = _ECS_HEADER.unpack_from(data)
        if family == ECS_FAMILY_IPV4:
            maxbits, width = 32, 4
        elif family == ECS_FAMILY_IPV6:
            maxbits, width = 128, 16
        else:
            raise BadEcsError(f"unknown ECS family {family}")
        if source > maxbits:
            raise BadEcsError(f"source prefix {source} exceeds family width")
        if scope > maxbits:
            raise BadEcsError(f"scope prefix {scope} exceeds family width")
        nbytes = math.ceil(source / 8)
        payload = data[4:]
        if len(payload) != nbytes:
            raise BadEcsError(f"ECS address field is {len(payload)} octets, "
                              f"expected {nbytes} for /{source}")
        packed = payload + b"\x00" * (width - nbytes)
        addr = ipaddress.ip_address(packed)
        trailing = nbytes * 8 - source
        if trailing and payload and payload[-1] & ~(0xFF << trailing) & 0xFF:
            raise BadEcsError("non-zero bits beyond ECS source prefix")
        return cls(family, source, scope, addr)

    def to_text(self) -> str:
        return (f"ECS {self.address}/{self.source_prefix_length} "
                f"scope/{self.scope_prefix_length}")

    def __str__(self) -> str:
        return self.to_text()


_OPTION_CLASSES: Dict[int, Type[EdnsOption]] = {
    EdnsOptionCode.ECS: EcsOption,
    EdnsOptionCode.COOKIE: CookieOption,
}


def decode_option(code: int, data: bytes) -> EdnsOption:
    """Decode one EDNS option payload by its registered code."""
    klass = _OPTION_CLASSES.get(code)
    if klass is None:
        return GenericOption(code, data)
    return klass.from_wire(data)


def encode_options(options: List[EdnsOption]) -> bytes:
    """Serialize a list of options into the OPT RDATA payload."""
    if not options:
        return b""
    out = bytearray()
    for opt in options:
        payload = opt.to_wire()
        out += _OPTION_HEADER.pack(int(opt.code), len(payload))
        out += payload
    return bytes(out)


def decode_options(data: bytes) -> List[EdnsOption]:
    """Parse the OPT RDATA payload into a list of options."""
    options: List[EdnsOption] = []
    offset = 0
    while offset < len(data):
        if offset + 4 > len(data):
            raise TruncatedMessageError("EDNS option header truncated")
        code, length = _OPTION_HEADER.unpack_from(data, offset)
        offset += 4
        if offset + length > len(data):
            raise TruncatedMessageError("EDNS option payload truncated")
        options.append(decode_option(code, bytes(data[offset:offset + length])))
        offset += length
    return options


@dataclass
class EdnsInfo:
    """The EDNS0 state of a message: payload size, flags and options."""

    payload_size: int = 4096
    version: int = 0
    dnssec_ok: bool = False
    extended_rcode_bits: int = 0
    options: List[EdnsOption] = field(default_factory=list)

    def copy(self) -> "EdnsInfo":
        """The same EDNS state around a fresh ``options`` list (the
        options themselves are immutable and shared)."""
        return EdnsInfo(self.payload_size, self.version, self.dnssec_ok,
                        self.extended_rcode_bits, list(self.options))

    def find_ecs(self) -> Optional[EcsOption]:
        """The first ECS option, if any."""
        for opt in self.options:
            if isinstance(opt, EcsOption):
                return opt
        return None

    def without_ecs(self) -> "EdnsInfo":
        """A copy of this EDNS state with any ECS options removed."""
        return EdnsInfo(self.payload_size, self.version, self.dnssec_ok,
                        self.extended_rcode_bits,
                        [o for o in self.options if not isinstance(o, EcsOption)])

    def with_ecs(self, ecs: EcsOption) -> "EdnsInfo":
        """A copy with ``ecs`` as the sole ECS option."""
        info = self.without_ecs()
        info.options.append(ecs)
        return info
