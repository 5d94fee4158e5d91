"""EDNS0 (RFC 6891) options, including the ECS option (RFC 7871).

The star of this module is :class:`EcsOption`, the edns-client-subnet option
whose behavior across resolvers is the subject of the reproduced paper.  Its
wire codec implements RFC 7871 section 6 exactly: two-octet family, one-octet
source prefix length, one-octet scope prefix length, then
``ceil(source_prefix_length / 8)`` address octets whose bits beyond the
source prefix MUST be zero.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Type

from .. import addr
from .constants import ECS_FAMILY_IPV4, ECS_FAMILY_IPV6, EdnsOptionCode
from .errors import BadEcsError, BadOptionError, TruncatedMessageError

# Precompiled wire structs (format parsed once, not per call).
_ECS_HEADER = struct.Struct("!HBB")
_OPTION_HEADER = struct.Struct("!HH")

#: IP version -> (ECS family, RFC 7871 default source prefix length,
#: address width in bits).
_FAMILY_OF_VERSION = {
    4: (ECS_FAMILY_IPV4, 24, 32),
    6: (ECS_FAMILY_IPV6, 56, 128),
}

class EdnsOption:
    """Base class for EDNS0 options carried in the OPT pseudo-record."""

    __slots__ = ()

    code: int

    def to_wire(self) -> bytes:
        """The option payload (not including the code/length header)."""
        raise NotImplementedError

    @classmethod
    def from_wire(cls, data: bytes) -> "EdnsOption":
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class EcsOption(EdnsOption):
    """The edns-client-subnet option (RFC 7871).

    ``address`` is the client address as an integer, ``family`` says how
    wide it is (32 bits for family 1, 128 for family 2), and every bit
    beyond ``source_prefix_length`` is zero; the wire form carries only the
    significant octets.  ``address_text`` is its presentation form.

    >>> opt = EcsOption.from_client_address("192.0.2.77", 24)
    >>> opt.address == 0xC0000200, opt.address_text, opt.network()
    (True, '192.0.2.0', '192.0.2.0/24')
    >>> EcsOption.from_wire(opt.to_wire()) == opt
    True
    """

    family: int
    source_prefix_length: int
    scope_prefix_length: int
    address: int
    code = EdnsOptionCode.ECS

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_client_address(cls, address: Any,
                            source_prefix_length: Optional[int] = None,
                            scope_prefix_length: int = 0) -> "EcsOption":
        """Build a query-side ECS option from a client address.

        ``source_prefix_length`` defaults to the RFC-recommended truncation:
        24 bits for IPv4 and 56 bits for IPv6.  Bits beyond the source prefix
        are zeroed as the RFC requires.  Text is parsed once per distinct
        string (``addr.parse_addr``); an address object gives its version
        and integer and is never turned back into text.
        """
        version, value = addr.parse_addr(address)
        return cls.from_int(version, value, source_prefix_length,
                            scope_prefix_length)

    @classmethod
    def from_int(cls, version: int, value: int,
                 source_prefix_length: Optional[int] = None,
                 scope_prefix_length: int = 0) -> "EcsOption":
        """:meth:`from_client_address` for an address already parsed to
        ``(IP version, integer)``."""
        family, default, maxbits = _FAMILY_OF_VERSION[version]
        source = default if source_prefix_length is None \
            else source_prefix_length
        if not 0 <= source <= maxbits:
            raise BadEcsError(f"source prefix length {source} out of range for family")
        return cls(family, source, scope_prefix_length,
                   addr.truncate_int(version, value, source))

    # -- semantics ---------------------------------------------------------

    def max_bits(self) -> int:
        """Address bit width for this option's family (32 or 128)."""
        if self.family == ECS_FAMILY_IPV4:
            return 32
        if self.family == ECS_FAMILY_IPV6:
            return 128
        raise BadEcsError(f"unknown ECS family {self.family}")

    @property
    def address_text(self) -> str:
        """The address in presentation form (``192.0.2.0``)."""
        return addr.address_text(4 if self.family == ECS_FAMILY_IPV4 else 6,
                                 self.address)

    def network(self) -> str:
        """The client subnet at the source prefix length (``192.0.2.0/24``)."""
        version = 4 if self.family == ECS_FAMILY_IPV4 else 6
        bits = self.source_prefix_length
        masked = addr.truncate_int(version, self.address, bits)
        return f"{addr.address_text(version, masked)}/{bits}"

    def covers(self, client: Any, bits: Optional[int] = None) -> bool:
        """True if ``client`` falls inside this option's prefix.

        ``bits`` selects the prefix length to test at (defaults to the scope
        prefix length, which is what response caching uses).
        """
        version, value = addr.parse_addr(client)
        if version != (4 if self.family == ECS_FAMILY_IPV4 else 6):
            return False
        bits = self.scope_prefix_length if bits is None else bits
        return addr.truncate_int(version, value, bits) \
            == addr.truncate_int(version, self.address, bits)

    def is_routable(self) -> bool:
        """False for loopback, link-local, and RFC1918/ULA client prefixes.

        Section 8.1 of the paper shows resolvers sending 127.0.0.1/32,
        127.0.0.0/24 and 169.254.252.0/24 prefixes; authoritative servers
        need this predicate to detect them.  The rule is
        ``addr.is_routable``, the one the privacy count reads too.
        """
        return addr.is_routable(4 if self.family == ECS_FAMILY_IPV4 else 6,
                                self.address)

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
        source = self.source_prefix_length
        if not 0 <= source <= maxbits:
            raise BadEcsError(f"source prefix {source} exceeds "
                              f"family width {maxbits}")
        if not 0 <= self.scope_prefix_length <= maxbits:
            raise BadEcsError(f"scope prefix {self.scope_prefix_length} exceeds "
                              f"family width {maxbits}")
        nbytes = (source + 7) >> 3
        # The first ``source`` bits, then zeros to the octet boundary:
        # RFC 7871's bits beyond the source prefix MUST be zero on the wire.
        value = self.address >> (maxbits - source) << (nbytes * 8 - source)
        return _ECS_HEADER.pack(self.family, source,
                                self.scope_prefix_length) \
            + value.to_bytes(nbytes, "big")

    @classmethod
    def from_wire(cls, data: bytes) -> "EcsOption":
        data = bytes(data)
        if len(data) < 4:
            raise BadEcsError("ECS option shorter than 4 octets")
        family, source, scope = _ECS_HEADER.unpack_from(data)
        if family == ECS_FAMILY_IPV4:
            maxbits = 32
        elif family == ECS_FAMILY_IPV6:
            maxbits = 128
        else:
            raise BadEcsError(f"unknown ECS family {family}")
        if source > maxbits:
            raise BadEcsError(f"source prefix {source} exceeds family width")
        if scope > maxbits:
            raise BadEcsError(f"scope prefix {scope} exceeds family width")
        nbytes = (source + 7) >> 3
        if len(data) - 4 != nbytes:
            raise BadEcsError(f"ECS address field is {len(data) - 4} octets, "
                              f"expected {nbytes} for /{source}")
        value = int.from_bytes(data[4:], "big")
        if value & ((1 << (nbytes * 8 - source)) - 1):
            raise BadEcsError("non-zero bits beyond ECS source prefix")
        return cls(family, source, scope, value << (maxbits - nbytes * 8))

    def to_text(self) -> str:
        return (f"ECS {self.address_text}/{self.source_prefix_length} "
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


@dataclass(slots=True)
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
