"""Resource record data (RDATA) types.

Each RDATA class knows how to encode itself to wire format and how to decode
itself from a wire buffer.  Name-bearing RDATA (NS, CNAME, SOA, PTR, MX) use
uncompressed names inside RDATA, which is always legal on the wire and keeps
the codec simple while still *decoding* compressed names emitted by other
implementations.
"""

from __future__ import annotations

import ipaddress
import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from .constants import RecordType
from .errors import TruncatedMessageError, WireFormatError
from .name import Name


#: Address memo tables for A/AAAA: the text an ``A`` carries -> its packed
#: octets (construction-time validation and ``to_wire``), and packed octets
#: -> canonical text (``from_wire``).  A lookup decodes and re-encodes the
#: same few addresses at every hop; without these each record costs two
#: ``ipaddress`` constructions per hop.  A miss runs the full ``ipaddress``
#: parse, so what is accepted and what is raised do not change.  Bounded by
#: wholesale clearing, like ``wire._QNAME_CACHE``.
_V4_PACKED: Dict[str, bytes] = {}
_V6_PACKED: Dict[str, bytes] = {}
_V4_TEXT: Dict[bytes, str] = {}
_V6_TEXT: Dict[bytes, str] = {}
_ADDRESS_TABLE_MAX = 4096


def clear_address_tables() -> None:
    """Drop the A/AAAA memo tables (benchmarks/tests hook)."""
    for table in (_V4_PACKED, _V6_PACKED, _V4_TEXT, _V6_TEXT):
        table.clear()


def _remember(table: Dict[Any, Any], key: Any, value: Any) -> None:
    if len(table) >= _ADDRESS_TABLE_MAX:
        table.clear()
    table[key] = value


def _packed(packed_by_text: Dict[str, bytes], parse: Callable[[str], Any],
            address: str) -> bytes:
    """Packed octets of ``address``; raises what ``parse`` raises."""
    packed = packed_by_text.get(address)
    if packed is None:
        packed = parse(address).packed
        _remember(packed_by_text, address, packed)
    return packed


def _text(text_by_packed: Dict[bytes, str], packed_by_text: Dict[str, bytes],
          parse: Callable[[bytes], Any], packed: bytes) -> str:
    """Canonical text of ``packed``; raises what ``parse`` raises."""
    text = text_by_packed.get(packed)
    if text is None:
        text = str(parse(packed))
        _remember(text_by_packed, packed, text)
        # The text came out of ``ipaddress``, so it is valid by
        # construction: the record built from it need not parse it again.
        _remember(packed_by_text, text, packed)
    return text


def address_int(address: Any) -> Tuple[int, int]:
    """``(version, integer value)`` of an address of either family; raises
    what ``ipaddress.ip_address`` raises.  Text goes through the tables
    above, an address object gives its fields, anything else (an integer,
    packed octets) is handed to ``ip_address``.  For the ECS option, which
    is built from the same client and answer addresses the A/AAAA records
    carry."""
    if not isinstance(address, str):
        if not isinstance(address, (ipaddress.IPv4Address,
                                    ipaddress.IPv6Address)):
            address = ipaddress.ip_address(address)
        return address.version, int(address)
    packed = _V4_PACKED.get(address)
    if packed is None:
        packed = _V6_PACKED.get(address)
        if packed is None:
            parsed = ipaddress.ip_address(address)
            packed = parsed.packed
            _remember(_V4_PACKED if parsed.version == 4 else _V6_PACKED,
                      address, packed)
    return (4 if len(packed) == 4 else 6), int.from_bytes(packed, "big")


def int_to_text(version: int, value: int) -> str:
    """Canonical text of the integer address ``value`` of IP ``version``,
    through the packed -> text tables above (the ECS option's text)."""
    if version == 4:
        return _text(_V4_TEXT, _V4_PACKED, ipaddress.IPv4Address,
                     value.to_bytes(4, "big"))
    return _text(_V6_TEXT, _V6_PACKED, ipaddress.IPv6Address,
                 value.to_bytes(16, "big"))


def int_to_object(version: int, value: int) -> Any:
    """The interpreter's address object for an integer address, for the
    classifications (loopback, private, ...) only it should define."""
    if version == 4:
        return ipaddress.IPv4Address(value)
    return ipaddress.IPv6Address(value)


class Rdata:
    """Base class for RDATA payloads."""

    __slots__ = ()

    rdtype: RecordType

    def to_wire(self) -> bytes:
        raise NotImplementedError

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int,
                  decode_name: Callable[[bytes, int], Tuple[Name, int]]) -> "Rdata":
        raise NotImplementedError

    def to_text(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.to_text()}>"


@dataclass(frozen=True, slots=True)
class A(Rdata):
    """IPv4 address record."""

    address: str
    rdtype = RecordType.A

    def __post_init__(self) -> None:
        _packed(_V4_PACKED, ipaddress.IPv4Address, self.address)

    def to_wire(self) -> bytes:
        return _packed(_V4_PACKED, ipaddress.IPv4Address, self.address)

    @classmethod
    def from_wire(cls, wire, offset, rdlength, decode_name):
        if rdlength != 4:
            raise WireFormatError(f"A rdata must be 4 octets, got {rdlength}")
        return cls(_text(_V4_TEXT, _V4_PACKED, ipaddress.IPv4Address,
                         bytes(wire[offset:offset + 4])))

    def to_text(self) -> str:
        return self.address


@dataclass(frozen=True, slots=True)
class AAAA(Rdata):
    """IPv6 address record."""

    address: str
    rdtype = RecordType.AAAA

    def __post_init__(self) -> None:
        _packed(_V6_PACKED, ipaddress.IPv6Address, self.address)

    def to_wire(self) -> bytes:
        return _packed(_V6_PACKED, ipaddress.IPv6Address, self.address)

    @classmethod
    def from_wire(cls, wire, offset, rdlength, decode_name):
        if rdlength != 16:
            raise WireFormatError(f"AAAA rdata must be 16 octets, got {rdlength}")
        return cls(_text(_V6_TEXT, _V6_PACKED, ipaddress.IPv6Address,
                         bytes(wire[offset:offset + 16])))

    def to_text(self) -> str:
        return self.address


@dataclass(frozen=True, slots=True)
class NS(Rdata):
    """Delegation: the name of an authoritative nameserver."""

    target: Name
    rdtype = RecordType.NS

    def to_wire(self) -> bytes:
        return _name_to_wire(self.target)

    @classmethod
    def from_wire(cls, wire, offset, rdlength, decode_name):
        target, _ = decode_name(wire, offset)
        return cls(target)

    def to_text(self) -> str:
        return self.target.to_text()


@dataclass(frozen=True, slots=True)
class CNAME(Rdata):
    """Canonical-name alias."""

    target: Name
    rdtype = RecordType.CNAME

    def to_wire(self) -> bytes:
        return _name_to_wire(self.target)

    @classmethod
    def from_wire(cls, wire, offset, rdlength, decode_name):
        target, _ = decode_name(wire, offset)
        return cls(target)

    def to_text(self) -> str:
        return self.target.to_text()


@dataclass(frozen=True, slots=True)
class PTR(Rdata):
    """Pointer record (reverse DNS)."""

    target: Name
    rdtype = RecordType.PTR

    def to_wire(self) -> bytes:
        return _name_to_wire(self.target)

    @classmethod
    def from_wire(cls, wire, offset, rdlength, decode_name):
        target, _ = decode_name(wire, offset)
        return cls(target)

    def to_text(self) -> str:
        return self.target.to_text()


@dataclass(frozen=True, slots=True)
class MX(Rdata):
    """Mail exchanger."""

    preference: int
    exchange: Name
    rdtype = RecordType.MX

    def to_wire(self) -> bytes:
        return struct.pack("!H", self.preference) + _name_to_wire(self.exchange)

    @classmethod
    def from_wire(cls, wire, offset, rdlength, decode_name):
        if rdlength < 3:
            raise TruncatedMessageError("MX rdata too short")
        (pref,) = struct.unpack_from("!H", wire, offset)
        exchange, _ = decode_name(wire, offset + 2)
        return cls(pref, exchange)

    def to_text(self) -> str:
        return f"{self.preference} {self.exchange.to_text()}"


@dataclass(frozen=True, slots=True)
class TXT(Rdata):
    """Text record; ``strings`` holds the character-string segments."""

    strings: Tuple[bytes, ...]
    rdtype = RecordType.TXT

    @classmethod
    def from_text_value(cls, text: str) -> "TXT":
        """Build a TXT record from a single python string, chunked at 255."""
        raw = text.encode("utf-8")
        chunks = tuple(raw[i:i + 255] for i in range(0, len(raw), 255)) or (b"",)
        return cls(chunks)

    def to_wire(self) -> bytes:
        out = bytearray()
        for s in self.strings:
            if len(s) > 255:
                raise WireFormatError("TXT segment exceeds 255 octets")
            out.append(len(s))
            out += s
        return bytes(out)

    @classmethod
    def from_wire(cls, wire, offset, rdlength, decode_name):
        end = offset + rdlength
        strings = []
        while offset < end:
            slen = wire[offset]
            offset += 1
            if offset + slen > end:
                raise TruncatedMessageError("TXT segment overruns rdata")
            strings.append(bytes(wire[offset:offset + slen]))
            offset += slen
        return cls(tuple(strings))

    def to_text(self) -> str:
        return " ".join('"%s"' % s.decode("utf-8", "replace") for s in self.strings)


@dataclass(frozen=True, slots=True)
class SOA(Rdata):
    """Start-of-authority record."""

    mname: Name
    rname: Name
    serial: int
    refresh: int
    retry: int
    expire: int
    minimum: int
    rdtype = RecordType.SOA

    def to_wire(self) -> bytes:
        return (_name_to_wire(self.mname) + _name_to_wire(self.rname)
                + struct.pack("!IIIII", self.serial, self.refresh,
                              self.retry, self.expire, self.minimum))

    @classmethod
    def from_wire(cls, wire, offset, rdlength, decode_name):
        mname, offset = decode_name(wire, offset)
        rname, offset = decode_name(wire, offset)
        if offset + 20 > len(wire):
            raise TruncatedMessageError("SOA numeric fields truncated")
        serial, refresh, retry, expire, minimum = struct.unpack_from("!IIIII", wire, offset)
        return cls(mname, rname, serial, refresh, retry, expire, minimum)

    def to_text(self) -> str:
        return (f"{self.mname.to_text()} {self.rname.to_text()} {self.serial} "
                f"{self.refresh} {self.retry} {self.expire} {self.minimum}")


@dataclass(frozen=True, slots=True)
class GenericRdata(Rdata):
    """Opaque RDATA for record types the codec does not model."""

    rdtype_value: int
    data: bytes

    @property
    def rdtype(self) -> int:  # type: ignore[override]
        return self.rdtype_value

    def to_wire(self) -> bytes:
        return self.data

    @classmethod
    def from_wire(cls, wire, offset, rdlength, decode_name):
        return cls(0, bytes(wire[offset:offset + rdlength]))

    def to_text(self) -> str:
        return "\\# %d %s" % (len(self.data), self.data.hex())


def _name_to_wire(name: Name) -> bytes:
    """Uncompressed wire form of a name (for use inside RDATA)."""
    out = bytearray()
    for label in name.labels:
        out.append(len(label))
        out += label
    out.append(0)
    return bytes(out)


_RDATA_CLASSES: Dict[int, type] = {
    RecordType.A: A,
    RecordType.AAAA: AAAA,
    RecordType.NS: NS,
    RecordType.CNAME: CNAME,
    RecordType.PTR: PTR,
    RecordType.MX: MX,
    RecordType.TXT: TXT,
    RecordType.SOA: SOA,
}


def rdata_class_for(rdtype: int) -> type:
    """The RDATA class registered for ``rdtype``, or :class:`GenericRdata`."""
    return _RDATA_CLASSES.get(rdtype, GenericRdata)
