"""Resource record data (RDATA) types.

Each RDATA class knows how to encode itself to wire format and how to decode
itself from a wire buffer.  Name-bearing RDATA (NS, CNAME, SOA, PTR, MX) use
uncompressed names inside RDATA, which is always legal on the wire and keeps
the codec simple while still *decoding* compressed names emitted by other
implementations.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from ..addr import address_text, parse_text, parse_version
from .constants import RecordType
from .errors import TruncatedMessageError, WireFormatError
from .name import Name


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
        parse_version(self.address, 4)

    def to_wire(self) -> bytes:
        # ``__post_init__`` checked that the text is an IPv4 address.
        return parse_text(self.address)[1].to_bytes(4, "big")

    @classmethod
    def from_wire(cls, wire, offset, rdlength, decode_name):
        if rdlength != 4:
            raise WireFormatError(f"A rdata must be 4 octets, got {rdlength}")
        return cls(address_text(4, int.from_bytes(wire[offset:offset + 4],
                                                  "big")))

    def to_text(self) -> str:
        return self.address


@dataclass(frozen=True, slots=True)
class AAAA(Rdata):
    """IPv6 address record."""

    address: str
    rdtype = RecordType.AAAA

    def __post_init__(self) -> None:
        parse_version(self.address, 6)

    def to_wire(self) -> bytes:
        # ``__post_init__`` checked that the text is an IPv6 address.
        return parse_text(self.address)[1].to_bytes(16, "big")

    @classmethod
    def from_wire(cls, wire, offset, rdlength, decode_name):
        if rdlength != 16:
            raise WireFormatError(f"AAAA rdata must be 16 octets, got {rdlength}")
        return cls(address_text(6, int.from_bytes(wire[offset:offset + 16],
                                                  "big")))

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
