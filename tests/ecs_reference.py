import ipaddress
import struct
from dataclasses import dataclass

from repro.dnslib import BadEcsError


@dataclass(frozen=True)
class ReferenceEcs:
    """``EcsOption`` as it was while its address was an ``ipaddress`` one."""
    family: int
    source_prefix_length: int
    scope_prefix_length: int
    address: object                     # IPv4Address or IPv6Address

    @classmethod
    def from_client_address(cls, address, source=None, scope=0):
        addr = ipaddress.ip_address(address)
        family, maxbits = (1, 32) if addr.version == 4 else (2, 128)
        source = (24 if family == 1 else 56) if source is None else source
        if not 0 <= source <= maxbits:
            raise BadEcsError(
                f"source prefix length {source} out of range for family")
        return cls(family, source, scope, ipaddress.ip_network(
            (addr, source), strict=False).network_address)

    def covers(self, client, bits=None):
        addr = ipaddress.ip_address(client)
        bits = self.scope_prefix_length if bits is None else bits
        return addr.version == self.address.version and addr in \
            ipaddress.ip_network((self.address, bits), strict=False)

    def is_routable(self):
        a = self.address
        return not (a.is_loopback or a.is_link_local or a.is_private)

    def to_wire(self):
        return struct.pack("!HBB", self.family, self.source_prefix_length,
                           self.scope_prefix_length) \
            + self.address.packed[:(self.source_prefix_length + 7) // 8]

    @classmethod
    def from_wire(cls, data):
        if len(data) < 4:
            raise BadEcsError("ECS option shorter than 4 octets")
        family, source, scope = struct.unpack_from("!HBB", data)
        if family not in (1, 2):
            raise BadEcsError(f"unknown ECS family {family}")
        maxbits = 32 if family == 1 else 128
        for what, bits in (("source", source), ("scope", scope)):
            if bits > maxbits:
                raise BadEcsError(f"{what} prefix {bits} exceeds family width")
        nbytes, payload = (source + 7) // 8, data[4:]
        if len(payload) != nbytes:
            raise BadEcsError(f"ECS address field is {len(payload)} octets, "
                              f"expected {nbytes} for /{source}")
        if payload and payload[-1] & ~(0xFF << (nbytes * 8 - source)) & 0xFF:
            raise BadEcsError("non-zero bits beyond ECS source prefix")
        return cls(family, source, scope, ipaddress.ip_address(
            payload + bytes(maxbits // 8 - nbytes)))
