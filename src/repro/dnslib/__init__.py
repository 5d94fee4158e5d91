"""From-scratch DNS substrate: names, records, messages, wire codec, EDNS/ECS.

This package implements the subset of the DNS protocol the reproduced study
depends on, with a full wire-format codec so that every simulated exchange
round-trips through real packets.
"""

from .constants import (CLASSIC_UDP_PAYLOAD, DEFAULT_EDNS_PAYLOAD,
                        ECS_FAMILY_IPV4, ECS_FAMILY_IPV6, EdnsOptionCode,
                        Opcode, Rcode, RecordClass, RecordType)
from .edns import (CookieOption, EcsOption, EdnsInfo, EdnsOption,
                   GenericOption, decode_options, encode_options)
from .errors import (BadEcsError, BadOptionError, BadPointerError, DnsError,
                     NameError_, ResolutionError, TruncatedMessageError,
                     WireFormatError, ZoneError)
from .message import Message, Question, ResourceRecord
from .name import ROOT, Name
from .rdata import (A, AAAA, CNAME, MX, NS, PTR, SOA, TXT, GenericRdata,
                    Rdata, rdata_class_for)
from .wire import decode_message, decode_name, encode_message, encode_name
from .zone import LookupResult, Zone
from .zonefile import parse_zone

__all__ = [
    "A", "AAAA", "CNAME", "MX", "NS", "PTR", "SOA", "TXT",
    "BadEcsError", "BadOptionError", "BadPointerError",
    "CLASSIC_UDP_PAYLOAD", "CookieOption", "DEFAULT_EDNS_PAYLOAD",
    "DnsError", "ECS_FAMILY_IPV4", "ECS_FAMILY_IPV6", "EcsOption",
    "EdnsInfo", "EdnsOption", "EdnsOptionCode", "GenericOption",
    "GenericRdata", "LookupResult", "Message", "Name", "NameError_",
    "Opcode", "Question", "ROOT", "Rcode", "Rdata", "RecordClass",
    "RecordType", "ResolutionError", "ResourceRecord",
    "TruncatedMessageError", "WireFormatError", "Zone", "ZoneError",
    "decode_message", "decode_name", "decode_options", "encode_message",
    "encode_name", "encode_options", "parse_zone",
    "rdata_class_for",
]
