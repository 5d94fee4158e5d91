"""DNS wire-format codec (RFC 1035 section 4, RFC 6891 for OPT).

``encode_message`` / ``decode_message`` round-trip :class:`~repro.dnslib.message.Message`
objects through real DNS packets, including name compression on output and
compression-pointer chasing (with loop protection) on input.  The simulated
transport serializes every exchanged message through this codec, so the whole
simulation exercises the same byte-level paths a real deployment would.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from ..addr import clear_address_caches
from .constants import Opcode, Rcode, RecordClass, RecordType
from .edns import EdnsInfo, EdnsOption, decode_options, encode_options
from .errors import (BadOptionError, BadPointerError, NameError_,
                     TruncatedMessageError, WireFormatError)
from .message import Message, Question, ResourceRecord
from .name import MAX_LABEL_LENGTH, ROOT, Name
from .rdata import GenericRdata, rdata_class_for

_FLAG_QR = 0x8000
_FLAG_AA = 0x0400
_FLAG_TC = 0x0200
_FLAG_RD = 0x0100
_FLAG_RA = 0x0080
_POINTER_MASK = 0xC0
_MAX_POINTER_HOPS = 64

# Precompiled wire structs: ``Struct.pack``/``unpack_from`` skip the format
# re-parse ``struct.pack(fmt, ...)`` pays on every call — these run once per
# name/record/message on the hot encode/decode paths.
_U16 = struct.Struct("!H")
_HEADER = struct.Struct("!HHHHHH")
_QFIXED = struct.Struct("!HH")
_RRFIXED = struct.Struct("!HHIH")

#: Compression-table entries (folded suffix -> offset) a qname seeds.
_Seeds = Tuple[Tuple[Tuple[bytes, ...], int], ...]

#: Question-name encode cache.  The question section always starts at
#: offset 12 (right after the fixed header), so the wire bytes of a qname
#: and the compression-table entries it seeds are identical across
#: messages.  Keyed by the exact label tuple (spelling is preserved on the
#: wire); bounded by wholesale clearing, which only costs re-encoding.
_QNAME_CACHE: Dict[Tuple[bytes, ...], Tuple[bytes, _Seeds]] = {}
_QNAME_CACHE_MAX = 4096

#: Decoded-name intern table.  One lookup carries the same few names
#: through every hop; interning spares rebuilding and re-validating them
#: at each.  Keyed by the exact wire label tuple, so a name keeps the
#: spelling it arrived with (``Name`` equality folds case; this table must
#: not).  A miss runs the full ``Name`` validation; names are immutable,
#: so a hit hands back the shared instance.  Bounded like ``_QNAME_CACHE``.
_NAME_TABLE: Dict[Tuple[bytes, ...], Name] = {}
_NAME_TABLE_MAX = 4096

# Element tables.  A lookup carries one question, one or two OPT records
# and one address record through every datagram of every hop, so
# ``decode_message`` recognises each of them from its exact bytes.  A miss
# runs the full parse below, and only a parse that passed every check
# stores; each table is bounded by wholesale clearing, like
# ``_QNAME_CACHE``.

#: Question section bytes (qname, type, class — always at offset 12) ->
#: the frozen ``Question``.  Only pointer-free qnames are stored: such a
#: name is a function of its own bytes, so equal bytes decode equally in
#: any message.
_QUESTION_TABLE: Dict[bytes, Question] = {}
_QUESTION_TABLE_MAX = 2048

#: OPT fixed fields + RDATA -> ``(extended rcode, payload size, version,
#: DO, options)``.  The options are immutable and shared; the
#: ``EdnsInfo`` and its list are built fresh for every message.
_OPT_TABLE: Dict[bytes, Tuple[int, int, int, bool,
                              Tuple[EdnsOption, ...]]] = {}
_OPT_TABLE_MAX = 2048

#: ``(owner labels, fixed fields + RDATA)`` -> the frozen A/AAAA
#: ``ResourceRecord``.  Address RDATA holds no names, so it parses the
#: same wherever it sits; name-bearing types may hold compression
#: pointers and are never stored.
_ADDRESS_RR_TABLE: Dict[Tuple[Tuple[bytes, ...], bytes], ResourceRecord] = {}
_ADDRESS_RR_TABLE_MAX = 2048

#: The relay table: a whole wire after its 2-byte ID -> ``(rcode,
#: question, answers, authority, additional, OPT)``, the sections as
#: tuples and the OPT as its ``_OPT_TABLE`` value (or ``None``); the
#: other header fields are read from the wire itself.  A hop that passes
#: a query or an answer on unchanged but for the ID, and a sweep that
#: sends one query many times, parse each such wire once.  Two guards,
#: set during the parse, keep the result a function of the key: every
#: name is read without a pointer (bar an owner's ``C0 0C`` to a
#: pointer-free qname), so no walk can reach the header where the ID
#: sits; and every record is A, AAAA or OPT, whose RDATA holds no name.
#: Each hit builds a fresh ``Message``, fresh section lists and a fresh
#: ``EdnsInfo``, as a miss does.
_MESSAGE_TABLE: Dict[bytes, tuple] = {}
_MESSAGE_TABLE_MAX = 2048

# Wire value -> enum member: a dict lookup costs a fraction of
# ``Enum.__call__``, and ``dict.get(value, value)`` keeps an unknown type
# or class as the plain integer it arrived as.
_RECORD_TYPES: Dict[int, RecordType] = {int(t): t for t in RecordType}
_RECORD_CLASSES: Dict[int, RecordClass] = {int(c): c for c in RecordClass}
_OPCODES: Dict[int, Opcode] = {int(o): o for o in Opcode}
_RCODES: Dict[int, Rcode] = {int(r): r for r in Rcode}
#: ``(opcode, QR, AA, TC, RD, RA)`` by the top nine bits of the flags
#: word (``flags >> 7``): one lookup instead of a lookup and five tests.
#: Filled on first use; a pure function of at most 512 keys, so never
#: cleared.
_FLAG_FIELDS: Dict[int, Tuple[Opcode, bool, bool, bool, bool, bool]] = {}
_TYPE_OPT = int(RecordType.OPT)
_TYPE_A = int(RecordType.A)
_TYPE_AAAA = int(RecordType.AAAA)
#: A compression pointer to offset 12, where the question name starts.
_QNAME_POINTER = b"\xc0\x0c"


def clear_codec_caches() -> None:  # repro-lint: disable=RS008 (the cold-codec hook of the equivalence suites and benches)
    """Drop every codec memo table (benchmarks/tests hook): the qname
    encode cache, the name intern table, the element tables and the relay
    table here, and every address memo in :mod:`repro.addr` (parse,
    format, classify)."""
    _QNAME_CACHE.clear()
    _NAME_TABLE.clear()
    _QUESTION_TABLE.clear()
    _OPT_TABLE.clear()
    _ADDRESS_RR_TABLE.clear()
    _MESSAGE_TABLE.clear()
    clear_address_caches()


# ---------------------------------------------------------------------------
# names


def encode_name(name: Name, buf: bytearray,
                compress: Dict[Tuple[bytes, ...], int]) -> None:
    """Append ``name`` to ``buf`` using compression pointers when possible."""
    labels = name.folded
    raw = name.labels
    for i in range(len(labels)):
        suffix = labels[i:]
        target = compress.get(suffix)
        if target is not None and target < 0x4000:
            buf += _U16.pack(0xC000 | target)
            return
        if len(buf) < 0x4000:
            compress[suffix] = len(buf)
        label = raw[i]
        buf.append(len(label))
        buf += label
    buf.append(0)


def _question_name_wire(name: Name) -> Tuple[bytes, _Seeds]:
    """The qname's wire bytes (always at offset 12) and the suffix→offset
    entries it seeds the compression table with, from the encode cache.

    Equivalent to ``encode_name`` with an empty compression table and a
    12-byte buffer.
    """
    key = name.labels
    cached = _QNAME_CACHE.get(key)
    if cached is None:
        tmp = bytearray(12)           # stand-in for the fixed header
        entries: Dict[Tuple[bytes, ...], int] = {}
        encode_name(name, tmp, entries)
        cached = (bytes(tmp[12:]), tuple(entries.items()))
        if len(_QNAME_CACHE) >= _QNAME_CACHE_MAX:
            _QNAME_CACHE.clear()
        _QNAME_CACHE[key] = cached
    return cached


def decode_name(wire: bytes, offset: int) -> Tuple[Name, int]:
    """Decode a (possibly compressed) name starting at ``offset``.

    Returns the name and the offset just past its in-place encoding.  The
    name may be an instance shared with earlier decodes of the same labels
    (see ``_NAME_TABLE``).
    """
    labels: List[bytes] = []
    end: int = -1
    hops = 0
    seen = None
    size = len(wire)
    while True:
        if offset >= size:
            raise TruncatedMessageError("name runs past end of message")
        length = wire[offset]
        if length > MAX_LABEL_LENGTH:
            if length & _POINTER_MASK != _POINTER_MASK:
                raise WireFormatError(f"reserved label type 0x{length:02x}")
            if offset + 2 > size:
                raise TruncatedMessageError("compression pointer truncated")
            if end < 0:
                end = offset + 2
            (ptr,) = _U16.unpack_from(wire, offset)
            ptr &= 0x3FFF
            if seen is None:
                seen = set()
            elif ptr in seen:
                raise BadPointerError("compression pointer loop")
            seen.add(ptr)
            hops += 1
            if hops > _MAX_POINTER_HOPS:
                raise BadPointerError("too many compression pointer hops")
            offset = ptr
            continue
        offset += 1
        if length == 0:
            break
        if offset + length > size:
            raise TruncatedMessageError("label runs past end of message")
        labels.append(bytes(wire[offset:offset + length]))
        offset += length
    if end < 0:
        end = offset
    key = tuple(labels)
    name = _NAME_TABLE.get(key)
    if name is None:
        try:
            name = Name(key)
        except NameError_ as exc:
            raise WireFormatError(f"bad name on the wire: {exc}") from exc
        if len(_NAME_TABLE) >= _NAME_TABLE_MAX:
            _NAME_TABLE.clear()
        _NAME_TABLE[key] = name
    return name, end


# ---------------------------------------------------------------------------
# records


def _encode_rr(rr: ResourceRecord, buf: bytearray,
               compress: Dict[Tuple[bytes, ...], int],
               qfolded: Optional[Tuple[bytes, ...]]) -> None:
    if rr.name.folded == qfolded:
        # The owner is the (non-root) question name: the pointer
        # ``encode_name`` would find first in the table the qname seeded.
        buf += _QNAME_POINTER
    else:
        encode_name(rr.name, buf, compress)
    rdata = rr.rdata.to_wire()
    buf += _RRFIXED.pack(rr.rdtype, rr.rdclass, rr.ttl & 0xFFFFFFFF,
                         len(rdata))
    buf += rdata


# ---------------------------------------------------------------------------
# messages


def encode_message(msg: Message) -> bytes:
    """Serialize ``msg`` to wire format, materializing EDNS as an OPT RR."""
    flags = 0
    if msg.is_response:
        flags |= _FLAG_QR
    flags |= (msg.opcode & 0xF) << 11
    if msg.authoritative:
        flags |= _FLAG_AA
    if msg.truncated:
        flags |= _FLAG_TC
    if msg.recursion_desired:
        flags |= _FLAG_RD
    if msg.recursion_available:
        flags |= _FLAG_RA
    rcode = msg.rcode
    flags |= rcode & 0xF

    question = msg.question
    edns = msg.edns
    answers, authority, additional = msg.answers, msg.authority, \
        msg.additional
    buf = bytearray(_HEADER.pack(
        msg.msg_id & 0xFFFF, flags, 0 if question is None else 1, len(answers),
        len(authority), len(additional) + (1 if edns is not None else 0)))
    qfolded = None
    entries: _Seeds = ()
    if question is not None:
        name_wire, entries = _question_name_wire(question.qname)
        buf += name_wire
        buf += _QFIXED.pack(question.qtype, question.qclass)
        # The root seeds no entry and is written as a single zero octet,
        # never as a pointer.
        qfolded = question.qname.folded or None
    if answers or authority or additional:
        # Only a name after the question reads the compression table, so
        # a query never builds one.
        compress = dict(entries)
        for section in (answers, authority, additional):
            for rr in section:
                _encode_rr(rr, buf, compress, qfolded)
    if edns is not None:
        buf.append(0)  # root owner name
        opt_ttl = (((rcode >> 4) & 0xFF) << 24) \
            | ((edns.version & 0xFF) << 16) \
            | (0x8000 if edns.dnssec_ok else 0)
        rdata = encode_options(edns.options)
        buf += _RRFIXED.pack(_TYPE_OPT, edns.payload_size & 0xFFFF, opt_ttl,
                             len(rdata))
        buf += rdata
    return bytes(buf)


def decode_message(wire: bytes) -> Message:
    """Parse a wire-format packet into a :class:`Message`.

    The OPT pseudo-record, if present, is lifted out of the additional
    section into ``msg.edns``.  Every way a packet can be malformed
    raises a :class:`WireFormatError` (or a subclass), never another type.
    ``bytearray`` and ``memoryview`` input is copied to ``bytes`` once, at
    entry: the tables key on slices of the packet.
    """
    if not isinstance(wire, bytes):
        wire = bytes(wire)
    size = len(wire)
    if size < 12:
        raise TruncatedMessageError("message shorter than header")
    msg_id, flags, qdcount, ancount, nscount, arcount = \
        _HEADER.unpack_from(wire)
    fields = _FLAG_FIELDS.get(flags >> 7)
    if fields is None:
        fields = _FLAG_FIELDS[flags >> 7] = (
            _OPCODES.get((flags >> 11) & 0xF, Opcode.QUERY),
            bool(flags & _FLAG_QR), bool(flags & _FLAG_AA),
            bool(flags & _FLAG_TC), bool(flags & _FLAG_RD),
            bool(flags & _FLAG_RA))
    opcode, qr, aa, tc, rd, ra = fields
    body = wire[2:]
    parsed = _MESSAGE_TABLE.get(body)
    if parsed is not None:
        rcode, question, answers, authority, additional, opt = parsed
        return Message(msg_id, opcode, rcode, qr, aa, tc, rd, ra, question,
                       [*answers], [*authority], [*additional],
                       None if opt is None
                       else EdnsInfo(opt[1], opt[2], opt[3], 0, [*opt[4]]))
    if qdcount > 1:
        raise WireFormatError(f"multi-question message (qdcount={qdcount})")
    offset = 12
    question = None
    #: The question's name, when an owner written as a pointer to offset
    #: 12 may reuse it: only a pointer-free qname, since behind one more
    #: pointer a hostile pointer chain must still hit the hop limit.
    qname_at_12 = None
    if qdcount:
        # A pointer-free name runs to its first zero octet.  Where ``find``
        # stops early (a zero inside a label) or finds nothing, the slice
        # is not the whole question and was never stored: a miss.
        zero = wire.find(0, 12)
        key = wire[12:zero + 5]
        question = _QUESTION_TABLE.get(key)
        if question is not None:
            qname_at_12 = question.qname
            offset = zero + 5
        else:
            qname, offset = decode_name(wire, offset)
            if offset + 4 > size:
                raise TruncatedMessageError("question truncated")
            qtype, qclass = _QFIXED.unpack_from(wire, offset)
            offset += 4
            question = Question(qname, _RECORD_TYPES.get(qtype, qtype),
                                _RECORD_CLASSES.get(qclass, qclass))
            # A pointer ends the in-place encoding two octets in, so the
            # in-place length equals the name's own only without one.
            labels = qname.labels
            if offset - 17 == sum(map(len, labels)) + len(labels):
                qname_at_12 = qname
                if zero + 5 == offset:      # ``key`` is the whole question
                    if len(_QUESTION_TABLE) >= _QUESTION_TABLE_MAX:
                        _QUESTION_TABLE.clear()
                    _QUESTION_TABLE[key] = question
    # The relay table's two guards (see ``_MESSAGE_TABLE``): cleared by a
    # name read through ``decode_name`` and by a record that is not A,
    # AAAA or OPT.
    relayable = qname_at_12 is not None or not qdcount

    answers: List[ResourceRecord] = []
    authority: List[ResourceRecord] = []
    additional: List[ResourceRecord] = []
    opt = None
    ext_rcode = 0
    for count, section in ((ancount, answers), (nscount, authority),
                           (arcount, additional)):
        for _ in range(count):
            if qname_at_12 is not None \
                    and wire.startswith(_QNAME_POINTER, offset):
                name = qname_at_12
                offset += 2
            elif wire.startswith(b"\x00", offset):
                name = ROOT                 # every OPT's owner
                offset += 1
            else:
                name, offset = decode_name(wire, offset)
                relayable = False
            if offset + 10 > size:
                raise TruncatedMessageError("record header truncated")
            rdtype, rdclass, ttl, rdlength = _RRFIXED.unpack_from(wire, offset)
            offset += 10
            end = offset + rdlength
            if end > size:
                raise TruncatedMessageError("rdata truncated")
            if rdtype == _TYPE_OPT and section is additional:
                # OPT reuses the fixed fields: class is the payload size,
                # TTL packs extended rcode / version / DO.  The owner is
                # ignored, so the key starts after it.
                opt_key = wire[offset - 10:end]
                opt = _OPT_TABLE.get(opt_key)
                if opt is None:
                    try:
                        options = decode_options(wire[offset:end])
                    except BadOptionError as exc:
                        raise WireFormatError(
                            f"bad EDNS option: {exc}") from exc
                    opt = ((ttl >> 24) & 0xFF, rdclass, (ttl >> 16) & 0xFF,
                           bool(ttl & 0x8000), tuple(options))
                    if len(_OPT_TABLE) >= _OPT_TABLE_MAX:
                        _OPT_TABLE.clear()
                    _OPT_TABLE[opt_key] = opt
                ext_rcode = opt[0]
            elif rdtype == _TYPE_A or rdtype == _TYPE_AAAA:
                rr_key = (name.labels, wire[offset - 10:end])
                record = _ADDRESS_RR_TABLE.get(rr_key)
                if record is None:
                    rdata = rdata_class_for(rdtype).from_wire(
                        wire, offset, rdlength, decode_name)
                    record = ResourceRecord(
                        name, _RECORD_TYPES[rdtype], ttl, rdata,
                        _RECORD_CLASSES.get(rdclass, rdclass))
                    if len(_ADDRESS_RR_TABLE) >= _ADDRESS_RR_TABLE_MAX:
                        _ADDRESS_RR_TABLE.clear()
                    _ADDRESS_RR_TABLE[rr_key] = record
                section.append(record)
            else:
                relayable = False
                klass = rdata_class_for(rdtype)
                if klass is GenericRdata:
                    rdata = GenericRdata(rdtype, wire[offset:end])
                else:
                    rdata = klass.from_wire(wire, offset, rdlength,
                                            decode_name)
                section.append(ResourceRecord(
                    name, _RECORD_TYPES.get(rdtype, rdtype), ttl, rdata,
                    _RECORD_CLASSES.get(rdclass, rdclass)))
            offset = end

    base_rcode = flags & 0xF
    rcode = _RCODES.get((ext_rcode << 4) | base_rcode)
    if rcode is None:
        rcode = _RCODES.get(base_rcode)
        if rcode is None:
            raise WireFormatError(f"unsupported rcode {base_rcode}")
    if relayable:
        if len(_MESSAGE_TABLE) >= _MESSAGE_TABLE_MAX:
            _MESSAGE_TABLE.clear()
        _MESSAGE_TABLE[body] = (rcode, question, tuple(answers),
                                tuple(authority), tuple(additional), opt)
    return Message(msg_id, opcode, rcode, qr, aa, tc, rd, ra, question,
                   answers, authority, additional,
                   None if opt is None
                   else EdnsInfo(opt[1], opt[2], opt[3], 0, [*opt[4]]))
