"""DNS message model.

A :class:`Message` is the in-memory form of one DNS packet: header, a single
question (the only shape the simulation uses, as in practice), and the three
record sections.  EDNS0 state is held as an :class:`~repro.dnslib.edns.EdnsInfo`
and materialized into an OPT pseudo-record only at wire-encoding time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .constants import (DEFAULT_EDNS_PAYLOAD, Opcode, Rcode, RecordClass,
                        RecordType)
from .edns import EcsOption, EdnsInfo
from .name import Name
from .rdata import Rdata


@dataclass(frozen=True, slots=True)
class Question:
    """The question section entry: name, type, class."""

    qname: Name
    qtype: RecordType
    qclass: RecordClass = RecordClass.IN

    def __str__(self) -> str:
        return f"{self.qname.to_text()} {self.qclass.name} {self.qtype.name}"


@dataclass(frozen=True, slots=True)
class ResourceRecord:
    """One record in an answer/authority/additional section."""

    name: Name
    rdtype: RecordType
    ttl: int
    rdata: Rdata
    rdclass: RecordClass = RecordClass.IN

    def with_ttl(self, ttl: int) -> "ResourceRecord":
        """A copy of this record with a different TTL (cache aging)."""
        return ResourceRecord(self.name, self.rdtype, ttl, self.rdata, self.rdclass)

    def __str__(self) -> str:
        return (f"{self.name.to_text()} {self.ttl} {self.rdclass.name} "
                f"{RecordType(self.rdtype).name} {self.rdata.to_text()}")


@dataclass(slots=True)
class Message:
    """A DNS query or response."""

    msg_id: int = 0
    opcode: Opcode = Opcode.QUERY
    rcode: Rcode = Rcode.NOERROR
    is_response: bool = False
    authoritative: bool = False
    truncated: bool = False
    recursion_desired: bool = True
    recursion_available: bool = False
    question: Optional[Question] = None
    answers: List[ResourceRecord] = field(default_factory=list)
    authority: List[ResourceRecord] = field(default_factory=list)
    additional: List[ResourceRecord] = field(default_factory=list)
    edns: Optional[EdnsInfo] = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def make_query(cls, qname: Name, qtype: RecordType, msg_id: int = 0,
                   recursion_desired: bool = True,
                   use_edns: bool = True,
                   ecs: Optional[EcsOption] = None) -> "Message":
        """Build a query message; attaches EDNS (and optionally ECS)."""
        edns = None
        if use_edns or ecs is not None:
            edns = EdnsInfo(DEFAULT_EDNS_PAYLOAD, 0, False, 0,
                            [] if ecs is None else [ecs])
        # Every field positionally: keywords plus ``default_factory`` cost
        # twice as much for a message built once per datagram.
        return cls(msg_id, Opcode.QUERY, Rcode.NOERROR, False, False, False,
                   recursion_desired, False,
                   Question(qname, qtype, RecordClass.IN), [], [], [], edns)

    def make_response(self) -> "Message":
        """A response skeleton echoing this query's id, question and EDNS."""
        edns = self.edns
        return Message(self.msg_id, Opcode.QUERY, Rcode.NOERROR, True, False,
                       False, self.recursion_desired, False, self.question,
                       [], [], [],
                       None if edns is None
                       else EdnsInfo(edns.payload_size, 0, False, 0, []))

    # -- ECS helpers -------------------------------------------------------

    def ecs(self) -> Optional[EcsOption]:
        """The ECS option attached to this message, if any."""
        if self.edns is None:
            return None
        return self.edns.find_ecs()

    def set_ecs(self, ecs: Optional[EcsOption]) -> None:
        """Attach, replace, or (with ``None``) strip the ECS option."""
        if ecs is None:
            if self.edns is not None:
                self.edns = self.edns.without_ecs()
            return
        if self.edns is None:
            self.edns = EdnsInfo()
        self.edns = self.edns.with_ecs(ecs)

    # -- section helpers ---------------------------------------------------

    def answer_rrset(self, rdtype: Optional[RecordType] = None) -> List[ResourceRecord]:
        """Answer records, optionally filtered by type."""
        if rdtype is None:
            return list(self.answers)
        return [rr for rr in self.answers if rr.rdtype == rdtype]

    def answer_addresses(self) -> List[str]:
        """All A/AAAA address strings in the answer section, in order."""
        out = []
        for rr in self.answers:
            if rr.rdtype in (RecordType.A, RecordType.AAAA):
                out.append(rr.rdata.address)  # type: ignore[attr-defined]
        return out

    def min_ttl(self) -> Optional[int]:
        """Smallest TTL across the answer section (cache lifetime)."""
        if not self.answers:
            return None
        return min(rr.ttl for rr in self.answers)

    def copy(self) -> "Message":
        """A structural copy: fresh containers around shared records.

        The header fields, the three section lists and the
        :class:`EdnsInfo` (with its ``options`` list) are new, so the copy
        can be re-addressed, re-sectioned or given another ECS option
        without touching the original.  The ``Question``,
        ``ResourceRecord``, ``Rdata``, ``Name`` and ``EdnsOption`` objects
        inside are shared: they are immutable, and changing one (ageing a
        TTL, say) means building a new record into the copy's list.
        """
        edns = self.edns
        return Message(self.msg_id, self.opcode, self.rcode,
                       self.is_response, self.authoritative, self.truncated,
                       self.recursion_desired, self.recursion_available,
                       self.question, list(self.answers),
                       list(self.authority), list(self.additional),
                       None if edns is None else edns.copy())

    def __str__(self) -> str:
        kind = "response" if self.is_response else "query"
        lines = [f"<{kind} id={self.msg_id} rcode={self.rcode.name} q={self.question}>"]
        for section, rrs in (("AN", self.answers), ("AU", self.authority),
                             ("AD", self.additional)):
            for rr in rrs:
                lines.append(f"  {section} {rr}")
        ecs = self.ecs()
        if ecs is not None:
            lines.append(f"  {ecs}")
        return "\n".join(lines)
