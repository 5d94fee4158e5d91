"""Zone data and lookup.

A :class:`Zone` is a static collection of records under an origin, with the
lookup semantics an authoritative server needs: exact-match answers, CNAME
chasing within the zone, delegation (NS records below the origin produce
referrals), wildcard records, and NXDOMAIN/NODATA distinction with the SOA
in the authority section.

Dynamic answers (the CDN's proximity mapping) are produced by the servers in
:mod:`repro.auth` instead of a static zone; this class covers everything
else: the experiment zones, delegation glue, and CNAME onboarding chains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .constants import Rcode, RecordType
from .errors import ZoneError
from .message import ResourceRecord
from .name import Name
from .rdata import A, AAAA, CNAME, NS, SOA, Rdata

_MAX_CNAME_CHAIN = 8


@dataclass
class LookupResult:
    """Outcome of a zone lookup.

    ``is_referral`` marks a delegation: ``authority`` holds the NS rrset of
    the child zone and ``additional`` any in-zone glue.
    """

    rcode: Rcode
    answers: List[ResourceRecord] = field(default_factory=list)
    authority: List[ResourceRecord] = field(default_factory=list)
    additional: List[ResourceRecord] = field(default_factory=list)
    is_referral: bool = False


class Zone:
    """A static authoritative zone."""

    def __init__(self, origin: Name, default_ttl: int = 300):
        self.origin = origin
        self.default_ttl = default_ttl
        self._records: Dict[Tuple[Name, int], List[ResourceRecord]] = {}

    # -- construction ------------------------------------------------------

    def add(self, name: Name, rdtype: RecordType, rdata: Rdata,
            ttl: Optional[int] = None) -> None:
        """Add one record; ``name`` must be at or below the origin."""
        if not name.is_subdomain_of(self.origin):
            raise ZoneError(f"{name} is outside zone {self.origin}")
        if rdtype == RecordType.CNAME and (name, int(rdtype)) not in self._records:
            others = [k for k in self._records if k[0] == name
                      and k[1] != int(RecordType.CNAME)]
            if others and name != self.origin:
                raise ZoneError(f"CNAME at {name} conflicts with other records")
        ttl = self.default_ttl if ttl is None else ttl
        rr = ResourceRecord(name, rdtype, ttl, rdata)
        self._records.setdefault((name, int(rdtype)), []).append(rr)

    def add_text(self, name: str, rdtype: str, value: str,
                 ttl: Optional[int] = None) -> None:
        """Convenience: add a record from text fields.

        Supports A, AAAA, NS, CNAME record values; relative names are
        resolved against the zone origin when they lack a trailing dot.
        """
        owner = self._absolute(name)
        rt = RecordType.from_text(rdtype)
        rdata: Rdata
        if rt == RecordType.A:
            rdata = A(value)
        elif rt == RecordType.AAAA:
            rdata = AAAA(value)
        elif rt == RecordType.NS:
            rdata = NS(self._absolute(value))
        elif rt == RecordType.CNAME:
            rdata = CNAME(self._absolute(value))
        else:
            raise ZoneError(f"add_text does not support {rdtype}")
        self.add(owner, rt, rdata, ttl)

    def add_soa(self, minimum: int = 300) -> None:
        """Install a SOA record at the origin (``ns1``, ``hostmaster``,
        serial 1)."""
        soa = SOA(self._absolute("ns1"), self._absolute("hostmaster"),
                  1, 3600, 600, 86400, minimum)
        self.add(self.origin, RecordType.SOA, soa)

    def _absolute(self, text: str) -> Name:
        if text == "@":
            return self.origin
        name = Name.from_text(text)
        if text.endswith("."):
            return name
        return name.concatenate(self.origin)

    # -- lookup ------------------------------------------------------------

    def get(self, name: Name, rdtype: RecordType) -> List[ResourceRecord]:
        """Exact rrset fetch (no CNAME chasing, no wildcards)."""
        return list(self._records.get((name, int(rdtype)), []))

    def names(self) -> List[Name]:
        """All owner names present in the zone."""
        return sorted({name for name, _ in self._records})

    def _node_exists(self, name: Name) -> bool:
        return any(owner == name for owner, _ in self._records)

    def _find_delegation(self, qname: Name) -> Optional[Name]:
        """The closest enclosing delegation point strictly below the origin."""
        for candidate in qname.ancestors():
            if candidate == self.origin:
                return None
            if not candidate.is_subdomain_of(self.origin):
                return None
            if (candidate, int(RecordType.NS)) in self._records:
                return candidate
        return None

    def _wildcard_match(self, qname: Name, rdtype: RecordType
                        ) -> List[ResourceRecord]:
        if qname == self.origin or not len(qname):
            return []
        wildcard = qname.parent().child("*")
        rrs = self._records.get((wildcard, int(rdtype)), [])
        return [ResourceRecord(qname, rr.rdtype, rr.ttl, rr.rdata) for rr in rrs]

    def lookup(self, qname: Name, rdtype: RecordType) -> LookupResult:
        """Authoritative lookup with CNAME chasing and referrals."""
        if not qname.is_subdomain_of(self.origin):
            return LookupResult(Rcode.REFUSED)

        delegation = self._find_delegation(qname)
        if delegation is not None and not (
                delegation == qname and rdtype == RecordType.NS):
            ns_rrs = self._records[(delegation, int(RecordType.NS))]
            result = LookupResult(Rcode.NOERROR, authority=list(ns_rrs),
                                  is_referral=True)
            for ns_rr in ns_rrs:
                target = ns_rr.rdata.target  # type: ignore[attr-defined]
                for glue_type in (RecordType.A, RecordType.AAAA):
                    result.additional.extend(
                        self._records.get((target, int(glue_type)), []))
            return result

        answers: List[ResourceRecord] = []
        current = qname
        for _ in range(_MAX_CNAME_CHAIN):
            rrs = self._records.get((current, int(rdtype)), [])
            if not rrs:
                rrs = self._wildcard_match(current, rdtype)
            if rrs:
                answers.extend(rrs)
                return LookupResult(Rcode.NOERROR, answers=answers)
            cname_rrs = self._records.get((current, int(RecordType.CNAME)), [])
            if not cname_rrs:
                cname_rrs = self._wildcard_match(current, RecordType.CNAME)
            if cname_rrs and rdtype != RecordType.CNAME:
                answers.extend(cname_rrs)
                target = cname_rrs[0].rdata.target  # type: ignore[attr-defined]
                if not target.is_subdomain_of(self.origin):
                    # Chain leaves the zone; the resolver must chase it.
                    return LookupResult(Rcode.NOERROR, answers=answers)
                current = target
                continue
            break

        soa = self._records.get((self.origin, int(RecordType.SOA)), [])
        if answers:
            return LookupResult(Rcode.NOERROR, answers=answers, authority=list(soa))
        exists = self._node_exists(current) or any(
            owner.is_subdomain_of(current) for owner, _ in self._records)
        rcode = Rcode.NOERROR if exists else Rcode.NXDOMAIN
        return LookupResult(rcode, authority=list(soa))
