"""Tests for zone data and authoritative lookup semantics."""

import pytest

from repro.dnslib import CNAME, Name, Rcode, RecordType, Zone, ZoneError


@pytest.fixture()
def zone():
    z = Zone(Name.from_text("example.com"), default_ttl=120)
    z.add_soa()
    z.add_text("www", "A", "203.0.113.1")
    z.add_text("www", "A", "203.0.113.2")
    z.add_text("alias", "CNAME", "www")
    z.add_text("deep.alias2", "CNAME", "alias")
    z.add_text("sub", "NS", "ns1.sub")
    z.add_text("ns1.sub", "A", "203.0.113.53")
    z.add_text("*.wild", "A", "203.0.113.99")
    return z


def lookup(zone, name, rdtype=RecordType.A):
    return zone.lookup(Name.from_text(name), rdtype)


class TestBasicLookup:
    def test_exact_match_returns_rrset(self, zone):
        result = lookup(zone, "www.example.com")
        assert result.rcode == Rcode.NOERROR
        assert {rr.rdata.address for rr in result.answers} == \
            {"203.0.113.1", "203.0.113.2"}

    def test_default_ttl_applied(self, zone):
        result = lookup(zone, "www.example.com")
        assert all(rr.ttl == 120 for rr in result.answers)

    def test_nxdomain_with_soa(self, zone):
        result = lookup(zone, "missing.example.com")
        assert result.rcode == Rcode.NXDOMAIN
        assert any(rr.rdtype == RecordType.SOA for rr in result.authority)

    def test_nodata_for_existing_name_wrong_type(self, zone):
        result = lookup(zone, "www.example.com", RecordType.AAAA)
        assert result.rcode == Rcode.NOERROR
        assert result.answers == []

    def test_out_of_zone_refused(self, zone):
        result = lookup(zone, "www.other.com")
        assert result.rcode == Rcode.REFUSED

    def test_case_insensitive_lookup(self, zone):
        result = lookup(zone, "WWW.EXAMPLE.COM")
        assert result.answers


class TestCname:
    def test_cname_chased_in_zone(self, zone):
        result = lookup(zone, "alias.example.com")
        types = [rr.rdtype for rr in result.answers]
        assert RecordType.CNAME in types and RecordType.A in types

    def test_cname_chain_two_deep(self, zone):
        result = lookup(zone, "deep.alias2.example.com")
        assert sum(1 for rr in result.answers
                   if rr.rdtype == RecordType.CNAME) == 2
        assert any(rr.rdtype == RecordType.A for rr in result.answers)

    def test_cname_query_returns_cname_only(self, zone):
        result = lookup(zone, "alias.example.com", RecordType.CNAME)
        assert [rr.rdtype for rr in result.answers] == [RecordType.CNAME]

    def test_cname_leaving_zone_stops(self):
        z = Zone(Name.from_text("example.com"))
        z.add_soa()
        z.add(Name.from_text("out.example.com"), RecordType.CNAME,
              CNAME(Name.from_text("target.other.net")))
        result = z.lookup(Name.from_text("out.example.com"), RecordType.A)
        assert len(result.answers) == 1
        assert result.answers[0].rdtype == RecordType.CNAME

    def test_cname_conflict_rejected(self, zone):
        with pytest.raises(ZoneError):
            zone.add(Name.from_text("www.example.com"), RecordType.CNAME,
                     CNAME(Name.from_text("other.example.com")))


class TestDelegation:
    def test_referral_for_delegated_name(self, zone):
        result = lookup(zone, "host.sub.example.com")
        assert result.is_referral
        assert any(rr.rdtype == RecordType.NS for rr in result.authority)

    def test_referral_includes_glue(self, zone):
        result = lookup(zone, "host.sub.example.com")
        glue = [rr for rr in result.additional if rr.rdtype == RecordType.A]
        assert glue and glue[0].rdata.address == "203.0.113.53"

    def test_ns_query_at_cut_not_referral(self, zone):
        result = lookup(zone, "sub.example.com", RecordType.NS)
        assert not result.is_referral
        assert result.answers

    def test_apex_not_treated_as_delegation(self):
        z = Zone(Name.from_text("example.com"))
        z.add_soa()
        z.add_text("@", "NS", "ns1")
        z.add_text("www", "A", "1.2.3.4")
        result = z.lookup(Name.from_text("www.example.com"), RecordType.A)
        assert not result.is_referral and result.answers


class TestWildcard:
    def test_wildcard_matches(self, zone):
        result = lookup(zone, "anything.wild.example.com")
        assert result.answers
        assert result.answers[0].name == \
            Name.from_text("anything.wild.example.com")

    def test_explicit_name_beats_wildcard(self, zone):
        zone.add_text("fixed.wild", "A", "203.0.113.50")
        result = lookup(zone, "fixed.wild.example.com")
        assert result.answers[0].rdata.address == "203.0.113.50"


class TestConstruction:
    def test_out_of_zone_add_rejected(self, zone):
        with pytest.raises(ZoneError):
            zone.add_text("www.other.com.", "A", "1.2.3.4")

    def test_add_text_relative_and_absolute(self):
        z = Zone(Name.from_text("x.org"))
        z.add_text("a", "A", "1.1.1.1")
        z.add_text("b.x.org.", "A", "2.2.2.2")
        assert z.get(Name.from_text("a.x.org"), RecordType.A)
        assert z.get(Name.from_text("b.x.org"), RecordType.A)

    def test_add_text_unsupported_type(self, zone):
        with pytest.raises(ZoneError):
            zone.add_text("m", "MX", "10 mail")

    def test_names_sorted(self, zone):
        names = zone.names()
        assert names == sorted(names)
