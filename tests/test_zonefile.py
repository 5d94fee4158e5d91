"""Tests for master-file zone parsing."""

import pytest

from repro.dnslib import (Name, Rcode, RecordType, ZoneError, parse_zone)

BASIC = """
$ORIGIN example.com.
$TTL 300
@    IN SOA ns1 hostmaster 2024 3600 600 86400 60
     IN NS  ns1
ns1  IN A   203.0.113.53
www  60 IN A 203.0.113.80
www  IN AAAA 2001:db8::80
alias IN CNAME www
mail IN MX 10 mx1
mx1  IN A 203.0.113.25
txt  IN TXT "hello world" "second"
"""


class TestBasicParsing:
    @pytest.fixture(scope="class")
    def zone(self):
        return parse_zone(BASIC)

    def test_origin_from_directive(self, zone):
        assert zone.origin == Name.from_text("example.com")

    def test_soa_present(self, zone):
        soa = zone.get(zone.origin, RecordType.SOA)
        assert soa and soa[0].rdata.serial == 2024
        assert soa[0].rdata.minimum == 60

    def test_relative_names_resolved(self, zone):
        rrs = zone.get(Name.from_text("ns1.example.com"), RecordType.A)
        assert rrs and rrs[0].rdata.address == "203.0.113.53"

    def test_explicit_ttl_overrides_default(self, zone):
        rrs = zone.get(Name.from_text("www.example.com"), RecordType.A)
        assert rrs[0].ttl == 60

    def test_default_ttl_applied(self, zone):
        rrs = zone.get(Name.from_text("mx1.example.com"), RecordType.A)
        assert rrs[0].ttl == 300

    def test_blank_owner_repeats_previous(self, zone):
        # The NS line has no owner; it belongs to the apex.
        rrs = zone.get(zone.origin, RecordType.NS)
        assert rrs and rrs[0].rdata.target == Name.from_text("ns1.example.com")

    def test_aaaa(self, zone):
        rrs = zone.get(Name.from_text("www.example.com"), RecordType.AAAA)
        assert rrs[0].rdata.address == "2001:db8::80"

    def test_cname(self, zone):
        result = zone.lookup(Name.from_text("alias.example.com"),
                             RecordType.A)
        assert result.rcode == Rcode.NOERROR
        assert any(rr.rdtype == RecordType.A for rr in result.answers)

    def test_mx(self, zone):
        rrs = zone.get(Name.from_text("mail.example.com"), RecordType.MX)
        assert rrs[0].rdata.preference == 10

    def test_txt_strings(self, zone):
        rrs = zone.get(Name.from_text("txt.example.com"), RecordType.TXT)
        assert rrs[0].rdata.strings == (b"hello world", b"second")


class TestSyntaxFeatures:
    def test_multiline_soa_with_parentheses(self):
        zone = parse_zone("""
$ORIGIN p.example.
@ IN SOA ns1 host (
        7       ; serial
        1h      ; refresh
        10m     ; retry
        1d      ; expire
        5m )    ; minimum
""")
        soa = zone.get(zone.origin, RecordType.SOA)[0].rdata
        assert soa.serial == 7
        assert soa.refresh == 3600 and soa.retry == 600
        assert soa.expire == 86400 and soa.minimum == 300

    def test_comments_stripped(self):
        zone = parse_zone("www IN A 1.2.3.4 ; the web server",
                          origin="c.example.")
        assert zone.get(Name.from_text("www.c.example."), RecordType.A)

    def test_semicolon_inside_quotes_kept(self):
        zone = parse_zone('t IN TXT "a;b"', origin="c.example.")
        rrs = zone.get(Name.from_text("t.c.example."), RecordType.TXT)
        assert rrs[0].rdata.strings == (b"a;b",)

    def test_ttl_units(self):
        zone = parse_zone("$TTL 2h\nwww IN A 1.2.3.4", origin="c.example.")
        rrs = zone.get(Name.from_text("www.c.example."), RecordType.A)
        assert rrs[0].ttl == 7200

    def test_origin_argument_used_without_directive(self):
        zone = parse_zone("www IN A 1.2.3.4", origin="arg.example.")
        assert zone.origin == Name.from_text("arg.example.")

    def test_absolute_owner_kept(self):
        zone = parse_zone("deep.sub.example.com. IN A 1.2.3.4",
                          origin="example.com.")
        assert zone.get(Name.from_text("deep.sub.example.com"), RecordType.A)

    def test_class_optional(self):
        zone = parse_zone("www A 1.2.3.4", origin="c.example.")
        assert zone.get(Name.from_text("www.c.example."), RecordType.A)


class TestErrors:
    def test_unbalanced_parenthesis(self):
        with pytest.raises(ZoneError):
            parse_zone("@ IN SOA a b ( 1 2 3 4 5", origin="x.example.")

    def test_no_origin_anywhere(self):
        with pytest.raises(ZoneError):
            parse_zone("www IN A 1.2.3.4")

    def test_unknown_type(self):
        with pytest.raises(ZoneError):
            parse_zone("www IN WKS 1.2.3.4", origin="x.example.")

    def test_blank_owner_first_line(self):
        with pytest.raises(ZoneError):
            parse_zone("   IN A 1.2.3.4", origin="x.example.")

    def test_missing_type(self):
        with pytest.raises(ZoneError):
            parse_zone("www 300 IN", origin="x.example.")

    def test_bad_ttl_directive(self):
        with pytest.raises(ZoneError):
            parse_zone("$TTL soon\nwww IN A 1.2.3.4", origin="x.example.")

    def test_soa_field_count(self):
        with pytest.raises(ZoneError):
            parse_zone("@ IN SOA a b 1 2 3", origin="x.example.")


class TestEndToEnd:
    def test_parsed_zone_served_by_authoritative(self, small_world):
        from repro.auth import AuthoritativeServer
        from repro.measure import StubClient
        from repro.net import city
        zone = parse_zone("""
$ORIGIN parsed.example.
$TTL 120
@   IN SOA ns1 host 1 3600 600 86400 60
www IN A 203.0.113.99
""")
        ip = small_world.isp.host_in(city("Ashburn"))
        server = AuthoritativeServer(ip, [zone])
        small_world.net.attach(server)
        small_world.hierarchy.attach_authoritative(
            Name.from_text("parsed.example."), ip)
        client = StubClient(small_world.client_ip, small_world.net)
        result = client.query(small_world.resolver_ip, "www.parsed.example")
        assert result.addresses == ["203.0.113.99"]
