"""Tests for EDNS0 options, above all the RFC 7871 ECS option codec."""

import ipaddress

import pytest

from repro.dnslib import (BadEcsError, BadOptionError, CookieOption,
                          EcsOption, EdnsInfo, GenericOption,
                          decode_options, encode_options)
from repro.dnslib.edns import decode_option


class TestEcsConstruction:
    def test_default_v4_truncation_is_24(self):
        opt = EcsOption.from_client_address("192.0.2.77")
        assert opt.source_prefix_length == 24
        assert opt.address_text == "192.0.2.0"

    def test_default_v6_truncation_is_56(self):
        opt = EcsOption.from_client_address("2001:db8:1234:5678::1")
        assert opt.source_prefix_length == 56
        assert opt.address_text == "2001:db8:1234:5600::"

    def test_explicit_length_truncates(self):
        opt = EcsOption.from_client_address("10.11.12.13", 16)
        assert opt.address_text == "10.11.0.0"

    def test_full_length_keeps_address(self):
        opt = EcsOption.from_client_address("10.11.12.13", 32)
        assert opt.address_text == "10.11.12.13"

    def test_zero_length(self):
        opt = EcsOption.from_client_address("10.11.12.13", 0)
        assert opt.address_text == "0.0.0.0"

    def test_family_fields(self):
        assert EcsOption.from_client_address("1.2.3.4").family == 1
        assert EcsOption.from_client_address("2001:db8::1").family == 2

    def test_out_of_range_source_rejected(self):
        with pytest.raises(BadEcsError):
            EcsOption.from_client_address("1.2.3.4", 33)


class TestEcsWire:
    def test_roundtrip_v4(self):
        opt = EcsOption.from_client_address("198.51.0.77", 24)
        assert EcsOption.from_wire(opt.to_wire()) == opt

    def test_roundtrip_v6(self):
        opt = EcsOption.from_client_address("2600:1:2:3::9", 56)
        assert EcsOption.from_wire(opt.to_wire()) == opt

    def test_wire_length_is_minimal(self):
        # /24 needs exactly 3 address octets.
        opt = EcsOption.from_client_address("1.2.3.4", 24)
        assert len(opt.to_wire()) == 4 + 3

    def test_wire_length_for_odd_prefix(self):
        # /17 needs ceil(17/8) = 3 octets.
        opt = EcsOption.from_client_address("1.2.3.4", 17)
        assert len(opt.to_wire()) == 4 + 3

    def test_zero_prefix_has_no_address_octets(self):
        opt = EcsOption.from_client_address("1.2.3.4", 0)
        assert len(opt.to_wire()) == 4

    def test_nonzero_trailing_bits_rejected_on_decode(self):
        # Family 1, source 17, scope 0, then 3 octets with bits set past 17.
        wire = bytes([0, 1, 17, 0, 10, 20, 0b01111111])
        with pytest.raises(BadEcsError):
            EcsOption.from_wire(wire)

    def test_encoder_zeroes_trailing_bits(self):
        opt = EcsOption(1, 17, 0, int(ipaddress.ip_address("10.20.255.0")))
        decoded = EcsOption.from_wire(opt.to_wire())
        assert decoded.address_text == "10.20.128.0"

    def test_unknown_family_rejected(self):
        with pytest.raises(BadEcsError):
            EcsOption.from_wire(bytes([0, 3, 0, 0]))

    def test_short_option_rejected(self):
        with pytest.raises(BadEcsError):
            EcsOption.from_wire(b"\x00\x01\x18")

    def test_wrong_address_field_length_rejected(self):
        # /24 with 4 address octets instead of 3.
        wire = bytes([0, 1, 24, 0, 1, 2, 3, 4])
        with pytest.raises(BadEcsError):
            EcsOption.from_wire(wire)

    def test_source_exceeding_family_rejected(self):
        with pytest.raises(BadEcsError):
            EcsOption.from_wire(bytes([0, 1, 33, 0]) + b"\x00" * 5)


class TestEcsSemantics:
    def test_network(self):
        opt = EcsOption.from_client_address("192.0.2.200", 24)
        assert opt.network() == "192.0.2.0/24"

    def test_covers_within_scope(self):
        opt = EcsOption(1, 24, 16, int(ipaddress.ip_address("192.0.2.0")))
        assert opt.covers("192.0.99.1")

    def test_not_covers_outside_scope(self):
        opt = EcsOption(1, 24, 16, int(ipaddress.ip_address("192.0.2.0")))
        assert not opt.covers("192.1.0.1")

    def test_covers_wrong_family(self):
        opt = EcsOption.from_client_address("192.0.2.1", 24)
        assert not opt.covers("2001:db8::1")

    def test_is_routable_public(self):
        assert EcsOption.from_client_address("93.184.216.34", 24).is_routable()

    @pytest.mark.parametrize("address,bits", [
        ("127.0.0.1", 32), ("127.0.0.0", 24), ("169.254.252.0", 24),
        ("10.0.0.0", 8),
    ])
    def test_is_routable_false_for_paper_prefixes(self, address, bits):
        # The exact unroutable prefixes observed in section 8.1.
        assert not EcsOption.from_client_address(address, bits).is_routable()

    def test_response_to_copies_query_fields(self):
        query = EcsOption.from_client_address("192.0.2.5", 24)
        response = query.response_to(16)
        assert response.scope_prefix_length == 16
        assert response.source_prefix_length == query.source_prefix_length
        assert response.address == query.address

    def test_matches_query(self):
        query = EcsOption.from_client_address("192.0.2.5", 24)
        assert query.response_to(16).matches_query(query)

    def test_mismatched_source_rejected(self):
        query = EcsOption.from_client_address("192.0.2.5", 24)
        other = EcsOption.from_client_address("192.0.2.5", 23)
        assert not other.response_to(16).matches_query(query)

    def test_to_text(self):
        text = EcsOption.from_client_address("192.0.2.5", 24).to_text()
        assert "192.0.2.0/24" in text


class TestOptionLists:
    def test_encode_decode_multiple_options(self):
        opts = [EcsOption.from_client_address("1.2.3.4", 24),
                CookieOption(b"12345678")]
        decoded = decode_options(encode_options(opts))
        assert decoded == opts

    def test_unknown_option_kept_generic(self):
        raw = encode_options([GenericOption(65001, b"\xde\xad")])
        decoded = decode_options(raw)
        assert isinstance(decoded[0], GenericOption)
        assert decoded[0].data == b"\xde\xad"

    def test_truncated_option_header_rejected(self):
        from repro.dnslib import TruncatedMessageError
        with pytest.raises(TruncatedMessageError):
            decode_options(b"\x00\x08")

    def test_truncated_option_payload_rejected(self):
        from repro.dnslib import TruncatedMessageError
        with pytest.raises(TruncatedMessageError):
            decode_options(b"\x00\x08\x00\x09\x00")

    def test_cookie_validation(self):
        with pytest.raises(BadOptionError):
            CookieOption(b"short").to_wire()

    def test_decode_option_dispatch(self):
        ecs = EcsOption.from_client_address("1.2.3.4", 24)
        assert decode_option(8, ecs.to_wire()) == ecs


class TestEdnsInfo:
    def test_find_ecs(self):
        ecs = EcsOption.from_client_address("1.2.3.4", 24)
        info = EdnsInfo(options=[CookieOption(b"abcdefgh"), ecs])
        assert info.find_ecs() == ecs

    def test_find_ecs_none(self):
        assert EdnsInfo().find_ecs() is None

    def test_without_ecs_preserves_others(self):
        cookie = CookieOption(b"abcdefgh")
        info = EdnsInfo(options=[cookie,
                                 EcsOption.from_client_address("1.2.3.4")])
        stripped = info.without_ecs()
        assert stripped.find_ecs() is None
        assert cookie in stripped.options

    def test_with_ecs_replaces(self):
        first = EcsOption.from_client_address("1.2.3.4")
        second = EcsOption.from_client_address("5.6.7.8")
        info = EdnsInfo(options=[first]).with_ecs(second)
        assert info.find_ecs() == second
        assert sum(isinstance(o, EcsOption) for o in info.options) == 1
