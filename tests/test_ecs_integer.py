"""The integer ``EcsOption`` against its ``ipaddress`` predecessor.

``tests/ecs_reference.py`` keeps the option as it was while its address
was an address object.  For both families, any address, any source and
scope length, the two must build the same option, put the same bytes on
the wire, read them back, print the same text, classify the prefix the
same way and answer ``covers`` alike; hostile payloads must raise the same
``BadEcsError`` with the same message.
"""

from __future__ import annotations

import ipaddress

import pytest
from hypothesis import given, settings, strategies as st

from repro.dnslib import BadEcsError, EcsOption
from repro.dnslib.wire import clear_codec_caches

from ecs_reference import ReferenceEcs


def as_int(ref: ReferenceEcs) -> EcsOption:
    return EcsOption(ref.family, ref.source_prefix_length,
                     ref.scope_prefix_length, int(ref.address))


def outcome(fn, *args):
    """What a call gives: its value, or the type and message it raised."""
    try:
        return fn(*args)
    except Exception as exc:    # noqa: BLE001 - the oracle decides which
        return type(exc), str(exc)


#: Addresses ``is_routable`` must classify as ``ipaddress`` does, beside
#: random ones: loopback, link-local, RFC 1918, ULA, unspecified,
#: broadcast and a few public ones.
SPECIAL = ["127.0.0.1", "127.255.0.9", "169.254.252.1", "10.0.0.1",
           "172.16.5.4", "172.32.0.1", "192.168.1.1", "100.64.0.1",
           "0.0.0.0", "255.255.255.255", "93.184.216.34", "8.8.8.8",
           "::1", "::", "fe80::1", "fc00::1", "fd12:3456::1", "2001:db8::1",
           "2600:1:2::9", "::ffff:10.0.0.1", "ff02::1"]


@st.composite
def options(draw, address=None):
    """``(address text, source, scope)`` for either family."""
    width = draw(st.sampled_from([32, 128]))
    if address is None:
        value = draw(st.integers(0, 2 ** width - 1))
        address = str(ipaddress.IPv4Address(value) if width == 32
                      else ipaddress.IPv6Address(value))
    else:
        width = ipaddress.ip_address(address).max_prefixlen
    return (address, draw(st.integers(0, width)), draw(st.integers(0, width)))


@pytest.mark.oracle
class TestEcsAgainstOracle:
    def same(self, address: str, source: int, scope: int) -> EcsOption:
        got = EcsOption.from_client_address(address, source, scope)
        want = ReferenceEcs.from_client_address(address, source, scope)
        assert got == as_int(want)
        assert got.to_wire() == want.to_wire()
        assert EcsOption.from_wire(got.to_wire()) == got
        assert got.address_text == str(want.address)
        assert got.network() == f"{want.address}/{source}"
        assert got.is_routable() == want.is_routable()
        return got

    @given(options())
    @settings(max_examples=300)
    def test_option_wire_text_and_class(self, case):
        self.same(*case)

    @given(st.data())
    @settings(max_examples=200)
    def test_covers_and_response_to(self, data):
        address, source, scope = data.draw(options())
        got = self.same(address, source, scope)
        want = ReferenceEcs.from_client_address(address, source, scope)
        width = 32 if got.family == 1 else 128
        client = data.draw(st.one_of(
            st.just(address), st.sampled_from(SPECIAL),
            st.integers(0, 2 ** width - 1).map(
                lambda v: str(ipaddress.ip_address(v) if width == 32
                              else ipaddress.IPv6Address(v)))))
        bits = data.draw(st.one_of(st.none(), st.integers(0, width)))
        assert got.covers(client, bits) == want.covers(client, bits)
        new_scope = data.draw(st.integers(0, width))
        assert got.response_to(new_scope) == EcsOption(
            want.family, source, new_scope, int(want.address))

    @pytest.mark.parametrize("address", SPECIAL)
    def test_special_prefixes_cold_and_warm(self, address):
        width = ipaddress.ip_address(address).max_prefixlen
        clear_codec_caches()
        for _ in range(2):
            for source in sorted({0, 8, 16, 24, 32, width}):
                self.same(address, source, 0)

    @given(st.binary(max_size=24))
    @settings(max_examples=300)
    def test_random_payloads(self, payload):
        want = outcome(ReferenceEcs.from_wire, payload)
        if isinstance(want, ReferenceEcs):
            want = as_int(want)
        assert outcome(EcsOption.from_wire, payload) == want

    @given(st.integers(0, 3), st.integers(0, 140), st.integers(0, 140),
           st.integers(0, 18), st.data())
    @settings(max_examples=400)
    def test_hostile_headers(self, family, source, scope, length, data):
        """Unknown families, source or scope over the width, address
        fields of the wrong length and non-zero bits past the prefix."""
        payload = bytes([0, family, source, scope]) + data.draw(
            st.binary(min_size=length, max_size=length))
        want = outcome(ReferenceEcs.from_wire, payload)
        got = outcome(EcsOption.from_wire, payload)
        if isinstance(want, ReferenceEcs):
            want = as_int(want)
        else:
            assert want[0] is BadEcsError
        assert got == want

    @pytest.mark.parametrize("payload,message", [
        (bytes([0, 1, 17, 0, 10, 20, 0x7F]),
         "non-zero bits beyond ECS source prefix"),
        (bytes([0, 1, 24, 0, 1, 2, 3, 4]),
         "ECS address field is 4 octets, expected 3 for /24"),
        (bytes([0, 3, 0, 0]), "unknown ECS family 3"),
        (bytes([0, 1, 33, 0]) + bytes(5),
         "source prefix 33 exceeds family width"),
        (bytes([0, 2, 64, 129]) + bytes(8),
         "scope prefix 129 exceeds family width"),
    ])
    def test_each_rejection_names_its_cause(self, payload, message):
        assert outcome(EcsOption.from_wire, payload) == (BadEcsError, message)
        assert outcome(ReferenceEcs.from_wire, payload) \
            == (BadEcsError, message)
