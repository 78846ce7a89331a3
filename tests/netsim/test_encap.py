"""Tests for the three encapsulation schemes and their byte costs (§3.3)."""

import pytest

from repro.netsim.addressing import IPAddress
from repro.netsim.encap import (
    EncapError,
    EncapScheme,
    decapsulate,
    encap_overhead,
    encapsulate,
    scheme_of,
)
from repro.netsim.packet import IPProto, Packet

SRC = IPAddress("10.1.0.10")     # inner source (home address)
DST = IPAddress("10.3.0.2")      # correspondent
COA = IPAddress("10.2.0.2")      # care-of
HA = IPAddress("10.1.0.1")       # home agent


def inner_packet(size=500):
    return Packet(src=SRC, dst=DST, proto=IPProto.TCP, payload="seg", payload_size=size)


class TestOverheadNumbers:
    """The exact byte costs the paper cites."""

    def test_ipip_is_20(self):
        assert encap_overhead(EncapScheme.IPIP) == 20

    def test_gre_is_24(self):
        assert encap_overhead(EncapScheme.GRE) == 24

    def test_minimal_is_12_with_source(self):
        assert encap_overhead(EncapScheme.MINIMAL, preserve_source=True) == 12

    def test_minimal_is_8_without_source(self):
        assert encap_overhead(EncapScheme.MINIMAL, preserve_source=False) == 8

    def test_minimal_beats_ipip_beats_gre(self):
        """§2: GRE/minimal-encapsulation 'minimize this overhead'."""
        assert (
            encap_overhead(EncapScheme.MINIMAL, preserve_source=False)
            < encap_overhead(EncapScheme.MINIMAL, preserve_source=True)
            < encap_overhead(EncapScheme.IPIP)
            < encap_overhead(EncapScheme.GRE)
        )


class TestWireSizes:
    @pytest.mark.parametrize("scheme", list(EncapScheme))
    def test_measured_overhead_matches_declared(self, scheme):
        inner = inner_packet(800)
        outer = encapsulate(inner, COA, HA, scheme=scheme)
        preserve = COA != SRC
        assert outer.wire_size - inner.wire_size == encap_overhead(scheme, preserve)

    def test_minimal_same_source_uses_8_byte_form(self):
        inner = inner_packet(800)
        outer = encapsulate(inner, SRC, HA, scheme=EncapScheme.MINIMAL)
        assert outer.wire_size - inner.wire_size == 8


class TestRoundTrip:
    @pytest.mark.parametrize("scheme", list(EncapScheme))
    def test_decapsulate_restores_inner(self, scheme):
        inner = inner_packet()
        outer = encapsulate(inner, COA, HA, scheme=scheme)
        assert decapsulate(outer) is inner

    @pytest.mark.parametrize("scheme", list(EncapScheme))
    def test_outer_addresses(self, scheme):
        outer = encapsulate(inner_packet(), COA, HA, scheme=scheme)
        assert outer.src == COA
        assert outer.dst == HA

    @pytest.mark.parametrize("scheme", list(EncapScheme))
    def test_scheme_of(self, scheme):
        outer = encapsulate(inner_packet(), COA, HA, scheme=scheme)
        assert scheme_of(outer) is scheme

    def test_scheme_of_plain_packet_is_none(self):
        assert scheme_of(inner_packet()) is None

    def test_trace_id_preserved(self):
        inner = inner_packet()
        outer = encapsulate(inner, COA, HA)
        assert outer.trace_id == inner.trace_id


class TestErrors:
    def test_decapsulate_plain_packet(self):
        with pytest.raises(EncapError):
            decapsulate(inner_packet())

    @pytest.mark.parametrize("scheme", list(EncapScheme),
                             ids=lambda scheme: scheme.value)
    def test_minimal_cannot_nest(self, scheme):
        once = encapsulate(inner_packet(), COA, HA, scheme=scheme)
        with pytest.raises(EncapError):
            encapsulate(once, COA, HA, scheme=EncapScheme.MINIMAL)

    def test_ipip_can_nest(self):
        once = encapsulate(inner_packet(), COA, HA, scheme=EncapScheme.IPIP)
        twice = encapsulate(once, COA, HA, scheme=EncapScheme.IPIP)
        assert decapsulate(twice) is once

    def test_cannot_encapsulate_fragment(self):
        packet = inner_packet()
        packet.more_fragments = True
        with pytest.raises(EncapError):
            encapsulate(packet, COA, HA)

    def test_tunnel_packet_with_bad_payload_rejected(self):
        bogus = Packet(src=COA, dst=HA, proto=IPProto.IPIP, payload="not-a-packet")
        with pytest.raises(EncapError):
            decapsulate(bogus)
