"""Tests for the eight delivery modes' address tables (Figures 6-9)."""

import pytest

from repro.core.modes import (
    AddressPlan,
    InMode,
    ModeError,
    OutMode,
    build_incoming_direct,
    build_outgoing,
    classify_incoming,
    classify_outgoing,
)
from repro.netsim import EncapScheme, IPAddress
from repro.netsim.packet import IPProto

PLAN = AddressPlan(
    home=IPAddress("10.1.0.10"),
    care_of=IPAddress("10.2.0.2"),
    home_agent=IPAddress("10.1.0.1"),
    correspondent=IPAddress("10.3.0.2"),
)


class TestOutgoingAddressTables:
    """The S/D/s/d tables of §4, verbatim."""

    def test_out_ie(self):
        packet = build_outgoing(OutMode.OUT_IE, PLAN, payload_size=100)
        assert packet.src == PLAN.care_of            # s = care-of
        assert packet.dst == PLAN.home_agent         # d = home agent
        inner = packet.innermost
        assert inner.src == PLAN.home                # S = home
        assert inner.dst == PLAN.correspondent       # D = CH

    def test_out_de(self):
        packet = build_outgoing(OutMode.OUT_DE, PLAN, payload_size=100)
        assert packet.src == PLAN.care_of
        assert packet.dst == PLAN.correspondent      # d = CH
        inner = packet.innermost
        assert inner.src == PLAN.home
        assert inner.dst == PLAN.correspondent

    def test_out_dh(self):
        packet = build_outgoing(OutMode.OUT_DH, PLAN, payload_size=100)
        assert not packet.is_encapsulated
        assert packet.src == PLAN.home               # S = home
        assert packet.dst == PLAN.correspondent

    def test_out_dt(self):
        packet = build_outgoing(OutMode.OUT_DT, PLAN, payload_size=100)
        assert not packet.is_encapsulated
        assert packet.src == PLAN.care_of            # S = care-of
        assert packet.dst == PLAN.correspondent

    @pytest.mark.parametrize("mode", list(OutMode))
    def test_classify_inverts_build(self, mode):
        packet = build_outgoing(mode, PLAN, payload_size=64)
        assert classify_outgoing(packet, PLAN) is mode

    @pytest.mark.parametrize("scheme", list(EncapScheme))
    def test_encapsulated_modes_accept_any_scheme(self, scheme):
        packet = build_outgoing(OutMode.OUT_IE, PLAN, payload_size=64, scheme=scheme)
        assert classify_outgoing(packet, PLAN) is OutMode.OUT_IE

    def test_proto_propagates_to_inner(self):
        packet = build_outgoing(
            OutMode.OUT_IE, PLAN, payload_size=64, proto=IPProto.TCP
        )
        assert packet.innermost.proto is IPProto.TCP


class TestIncomingAddressTables:
    """The S/D/s/d tables of §5, verbatim."""

    def test_in_ie(self):
        packet = build_incoming_direct(InMode.IN_IE, PLAN, payload_size=100)
        assert packet.src == PLAN.home_agent         # s = HA
        assert packet.dst == PLAN.care_of            # d = care-of
        inner = packet.innermost
        assert inner.src == PLAN.correspondent       # S = CH
        assert inner.dst == PLAN.home                # D = home

    def test_in_de(self):
        packet = build_incoming_direct(InMode.IN_DE, PLAN, payload_size=100)
        assert packet.src == PLAN.correspondent      # s = CH
        assert packet.dst == PLAN.care_of
        inner = packet.innermost
        assert inner.src == PLAN.correspondent
        assert inner.dst == PLAN.home

    def test_in_dh(self):
        packet = build_incoming_direct(InMode.IN_DH, PLAN, payload_size=100)
        assert not packet.is_encapsulated
        assert packet.src == PLAN.correspondent
        assert packet.dst == PLAN.home               # D = home, one hop

    def test_in_dt(self):
        packet = build_incoming_direct(InMode.IN_DT, PLAN, payload_size=100)
        assert not packet.is_encapsulated
        assert packet.src == PLAN.correspondent
        assert packet.dst == PLAN.care_of

    @pytest.mark.parametrize("mode", list(InMode))
    def test_classify_inverts_build(self, mode):
        packet = build_incoming_direct(mode, PLAN, payload_size=64)
        assert classify_incoming(packet, PLAN) is mode


class TestClassificationErrors:
    def test_outgoing_to_wrong_destination(self):
        packet = build_outgoing(OutMode.OUT_DH, PLAN, payload_size=10)
        packet.dst = IPAddress("9.9.9.9")
        with pytest.raises(ModeError):
            classify_outgoing(packet, PLAN)

    def test_outgoing_unknown_source(self):
        packet = build_outgoing(OutMode.OUT_DH, PLAN, payload_size=10)
        packet.src = IPAddress("9.9.9.9")
        with pytest.raises(ModeError):
            classify_outgoing(packet, PLAN)

    def test_outgoing_encapsulated_bad_outer_dst(self):
        packet = build_outgoing(OutMode.OUT_IE, PLAN, payload_size=10)
        packet.dst = IPAddress("9.9.9.9")
        with pytest.raises(ModeError):
            classify_outgoing(packet, PLAN)

    def test_incoming_encapsulated_bad_outer_src(self):
        packet = build_incoming_direct(InMode.IN_IE, PLAN, payload_size=10)
        packet.src = IPAddress("9.9.9.9")
        with pytest.raises(ModeError):
            classify_incoming(packet, PLAN)

    def test_incoming_unknown_destination(self):
        packet = build_incoming_direct(InMode.IN_DT, PLAN, payload_size=10)
        packet.dst = IPAddress("9.9.9.9")
        with pytest.raises(ModeError):
            classify_incoming(packet, PLAN)


class TestModeAttributes:
    def test_encapsulated_flags(self):
        assert OutMode.OUT_IE.encapsulated and OutMode.OUT_DE.encapsulated
        assert not OutMode.OUT_DH.encapsulated and not OutMode.OUT_DT.encapsulated
        assert InMode.IN_IE.encapsulated and InMode.IN_DE.encapsulated
        assert not InMode.IN_DH.encapsulated and not InMode.IN_DT.encapsulated

    def test_indirect_flags(self):
        assert OutMode.OUT_IE.indirect
        assert InMode.IN_IE.indirect
        assert not OutMode.OUT_DE.indirect
        assert not InMode.IN_DE.indirect

    def test_home_address_usage(self):
        assert not OutMode.OUT_DT.uses_home_address
        assert not InMode.IN_DT.uses_home_address
        for mode in (OutMode.OUT_IE, OutMode.OUT_DE, OutMode.OUT_DH):
            assert mode.uses_home_address

    def test_mode_values_match_paper_names(self):
        assert OutMode.OUT_IE.value == "Out-IE"
        assert InMode.IN_DT.value == "In-DT"
