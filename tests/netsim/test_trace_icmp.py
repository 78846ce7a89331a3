"""Tests for the trace log and ICMP message construction rules."""

from repro.netsim.addressing import IPAddress
from repro.netsim.icmp import (
    CareOfAdvisory,
    EchoData,
    IcmpMessage,
    IcmpType,
    UnreachableCode,
    UnreachableData,
    make_icmp_packet,
    unreachable_for,
)
from repro.netsim.packet import IPProto, Packet
from repro.netsim.trace import TraceLog
from repro.obs.spans import datagrams


def udp(src="1.1.1.1", dst="2.2.2.2"):
    return Packet(src=IPAddress(src), dst=IPAddress(dst), proto=IPProto.UDP,
                  payload="x", payload_size=50)


def record(log, packet):
    """The datagram's root span, folded from the log."""
    (root,) = [span for span in datagrams(log.entries, 0.0)
               if span.trace_id == packet.trace_id and span.parent_id is None]
    return root


class TestTraceLog:
    def test_note_records_globally_and_on_packet(self):
        log = TraceLog()
        packet = udp()
        log.note(1.0, "n1", "send", packet)
        log.note(2.0, "n2", "deliver", packet)
        root = record(log, packet)
        assert root.args["delivered"] is True
        assert "hops" not in root.args and root.args["end_node"] == "n2"
        assert [e.proto for e in log.entries] == ["UDP", "UDP"]
        assert log.total_deliveries == 1

    def test_drop_bookkeeping(self):
        log = TraceLog()
        packet = udp()
        log.note(1.0, "gw", "drop", packet, detail="filter")
        assert record(log, packet).args["dropped"] == "filter"
        assert log.drops_by_reason["filter"] == 1

    def test_delivery_ratio(self):
        log = TraceLog()
        packets = [udp() for _ in range(4)]
        for packet in packets[:3]:
            log.note(0.0, "n", "deliver", packet)
        delivered = {span.trace_id for span in datagrams(log.entries, 0.0)
                     if span.args.get("delivered")}
        assert sum(p.trace_id in delivered for p in packets) == 3

    def test_delivery_ratio_empty(self):
        log = TraceLog()
        assert datagrams(log.entries, 0.0) == []
        assert log.total_deliveries == 0

    def test_path_of(self):
        log = TraceLog()
        packet = udp()
        log.note(0.0, "a", "send", packet)
        log.note(0.1, "r1", "forward", packet)
        log.note(0.2, "r2", "forward", packet)
        log.note(0.3, "b", "deliver", packet)
        root = record(log, packet)
        assert root.args["hops"] == 2
        assert root.args["end_node"] == "b" and root.args["delivered"] is True

    def test_link_bytes(self):
        log = TraceLog()
        log.note_link_bytes("lan", 100)
        log.note_link_bytes("lan", 50)
        assert log.bytes_by_link["lan"] == 150

    def test_summary_mentions_drops(self):
        log = TraceLog()
        log.note(0.0, "n", "drop", udp(), detail="why")
        assert "why" in log.summary()


class TestIcmpConstruction:
    def test_echo_packet_size(self):
        message = IcmpMessage(IcmpType.ECHO_REQUEST, EchoData(1, size=56))
        packet = make_icmp_packet(IPAddress("1.1.1.1"), IPAddress("2.2.2.2"), message)
        assert packet.wire_size == 20 + 8 + 56

    def test_advisory_carries_binding(self):
        advisory = CareOfAdvisory(IPAddress("10.1.0.10"), IPAddress("10.2.0.2"), 60.0)
        message = IcmpMessage(IcmpType.MOBILE_CARE_OF_ADVISORY, advisory)
        assert message.size == 20
        assert advisory.home_address == IPAddress("10.1.0.10")

    def test_unreachable_for_regular_packet(self):
        reply = unreachable_for(IPAddress("9.9.9.9"), udp(),
                                UnreachableCode.HOST_UNREACHABLE)
        assert reply is not None
        assert reply.dst == IPAddress("1.1.1.1")
        data = reply.payload.data
        assert isinstance(data, UnreachableData)
        assert data.code is UnreachableCode.HOST_UNREACHABLE

    def test_no_error_for_non_initial_fragment(self):
        packet = udp()
        packet.frag_offset = 64
        assert unreachable_for(IPAddress("9.9.9.9"), packet,
                               UnreachableCode.HOST_UNREACHABLE) is None

    def test_no_error_for_multicast(self):
        packet = udp(dst="224.0.0.1")
        assert unreachable_for(IPAddress("9.9.9.9"), packet,
                               UnreachableCode.HOST_UNREACHABLE) is None

    def test_no_error_about_an_error(self):
        original = unreachable_for(IPAddress("9.9.9.9"), udp(),
                                   UnreachableCode.HOST_UNREACHABLE)
        assert unreachable_for(IPAddress("8.8.8.8"), original,
                               UnreachableCode.HOST_UNREACHABLE) is None

    def test_error_about_echo_is_allowed(self):
        echo = make_icmp_packet(
            IPAddress("1.1.1.1"), IPAddress("2.2.2.2"),
            IcmpMessage(IcmpType.ECHO_REQUEST, EchoData(1)),
        )
        reply = unreachable_for(IPAddress("9.9.9.9"), echo,
                                UnreachableCode.HOST_UNREACHABLE)
        assert reply is not None
