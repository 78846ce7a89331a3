"""Tests for the IP packet model and its size accounting."""

from hypothesis import given
from hypothesis import strategies as st

from repro.netsim.addressing import IPAddress
from repro.netsim.encap import EncapScheme, encapsulate
from repro.netsim.packet import IPV4_HEADER_SIZE, IPProto, Packet
from repro.netsim.trace import TraceLog
from repro.obs.spans import datagrams


def make_packet(size=100, proto=IPProto.UDP):
    return Packet(
        src=IPAddress("10.0.0.1"),
        dst=IPAddress("10.0.0.2"),
        proto=proto,
        payload="data",
        payload_size=size,
    )


class TestWireSize:
    def test_plain_packet(self):
        assert make_packet(100).wire_size == IPV4_HEADER_SIZE + 100

    def test_zero_payload(self):
        assert make_packet(0).wire_size == IPV4_HEADER_SIZE

    @given(st.integers(min_value=0, max_value=65515))
    def test_wire_size_is_header_plus_payload(self, size):
        assert make_packet(size).wire_size == IPV4_HEADER_SIZE + size

    def test_ipip_adds_exactly_20_bytes(self):
        """§3.3: 'Encapsulation typically adds 20 bytes ... in IPv4.'"""
        inner = make_packet(1000)
        outer = encapsulate(
            inner, IPAddress("1.1.1.1"), IPAddress("2.2.2.2"), EncapScheme.IPIP
        )
        assert outer.wire_size == inner.wire_size + 20

    def test_nested_encapsulation_sizes_accumulate(self):
        inner = make_packet(100)
        mid = encapsulate(inner, IPAddress("1.1.1.1"), IPAddress("2.2.2.2"))
        outer = encapsulate(mid, IPAddress("3.3.3.3"), IPAddress("4.4.4.4"))
        assert outer.wire_size == inner.wire_size + 40


class TestEncapsulationStack:
    def test_innermost(self):
        inner = make_packet()
        outer = encapsulate(inner, IPAddress("1.1.1.1"), IPAddress("2.2.2.2"))
        assert outer.innermost is inner
        assert inner.innermost is inner

    def test_depth(self):
        inner = make_packet()
        outer = encapsulate(inner, IPAddress("1.1.1.1"), IPAddress("2.2.2.2"))
        double = encapsulate(outer, IPAddress("3.3.3.3"), IPAddress("4.4.4.4"))
        assert inner.encapsulation_depth == 0
        assert outer.encapsulation_depth == 1
        assert double.encapsulation_depth == 2

    def test_is_encapsulated(self):
        inner = make_packet()
        assert not inner.is_encapsulated
        outer = encapsulate(inner, IPAddress("1.1.1.1"), IPAddress("2.2.2.2"))
        assert outer.is_encapsulated


class TestTraceHelpers:
    """A packet's journey, folded from the trace log by trace id."""

    def test_record_and_path(self):
        log = TraceLog()
        packet = make_packet()
        log.note(0.0, "a", "send", packet)
        log.note(0.1, "r1", "forward", packet)
        log.note(0.2, "b", "deliver", packet)
        (root,) = datagrams(log.entries, 0.2)
        assert root.trace_id == packet.trace_id
        assert root.args["hops"] == 1
        assert root.args["end_node"] == "b" and root.args["delivered"] is True

    def test_drop_reason(self):
        log = TraceLog()
        packet = make_packet()
        log.note(0.0, "a", "send", packet)
        (root,) = datagrams(log.entries, 0.0)
        assert "dropped" not in root.args and root.args["incomplete"] is True
        log.note(0.1, "gw", "drop", packet, "source-address-filter")
        (root,) = datagrams(log.entries, 0.1)
        assert root.args["dropped"] == "source-address-filter"


class TestIdentity:
    def test_unique_idents(self):
        assert make_packet().ident != make_packet().ident

    def test_unique_trace_ids(self):
        assert make_packet().trace_id != make_packet().trace_id

    def test_addresses_coerced(self):
        packet = Packet(src="10.0.0.1", dst="10.0.0.2", proto=IPProto.UDP)
        assert isinstance(packet.src, IPAddress)
        assert isinstance(packet.dst, IPAddress)

    def test_repr_mentions_fragment_state(self):
        packet = make_packet()
        packet.frag_offset = 64
        packet.more_fragments = True
        assert "frag" in repr(packet)
