"""Tests for the DF bit and path-MTU signalling (RFC 1191 style)."""

import pytest

from repro.netsim import Internet, Node, Simulator
from repro.netsim.icmp import IcmpType, UnreachableCode, UnreachableData
from repro.netsim.packet import IPProto, Packet


@pytest.fixture
def narrow_path():
    sim = Simulator(seed=55)
    net = Internet(sim, backbone_size=2)
    net.add_domain("a", "10.1.0.0/16", attach_at=0, source_filtering=False)
    net.add_domain("b", "10.2.0.0/16", attach_at=1, source_filtering=False)
    sim.segments["p2p-bb0-bb1"].mtu = 576
    a, b = Node("a1", sim), Node("b1", sim)
    ip_a = net.add_host("a", a)
    ip_b = net.add_host("b", b)
    return sim, a, ip_a, b, ip_b


class TestDontFragment:
    def test_df_packet_dropped_at_narrow_hop(self, narrow_path):
        sim, a, ip_a, b, ip_b = narrow_path
        b.proto_handlers[IPProto.UDP] = lambda p: pytest.fail("should not arrive")
        packet = Packet(src=ip_a, dst=ip_b, proto=IPProto.UDP,
                        payload="x", payload_size=1000, dont_fragment=True)
        a.ip_send(packet)
        sim.run(until=10)
        assert sim.trace.drops_by_reason.get("df-mtu-exceeded") == 1

    def test_frag_needed_icmp_reports_mtu(self, narrow_path):
        """The router tells the sender the narrow link's MTU."""
        sim, a, ip_a, b, ip_b = narrow_path
        reported = []

        def hook(packet, message):
            if message.icmp_type is IcmpType.DEST_UNREACHABLE:
                data = message.data
                if (isinstance(data, UnreachableData)
                        and data.code is UnreachableCode.FRAGMENTATION_NEEDED):
                    reported.append(data.mtu)

        a.icmp_hooks.append(hook)
        packet = Packet(src=ip_a, dst=ip_b, proto=IPProto.UDP,
                        payload="x", payload_size=1000, dont_fragment=True)
        a.ip_send(packet)
        sim.run(until=10)
        assert reported == [576]

    def test_df_packet_within_mtu_passes(self, narrow_path):
        sim, a, ip_a, b, ip_b = narrow_path
        seen = []
        b.proto_handlers[IPProto.UDP] = lambda p: seen.append(p)
        packet = Packet(src=ip_a, dst=ip_b, proto=IPProto.UDP,
                        payload="x", payload_size=500, dont_fragment=True)
        a.ip_send(packet)
        sim.run(until=10)
        assert len(seen) == 1

    def test_sender_can_refragment_to_reported_mtu(self, narrow_path):
        """The full path-MTU discovery loop, done by hand: probe with
        DF, learn 576, resend without DF at the discovered size."""
        sim, a, ip_a, b, ip_b = narrow_path
        seen = []
        b.proto_handlers[IPProto.UDP] = lambda p: seen.append(p.inner_size)
        discovered = []

        def hook(packet, message):
            data = getattr(message, "data", None)
            if isinstance(data, UnreachableData) and data.mtu:
                discovered.append(data.mtu)
                # Resend in MTU-sized DF packets.
                remaining = 1000
                while remaining > 0:
                    chunk = min(data.mtu - 20, remaining)
                    remaining -= chunk
                    a.ip_send(Packet(src=ip_a, dst=ip_b, proto=IPProto.UDP,
                                     payload="x", payload_size=chunk,
                                     dont_fragment=True))

        a.icmp_hooks.append(hook)
        a.ip_send(Packet(src=ip_a, dst=ip_b, proto=IPProto.UDP,
                         payload="x", payload_size=1000, dont_fragment=True))
        sim.run(until=10)
        assert discovered == [576]
        assert sum(seen) == 1000
        assert all(size <= 556 for size in seen)


class TestIcmpFeedbackLoop:
    def test_frag_needed_feedback_is_visible_end_to_end_in_the_trace(
        self, narrow_path
    ):
        """The whole RFC 1191 exchange, verified from the global trace:
        the DF datagram dies at the narrow hop, the router's ICMP
        type-3 code-4 travels back and is *delivered* to the sender,
        and the sender's reaction (MTU-sized resends) reaches the
        destination."""
        sim, a, ip_a, b, ip_b = narrow_path
        delivered = []
        b.proto_handlers[IPProto.UDP] = lambda p: delivered.append(p)

        def react(packet, message):
            data = getattr(message, "data", None)
            if (isinstance(data, UnreachableData)
                    and data.code is UnreachableCode.FRAGMENTATION_NEEDED):
                a.ip_send(Packet(src=ip_a, dst=ip_b, proto=IPProto.UDP,
                                 payload="retry", payload_size=data.mtu - 20,
                                 dont_fragment=True))

        a.icmp_hooks.append(react)
        a.ip_send(Packet(src=ip_a, dst=ip_b, proto=IPProto.UDP,
                         payload="x", payload_size=1000, dont_fragment=True))
        sim.run(until=10)

        entries = sim.trace.entries
        # Act 1: the probe dies at the narrow hop, classified.
        drops = [e for e in entries
                 if e.action == "drop" and e.detail == "df-mtu-exceeded"]
        assert len(drops) == 1
        dropping_router = drops[0].node
        assert dropping_router.startswith("bb")
        # Act 2: that router's ICMP error is delivered back to the
        # sender — not just synthesized, but carried hop by hop.
        icmp_deliveries = [
            e for e in entries
            if e.action == "deliver" and e.node == "a1"
            and e.dst == str(ip_a) and e.time > drops[0].time
            and e.proto == "ICMP"
        ]
        assert len(icmp_deliveries) == 1
        # Act 3: the sender reacted and the resized datagram made it.
        assert len(delivered) == 1
        assert delivered[0].payload == "retry"
        retry_deliveries = [
            e for e in entries
            if e.action == "deliver" and e.node == "b1"
            and e.time > icmp_deliveries[0].time
        ]
        assert len(retry_deliveries) == 1


class TestRefragmentation:
    def test_fragments_refragment_at_narrow_hop(self, narrow_path):
        """A 1500-MTU fragment meeting a 576-MTU link splits again and
        the destination still reassembles the original datagram."""
        sim, a, ip_a, b, ip_b = narrow_path
        seen = []
        b.proto_handlers[IPProto.UDP] = lambda p: seen.append(p.inner_size)
        a.ip_send(Packet(src=ip_a, dst=ip_b, proto=IPProto.UDP,
                         payload="x", payload_size=4000))
        sim.run(until=30)
        assert seen == [4000]
        # Fragmentation happened at least twice: once at the source LAN
        # boundary (>1500) and again entering the 576 link.
        assert sim.trace.action_counts["fragment"] >= 2
