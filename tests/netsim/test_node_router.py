"""Tests for node IP processing, forwarding, boundary filtering, ICMP."""

import pytest

from repro.netsim import (
    BoundaryRouter,
    Internet,
    IPAddress,
    Network,
    Node,
    Packet,
    PhysicalRoute,
    Router,
    Simulator,
    VirtualRoute,
)
from repro.netsim.filters import Verdict
from repro.netsim.icmp import IcmpType
from repro.netsim.link import BROADCAST_LINK_ADDR
from repro.netsim.packet import IPProto


def udp(src, dst, size=100, ttl=64):
    return Packet(src=IPAddress(src), dst=IPAddress(dst), proto=IPProto.UDP,
                  payload="x", payload_size=size, ttl=ttl)


class TestLocalDelivery:
    def test_loopback_to_own_address(self, lan):
        sim, _segment, a, _b = lan
        seen = []
        a.proto_handlers[IPProto.UDP] = lambda p: seen.append(p)
        a.ip_send(udp("192.168.1.1", "192.168.1.1"))
        sim.run()
        assert len(seen) == 1

    def test_no_route_drops(self, sim):
        node = Node("isolated", sim)
        node.ip_send(udp("1.1.1.1", "2.2.2.2"))
        sim.run()
        assert sim.trace.drops_by_reason.get("no-route") == 1

    def test_host_does_not_forward(self, lan):
        sim, _segment, a, b = lan
        # Deliver a frame to b that is addressed (at IP) elsewhere.
        b_iface = b.interfaces["eth0"]
        a.arp.learn(a.interfaces["eth0"], IPAddress("192.168.1.99"),
                    b_iface.link_address)
        a.ip_send(udp("192.168.1.1", "192.168.1.99"))
        sim.run()
        assert sim.trace.drops_by_reason.get("not-mine") == 1


def routed_lans(sim, router):
    """Put ``router`` between 192.168.1.0/24 and 192.168.2.0/24 (.254 on
    each), with a host at .1 on each side; returns (near, far)."""
    hosts = []
    for index in (1, 2):
        prefix = Network(f"192.168.{index}.0/24")
        segment = sim.segment(f"lan{index}")
        router.add_interface(f"eth{index}", segment).configure(
            IPAddress(f"192.168.{index}.254"), prefix)
        router.routes.add(prefix, f"eth{index}")
        host = Node(f"host{index}", sim)
        host.add_interface("eth0", segment).configure(
            IPAddress(f"192.168.{index}.1"), prefix)
        host.routes.add(prefix, "eth0")
        host.routes.add_default("eth0", IPAddress(f"192.168.{index}.254"))
        hosts.append(host)
    return hosts[0], hosts[1]


class TestAddressClasses:
    """``ip_input``'s destination tests: broadcast, secondary, owned."""

    @staticmethod
    def received(node):
        seen = []
        node.proto_handlers[IPProto.UDP] = seen.append
        return seen

    def test_limited_broadcast_delivered_locally(self, lan):
        sim, _segment, a, b = lan
        seen_a, seen_b = self.received(a), self.received(b)
        a.ip_send(udp("192.168.1.1", "255.255.255.255"))
        sim.run()
        assert [p.dst for p in seen_b] == [IPAddress("255.255.255.255")]
        assert seen_a == []  # a segment never hands a frame to its sender

    def test_subnet_directed_broadcast_delivered_locally(self, lan):
        sim, _segment, a, b = lan
        seen = self.received(b)
        a.ip_send(udp("192.168.1.1", "192.168.1.255"))
        sim.run()
        assert [p.dst for p in seen] == [IPAddress("192.168.1.255")]
        assert sim.trace.drops_by_reason.get("not-mine") is None

    def test_router_delivers_broadcast_to_arrival_subnet(self, sim):
        router = Router("gw", sim)
        host, _far_host = routed_lans(sim, router)
        host.arp.learn(host.interfaces["eth0"], IPAddress("192.168.1.255"),
                       BROADCAST_LINK_ADDR)
        seen = self.received(router)
        host.ip_send(udp("192.168.1.1", "192.168.1.255"))
        host.ip_send(udp("192.168.1.1", "255.255.255.255"))
        sim.run()
        assert [str(p.dst) for p in seen] == ["192.168.1.255", "255.255.255.255"]
        assert router.packets_forwarded == 0
        assert sim.trace.action_counts["forward"] == 0

    def test_directed_broadcast_to_a_remote_subnet_reaches_its_hosts(self, sim):
        # RFC 1812 §5.3.5.2: the router sends it out as a link-layer
        # broadcast on the target subnet instead of ARPing for it.
        router = Router("gw", sim)
        host, far_host = routed_lans(sim, router)
        seen = self.received(far_host)
        host.ip_send(udp("192.168.1.1", "192.168.2.255"))
        sim.run()
        assert [str(p.dst) for p in seen] == ["192.168.2.255"]
        assert router.packets_forwarded == 1
        assert router.arp._pending == {}

    def test_directed_broadcast_on_the_own_subnet_needs_no_arp(self, sim):
        router = Router("gw", sim)
        host, _far_host = routed_lans(sim, router)
        seen = self.received(router)
        host.ip_send(udp("192.168.1.1", "192.168.1.255"))
        sim.run()
        assert [str(p.dst) for p in seen] == ["192.168.1.255"]
        assert router.packets_forwarded == 0
        assert host.arp._pending == {}

    def test_secondary_address_delivered_locally(self, lan):
        sim, _segment, a, b = lan
        seen = self.received(b)
        home = IPAddress("10.9.0.7")
        b.interfaces["eth0"].add_secondary(home)
        a.arp.learn(a.interfaces["eth0"], home, b.interfaces["eth0"].link_address)
        a.routes.add(Network("10.9.0.0/16"), "eth0")
        a.ip_send(udp("192.168.1.1", str(home)))
        sim.run()
        assert [p.dst for p in seen] == [home]

    def test_owns_address_primary_secondary_and_deconfigured(self, lan):
        _sim, _segment, _a, b = lan
        iface = b.interfaces["eth0"]
        iface.add_secondary(IPAddress("10.9.0.7"))
        assert b.owns_address(IPAddress("192.168.1.2"))
        assert b.owns_address(IPAddress("10.9.0.7"))
        assert not b.owns_address(IPAddress("192.168.1.1"))
        iface.deconfigure()
        assert not b.owns_address(IPAddress("192.168.1.2"))
        assert not b.owns_address(IPAddress("10.9.0.7"))


class TestRouteOverrides:
    def test_override_can_redirect_physically(self, lan):
        sim, _segment, a, b = lan
        seen = []
        b.proto_handlers[IPProto.UDP] = lambda p: seen.append(p)
        # The destination address does not belong on this segment (the
        # In-DH situation); b accepts it because it owns the address as
        # a secondary, and a's override forces the one-hop delivery.
        b.interfaces["eth0"].add_secondary(IPAddress("172.30.0.1"))
        a.route_overrides.append(
            lambda p: PhysicalRoute("eth0", next_hop=IPAddress("192.168.1.2"))
        )
        a.ip_send(udp("192.168.1.1", "172.30.0.1"))
        sim.run()
        assert len(seen) == 1
        assert seen[0].dst == IPAddress("172.30.0.1")

    def test_virtual_route_consumes_packet(self, sim):
        node = Node("n", sim)
        captured = []
        node.route_overrides.append(
            lambda p: VirtualRoute(handler=captured.append, name="test-vif")
        )
        node.ip_send(udp("1.1.1.1", "2.2.2.2"))
        assert len(captured) == 1

    def test_bypass_overrides(self, sim):
        node = Node("n", sim)
        captured = []
        node.route_overrides.append(
            lambda p: VirtualRoute(handler=captured.append)
        )
        node.ip_send(udp("1.1.1.1", "2.2.2.2"), bypass_overrides=True)
        assert captured == []  # fell through to (absent) route table

    def test_declining_override_falls_through(self, lan):
        sim, _segment, a, b = lan
        seen = []
        b.proto_handlers[IPProto.UDP] = lambda p: seen.append(p)
        a.route_overrides.append(lambda p: None)
        a.ip_send(udp("192.168.1.1", "192.168.1.2"))
        sim.run()
        assert len(seen) == 1


class TestForwarding:
    def test_ttl_decrements_per_hop(self, two_domain_net):
        sim, _net, a, ip_a, b, ip_b = two_domain_net
        seen = []
        b.proto_handlers[IPProto.UDP] = lambda p: seen.append(p)
        a.ip_send(udp(str(ip_a), str(ip_b), ttl=64))
        sim.run()
        assert len(seen) == 1
        # Path: a-gw, bb0, bb1, b-gw = 4 routers
        assert seen[0].ttl == 60

    def test_ttl_expiry_drops(self, two_domain_net):
        sim, _net, a, ip_a, _b, ip_b = two_domain_net
        a.ip_send(udp(str(ip_a), str(ip_b), ttl=2))
        sim.run()
        assert sim.trace.drops_by_reason.get("ttl-exceeded") == 1

    def test_router_sends_host_unreachable_for_unknown_prefix(self, two_domain_net):
        sim, _net, a, ip_a, _b, _ip_b = two_domain_net
        errors = []
        a.icmp_hooks.append(lambda pkt, msg: errors.append(msg.icmp_type))
        a.ip_send(udp(str(ip_a), "172.30.0.1"))
        sim.run()
        assert IcmpType.DEST_UNREACHABLE in errors

    def test_policy_hook_override_is_called(self, sim):
        class Sealed(Router):
            def check_egress(self, in_iface, out_iface, packet):
                return Verdict.DROP, "sealed"

        assert not Router._has_policy and Sealed._has_policy
        host, _far_host = routed_lans(sim, Sealed("gw", sim))
        host.ip_send(udp("192.168.1.1", "192.168.2.1"))
        sim.run()
        assert sim.trace.drops_by_reason.get("sealed") == 1
        assert sim.trace.action_counts["forward"] == 0


class TestBoundaryRouter:
    def build(self, source_filtering=True, forbid_transit=True):
        sim = Simulator(seed=3)
        net = Internet(sim, backbone_size=1)
        net.add_domain("site", "10.1.0.0/16",
                       source_filtering=source_filtering,
                       forbid_transit=forbid_transit)
        # The attacker's own domain must be fully permissive, or its own
        # boundary's egress/transit rules stop the spoof before it ever
        # reaches the victim site (which is itself a §3.1 observation).
        net.add_domain("other", "10.2.0.0/16", source_filtering=False,
                       forbid_transit=False)
        inside = Node("inside", sim)
        outside = Node("outside", sim)
        ip_in = net.add_host("site", inside)
        ip_out = net.add_host("other", outside)
        return sim, inside, ip_in, outside, ip_out

    def test_spoofed_packet_dropped_at_boundary(self):
        """Figure 2, inbound direction."""
        sim, inside, ip_in, outside, _ip_out = self.build()
        outside.ip_send(udp("10.1.0.50", str(ip_in)))  # spoofed inside source
        sim.run()
        assert (
            sim.trace.drops_by_reason.get(
                "source-address-filter:inside-source-from-outside") == 1
        )

    def test_foreign_source_dropped_leaving(self):
        """Figure 2, the direction that kills Out-DH."""
        sim, inside, _ip_in, _outside, ip_out = self.build()
        inside.ip_send(udp("10.9.0.1", str(ip_out)))  # foreign source leaving
        sim.run()
        assert (
            sim.trace.drops_by_reason.get(
                "source-address-filter:foreign-source-leaving-site") == 1
        )

    def test_permissive_router_forwards_spoof(self):
        sim, inside, ip_in, outside, _ = self.build(source_filtering=False,
                                                    forbid_transit=False)
        seen = []
        inside.proto_handlers[IPProto.UDP] = lambda p: seen.append(p)
        outside.ip_send(udp("10.1.0.50", str(ip_in)))
        sim.run()
        assert len(seen) == 1

    def test_legitimate_traffic_passes_filtering_router(self):
        sim, inside, ip_in, outside, ip_out = self.build()
        seen = []
        inside.proto_handlers[IPProto.UDP] = lambda p: seen.append(p)
        outside.ip_send(udp(str(ip_out), str(ip_in)))
        sim.run()
        assert len(seen) == 1

    def test_mark_inside_requires_existing_interface(self):
        sim = Simulator(seed=4)
        router = BoundaryRouter("gw", sim, site=Network("10.1.0.0/16"))
        with pytest.raises(ValueError):
            router.mark_inside("nope")


class TestIcmpEcho:
    def test_ping_round_trip(self, two_domain_net):
        sim, _net, a, ip_a, _b, ip_b = two_domain_net
        replies = []
        a.ping(ip_b, replies.append)
        sim.run()
        assert len(replies) == 1

    def test_ping_reply_sourced_from_pinged_address(self, two_domain_net):
        sim, _net, a, _ip_a, _b, ip_b = two_domain_net
        replies = []
        a.ping(ip_b, replies.append)
        sim.run()
        assert replies[0].src == ip_b

    def test_duplicate_reply_ignored(self, lan):
        sim, _segment, a, b = lan
        replies = []
        token = a.ping(IPAddress("192.168.1.2"), replies.append)
        sim.run()
        # Replay the reply: waiter is gone, nothing should break.
        reply = replies[0]
        a._icmp_input(reply)
        assert len(replies) == 1


class TestMulticastLocal:
    def test_multicast_delivered_to_joined_hosts_only(self, lan):
        sim, _segment, a, b = lan
        group = IPAddress("224.1.2.3")
        seen = []
        b.proto_handlers[IPProto.UDP] = lambda p: seen.append(p)
        a.ip_send(udp("192.168.1.1", str(group)))
        sim.run()
        assert seen == []      # not joined
        b.join_multicast(group)
        a.ip_send(udp("192.168.1.1", str(group)))
        sim.run()
        assert len(seen) == 1

    def test_leave_multicast(self, lan):
        sim, _segment, a, b = lan
        group = IPAddress("224.1.2.3")
        seen = []
        b.proto_handlers[IPProto.UDP] = lambda p: seen.append(p)
        b.join_multicast(group)
        b.leave_multicast(group)
        a.ip_send(udp("192.168.1.1", str(group)))
        sim.run()
        assert seen == []

    def test_join_requires_multicast_address(self, sim):
        node = Node("n", sim)
        with pytest.raises(ValueError):
            node.join_multicast(IPAddress("10.0.0.1"))
