"""Tests for the Internet topology builder."""

import pytest

from repro.netsim import Internet, IPAddress, Node, Simulator
from repro.netsim.packet import IPProto


class TestConstruction:
    def test_backbone_chain(self, sim):
        net = Internet(sim, backbone_size=4)
        assert len(net.backbone) == 4
        # 3 p2p links between 4 routers
        assert sum(1 for name in sim.segments if name.startswith("p2p")) == 3

    def test_backbone_needs_a_router(self, sim):
        with pytest.raises(ValueError):
            Internet(sim, backbone_size=0)

    def test_duplicate_domain_rejected(self, sim):
        net = Internet(sim)
        net.add_domain("a", "10.1.0.0/16")
        with pytest.raises(ValueError):
            net.add_domain("a", "10.5.0.0/16")

    def test_overlapping_prefix_rejected(self, sim):
        net = Internet(sim)
        net.add_domain("a", "10.0.0.0/8")
        with pytest.raises(ValueError):
            net.add_domain("b", "10.1.0.0/16")

    def test_domain_distance(self, sim):
        net = Internet(sim, backbone_size=5)
        net.add_domain("a", "10.1.0.0/16", attach_at=0)
        net.add_domain("b", "10.2.0.0/16", attach_at=4)
        assert abs(net.domains["a"].attach_index
                   - net.domains["b"].attach_index) == 4


class TestConnectivity:
    @pytest.mark.parametrize("size,positions", [(1, (0, 0)), (3, (0, 2)), (6, (2, 5))])
    def test_cross_domain_reachability(self, size, positions):
        sim = Simulator(seed=size)
        net = Internet(sim, backbone_size=size)
        net.add_domain("a", "10.1.0.0/16", attach_at=positions[0],
                       source_filtering=False)
        net.add_domain("b", "10.2.0.0/16", attach_at=positions[1],
                       source_filtering=False)
        a, b = Node("a1", sim), Node("b1", sim)
        ip_a = net.add_host("a", a)
        ip_b = net.add_host("b", b)
        replies = []
        a.ping(ip_b, replies.append)
        sim.run()
        assert len(replies) == 1

    def test_rtt_grows_with_backbone_distance(self):
        """The latency knob behind Figure 4."""
        rtts = []
        for distance in (1, 4):
            sim = Simulator(seed=10)
            net = Internet(sim, backbone_size=5, backbone_latency=0.010)
            net.add_domain("a", "10.1.0.0/16", attach_at=0, source_filtering=False)
            net.add_domain("b", "10.2.0.0/16", attach_at=distance,
                           source_filtering=False)
            a, b = Node("a1", sim), Node("b1", sim)
            ip_a = net.add_host("a", a)
            ip_b = net.add_host("b", b)
            # Warm up ARP caches along the path, then measure.
            a.ping(ip_b, lambda p: None)
            sim.run()
            start = sim.now
            times = []
            a.ping(ip_b, lambda p: times.append(sim.now - start))
            sim.run()
            rtts.append(times[0])
        assert rtts[1] > rtts[0]
        # Each extra backbone hop adds 2 * latency to the RTT.
        assert rtts[1] - rtts[0] == pytest.approx(2 * 3 * 0.010, rel=0.2)

    def test_three_hosts_same_lan(self, sim):
        net = Internet(sim)
        net.add_domain("a", "10.1.0.0/16")
        hosts = [Node(f"h{i}", sim) for i in range(3)]
        ips = [net.add_host("a", h) for h in hosts]
        seen = []
        hosts[2].proto_handlers[IPProto.UDP] = lambda p: seen.append(p)
        from repro.netsim.packet import Packet

        hosts[0].ip_send(Packet(src=ips[0], dst=ips[2], proto=IPProto.UDP,
                                payload="x", payload_size=10))
        sim.run()
        assert len(seen) == 1
        # LAN traffic never touches the boundary router: no forwarding
        # hop, delivered at h2.
        from repro.obs.spans import datagrams

        (root,) = [span for span in datagrams(sim.trace.entries, sim.now)
                   if span.trace_id == seen[0].trace_id]
        assert "hops" not in root.args
        assert root.args["end_node"] == "h2" and root.args["delivered"] is True

    def test_detach_host(self, sim):
        net = Internet(sim)
        net.add_domain("a", "10.1.0.0/16", source_filtering=False)
        net.add_domain("b", "10.2.0.0/16", source_filtering=False)
        a, b = Node("a1", sim), Node("b1", sim)
        ip_a = net.add_host("a", a)
        ip_b = net.add_host("b", b)
        net.detach_host(b)
        replies = []
        a.ping(ip_b, replies.append)
        sim.run()
        assert replies == []

    def test_static_address_assignment(self, sim):
        net = Internet(sim)
        net.add_domain("a", "10.1.0.0/16")
        host = Node("h", sim)
        ip = net.add_host("a", host, address=IPAddress("10.1.0.200"))
        assert str(ip) == "10.1.0.200"

    def test_unclaimed_assignment_skips_allocator(self, sim):
        net = Internet(sim)
        net.add_domain("a", "10.1.0.0/16")
        first = Node("h1", sim)
        net.add_host("a", first, address=IPAddress("10.1.0.200"))
        net.detach_host(first)
        again = Node("h2", sim)
        # claim=False: reuse without touching allocator bookkeeping.
        ip = net.add_host("a", again, address=IPAddress("10.1.0.200"), claim=False)
        assert str(ip) == "10.1.0.200"


class TestHostSlotIndex:
    """detach_host is O(1): slot bookkeeping survives swap-removal."""

    def test_swap_remove_updates_the_moved_hosts_slot(self, sim):
        net = Internet(sim)
        net.add_domain("a", "10.1.0.0/16")
        hosts = [Node(f"h{i}", sim) for i in range(4)]
        for h in hosts:
            net.add_host("a", h)
        net.detach_host(hosts[0])  # h3 swaps into slot 0
        assert net.domains["a"].hosts == [hosts[3], hosts[1], hosts[2]]
        # The moved host can still be detached cleanly afterwards.
        net.detach_host(hosts[3])
        assert net.domains["a"].hosts == [hosts[2], hosts[1]]
        assert net._host_slots == {"h1": ("a", 1), "h2": ("a", 0)}

    def test_detach_last_host_is_a_plain_pop(self, sim):
        net = Internet(sim)
        net.add_domain("a", "10.1.0.0/16")
        a, b = Node("h1", sim), Node("h2", sim)
        net.add_host("a", a)
        net.add_host("a", b)
        net.detach_host(b)
        assert net.domains["a"].hosts == [a]
        assert net._host_slots == {"h1": ("a", 0)}

    def test_detach_unknown_host_is_noop(self, sim):
        net = Internet(sim)
        net.add_domain("a", "10.1.0.0/16")
        stranger = Node("x", sim)
        net.detach_host(stranger)  # no iface -> ignored
        assert net._host_slots == {}


class TestPoolReservation:
    def test_pool_size_reserves_a_block(self, sim):
        net = Internet(sim)
        net.add_domain("a", "10.1.0.0/24", pool_size=100)
        domain = net.domains["a"]
        assert domain.pool_size == 100
        assert domain.pool_base is not None
        # Subsequent allocations skip the reserved block entirely.
        host = Node("h", sim)
        ip = net.add_host("a", host)
        assert not (domain.pool_base <= ip.value < domain.pool_base + 100)

    def test_pool_too_big_for_prefix_rejected(self, sim):
        from repro.netsim.addressing import AddressError

        net = Internet(sim)
        with pytest.raises(AddressError):
            net.add_domain("a", "10.1.0.0/24", pool_size=1000)
