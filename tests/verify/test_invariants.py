"""Tests for the runtime invariant monitor."""

import pytest

from repro.analysis.chaos import run_chaos
from repro.analysis.scenarios import build_scenario
from repro.netsim.addressing import IPAddress
from repro.netsim.encap import EncapScheme, encapsulate
from repro.netsim.fragmentation import fragment
from repro.netsim.packet import IPProto, Packet
from repro.netsim.router import Router
from repro.netsim.trace import TraceEntry, TraceLog
from repro.verify.invariants import INVARIANTS, InvariantMonitor


def make_packet(size=100, src="10.9.0.1", dst="10.9.0.2", ttl=64):
    return Packet(
        src=IPAddress(src), dst=IPAddress(dst), proto=IPProto.UDP,
        payload="data", payload_size=size, ttl=ttl,
    )


def feed(monitor, time, node, action, packet, detail=""):
    """Hand the monitor one event the way a subscribed TraceLog would."""
    entry = TraceEntry(time, node, action, packet.proto.name, packet.trace_id,
                       str(packet.src), str(packet.dst), packet.wire_size,
                       detail)
    monitor.on_event(entry, packet)


def run_udp_conversation(scenario, count=5):
    """A few UDP datagrams each way so the monitor sees real traffic."""
    sim = scenario.sim
    ch_socket = scenario.ch.stack.udp_socket(7000)
    ch_socket.on_receive(lambda *args: None)
    mh_socket = scenario.mh.stack.udp_socket(7000)
    mh_socket.on_receive(lambda *args: None)
    for i in range(count):
        sim.events.schedule(
            i + 1.0,
            lambda i=i: mh_socket.sendto(("up", i), 200, scenario.ch_ip, 7000),
        )
        sim.events.schedule(
            i + 1.5,
            lambda i=i: ch_socket.sendto(
                ("down", i), 200, scenario.mh.home_address, 7000),
        )
    sim.run(until=sim.now + count + 10.0)


class TestAttachment:
    def test_attach_subscribes_and_detach_unsubscribes(self):
        # The monitor stays subscribed for the life of the trace: there
        # is no detach, and it sees every later event.
        trace = TraceLog()
        monitor = InvariantMonitor()
        monitor.attach(trace)
        assert trace.subscribers == [monitor.on_event]
        assert "note" not in trace.__dict__      # note stays the class method
        trace.note(0.0, "n", "send", make_packet())
        assert len(trace.entries) == 1           # the log still records
        assert len(monitor._states) == 1         # and the monitor saw it
        assert not hasattr(monitor, "detach")
        trace.note(1.0, "n", "deliver", make_packet())
        assert len(trace.entries) == 2
        assert len(monitor._states) == 2

    def test_double_attach_refused(self):
        trace = TraceLog()
        monitor = InvariantMonitor()
        monitor.attach(trace)
        with pytest.raises(RuntimeError):
            monitor.attach(trace)

    def test_enable_invariants_twice_refused(self):
        scenario = build_scenario()
        scenario.sim.enable_invariants()
        with pytest.raises(RuntimeError):
            scenario.sim.enable_invariants()


class TestCleanRuns:
    def test_canonical_scenario_is_violation_free(self):
        scenario = build_scenario()
        monitor = scenario.sim.enable_invariants()
        run_udp_conversation(scenario)
        monitor.finish(scenario.sim.now)
        assert monitor.ok, [str(v) for v in monitor.violations]
        # The monitor actually worked: forwards were checked.
        assert monitor.checks["no-loop"] > 0
        assert monitor.checks["ttl-decreases"] > 0
        assert monitor.checks["termination"] > 0

    def test_every_invariant_is_named(self):
        monitor = InvariantMonitor()
        assert set(monitor.checks) == set(INVARIANTS)

    def test_arming_the_monitor_never_changes_the_digest(self):
        """The golden-trace property: the monitor is a pure observer, so
        an armed run is byte-identical to an unarmed one."""
        bare = run_chaos(duration=40.0, arm_invariants=False)
        armed = run_chaos(duration=40.0, arm_invariants=True)
        assert armed.digest == bare.digest
        assert armed.trace_entries == bare.trace_entries
        assert armed.invariants_armed and not bare.invariants_armed


class TestLoopInvariant:
    def test_revisiting_a_forwarder_in_one_phase_is_flagged(self):
        monitor = InvariantMonitor()
        packet = make_packet(ttl=64)
        feed(monitor, 0.0, "host", "send", packet)
        packet.ttl = 63
        feed(monitor, 0.1, "r1", "forward", packet)
        packet.ttl = 62
        feed(monitor, 0.2, "r2", "forward", packet)
        packet.ttl = 61
        feed(monitor, 0.3, "r1", "forward", packet)   # the loop
        assert [v.invariant for v in monitor.violations] == ["no-loop"]
        assert monitor.violations[0].node == "r1"

    def test_revisit_across_phases_is_legitimate(self):
        """Decapsulation starts a new phase: the home agent's LAN router
        legitimately sees the same datagram twice (outer, then inner)."""
        monitor = InvariantMonitor()
        packet = make_packet(ttl=64)
        feed(monitor, 0.0, "host", "send", packet)
        packet.ttl = 63
        feed(monitor, 0.1, "r1", "forward", packet)
        feed(monitor, 0.2, "ha", "decapsulate", packet)
        packet.ttl = 64                                   # inner's own TTL
        feed(monitor, 0.3, "r1", "forward", packet)    # same router, ok
        assert monitor.ok

    def test_retransmission_is_not_a_loop(self):
        """TCP retransmits reuse the trace id; each 'send' is a phase."""
        monitor = InvariantMonitor()
        packet = make_packet(ttl=64)
        for _ in range(3):
            feed(monitor, 0.0, "host", "send", packet)
            packet.ttl = 63
            feed(monitor, 0.1, "r1", "forward", packet)
            packet.ttl = 64
        assert monitor.ok


class TestTtlInvariant:
    def test_non_decreasing_ttl_is_flagged(self):
        monitor = InvariantMonitor()
        packet = make_packet(ttl=64)
        feed(monitor, 0.0, "host", "send", packet)
        feed(monitor, 0.1, "r1", "forward", packet)
        feed(monitor, 0.2, "r2", "forward", packet)   # still 64
        assert [v.invariant for v in monitor.violations] == ["ttl-decreases"]
        assert "64 -> 64" in monitor.violations[0].message

    def test_negative_ttl_is_flagged(self):
        monitor = InvariantMonitor()
        packet = make_packet(ttl=-1)
        feed(monitor, 0.0, "r1", "forward", packet)
        assert [v.invariant for v in monitor.violations] == ["ttl-decreases"]

    def test_broken_router_caught_end_to_end(self, monkeypatch):
        """The acceptance sabotage: a router build that forgets to
        decrement TTL must be caught on the real stage."""
        monkeypatch.setattr(Router, "ttl_decrement", 0)
        scenario = build_scenario()
        monitor = scenario.sim.enable_invariants()
        run_udp_conversation(scenario)
        monitor.finish(scenario.sim.now)
        assert not monitor.ok
        assert any(v.invariant == "ttl-decreases" for v in monitor.violations)


class TestTunnelDepthInvariant:
    def test_nesting_beyond_the_bound_is_flagged(self):
        monitor = InvariantMonitor(max_tunnel_depth=2)
        packet = make_packet()
        for hop in range(3):
            packet = encapsulate(
                packet, IPAddress(f"1.1.1.{hop + 1}"), IPAddress("2.2.2.2"))
        feed(monitor, 0.0, "ha", "encapsulate", packet)
        assert [v.invariant for v in monitor.violations] == ["tunnel-depth"]
        assert "depth 3 exceeds bound 2" in monitor.violations[0].message

    def test_minimal_encapsulation_layers_are_counted(self):
        """MINENC hides the inner packet in a shim header; the depth
        walker must see through it."""
        monitor = InvariantMonitor(max_tunnel_depth=1)
        inner = make_packet()
        outer = encapsulate(
            inner, IPAddress("1.1.1.1"), IPAddress("2.2.2.2"),
            scheme=EncapScheme.MINIMAL)
        doubled = encapsulate(
            outer, IPAddress("3.3.3.3"), IPAddress("2.2.2.2"))
        feed(monitor, 0.0, "ha", "encapsulate", doubled)
        assert [v.invariant for v in monitor.violations] == ["tunnel-depth"]

    def test_normal_single_tunnel_passes(self):
        monitor = InvariantMonitor()
        packet = encapsulate(
            make_packet(), IPAddress("1.1.1.1"), IPAddress("2.2.2.2"))
        feed(monitor, 0.0, "ha", "encapsulate", packet)
        assert monitor.ok


class TestFragmentConservation:
    def test_honest_fragmentation_passes(self):
        monitor = InvariantMonitor()
        packet = make_packet(3000)
        pieces = fragment(packet, 1500)
        feed(monitor,
            0.0, "r1", "fragment", packet,
            f"into {len(pieces)} pieces (mtu 1500)")
        assert monitor.ok
        assert monitor.checks["fragment-conservation"] == 1

    def test_wrong_piece_count_is_flagged(self):
        monitor = InvariantMonitor()
        packet = make_packet(3000)                       # really 3 pieces
        feed(monitor,
            0.0, "r1", "fragment", packet, "into 7 pieces (mtu 1500)")
        assert [v.invariant for v in monitor.violations] == [
            "fragment-conservation"]
        assert "traced 7, got 3" in monitor.violations[0].message

    def test_unparseable_detail_is_flagged(self):
        monitor = InvariantMonitor()
        feed(monitor, 0.0, "r1", "fragment", make_packet(3000), "???")
        assert [v.invariant for v in monitor.violations] == [
            "fragment-conservation"]


class TestBindingConsistency:
    def test_tunneling_via_an_expired_binding_is_flagged(self):
        scenario = build_scenario()
        sim = scenario.sim
        monitor = sim.enable_invariants()
        # Replace the live binding with one that expired long ago; the
        # monitor's peek sees it even though lookup() would drop it.
        scenario.ha.bindings.register(
            scenario.mh.home_address, scenario.mh.care_of,
            now=sim.now - 100.0, lifetime=1.0)
        packet = make_packet(
            src=str(scenario.ch_ip), dst=str(scenario.mh.home_address))
        scenario.ha._forward_to_mobile(packet, scenario.mh.care_of)
        assert any(
            v.invariant == "binding-consistency" and "expired" in v.message
            for v in monitor.violations)

    def test_tunneling_to_the_wrong_care_of_is_flagged(self):
        scenario = build_scenario()
        sim = scenario.sim
        monitor = sim.enable_invariants()
        stale_care_of = IPAddress("10.99.0.1")
        packet = make_packet(
            src=str(scenario.ch_ip), dst=str(scenario.mh.home_address))
        scenario.ha._forward_to_mobile(packet, stale_care_of)
        assert any(
            v.invariant == "binding-consistency"
            and str(stale_care_of) in v.message
            for v in monitor.violations)

    def test_tunneling_to_the_bound_care_of_passes(self):
        scenario = build_scenario()
        sim = scenario.sim
        monitor = sim.enable_invariants()
        packet = make_packet(
            src=str(scenario.ch_ip), dst=str(scenario.mh.home_address))
        scenario.ha._forward_to_mobile(packet, scenario.mh.care_of)
        assert monitor.ok
        assert monitor.checks["binding-consistency"] == 1


class TestFilterSoundness:
    def test_filter_verdict_from_a_permissive_router_is_flagged(self):
        scenario = build_scenario(visited_filtering=False)
        sim = scenario.sim
        monitor = sim.enable_invariants()
        packet = make_packet()
        # A filter verdict the posture cannot produce (the bug this
        # invariant exists for: stale rules after a posture change).
        sim.trace.note(sim.now, "visited-gw", "drop", packet,
                       "source-address-filter: 10.9.0.1 not inside")
        sim.trace.note(sim.now, "visited-gw", "drop", packet,
                       "transit-traffic-forbidden")
        kinds = [v.invariant for v in monitor.violations]
        assert kinds == ["filter-soundness", "filter-soundness"]

    def test_filter_verdict_from_a_filtering_router_passes(self):
        scenario = build_scenario(visited_filtering=True)
        sim = scenario.sim
        monitor = sim.enable_invariants()
        packet = make_packet()
        sim.trace.note(sim.now, "visited-gw", "drop", packet,
                       "source-address-filter: 10.9.0.1 not inside")
        assert monitor.ok
        assert monitor.checks["filter-soundness"] == 1


class TestTermination:
    def test_vanished_datagram_is_flagged(self):
        monitor = InvariantMonitor(grace=2.0)
        packet = make_packet()
        feed(monitor, 0.0, "host", "send", packet)
        feed(monitor, 0.1, "r1", "forward", packet)
        violations = monitor.finish(now=100.0)
        assert [v.invariant for v in violations] == ["termination"]

    def test_delivered_datagram_passes(self):
        monitor = InvariantMonitor()
        packet = make_packet()
        feed(monitor, 0.0, "host", "send", packet)
        feed(monitor, 0.2, "dst", "deliver", packet)
        assert monitor.finish(now=100.0) == []

    def test_classified_drop_and_traced_loss_pass(self):
        monitor = InvariantMonitor()
        dropped, lost = make_packet(), make_packet()
        feed(monitor, 0.0, "host", "send", dropped)
        feed(monitor, 0.1, "r1", "drop", dropped, "no-route")
        feed(monitor, 0.0, "host", "send", lost)
        feed(monitor, 0.1, "lan", "lost", lost, "link-loss")
        assert monitor.finish(now=100.0) == []

    def test_still_in_flight_within_grace_is_excused(self):
        monitor = InvariantMonitor(grace=2.0)
        packet = make_packet()
        feed(monitor, 99.0, "host", "send", packet)
        assert monitor.finish(now=100.0) == []

    def test_broadcast_and_multicast_are_exempt(self):
        monitor = InvariantMonitor()
        bcast = make_packet(dst="255.255.255.255")
        mcast = make_packet(dst="224.0.0.9")
        feed(monitor, 0.0, "host", "send", bcast)
        feed(monitor, 0.0, "host", "send", mcast)
        assert monitor.finish(now=100.0) == []

    def test_finish_is_idempotent(self):
        monitor = InvariantMonitor()
        packet = make_packet()
        feed(monitor, 0.0, "host", "send", packet)
        first = list(monitor.finish(now=100.0))
        assert monitor.finish(now=100.0) == first
        assert monitor.violation_count == 1
