"""Tests for the mobile host: movement, registration, route override,
mode mechanics, and receive paths."""


from repro.analysis.scenarios import MH_HOME_ADDRESS, build_scenario
from repro.core import ProbeStrategy
from repro.core.policy import MobilityPolicyTable
from repro.mobileip import Awareness


class TestMovement:
    def test_move_acquires_care_of_and_registers(self):
        scenario = build_scenario(seed=41, ch_awareness=None)
        assert scenario.mh.registered
        assert scenario.mh.care_of is not None
        assert scenario.visited.prefix.contains(scenario.mh.care_of)
        assert len(scenario.ha.bindings) == 1

    def test_home_address_kept_as_secondary_while_away(self):
        scenario = build_scenario(seed=42, ch_awareness=None)
        assert scenario.mh.owns_address(MH_HOME_ADDRESS)

    def test_return_home_deregisters_and_reclaims(self):
        scenario = build_scenario(seed=43, ch_awareness=None)
        scenario.mh.return_home(scenario.net, "home")
        scenario.sim.run(until=scenario.sim.now + 5)
        assert scenario.mh.at_home
        assert scenario.mh.care_of is None
        assert len(scenario.ha.bindings) == 0
        # Reachable again by plain IP.
        replies = []
        scenario.ha.ping(MH_HOME_ADDRESS, replies.append)
        scenario.sim.run(until=scenario.sim.now + 5)
        assert len(replies) == 1

    def test_second_move_updates_binding(self):
        scenario = build_scenario(seed=44, ch_awareness=None)
        first_coa = scenario.mh.care_of
        scenario.net.add_domain("visited2", "10.5.0.0/16", attach_at=2)
        second_coa = scenario.mh.move_to(scenario.net, "visited2")
        scenario.sim.run(until=scenario.sim.now + 5)
        assert second_coa != first_coa
        binding = scenario.ha.bindings.lookup(MH_HOME_ADDRESS, scenario.sim.now)
        assert binding.care_of_address == second_coa

    def test_care_of_released_on_departure(self):
        scenario = build_scenario(seed=45, ch_awareness=None)
        first_coa = scenario.mh.care_of
        scenario.net.add_domain("visited2", "10.5.0.0/16", attach_at=2)
        scenario.mh.move_to(scenario.net, "visited2")
        assert first_coa not in scenario.visited.allocator.in_use

    def test_moves_counted_and_engine_reset(self):
        scenario = build_scenario(seed=46, ch_awareness=None)
        assert scenario.mh.moves == 1
        scenario.net.add_domain("visited2", "10.5.0.0/16", attach_at=2)
        scenario.mh.move_to(scenario.net, "visited2")
        assert scenario.mh.moves == 2


class TestRegistrationClient:
    def test_registration_retries_until_reply(self):
        scenario = build_scenario(seed=47, ch_awareness=None,
                                  mobile_starts_away=False)
        # Unplug the home agent before the move so the first requests die.
        ha_iface = scenario.ha.interfaces["eth0"]
        ha_iface.up = False
        scenario.sim.events.schedule(2.5, lambda: setattr(ha_iface, "up", True))
        scenario.mh.move_to(scenario.net, "visited")
        scenario.sim.run_for(30)
        assert scenario.mh.registered
        assert scenario.mh.registration_attempts >= 3

    def test_registration_failure_reported(self):
        scenario = build_scenario(seed=48, ch_awareness=None,
                                  mobile_starts_away=False)
        scenario.ha.interfaces["eth0"].up = False
        failures = []
        scenario.mh.on_registration_failed = failures.append
        scenario.mh.move_to(scenario.net, "visited")
        scenario.sim.run_for(60)
        assert failures == ["registration-timeout"]
        assert not scenario.mh.registered

    def test_retries_back_off_exponentially(self):
        scenario = build_scenario(seed=51, ch_awareness=None,
                                  mobile_starts_away=False)
        scenario.ha.interfaces["eth0"].up = False
        start = scenario.sim.now
        scenario.mh.move_to(scenario.net, "visited")
        scenario.sim.run_for(40)
        sends = [
            entry.time - start for entry in scenario.sim.trace.entries
            if entry.node == "mh" and entry.action == "send"
            and entry.dst == str(scenario.ha_ip) and entry.proto == "UDP"
        ]
        assert len(sends) == 5  # original + REGISTRATION_MAX_RETRIES
        gaps = [b - a for a, b in zip(sends, sends[1:])]
        # First retry after exactly the base interval (no jitter draw in
        # the common path); each later gap doubles, plus up to +10%.
        assert gaps[0] == 1.0
        for index, gap in enumerate(gaps[1:], start=1):
            nominal = 2.0 ** (index)
            assert nominal <= gap <= nominal * 1.1 + 1e-9
        assert gaps == sorted(gaps)

    def test_giveup_clears_retry_state_and_counts_failure(self):
        scenario = build_scenario(seed=52, ch_awareness=None,
                                  mobile_starts_away=False)
        scenario.ha.interfaces["eth0"].up = False
        scenario.mh.move_to(scenario.net, "visited")
        scenario.sim.run_for(40)  # give-up lands around t=31
        mh = scenario.mh
        assert mh.registration_failures == 1
        assert not mh.registered
        # The stale retry handle is cleared on give-up, so a later
        # cancel cannot spuriously cancel an already-run event.
        assert mh._pending_retry is None
        assert mh._pending_ident is None
        counter = scenario.sim.metrics.get("mh.registration_failures", node="mh")
        assert counter.value == 1
        mh._cancel_pending_registration()  # harmless on cleared state

    def test_reregisters_after_giveup_when_ha_returns(self):
        scenario = build_scenario(seed=53, ch_awareness=None,
                                  mobile_starts_away=False)
        ha_iface = scenario.ha.interfaces["eth0"]
        ha_iface.up = False
        scenario.mh.move_to(scenario.net, "visited")
        # Home agent returns well after the first cycle's give-up (~31s);
        # the post-give-up re-registration timer must pick it back up.
        scenario.sim.events.schedule(40.0, lambda: setattr(ha_iface, "up", True))
        scenario.sim.run_for(80)
        assert scenario.mh.registration_failures == 1
        assert scenario.mh.registered

    def test_registration_uses_temporary_address(self):
        """§6.4: registration itself is Out-DT — verify on the wire."""
        scenario = build_scenario(seed=49, ch_awareness=None,
                                  mobile_starts_away=False)
        scenario.mh.move_to(scenario.net, "visited")
        scenario.sim.run_for(10)
        reg_sends = [
            entry for entry in scenario.sim.trace.entries
            if entry.node == "mh" and entry.action == "send"
            and entry.dst == str(scenario.ha_ip) and entry.proto == "UDP"
        ]
        assert reg_sends
        assert all(entry.src == str(scenario.mh.care_of) for entry in reg_sends)

    def test_on_registered_callback(self):
        scenario = build_scenario(seed=50, ch_awareness=None,
                                  mobile_starts_away=False)
        replies = []
        scenario.mh.on_registered = replies.append
        scenario.mh.move_to(scenario.net, "visited")
        scenario.sim.run_for(10)
        assert len(replies) == 1 and replies[0].accepted


class TestRouteOverride:
    def test_at_home_no_interception(self):
        scenario = build_scenario(seed=51, mobile_starts_away=False,
                                  ch_awareness=Awareness.CONVENTIONAL)
        got = []
        sock = scenario.ch.stack.udp_socket(5000)
        sock.on_receive(lambda d, s, ip, p: got.append(str(ip)))
        mh_sock = scenario.mh.stack.udp_socket()
        mh_sock.sendto("x", 10, scenario.ch_ip, 5000)
        scenario.sim.run_for(5)
        assert got == [str(MH_HOME_ADDRESS)]
        assert scenario.mh.tunnel.encapsulated_count == 0

    def test_privacy_mode_tunnels_everything(self):
        scenario = build_scenario(seed=52, privacy=True,
                                  ch_awareness=Awareness.CONVENTIONAL)
        got = []
        # Port 53 would normally take the Out-DT shortcut; privacy
        # overrides the heuristic and uses the home address anyway.
        sock = scenario.ch.stack.udp_socket(53)
        sock.on_receive(lambda d, s, ip, p: got.append(str(ip)))
        mh_sock = scenario.mh.stack.udp_socket()
        mh_sock.sendto("x", 10, scenario.ch_ip, 53)
        scenario.sim.run_for(10)
        assert got == [str(MH_HOME_ADDRESS)]
        assert scenario.mh.tunnel.encapsulated_count >= 1

    def test_out_dt_bypasses_mobile_ip(self):
        scenario = build_scenario(seed=53, ch_awareness=Awareness.CONVENTIONAL)
        got = []
        sock = scenario.ch.stack.udp_socket(53)
        sock.on_receive(lambda d, s, ip, p: got.append(str(ip)))
        mh_sock = scenario.mh.stack.udp_socket()
        mh_sock.sendto("query", 30, scenario.ch_ip, 53)
        scenario.sim.run_for(5)
        assert got == [str(scenario.mh.care_of)]
        assert scenario.mh.tunnel.encapsulated_count == 0

    def test_out_ie_wire_format(self):
        """Figure 7 on the wire: s=COA, d=HA, S=home, D=CH."""
        policy = MobilityPolicyTable()  # default pessimistic -> Out-IE
        scenario = build_scenario(seed=54, policy=policy,
                                  ch_awareness=Awareness.CONVENTIONAL)
        captured = []
        original = scenario.mh.tunnel.send_encapsulated

        def spy(inner, outer_src, outer_dst, scheme=None):
            outer = original(inner, outer_src, outer_dst, scheme)
            captured.append(outer)
            return outer

        scenario.mh.tunnel.send_encapsulated = spy
        mh_sock = scenario.mh.stack.udp_socket()
        mh_sock.sendto("x", 10, scenario.ch_ip, 9999,
                       src_override=MH_HOME_ADDRESS)
        scenario.sim.run_for(5)
        assert len(captured) == 1
        outer = captured[0]
        assert outer.src == scenario.mh.care_of
        assert outer.dst == scenario.ha_ip
        assert outer.innermost.src == MH_HOME_ADDRESS
        assert outer.innermost.dst == scenario.ch_ip

    def test_same_segment_uses_link_direct(self):
        """Row C: CH on the visited LAN, one link-layer hop, no routers."""
        scenario = build_scenario(seed=55, ch_awareness=Awareness.CONVENTIONAL,
                                  ch_in_visited_lan=True,
                                  strategy=ProbeStrategy.CONSERVATIVE_FIRST)
        got = []
        sock = scenario.ch.stack.udp_socket(7000)
        sock.on_receive(lambda d, s, ip, p: got.append(str(ip)))
        mh_sock = scenario.mh.stack.udp_socket()
        mh_sock.sendto("x", 10, scenario.ch_ip, 7000,
                       src_override=MH_HOME_ADDRESS)
        scenario.sim.run_for(5)
        assert got == [str(MH_HOME_ADDRESS)]
        # No router forwarded it and nothing was encapsulated.
        assert scenario.mh.tunnel.encapsulated_count == 0
        lan_name = scenario.visited.lan_segment_name
        deliveries = [e for e in scenario.sim.trace.entries
                      if e.action == "deliver" and e.node == "ch"]
        assert deliveries and all("forward" != e.action for e in deliveries)

    def test_registration_traffic_never_intercepted(self):
        scenario = build_scenario(seed=56, ch_awareness=None)
        # Registration completed despite the override being installed.
        assert scenario.mh.registered
        assert scenario.mh.tunnel.encapsulated_count == 0


class TestReceivePaths:
    def test_in_ie_reception(self):
        scenario = build_scenario(seed=57, ch_awareness=Awareness.CONVENTIONAL)
        got = []
        sock = scenario.mh.stack.udp_socket(8000)
        sock.on_receive(lambda d, s, ip, p: got.append(d))
        ch_sock = scenario.ch.stack.udp_socket()
        ch_sock.sendto("via-ha", 20, MH_HOME_ADDRESS, 8000)
        scenario.sim.run_for(10)
        assert got == ["via-ha"]
        assert scenario.mh.tunnel.decapsulated_count == 1

    def test_in_de_reception_learns_awareness(self):
        scenario = build_scenario(seed=58, ch_awareness=Awareness.MOBILE_AWARE)
        scenario.ch.learn_binding(MH_HOME_ADDRESS, scenario.mh.care_of, 300.0)
        got = []
        sock = scenario.mh.stack.udp_socket(8000)
        sock.on_receive(lambda d, s, ip, p: got.append(d))
        ch_sock = scenario.ch.stack.udp_socket()
        ch_sock.sendto("direct", 20, MH_HOME_ADDRESS, 8000)
        scenario.sim.run_for(10)
        assert got == ["direct"]
        assert scenario.ha.packets_tunneled == 0
        knowledge = scenario.mh.engine.knowledge_for(scenario.ch_ip)
        assert knowledge.mobile_aware is True

    def test_in_dt_reception(self):
        scenario = build_scenario(seed=59, ch_awareness=Awareness.CONVENTIONAL)
        got = []
        sock = scenario.mh.stack.udp_socket(8000)
        sock.on_receive(lambda d, s, ip, p: got.append((d, str(ip))))
        ch_sock = scenario.ch.stack.udp_socket()
        ch_sock.sendto("to-coa", 20, scenario.mh.care_of, 8000)
        scenario.sim.run_for(10)
        assert got == [("to-coa", str(scenario.ch_ip))]

    def test_icmp_proto_unreachable_teaches_engine(self):
        """Extension: a CH that cannot decapsulate says so via ICMP."""
        scenario = build_scenario(seed=60, ch_awareness=Awareness.CONVENTIONAL,
                                  strategy=ProbeStrategy.AGGRESSIVE_FIRST,
                                  visited_filtering=False)
        # Force Out-DE by marking DH failed.
        scenario.mh.engine.cache.mode_for(scenario.ch_ip)
        scenario.mh.engine.cache.on_suspect(scenario.ch_ip)
        mh_sock = scenario.mh.stack.udp_socket()
        mh_sock.sendto("x", 10, scenario.ch_ip, 9999,
                       src_override=MH_HOME_ADDRESS)
        scenario.sim.run_for(10)
        assert scenario.mh.engine.knowledge_for(scenario.ch_ip).decap_capable is False
