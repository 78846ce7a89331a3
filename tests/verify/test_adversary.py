"""Adversarial hardening: spoofing, replay, and malformed tunnels."""

import pytest

from repro.analysis.scenarios import MH_HOME_ADDRESS, build_scenario
from repro.experiment import ADVERSARY_KINDS
from repro.mobileip.registration import (
    RegistrationRequest,
    ReplyCode,
    compute_authenticator,
)
from repro.verify.adversary import Adversary

KEY = "shared-secret"


def build_stage(auth_key=None):
    scenario = build_scenario(auth_key=auth_key)
    adversary = Adversary("adv", scenario.sim)
    scenario.net.add_host("visited", adversary)
    return scenario, adversary


def settle(scenario, duration=5.0):
    scenario.sim.run(until=scenario.sim.now + duration)


class TestSpoofing:
    def test_spoof_rejected_when_authentication_is_on(self):
        scenario, adversary = build_stage(auth_key=KEY)
        legit_care_of = scenario.mh.care_of
        adversary.spoof_registration(scenario.ha_ip, MH_HOME_ADDRESS)
        settle(scenario)
        assert adversary.replies
        assert adversary.replies[-1].code is ReplyCode.DENIED_FAILED_AUTHENTICATION
        assert scenario.ha.auth_failures == 1
        # The legitimate binding is untouched: traffic still reaches mh.
        binding = scenario.ha.bindings.peek(MH_HOME_ADDRESS)
        assert binding is not None
        assert binding.care_of_address == legit_care_of

    def test_spoof_hijacks_an_unauthenticated_agent(self):
        """Without a key the agent is as trusting as the paper's
        original design — the attack the auth extension exists for."""
        scenario, adversary = build_stage(auth_key=None)
        adversary.spoof_registration(scenario.ha_ip, MH_HOME_ADDRESS)
        settle(scenario)
        assert adversary.replies
        assert adversary.replies[-1].code is ReplyCode.ACCEPTED
        binding = scenario.ha.bindings.peek(MH_HOME_ADDRESS)
        assert binding is not None
        assert binding.care_of_address != scenario.mh.care_of  # hijacked

    def test_guessed_authenticator_still_rejected(self):
        scenario, adversary = build_stage(auth_key=KEY)
        adversary.spoof_registration(
            scenario.ha_ip, MH_HOME_ADDRESS, auth=0xDEADBEEF)
        settle(scenario)
        assert adversary.replies[-1].code is ReplyCode.DENIED_FAILED_AUTHENTICATION


class TestReplay:
    def _captured_request(self, scenario, ident):
        """A verbatim copy of a legitimate request: valid authenticator
        (the attacker has the bytes, not the key), chosen ident."""
        care_of = scenario.mh.care_of
        lifetime = scenario.mh.reg_lifetime
        return RegistrationRequest(
            home_address=MH_HOME_ADDRESS,
            care_of_address=care_of,
            lifetime=lifetime,
            ident=ident,
            auth=compute_authenticator(
                KEY, MH_HOME_ADDRESS, care_of, lifetime, ident),
        )

    def test_replay_rejected_by_ident_protection(self):
        scenario, adversary = build_stage(auth_key=KEY)
        # Ident 1 predates the mobile host's own registration, so the
        # authenticator verifies but the ident check must trip.
        adversary.capture(self._captured_request(scenario, ident=1))
        adversary.replay_captured(scenario.ha_ip)
        settle(scenario)
        assert adversary.replies
        assert adversary.replies[-1].code is ReplyCode.DENIED_IDENT_MISMATCH
        assert scenario.ha.replays_rejected == 1
        # The binding survives with the legitimate care-of address.
        binding = scenario.ha.bindings.peek(MH_HOME_ADDRESS)
        assert binding is not None
        assert binding.care_of_address == scenario.mh.care_of

    def test_legitimate_reregistration_still_accepted(self):
        """The replay shield must not lock out the real mobile host,
        whose idents keep increasing."""
        scenario, _ = build_stage(auth_key=KEY)
        scenario.mh.register_with_home_agent()
        settle(scenario)
        assert scenario.mh.registered
        assert scenario.ha.replays_rejected == 0


class TestMalformedTunnels:
    def test_bogus_tunnel_payload_is_a_classified_drop(self):
        scenario, adversary = build_stage()
        adversary.send_bogus_tunnel(scenario.ha_ip)
        settle(scenario)
        assert scenario.ha.tunnel.bad_encap_count == 1
        drops = [e for e in scenario.sim.trace.entries
                 if e.action == "drop" and e.detail == "bad-encap"]
        assert len(drops) == 1 and drops[0].node == "ha"

    def test_truncated_minimal_encapsulation_is_a_classified_drop(self):
        scenario, adversary = build_stage()
        adversary.send_truncated_tunnel(scenario.ha_ip)
        settle(scenario)
        assert scenario.ha.tunnel.bad_encap_count == 1

    def test_malformed_tunnels_never_escape_as_exceptions(self):
        """The engine survives a barrage at every decap-capable node and
        ordinary traffic keeps flowing afterwards."""
        scenario, adversary = build_stage()
        monitor = scenario.sim.enable_invariants()
        for target in (scenario.ha_ip, scenario.mh.care_of):
            adversary.send_bogus_tunnel(target)
            adversary.send_truncated_tunnel(target)
        settle(scenario)
        scenario.mh.register_with_home_agent()
        settle(scenario)
        assert scenario.mh.registered
        monitor.finish(scenario.sim.now)
        assert monitor.ok, [str(v) for v in monitor.violations]

    def test_schedule_drives_attacks_through_the_event_engine(self):
        """Each spec attack kind, scheduled as the runner does: the
        bogus tunnel hits the victim, the truncated one its agent."""
        scenario, adversary = build_stage()
        for delay, kind in enumerate(ADVERSARY_KINDS, start=1):
            scenario.sim.events.schedule(
                delay, adversary.attack, kind, scenario.ha_ip, scenario.mh)
        settle(scenario)
        assert adversary.attacks_sent == 4
        assert len(adversary.replies) == 2  # spoof and replay answered
        assert scenario.mh.tunnel.bad_encap_count == 1
        assert scenario.ha.tunnel.bad_encap_count == 1

    def test_unknown_schedule_kind_is_refused(self):
        scenario, adversary = build_stage()
        with pytest.raises(ValueError, match="teleport"):
            adversary.attack("teleport", scenario.ha_ip, scenario.mh)
        assert adversary.attacks_sent == 0
